// Tests for Roaring set algebra and PredicateExpr selection vectors,
// including multi-column expression combination over one table.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "btr/predicate.h"
#include "btr/relation.h"
#include "datagen/archetypes.h"
#include "util/random.h"

namespace btr {
namespace {

TEST(RoaringAlgebraTest, AndOrAndNotAgainstReference) {
  Random rng(1);
  RoaringBitmap a, b;
  std::set<u32> ra, rb;
  for (int i = 0; i < 8000; i++) {
    u32 v = static_cast<u32>(rng.NextBounded(1u << 17));
    a.Add(v);
    ra.insert(v);
    v = static_cast<u32>(rng.NextBounded(1u << 17));
    b.Add(v);
    rb.insert(v);
  }
  // Reference results.
  std::set<u32> r_and, r_or, r_andnot;
  for (u32 v : ra) {
    if (rb.count(v)) r_and.insert(v);
    if (!rb.count(v)) r_andnot.insert(v);
  }
  r_or = ra;
  r_or.insert(rb.begin(), rb.end());

  auto check = [](const RoaringBitmap& got, const std::set<u32>& want) {
    std::vector<u32> got_values = got.ToVector();
    std::vector<u32> want_values(want.begin(), want.end());
    EXPECT_EQ(got_values, want_values);
  };
  check(RoaringBitmap::And(a, b), r_and);
  check(RoaringBitmap::Or(a, b), r_or);
  check(RoaringBitmap::AndNot(a, b), r_andnot);
}

TEST(RoaringAlgebraTest, EmptyOperands) {
  RoaringBitmap empty, some;
  some.Add(3);
  some.Add(99999);
  EXPECT_EQ(RoaringBitmap::And(empty, some).Cardinality(), 0u);
  EXPECT_EQ(RoaringBitmap::Or(empty, some).Cardinality(), 2u);
  EXPECT_EQ(RoaringBitmap::AndNot(some, empty).Cardinality(), 2u);
  EXPECT_EQ(RoaringBitmap::AndNot(empty, some).Cardinality(), 0u);
}

RoaringBitmap ReferenceSelectInt(const ByteBuffer& block, i32 value,
                                 const CompressionConfig& config) {
  DecodedBlock decoded;
  DecompressBlock(block.data(), &decoded, config);
  RoaringBitmap out;
  for (u32 i = 0; i < decoded.count; i++) {
    if (!decoded.IsNull(i) && decoded.ints[i] == value) out.Add(i);
  }
  return out;
}

TEST(SelectEqualsTest, IntSchemesMatchReference) {
  CompressionConfig config;
  for (auto archetype : datagen::kAllIntArchetypes) {
    std::vector<i32> data = datagen::MakeInts(archetype, 50000, 7);
    ByteBuffer block;
    CompressBlock(data.data(), nullptr, 50000, &block, config);
    for (i32 probe : {data[0], data[25000], 0, -99}) {
      RoaringBitmap got =
          SelectMatches(block.data(), Predicate::EqualsInt("c", probe), config);
      RoaringBitmap want = ReferenceSelectInt(block, probe, config);
      EXPECT_EQ(got.ToVector(), want.ToVector())
          << datagen::IntArchetypeName(archetype) << " probe " << probe;
      EXPECT_EQ(got.Cardinality(),
                CountMatches(block.data(), Predicate::EqualsInt("c", probe),
                             config));
    }
  }
}

TEST(SelectEqualsTest, FrequencyComplementPath) {
  // Dominant-value probes exercise the AndNot(all, exceptions) path.
  std::vector<i32> data(64000, 7);
  Random rng(2);
  for (int i = 0; i < 500; i++) {
    data[rng.NextBounded(64000)] = static_cast<i32>(rng.NextBounded(100)) + 10;
  }
  CompressionConfig config;
  config.int_schemes = (1u << static_cast<u32>(IntSchemeCode::kUncompressed)) |
                       (1u << static_cast<u32>(IntSchemeCode::kFrequency)) |
                       (1u << static_cast<u32>(IntSchemeCode::kBp128));
  ByteBuffer block;
  BlockCompressionInfo info;
  CompressBlock(data.data(), nullptr, 64000, &block, config, &info);
  ASSERT_EQ(static_cast<IntSchemeCode>(info.root_scheme),
            IntSchemeCode::kFrequency);
  RoaringBitmap got =
      SelectMatches(block.data(), Predicate::EqualsInt("c", 7), config);
  RoaringBitmap want = ReferenceSelectInt(block, 7, config);
  EXPECT_EQ(got.ToVector(), want.ToVector());
}

TEST(SelectEqualsTest, MultiPredicateAcrossColumns) {
  // WHERE city = 'PHOENIX' AND amount = 0.0 evaluated block-wise with
  // selection vectors, verified against row-wise evaluation.
  Relation table("t");
  Column& city = table.AddColumn("city", ColumnType::kString);
  Column& amount = table.AddColumn("amount", ColumnType::kDouble);
  Random rng(3);
  const char* cities[] = {"PHOENIX", "RALEIGH", "BERLIN"};
  constexpr u32 kRows = 30000;
  for (u32 i = 0; i < kRows; i++) {
    city.AppendString(cities[rng.NextBounded(3)]);
    amount.AppendDouble(rng.NextBounded(4) == 0
                            ? 0.0
                            : static_cast<double>(rng.NextBounded(100)));
  }
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(table, config);
  PredicateExpr expr =
      PredicateExpr::And(Predicate::EqualsString("city", "PHOENIX"),
                         Predicate::EqualsDouble("amount", 0.0));
  auto block_of = [&](const std::string& name) -> const u8* {
    return name == "city" ? compressed.columns[0].blocks[0].data()
                          : compressed.columns[1].blocks[0].data();
  };
  EvalResult evaluated = EvaluateExpr(expr, kRows, block_of, config, nullptr);
  RoaringBitmap selection = std::move(evaluated.pass);

  u32 reference = 0;
  RoaringBitmap reference_bitmap;
  for (u32 i = 0; i < kRows; i++) {
    if (city.GetString(i) == "PHOENIX" && amount.doubles()[i] == 0.0) {
      reference++;
      reference_bitmap.Add(i);
    }
  }
  EXPECT_EQ(selection.Cardinality(), reference);
  EXPECT_EQ(selection.ToVector(), reference_bitmap.ToVector());
  EXPECT_GT(reference, 1000u);  // the predicate actually selects something
}

TEST(SelectEqualsTest, NullsExcluded) {
  std::vector<i32> data(5000, 3);
  std::vector<u8> nulls(5000, 0);
  for (int i = 0; i < 5000; i += 5) {
    data[i] = 0;
    nulls[i] = 1;
  }
  CompressionConfig config;
  ByteBuffer block;
  CompressBlock(data.data(), nulls.data(), 5000, &block, config);
  EXPECT_EQ(
      SelectMatches(block.data(), Predicate::EqualsInt("c", 0), config)
          .Cardinality(),
      0u);
  RoaringBitmap threes =
      SelectMatches(block.data(), Predicate::EqualsInt("c", 3), config);
  EXPECT_EQ(threes.Cardinality(), 4000u);
  threes.ForEach([&](u32 position) { EXPECT_NE(position % 5, 0u); });
}

}  // namespace
}  // namespace btr
