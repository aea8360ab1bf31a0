// Tests for predicate evaluation on compressed blocks: every fast path
// must agree exactly with decompress-then-count, including NULL handling
// and default-value probes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "btr/predicate.h"
#include "btr/relation.h"
#include "btr/scheme_picker.h"
#include "datagen/archetypes.h"
#include "util/random.h"

namespace btr {
namespace {

CompressionConfig DefaultConfig() { return CompressionConfig{}; }

// Equality counting through the PredicateExpr engine.
u32 CountEqInt(const u8* block, i32 value, const CompressionConfig& config) {
  return CountMatches(block, Predicate::EqualsInt("c", value), config);
}

u32 CountEqDouble(const u8* block, double value,
                  const CompressionConfig& config) {
  return CountMatches(block, Predicate::EqualsDouble("c", value), config);
}

u32 CountEqString(const u8* block, std::string_view value,
                  const CompressionConfig& config) {
  return CountMatches(block, Predicate::EqualsString("c", std::string(value)),
                      config);
}

// Reference count via full materialization.
u32 ReferenceCountInt(const ByteBuffer& block, i32 value,
                      const CompressionConfig& config) {
  DecodedBlock decoded;
  DecompressBlock(block.data(), &decoded, config);
  u32 matches = 0;
  for (u32 i = 0; i < decoded.count; i++) {
    if (!decoded.IsNull(i) && decoded.ints[i] == value) matches++;
  }
  return matches;
}

TEST(CompressedScanTest, IntAllSchemes) {
  using datagen::IntArchetype;
  CompressionConfig config = DefaultConfig();
  Random rng(1);
  for (IntArchetype archetype : datagen::kAllIntArchetypes) {
    std::vector<i32> data = datagen::MakeInts(archetype, 64000, 3);
    ByteBuffer block;
    CompressBlock(data.data(), nullptr, 64000, &block, config);
    // Probe existing values and absent ones.
    std::vector<i32> probes = {data[0], data[100], data[63999], 0, -1,
                               2147483647};
    for (i32 probe : probes) {
      EXPECT_EQ(CountEqInt(block.data(), probe, config),
                ReferenceCountInt(block, probe, config))
          << datagen::IntArchetypeName(archetype) << " probe " << probe;
    }
  }
}

TEST(CompressedScanTest, ForcedSchemesMatchReference) {
  // Force each root scheme in turn so every fast path is exercised even
  // if the picker would have chosen differently.
  CompressionConfig config = DefaultConfig();
  Random rng(2);
  std::vector<i32> data(50000);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<i32>(rng.NextZipf(50, 1.3)) * 7;
  }
  for (IntSchemeCode code :
       {IntSchemeCode::kRle, IntSchemeCode::kDict, IntSchemeCode::kFrequency,
        IntSchemeCode::kBp128, IntSchemeCode::kPfor,
        IntSchemeCode::kUncompressed}) {
    CompressionConfig forced = config;
    forced.int_schemes = (1u << static_cast<u32>(IntSchemeCode::kUncompressed)) |
                         (1u << static_cast<u32>(code)) |
                         (1u << static_cast<u32>(IntSchemeCode::kBp128));
    ByteBuffer block;
    BlockCompressionInfo info;
    CompressBlock(data.data(), nullptr, 50000, &block, forced, &info);
    for (i32 probe : {0, 7, 14, 63, 350, -5}) {
      EXPECT_EQ(CountEqInt(block.data(), probe, forced),
                ReferenceCountInt(block, probe, forced))
          << "scheme " << static_cast<int>(info.root_scheme) << " probe "
          << probe;
    }
  }
}

TEST(CompressedScanTest, NullsNeverMatch) {
  CompressionConfig config = DefaultConfig();
  std::vector<i32> data(10000, 5);
  std::vector<u8> nulls(10000, 0);
  for (int i = 0; i < 10000; i += 3) {
    data[i] = 0;  // null rows hold the default value 0
    nulls[i] = 1;
  }
  ByteBuffer block;
  CompressBlock(data.data(), nulls.data(), 10000, &block, config);
  // Probing 0 must not count the NULL rows.
  EXPECT_EQ(CountEqInt(block.data(), 0, config), 0u);
  EXPECT_EQ(CountEqInt(block.data(), 5, config),
            10000u - (10000u + 2) / 3);
}

TEST(CompressedScanTest, DoubleSchemes) {
  CompressionConfig config = DefaultConfig();
  using datagen::DoubleArchetype;
  for (DoubleArchetype archetype :
       {DoubleArchetype::kZeroDominant, DoubleArchetype::kPriceRuns,
        DoubleArchetype::kFrequencyTail, DoubleArchetype::kPrice2Decimals,
        DoubleArchetype::kCoordinates}) {
    std::vector<double> data = datagen::MakeDoubles(archetype, 50000, 9);
    ByteBuffer block;
    CompressBlock(data.data(), nullptr, 50000, &block, config);
    DecodedBlock decoded;
    DecompressBlock(block.data(), &decoded, config);
    for (double probe : {data[0], data[777], 0.0, -12345.678}) {
      u64 probe_bits;
      std::memcpy(&probe_bits, &probe, 8);
      u32 reference = 0;
      for (u32 i = 0; i < decoded.count; i++) {
        u64 b;
        std::memcpy(&b, &decoded.doubles[i], 8);
        reference += b == probe_bits;
      }
      EXPECT_EQ(CountEqDouble(block.data(), probe, config), reference)
          << datagen::DoubleArchetypeName(archetype) << " probe " << probe;
    }
  }
}

TEST(CompressedScanTest, StringSchemes) {
  CompressionConfig config = DefaultConfig();
  Relation r("t");
  Column& c = r.AddColumn("s", ColumnType::kString);
  datagen::FillString(&c, datagen::StringArchetype::kCityNames, 64000, 4);
  std::vector<u32> scratch;
  StringsView view = c.StringBlock(0, 64000, &scratch);
  ByteBuffer block;
  CompressBlock(view, nullptr, &block, config);

  DecodedBlock decoded;
  DecompressBlock(block.data(), &decoded, config);
  for (std::string_view probe :
       {std::string_view("PHOENIX"), std::string_view("01 BRONX"),
        std::string_view("NOT PRESENT"), std::string_view("")}) {
    u32 reference = 0;
    for (u32 i = 0; i < decoded.count; i++) {
      reference += decoded.strings.Get(i) == probe;
    }
    EXPECT_EQ(CountEqString(block.data(), probe, config), reference)
        << probe;
  }
}

TEST(CompressedScanTest, OneValueFastPath) {
  CompressionConfig config = DefaultConfig();
  std::vector<i32> data(64000, 42);
  ByteBuffer block;
  CompressBlock(data.data(), nullptr, 64000, &block, config);
  EXPECT_TRUE(HasFastPath(block.data(), Predicate::EqualsInt("c", 42)));
  EXPECT_TRUE(HasFastPath(block.data(), Predicate::InInt("c", {41, 42})));
  EXPECT_EQ(CountEqInt(block.data(), 42, config), 64000u);
  EXPECT_EQ(CountEqInt(block.data(), 43, config), 0u);
}

TEST(CompressedScanTest, FastPathDetection) {
  CompressionConfig config = DefaultConfig();
  // Sequential unique ints land on bit-packing: no fast path.
  std::vector<i32> seq(64000);
  for (i32 i = 0; i < 64000; i++) seq[i] = i;
  ByteBuffer bp_block;
  CompressBlock(seq.data(), nullptr, 64000, &bp_block, config);
  ASSERT_EQ(PeekBlockScheme(bp_block.data()),
            static_cast<u8>(IntSchemeCode::kBp128));
  // Equality rides the Bp128 miniblock envelopes; IN decodes into scratch.
  EXPECT_TRUE(HasFastPath(bp_block.data(), Predicate::EqualsInt("c", 5)));
  EXPECT_FALSE(HasFastPath(bp_block.data(), Predicate::InInt("c", {5, 6})));
  // ...but the count is still exact via the fallback.
  EXPECT_EQ(CountEqInt(bp_block.data(), 12345, config), 1u);
  EXPECT_EQ(CountEqInt(bp_block.data(), -1, config), 0u);
}

class CompressedScanPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(CompressedScanPropertyTest, RandomBlocksAgreeWithReference) {
  Random rng(GetParam());
  CompressionConfig config = DefaultConfig();
  u32 count = 1000 + static_cast<u32>(rng.NextBounded(30000));
  std::vector<i32> data(count);
  u32 cardinality = 1 + static_cast<u32>(rng.NextBounded(200));
  for (u32 i = 0; i < count; i++) {
    data[i] = static_cast<i32>(rng.NextBounded(cardinality)) - 50;
  }
  std::vector<u8> nulls(count, 0);
  bool with_nulls = rng.NextBounded(2) == 0;
  if (with_nulls) {
    for (u32 i = 0; i < count; i++) {
      if (rng.NextBounded(10) == 0) {
        nulls[i] = 1;
        data[i] = 0;
      }
    }
  }
  ByteBuffer block;
  CompressBlock(data.data(), with_nulls ? nulls.data() : nullptr, count,
                &block, config);
  for (int p = 0; p < 10; p++) {
    i32 probe = static_cast<i32>(rng.NextBounded(cardinality + 20)) - 60;
    EXPECT_EQ(CountEqInt(block.data(), probe, config),
              ReferenceCountInt(block, probe, config))
        << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedScanPropertyTest,
                         ::testing::Range<u64>(400, 415));

}  // namespace
}  // namespace btr
