// Additional targeted coverage: scheme-mask semantics across types,
// multi-block boundaries with partial tails, ORC's direct string path,
// and decode-slack discipline around block edges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "util/simd.h"
#include "lakeformat/orc_like.h"
#include "util/random.h"

namespace btr {
namespace {

TEST(SchemeMaskTest, DoubleMaskRestrictsChoices) {
  Random rng(1);
  std::vector<double> data(64000);
  for (double& v : data) v = static_cast<double>(rng.NextBounded(50)) / 2.0;
  CompressionConfig config;
  config.double_schemes =
      (1u << static_cast<u32>(DoubleSchemeCode::kUncompressed)) |
      (1u << static_cast<u32>(DoubleSchemeCode::kRle));
  DoubleSchemeCode chosen = PickScheme(data.data(), 64000, config);
  EXPECT_TRUE(chosen == DoubleSchemeCode::kUncompressed ||
              chosen == DoubleSchemeCode::kRle);
  // With the full pool on low-cardinality data, Dict must win instead.
  CompressionConfig full;
  EXPECT_EQ(PickScheme(data.data(), 64000, full), DoubleSchemeCode::kDict);
}

TEST(SchemeMaskTest, StringMaskRestrictsChoices) {
  Relation r("t");
  Column& c = r.AddColumn("s", ColumnType::kString);
  for (int i = 0; i < 30000; i++) {
    c.AppendString(i % 3 == 0 ? "alpha" : "beta");
  }
  std::vector<u32> offsets;
  StringsView view = c.StringBlock(0, 30000, &offsets);
  CompressionConfig config;
  config.string_schemes =
      (1u << static_cast<u32>(StringSchemeCode::kUncompressed));
  EXPECT_EQ(PickScheme(view, config), StringSchemeCode::kUncompressed);
  CompressionConfig full;
  EXPECT_EQ(PickScheme(view, full), StringSchemeCode::kDict);
}

TEST(MultiBlockTest, PartialTailBlock) {
  // 2 full blocks + a 37-value tail; every block round-trips.
  constexpr u32 kRows = 2 * kBlockCapacity + 37;
  Relation relation("t");
  Column& column = relation.AddColumn("x", ColumnType::kInteger);
  Random rng(2);
  for (u32 i = 0; i < kRows; i++) {
    column.AppendInt(static_cast<i32>(rng.NextBounded(100)));
  }
  CompressionConfig config;
  CompressedColumn compressed = CompressColumn(column, config);
  ASSERT_EQ(compressed.blocks.size(), 3u);
  EXPECT_EQ(compressed.block_value_counts[2], 37u);
  Relation back("t");
  CompressedRelation wrapper;
  wrapper.name = "t";
  wrapper.row_count = kRows;
  wrapper.columns.push_back(std::move(compressed));
  Relation restored = MaterializeRelation(wrapper, config);
  ASSERT_EQ(restored.row_count(), kRows);
  for (u32 i = 0; i < kRows; i++) {
    ASSERT_EQ(restored.columns()[0].ints()[i], column.ints()[i]) << i;
  }
}

TEST(OrcDirectStringTest, HighCardinalityUsesDirectEncoding) {
  // Above dictionary_key_size_threshold ORC must switch to direct
  // encoding and still round-trip.
  Relation table("t");
  Column& c = table.AddColumn("s", ColumnType::kString);
  for (int i = 0; i < 20000; i++) {
    c.AppendString("unique-" + std::to_string(i));
  }
  lakeformat::OrcOptions options;
  options.dictionary_key_size_threshold = 0.5;  // 100% distinct > 50%
  ByteBuffer file = lakeformat::WriteOrcLike(table, options);
  Relation back("t");
  ASSERT_TRUE(lakeformat::ReadOrcLike(file.data(), file.size(), &back).ok());
  ASSERT_EQ(back.row_count(), 20000u);
  for (u32 i = 0; i < 20000; i++) {
    ASSERT_EQ(back.columns()[0].GetString(i), c.GetString(i));
  }
}

TEST(DecodeSlackTest, BlockEdgeValuesSurviveOvershoot) {
  // Vectorized RLE intentionally overshoots; the *logical* values at the
  // very end of a block must still be exact for every run phase.
  CompressionConfig config;
  for (u32 tail : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u}) {
    std::vector<i32> data;
    for (u32 run = 0; data.size() < 1000 + tail; run++) {
      u32 len = (run % 2 == 0) ? 7 : tail;
      for (u32 i = 0; i < len; i++) data.push_back(static_cast<i32>(run));
    }
    data.resize(1000 + tail);
    ByteBuffer block;
    CompressBlock(data.data(), nullptr, static_cast<u32>(data.size()),
                  &block, config);
    DecodedBlock decoded;
    DecompressBlock(block.data(), &decoded, config);
    for (size_t i = data.size() - 10; i < data.size(); i++) {
      ASSERT_EQ(decoded.ints[i], data[i]) << "tail " << tail << " i " << i;
    }
  }
}

TEST(FusedDictTest, IntAndDoubleRleCodesDecodeFused) {
  // Long runs of few distinct values: the dictionary's code vector lands
  // on RLE and decompression takes the fused run-broadcast path. The
  // result must match the input exactly for both SIMD and scalar.
  Random rng(9);
  std::vector<i32> ints;
  std::vector<double> doubles;
  while (ints.size() < 64000) {
    i32 iv = static_cast<i32>(rng.NextBounded(20)) * 1000003;  // wide values
    double dv = static_cast<double>(rng.NextBounded(20)) * 1.25;
    u64 run = 5 + rng.NextBounded(60);
    for (u64 j = 0; j < run && ints.size() < 64000; j++) {
      ints.push_back(iv);
      doubles.push_back(dv);
    }
  }
  CompressionConfig config;
  // Force Dict at the root; RLE remains available for the codes cascade.
  config.int_schemes = (1u << static_cast<u32>(IntSchemeCode::kUncompressed)) |
                       (1u << static_cast<u32>(IntSchemeCode::kDict)) |
                       (1u << static_cast<u32>(IntSchemeCode::kRle)) |
                       (1u << static_cast<u32>(IntSchemeCode::kBp128));
  config.double_schemes =
      (1u << static_cast<u32>(DoubleSchemeCode::kUncompressed)) |
      (1u << static_cast<u32>(DoubleSchemeCode::kDict));

  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer int_vec;
  GetScheme(IntSchemeCode::kDict).Compress(ints.data(), 64000, &int_vec, ctx);
  ByteBuffer dbl_vec;
  GetScheme(DoubleSchemeCode::kDict).Compress(doubles.data(), 64000, &dbl_vec,
                                              ctx);

  for (bool simd : {true, false}) {
    ScopedSimd scoped(simd);
    std::vector<i32> int_out(64000 + kDecodeSlack);
    GetScheme(IntSchemeCode::kDict)
        .Decompress(int_vec.data(), 64000, int_out.data());
    int_out.resize(64000);
    EXPECT_EQ(int_out, ints) << "simd=" << simd;

    std::vector<double> dbl_out(64000 + kDecodeSlack);
    GetScheme(DoubleSchemeCode::kDict)
        .Decompress(dbl_vec.data(), 64000, dbl_out.data());
    dbl_out.resize(64000);
    EXPECT_EQ(std::memcmp(dbl_out.data(), doubles.data(), 64000 * 8), 0)
        << "simd=" << simd;
  }
}

TEST(TelemetryTest, SchemeUseHistogram) {
  Telemetry telemetry;
  CompressionConfig config;
  config.telemetry = &telemetry;
  std::vector<i32> constant(64000, 1);
  ByteBuffer block;
  CompressBlock(constant.data(), nullptr, 64000, &block, config);
  const u8 kInt = static_cast<u8>(ColumnType::kInteger);
  const u8 kOneValue = static_cast<u8>(IntSchemeCode::kOneValue);
  EXPECT_EQ(telemetry.scheme_uses_by_depth[0][kInt][kOneValue], 1u);
  telemetry.Reset();
  EXPECT_EQ(telemetry.compress_ns, 0u);
}

}  // namespace
}  // namespace btr
