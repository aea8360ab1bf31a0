// Integer scheme tests: per-scheme round trips, cascading behavior,
// viability filters, and scalar/SIMD equivalence.
#include <gtest/gtest.h>

#include <vector>

#include "btr/scheme_picker.h"
#include "btr/schemes/int_schemes.h"
#include "util/random.h"
#include "util/simd.h"

namespace btr {
namespace {

CompressionConfig DefaultConfig() { return CompressionConfig{}; }

std::vector<i32> RoundTripWithScheme(const IntScheme& scheme,
                                     const std::vector<i32>& in,
                                     const CompressionConfig& config) {
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  scheme.Compress(in.data(), static_cast<u32>(in.size()), &compressed, ctx);
  std::vector<i32> out(in.size() + kDecodeSlack);
  scheme.Decompress(compressed.data(), static_cast<u32>(in.size()), out.data());
  out.resize(in.size());
  return out;
}

std::vector<i32> RoundTripPicked(const std::vector<i32>& in,
                                 const CompressionConfig& config,
                                 IntSchemeCode* chosen = nullptr) {
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  CompressValues(in.data(), static_cast<u32>(in.size()), &compressed, ctx,
                 chosen);
  std::vector<i32> out(in.size() + kDecodeSlack);
  DecompressInts(compressed.data(), static_cast<u32>(in.size()), out.data());
  out.resize(in.size());
  return out;
}

std::vector<i32> MakeRuns(u64 seed, u32 count, u32 max_run, u32 cardinality) {
  Random rng(seed);
  std::vector<i32> v;
  while (v.size() < count) {
    i32 value = static_cast<i32>(rng.NextBounded(cardinality));
    u32 run = 1 + static_cast<u32>(rng.NextBounded(max_run));
    for (u32 i = 0; i < run && v.size() < count; i++) v.push_back(value);
  }
  return v;
}

TEST(IntSchemeTest, OneValueRoundTrip) {
  std::vector<i32> in(64000, -1234);
  auto out = RoundTripWithScheme(GetScheme(IntSchemeCode::kOneValue), in,
                                 DefaultConfig());
  EXPECT_EQ(out, in);
}

TEST(IntSchemeTest, RleRoundTripAndCompression) {
  std::vector<i32> in = MakeRuns(1, 64000, 50, 100);
  CompressionConfig config = DefaultConfig();
  CompressionContext ctx{&config, config.max_cascade_depth};
  const IntScheme& rle = GetScheme(IntSchemeCode::kRle);
  ByteBuffer compressed;
  size_t bytes = rle.Compress(in.data(), 64000, &compressed, ctx);
  EXPECT_LT(bytes, 64000 * 4 / 4);  // long runs must compress well
  std::vector<i32> out(in.size() + kDecodeSlack);
  rle.Decompress(compressed.data(), 64000, out.data());
  out.resize(in.size());
  EXPECT_EQ(out, in);
}

TEST(IntSchemeTest, RleSingleRunAndAlternating) {
  // Degenerate runs: one giant run, and run length 1 everywhere.
  std::vector<i32> giant(10000, 7);
  EXPECT_EQ(RoundTripWithScheme(GetScheme(IntSchemeCode::kRle), giant,
                                DefaultConfig()),
            giant);
  std::vector<i32> alternating;
  for (int i = 0; i < 999; i++) alternating.push_back(i % 2);
  EXPECT_EQ(RoundTripWithScheme(GetScheme(IntSchemeCode::kRle), alternating,
                                DefaultConfig()),
            alternating);
}

TEST(IntSchemeTest, DictRoundTrip) {
  Random rng(2);
  std::vector<i32> in(64000);
  for (i32& v : in) v = static_cast<i32>(rng.NextBounded(250)) * 1000 - 5000;
  auto out = RoundTripWithScheme(GetScheme(IntSchemeCode::kDict), in,
                                 DefaultConfig());
  EXPECT_EQ(out, in);
}

TEST(IntSchemeTest, FrequencyRoundTrip) {
  Random rng(3);
  std::vector<i32> in(64000, 42);  // dominant value with sparse exceptions
  for (int i = 0; i < 640; i++) {
    in[rng.NextBounded(64000)] = static_cast<i32>(rng.Next());
  }
  const IntScheme& freq = GetScheme(IntSchemeCode::kFrequency);
  CompressionConfig config = DefaultConfig();
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  size_t bytes = freq.Compress(in.data(), 64000, &compressed, ctx);
  EXPECT_LT(bytes, 64000 * 4 / 20);
  std::vector<i32> out(in.size() + kDecodeSlack);
  freq.Decompress(compressed.data(), 64000, out.data());
  out.resize(in.size());
  EXPECT_EQ(out, in);
}

TEST(IntSchemeTest, FrequencyAllSameValue) {
  std::vector<i32> in(1000, 5);
  EXPECT_EQ(RoundTripWithScheme(GetScheme(IntSchemeCode::kFrequency), in,
                                DefaultConfig()),
            in);
}

class IntPickerTest : public ::testing::TestWithParam<u64> {};

TEST_P(IntPickerTest, PropertyPickedSchemeRoundTrips) {
  // Property: whatever the picker chooses, the data round-trips exactly.
  Random rng(GetParam());
  std::vector<i32> in;
  u32 shape = static_cast<u32>(rng.NextBounded(6));
  u32 count = 1000 + static_cast<u32>(rng.NextBounded(64000));
  for (u32 i = 0; i < count; i++) {
    switch (shape) {
      case 0: in.push_back(static_cast<i32>(rng.Next())); break;
      case 1: in.push_back(42); break;
      case 2: in.push_back(static_cast<i32>(rng.NextBounded(10))); break;
      case 3: in.push_back(static_cast<i32>(i)); break;
      case 4:
        in.push_back(in.empty() || rng.NextBounded(5) != 0
                         ? static_cast<i32>(rng.NextBounded(100))
                         : in.back());
        break;
      case 5: in.push_back(rng.NextBounded(50) == 0 ? static_cast<i32>(rng.Next())
                                                    : 7);
        break;
    }
  }
  auto out = RoundTripPicked(in, DefaultConfig());
  EXPECT_EQ(out, in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntPickerTest,
                         ::testing::Range<u64>(100, 130));

TEST(IntPickerTest, OneValueChosenForConstantColumn) {
  std::vector<i32> in(64000, 99);
  IntSchemeCode chosen;
  RoundTripPicked(in, DefaultConfig(), &chosen);
  EXPECT_EQ(chosen, IntSchemeCode::kOneValue);
}

TEST(IntPickerTest, BitpackingChosenForDenseUniqueValues) {
  // Unique values in a small range: dict/RLE/frequency are not viable,
  // FOR + bit-packing wins.
  std::vector<i32> in;
  for (i32 i = 0; i < 64000; i++) in.push_back(1000000 + i);
  IntSchemeCode chosen;
  auto out = RoundTripPicked(in, DefaultConfig(), &chosen);
  EXPECT_EQ(out, in);
  EXPECT_TRUE(chosen == IntSchemeCode::kBp128 || chosen == IntSchemeCode::kPfor)
      << "chosen=" << static_cast<int>(chosen);
}

TEST(IntPickerTest, RespectsSchemeMask) {
  CompressionConfig config = DefaultConfig();
  config.int_schemes = 1u << static_cast<u32>(IntSchemeCode::kUncompressed);
  std::vector<i32> in(5000, 3);
  IntSchemeCode chosen;
  auto out = RoundTripPicked(in, config, &chosen);
  EXPECT_EQ(chosen, IntSchemeCode::kUncompressed);
  EXPECT_EQ(out, in);
}

TEST(IntPickerTest, CascadeDepthZeroMeansUncompressed) {
  CompressionConfig config = DefaultConfig();
  config.max_cascade_depth = 0;
  std::vector<i32> in(1000, 3);
  IntSchemeCode chosen;
  RoundTripPicked(in, config, &chosen);
  EXPECT_EQ(chosen, IntSchemeCode::kUncompressed);
}

TEST(IntPickerTest, DeeperCascadesNeverHurt) {
  // Depth 3 output must be no larger than depth 1 on cascade-friendly data.
  std::vector<i32> in = MakeRuns(5, 64000, 200, 30);
  CompressionConfig shallow = DefaultConfig();
  shallow.max_cascade_depth = 1;
  CompressionConfig deep = DefaultConfig();
  deep.max_cascade_depth = 3;
  ByteBuffer shallow_out, deep_out;
  CompressionContext sctx{&shallow, shallow.max_cascade_depth};
  CompressionContext dctx{&deep, deep.max_cascade_depth};
  CompressValues(in.data(), 64000, &shallow_out, sctx);
  CompressValues(in.data(), 64000, &deep_out, dctx);
  EXPECT_LE(deep_out.size(), shallow_out.size());
  EXPECT_LT(deep_out.size(), 64000 * 4 / 10);
}

TEST(IntSchemeTest, ScalarAndSimdDecompressIdentically) {
  Random rng(6);
  std::vector<i32> in = MakeRuns(6, 64000, 20, 500);
  CompressionConfig config = DefaultConfig();
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  CompressValues(in.data(), 64000, &compressed, ctx);
  std::vector<i32> simd(in.size() + kDecodeSlack), scalar(in.size() + kDecodeSlack);
  {
    ScopedSimd on(true);
    DecompressInts(compressed.data(), 64000, simd.data());
  }
  {
    ScopedSimd off(false);
    DecompressInts(compressed.data(), 64000, scalar.data());
  }
  simd.resize(in.size());
  scalar.resize(in.size());
  EXPECT_EQ(simd, in);
  EXPECT_EQ(scalar, in);
}

TEST(IntSchemeTest, TinyInputs) {
  for (u32 count : {1u, 2u, 3u, 7u}) {
    std::vector<i32> in;
    for (u32 i = 0; i < count; i++) in.push_back(static_cast<i32>(i * 3));
    EXPECT_EQ(RoundTripPicked(in, DefaultConfig()), in) << count;
  }
}

}  // namespace
}  // namespace btr
