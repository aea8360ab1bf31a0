// Double scheme tests, with emphasis on Pseudodecimal Encoding's
// bitwise-lossless guarantee (paper Section 4).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "btr/scheme_picker.h"
#include "btr/schemes/double_schemes.h"
#include "util/random.h"
#include "util/simd.h"

namespace btr {
namespace {

CompressionConfig DefaultConfig() { return CompressionConfig{}; }

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> RoundTripPicked(const std::vector<double>& in,
                                    const CompressionConfig& config,
                                    DoubleSchemeCode* chosen = nullptr) {
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  CompressValues(in.data(), static_cast<u32>(in.size()), &compressed, ctx,
                 chosen);
  std::vector<double> out(in.size() + kDecodeSlack);
  DecompressDoubles(compressed.data(), static_cast<u32>(in.size()), out.data());
  out.resize(in.size());
  return out;
}

std::vector<double> RoundTripWithScheme(DoubleSchemeCode code,
                                        const std::vector<double>& in) {
  CompressionConfig config = DefaultConfig();
  CompressionContext ctx{&config, config.max_cascade_depth};
  const DoubleScheme& scheme = GetScheme(code);
  ByteBuffer compressed;
  scheme.Compress(in.data(), static_cast<u32>(in.size()), &compressed, ctx);
  std::vector<double> out(in.size() + kDecodeSlack);
  scheme.Decompress(compressed.data(), static_cast<u32>(in.size()), out.data());
  out.resize(in.size());
  return out;
}

// --- Pseudodecimal single-value encoding (paper Listing 2) -------------------

TEST(PseudodecimalTest, EncodesPriceData) {
  using pseudodecimal::EncodeSingle;
  auto d = EncodeSingle(3.25);
  EXPECT_EQ(d.digits, 325);
  EXPECT_EQ(d.exp, 2u);
  d = EncodeSingle(0.99);
  EXPECT_EQ(d.digits, 99);
  EXPECT_EQ(d.exp, 2u);
  d = EncodeSingle(-6.425);
  EXPECT_EQ(d.digits, -6425);
  EXPECT_EQ(d.exp, 3u);
  d = EncodeSingle(42.0);
  EXPECT_EQ(d.digits, 42);
  EXPECT_EQ(d.exp, 0u);
}

TEST(PseudodecimalTest, DecodeIsBitwiseInverse) {
  using pseudodecimal::DecodeSingle;
  using pseudodecimal::EncodeSingle;
  using pseudodecimal::kExponentException;
  Random rng(1);
  int encoded_count = 0;
  for (int i = 0; i < 100000; i++) {
    double v = static_cast<double>(rng.NextRange(-1000000, 1000000)) / 100.0;
    auto d = EncodeSingle(v);
    if (d.exp == kExponentException) continue;  // rare: patched (lossless)
    double back = DecodeSingle(d.digits, d.exp);
    u64 a, b;
    std::memcpy(&a, &v, 8);
    std::memcpy(&b, &back, 8);
    ASSERT_EQ(a, b) << v;
    encoded_count++;
  }
  // Most 2-decimal values encode without patch even at 8 significant
  // digits, where double rounding makes the exactness check borderline.
  EXPECT_GT(encoded_count, 85000);
  // Small-digit prices (the paper's motivating case) encode essentially
  // always.
  int small_encoded = 0;
  for (int k = -9999; k <= 9999; k++) {
    double v = static_cast<double>(k) / 100.0;
    if (EncodeSingle(v).exp != kExponentException) small_encoded++;
  }
  EXPECT_GT(small_encoded, 19900);
}

TEST(PseudodecimalTest, SpecialsBecomePatches) {
  using pseudodecimal::EncodeSingle;
  using pseudodecimal::kExponentException;
  EXPECT_EQ(EncodeSingle(-0.0).exp, kExponentException);
  EXPECT_EQ(EncodeSingle(std::numeric_limits<double>::infinity()).exp,
            kExponentException);
  EXPECT_EQ(EncodeSingle(-std::numeric_limits<double>::infinity()).exp,
            kExponentException);
  EXPECT_EQ(EncodeSingle(std::numeric_limits<double>::quiet_NaN()).exp,
            kExponentException);
  EXPECT_EQ(EncodeSingle(5.5e-42).exp, kExponentException);
  EXPECT_EQ(EncodeSingle(1e300).exp, kExponentException);
  // 0.1 + 0.2 is not exactly 0.3 but IS exactly representable as decimal
  // with more digits... check it encodes or patches, never corrupts.
  auto d = EncodeSingle(0.1 + 0.2);
  if (d.exp != kExponentException) {
    EXPECT_EQ(pseudodecimal::DecodeSingle(d.digits, d.exp), 0.1 + 0.2);
  }
  // +0.0 must NOT be a patch (only -0.0 is).
  EXPECT_EQ(EncodeSingle(0.0).exp, 0u);
  EXPECT_EQ(EncodeSingle(0.0).digits, 0);
}

TEST(PseudodecimalTest, BlockRoundTripWithPatches) {
  Random rng(2);
  std::vector<double> in;
  for (int i = 0; i < 64000; i++) {
    switch (rng.NextBounded(10)) {
      case 0: in.push_back(-0.0); break;
      case 1: in.push_back(std::numeric_limits<double>::quiet_NaN()); break;
      case 2: in.push_back(rng.NextDouble() * 1e-200); break;  // patches
      default:
        in.push_back(static_cast<double>(rng.NextRange(-100000, 100000)) / 100.0);
    }
  }
  auto out = RoundTripWithScheme(DoubleSchemeCode::kPseudodecimal, in);
  EXPECT_TRUE(BitwiseEqual(in, out));
}

TEST(PseudodecimalTest, ScalarSimdEquivalence) {
  Random rng(3);
  std::vector<double> in;
  for (int i = 0; i < 10000; i++) {
    in.push_back(i % 97 == 0 ? 1e-300
                             : static_cast<double>(rng.NextBounded(100000)) / 1000.0);
  }
  CompressionConfig config = DefaultConfig();
  CompressionContext ctx{&config, config.max_cascade_depth};
  const DoubleScheme& pde = GetScheme(DoubleSchemeCode::kPseudodecimal);
  ByteBuffer compressed;
  pde.Compress(in.data(), static_cast<u32>(in.size()), &compressed, ctx);
  std::vector<double> simd(in.size() + kDecodeSlack),
      scalar(in.size() + kDecodeSlack);
  {
    ScopedSimd on(true);
    pde.Decompress(compressed.data(), static_cast<u32>(in.size()), simd.data());
  }
  {
    ScopedSimd off(false);
    pde.Decompress(compressed.data(), static_cast<u32>(in.size()), scalar.data());
  }
  simd.resize(in.size());
  scalar.resize(in.size());
  EXPECT_TRUE(BitwiseEqual(simd, in));
  EXPECT_TRUE(BitwiseEqual(scalar, in));
}

TEST(PseudodecimalTest, ViabilityFilters) {
  CompressionConfig config = DefaultConfig();
  const DoubleScheme& pde = GetScheme(DoubleSchemeCode::kPseudodecimal);
  CompressionContext ctx{&config, config.max_cascade_depth};
  // < 10% unique: excluded (paper Section 4.2).
  {
    std::vector<double> in(64000);
    for (size_t i = 0; i < in.size(); i++) in[i] = static_cast<double>(i % 10);
    DoubleStats stats = ComputeStats(in.data(), 64000);
    DoubleSample sample = BuildSample(in.data(), 64000, config);
    EXPECT_EQ(pde.EstimateRatio(stats, sample, ctx), 0.0);
  }
  // > 50% exceptions: excluded.
  {
    Random rng(4);
    std::vector<double> in(64000);
    for (double& v : in) v = rng.NextDouble() * 1e-250;
    DoubleStats stats = ComputeStats(in.data(), 64000);
    DoubleSample sample = BuildSample(in.data(), 64000, config);
    EXPECT_EQ(pde.EstimateRatio(stats, sample, ctx), 0.0);
  }
}

// --- Other double schemes ------------------------------------------------------

TEST(DoubleSchemeTest, OneValueDictRleFrequencyRoundTrip) {
  Random rng(5);
  std::vector<double> constant(10000, 3.14);
  EXPECT_TRUE(BitwiseEqual(
      RoundTripWithScheme(DoubleSchemeCode::kOneValue, constant), constant));

  std::vector<double> dictionary;
  for (int i = 0; i < 10000; i++) {
    dictionary.push_back(static_cast<double>(rng.NextBounded(50)) * 1.5);
  }
  EXPECT_TRUE(BitwiseEqual(
      RoundTripWithScheme(DoubleSchemeCode::kDict, dictionary), dictionary));

  std::vector<double> runs;
  while (runs.size() < 10000) {
    double v = static_cast<double>(rng.NextBounded(100));
    for (u64 j = 0; j < 1 + rng.NextBounded(30) && runs.size() < 10000; j++) {
      runs.push_back(v);
    }
  }
  EXPECT_TRUE(BitwiseEqual(RoundTripWithScheme(DoubleSchemeCode::kRle, runs),
                           runs));

  std::vector<double> skewed(10000, 0.0);
  for (int i = 0; i < 100; i++) skewed[rng.NextBounded(10000)] = rng.NextDouble();
  EXPECT_TRUE(BitwiseEqual(
      RoundTripWithScheme(DoubleSchemeCode::kFrequency, skewed), skewed));
}

TEST(DoubleSchemeTest, SignedZerosSurviveEverywhere) {
  std::vector<double> in = {0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 1.5, -0.0};
  for (auto code : {DoubleSchemeCode::kUncompressed, DoubleSchemeCode::kRle,
                    DoubleSchemeCode::kDict, DoubleSchemeCode::kFrequency,
                    DoubleSchemeCode::kPseudodecimal}) {
    EXPECT_TRUE(BitwiseEqual(RoundTripWithScheme(code, in), in))
        << DoubleSchemeName(code);
  }
}

class DoublePickerTest : public ::testing::TestWithParam<u64> {};

TEST_P(DoublePickerTest, PropertyPickedSchemeRoundTrips) {
  Random rng(GetParam());
  u32 shape = static_cast<u32>(rng.NextBounded(5));
  u32 count = 500 + static_cast<u32>(rng.NextBounded(64000));
  std::vector<double> in;
  for (u32 i = 0; i < count; i++) {
    switch (shape) {
      case 0: {
        u64 bits = rng.Next();
        double d;
        std::memcpy(&d, &bits, 8);
        in.push_back(d);
        break;
      }
      case 1: in.push_back(9.75); break;
      case 2:
        in.push_back(static_cast<double>(rng.NextBounded(10000)) / 100.0);
        break;
      case 3: in.push_back(static_cast<double>(rng.NextBounded(8))); break;
      case 4:
        in.push_back(in.empty() || rng.NextBounded(3) != 0 ? rng.NextDouble()
                                                           : in.back());
        break;
    }
  }
  auto out = RoundTripPicked(in, DefaultConfig());
  EXPECT_TRUE(BitwiseEqual(in, out)) << "shape=" << shape;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoublePickerTest,
                         ::testing::Range<u64>(200, 225));

TEST(DoublePickerTest, PriceColumnPrefersPseudodecimal) {
  // Unique-ish price data in one range: PDE's favorable case
  // (paper Section 6.5).
  Random rng(7);
  std::vector<double> in;
  for (int i = 0; i < 64000; i++) {
    in.push_back(static_cast<double>(10000 + i) +
                 static_cast<double>(rng.NextBounded(100)) / 100.0);
  }
  DoubleSchemeCode chosen;
  auto out = RoundTripPicked(in, DefaultConfig(), &chosen);
  EXPECT_TRUE(BitwiseEqual(in, out));
  EXPECT_EQ(chosen, DoubleSchemeCode::kPseudodecimal);
}

}  // namespace
}  // namespace btr
