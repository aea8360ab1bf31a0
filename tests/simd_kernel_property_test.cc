// Property tests for the SIMD predicate kernels (btr/simd_scan.h and the
// per-scheme fast paths behind EvaluateExpr): over randomized blocks of
// every scheme shape, three engines must agree bit-for-bit —
//
//   1. EvaluateExpr with SIMD enabled (AVX2 kernels where built in),
//   2. EvaluateExpr with SimdPolicy forced off (scalar twins),
//   3. EvaluateExprDecoded, the decode-then-compare oracle.
//
// Edge cases are seeded deliberately: NaN / signed zero / infinities for
// doubles, INT32_MIN / INT32_MAX for ints, empty strings, and all-null
// blocks. A BTR_DISABLE_AVX2 build runs the same file with the vector
// bodies compiled out, proving the fallback end to end (CI parity job).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "btr/predicate.h"
#include "btr/simd_scan.h"
#include "util/random.h"
#include "util/simd.h"

namespace btr {
namespace {

constexpr i32 kIntMin = std::numeric_limits<i32>::min();
constexpr i32 kIntMax = std::numeric_limits<i32>::max();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

// Evaluates `expr` against the single-column block three ways and checks
// the selections agree; returns the SIMD-path result for extra checks.
EvalResult ExpectEnginesAgree(const CompressedColumn& compressed,
                              const Column& column, const PredicateExpr& expr,
                              const CompressionConfig& config,
                              const char* what) {
  DecodedBlock decoded;
  EvalResult simd_result, scalar_result;
  u32 base_row = 0;
  for (size_t b = 0; b < compressed.blocks.size(); b++) {
    const u8* block = compressed.blocks[b].data();
    auto block_of = [&](const std::string&) -> const u8* { return block; };
    DecompressBlock(block, &decoded, config);
    auto decoded_of = [&](const std::string&) -> const DecodedBlock* {
      return &decoded;
    };

    EvalResult vec, scalar;
    {
      ScopedSimd on(true);
      vec = EvaluateExpr(expr, decoded.count, block_of, config, nullptr);
    }
    {
      ScopedSimd off(false);
      scalar = EvaluateExpr(expr, decoded.count, block_of, config, nullptr);
    }
    EvalResult oracle = EvaluateExprDecoded(expr, decoded.count, decoded_of);

    EXPECT_EQ(vec.pass.ToVector(), scalar.pass.ToVector())
        << what << ": SIMD vs scalar pass differ, block " << b;
    EXPECT_EQ(vec.pass.ToVector(), oracle.pass.ToVector())
        << what << ": compressed vs decoded pass differ, block " << b;
    EXPECT_EQ(vec.unknown.ToVector(), oracle.unknown.ToVector())
        << what << ": compressed vs decoded unknown differ, block " << b;

    vec.pass.ForEach([&](u32 i) { simd_result.pass.Add(base_row + i); });
    vec.unknown.ForEach([&](u32 i) { simd_result.unknown.Add(base_row + i); });
    base_row += decoded.count;
  }
  EXPECT_EQ(base_row, column.size()) << what;
  return simd_result;
}

// --- integer schemes ---------------------------------------------------------

// Data shapes that make the cascade pick each root scheme when the config
// mask allows only {target, uncompressed}.
enum class IntShape { kOneValue, kRle, kDict, kFrequency, kBp128, kRaw };

Column MakeIntColumn(IntShape shape, Random* rng, u32 rows, bool with_nulls) {
  Column column("c", ColumnType::kInteger);
  i32 base = static_cast<i32>(rng->NextRange(-1000, 1000));
  for (u32 i = 0; i < rows; i++) {
    if (with_nulls && rng->NextBounded(16) == 0) {
      column.AppendNull();
      continue;
    }
    switch (shape) {
      case IntShape::kOneValue:
        column.AppendInt(base);
        break;
      case IntShape::kRle:
        column.AppendInt(base + static_cast<i32>((i / 100) % 7));
        break;
      case IntShape::kDict:
        column.AppendInt(base + static_cast<i32>(rng->NextBounded(10)) * 50);
        break;
      case IntShape::kFrequency:
        column.AppendInt(rng->NextBounded(10) == 0
                             ? base + static_cast<i32>(rng->NextBounded(5000))
                             : base);
        break;
      case IntShape::kBp128:
        column.AppendInt(base + static_cast<i32>(rng->NextBounded(200)));
        break;
      case IntShape::kRaw:
        // Full-range values, including the extremes sometimes.
        switch (rng->NextBounded(20)) {
          case 0: column.AppendInt(kIntMin); break;
          case 1: column.AppendInt(kIntMax); break;
          default:
            column.AppendInt(static_cast<i32>(rng->Next()));
        }
        break;
    }
  }
  return column;
}

CompressionConfig IntConfig(IntSchemeCode scheme) {
  CompressionConfig config;
  config.int_schemes =
      (1u << static_cast<u32>(scheme)) |
      (1u << static_cast<u32>(IntSchemeCode::kUncompressed));
  return config;
}

std::vector<PredicateExpr> IntProbes(Random* rng, i32 lo_hint, i32 hi_hint) {
  std::vector<PredicateExpr> probes;
  auto value = [&]() {
    return static_cast<i32>(rng->NextRange(lo_hint - 50, hi_hint + 50));
  };
  probes.push_back(Predicate::EqualsInt("c", value()));
  probes.push_back(Predicate::CompareInt("c", CompareOp::kLt, value()));
  probes.push_back(Predicate::CompareInt("c", CompareOp::kLe, value()));
  probes.push_back(Predicate::CompareInt("c", CompareOp::kGt, value()));
  probes.push_back(Predicate::CompareInt("c", CompareOp::kGe, value()));
  i32 a = value(), b = value();
  probes.push_back(Predicate::BetweenInt("c", std::min(a, b), std::max(a, b)));
  probes.push_back(Predicate::InInt("c", {value(), value(), value()}));
  // Operand extremes: x < INT32_MIN and x > INT32_MAX are unsatisfiable;
  // x <= INT32_MAX matches every non-null row.
  probes.push_back(Predicate::CompareInt("c", CompareOp::kLt, kIntMin));
  probes.push_back(Predicate::CompareInt("c", CompareOp::kGt, kIntMax));
  probes.push_back(Predicate::CompareInt("c", CompareOp::kLe, kIntMax));
  probes.push_back(Predicate::BetweenInt("c", kIntMin, kIntMax));
  return probes;
}

TEST(SimdKernelPropertyTest, IntSchemesAgreeAcrossEngines) {
  struct Case {
    IntShape shape;
    IntSchemeCode scheme;
  };
  const Case cases[] = {
      {IntShape::kOneValue, IntSchemeCode::kOneValue},
      {IntShape::kRle, IntSchemeCode::kRle},
      {IntShape::kDict, IntSchemeCode::kDict},
      {IntShape::kFrequency, IntSchemeCode::kFrequency},
      {IntShape::kBp128, IntSchemeCode::kBp128},
      {IntShape::kRaw, IntSchemeCode::kUncompressed},
  };
  Random rng(101);
  for (const Case& c : cases) {
    CompressionConfig config = IntConfig(c.scheme);
    for (int trial = 0; trial < 6; trial++) {
      u32 rows = 500 + static_cast<u32>(rng.NextBounded(20000));
      Column column = MakeIntColumn(c.shape, &rng, rows, trial % 2 == 1);
      CompressedColumn compressed = CompressColumn(column, config);
      const char* name = IntSchemeName(c.scheme);
      for (const PredicateExpr& probe : IntProbes(&rng, -1100, 6200)) {
        ExpectEnginesAgree(compressed, column, probe, config, name);
      }
    }
  }
}

TEST(SimdKernelPropertyTest, IntExtremesRoundTripEveryOp) {
  // Values at INT32_MIN / INT32_MAX stored in the block itself.
  CompressionConfig config;
  Column column("c", ColumnType::kInteger);
  Random rng(7);
  for (u32 i = 0; i < 3000; i++) {
    switch (rng.NextBounded(4)) {
      case 0: column.AppendInt(kIntMin); break;
      case 1: column.AppendInt(kIntMax); break;
      case 2: column.AppendNull(); break;
      default: column.AppendInt(static_cast<i32>(rng.Next()));
    }
  }
  CompressedColumn compressed = CompressColumn(column, config);
  std::vector<PredicateExpr> probes = {
      Predicate::EqualsInt("c", kIntMin),
      Predicate::EqualsInt("c", kIntMax),
      Predicate::CompareInt("c", CompareOp::kLe, kIntMin),
      Predicate::CompareInt("c", CompareOp::kGe, kIntMax),
      Predicate::BetweenInt("c", kIntMin, kIntMin),
      Predicate::InInt("c", {kIntMin, kIntMax, 0}),
  };
  for (const PredicateExpr& probe : probes) {
    ExpectEnginesAgree(compressed, column, probe, config, "int extremes");
  }
}

// --- double schemes ----------------------------------------------------------

enum class DoubleShape { kOneValue, kRle, kDict, kFrequency, kRaw };

Column MakeDoubleColumn(DoubleShape shape, Random* rng, u32 rows,
                        bool with_nulls) {
  Column column("d", ColumnType::kDouble);
  double base = rng->NextDouble() * 100 - 50;
  // Special values seeded into every shape's palette.
  const double specials[] = {kNaN, -kNaN, 0.0, -0.0, kInf, -kInf};
  for (u32 i = 0; i < rows; i++) {
    if (with_nulls && rng->NextBounded(16) == 0) {
      column.AppendNull();
      continue;
    }
    if (rng->NextBounded(32) == 0) {
      column.AppendDouble(specials[rng->NextBounded(6)]);
      continue;
    }
    switch (shape) {
      case DoubleShape::kOneValue:
        column.AppendDouble(base);
        break;
      case DoubleShape::kRle:
        column.AppendDouble(base + static_cast<double>((i / 100) % 5));
        break;
      case DoubleShape::kDict:
        column.AppendDouble(base + static_cast<double>(rng->NextBounded(8)));
        break;
      case DoubleShape::kFrequency:
        column.AppendDouble(rng->NextBounded(10) == 0
                                ? rng->NextDouble() * 1000
                                : base);
        break;
      case DoubleShape::kRaw:
        column.AppendDouble(rng->NextDouble() * 2000 - 1000);
        break;
    }
  }
  return column;
}

TEST(SimdKernelPropertyTest, DoubleSchemesAgreeAcrossEngines) {
  struct Case {
    DoubleShape shape;
    DoubleSchemeCode scheme;
  };
  const Case cases[] = {
      {DoubleShape::kOneValue, DoubleSchemeCode::kOneValue},
      {DoubleShape::kRle, DoubleSchemeCode::kRle},
      {DoubleShape::kDict, DoubleSchemeCode::kDict},
      {DoubleShape::kFrequency, DoubleSchemeCode::kFrequency},
      {DoubleShape::kRaw, DoubleSchemeCode::kUncompressed},
  };
  Random rng(202);
  for (const Case& c : cases) {
    CompressionConfig config;
    config.double_schemes =
        (1u << static_cast<u32>(c.scheme)) |
        (1u << static_cast<u32>(DoubleSchemeCode::kUncompressed));
    for (int trial = 0; trial < 6; trial++) {
      u32 rows = 500 + static_cast<u32>(rng.NextBounded(15000));
      Column column = MakeDoubleColumn(c.shape, &rng, rows, trial % 2 == 1);
      CompressedColumn compressed = CompressColumn(column, config);
      const char* name = DoubleSchemeName(c.scheme);

      std::vector<PredicateExpr> probes;
      double v = rng.NextDouble() * 120 - 60;
      probes.push_back(Predicate::EqualsDouble("d", v));
      probes.push_back(Predicate::CompareDouble("d", CompareOp::kLt, v));
      probes.push_back(Predicate::CompareDouble("d", CompareOp::kGe, v));
      probes.push_back(Predicate::BetweenDouble("d", v - 10, v + 10));
      // NaN probes: ordered ops never match, bit-equality matches stored
      // NaNs of identical payload.
      probes.push_back(Predicate::EqualsDouble("d", kNaN));
      probes.push_back(Predicate::CompareDouble("d", CompareOp::kLt, kNaN));
      probes.push_back(Predicate::InDouble("d", {kNaN, 0.0, v}));
      // Signed zero: 0.0 and -0.0 are distinct bit patterns for kEq but
      // equal for ordered comparisons.
      probes.push_back(Predicate::EqualsDouble("d", -0.0));
      probes.push_back(Predicate::BetweenDouble("d", -0.0, 0.0));
      probes.push_back(Predicate::BetweenDouble("d", -kInf, kInf));
      for (const PredicateExpr& probe : probes) {
        ExpectEnginesAgree(compressed, column, probe, config, name);
      }
    }
  }
}

// --- string schemes ----------------------------------------------------------

TEST(SimdKernelPropertyTest, StringSchemesAgreeAcrossEngines) {
  Random rng(303);
  const char* palette[] = {"",          "berlin",  "munich", "bonn",
                           "hamburg",   "a",       "zz",     "münchen",
                           "new york",  "berlin "};
  for (u32 scheme_mask :
       {(1u << static_cast<u32>(StringSchemeCode::kOneValue)) | 1u,
        (1u << static_cast<u32>(StringSchemeCode::kDict)) | 1u,
        1u /* uncompressed only */,
        (1u << static_cast<u32>(StringSchemeCode::kFsst)) | 1u}) {
    CompressionConfig config;
    config.string_schemes = scheme_mask;
    for (int trial = 0; trial < 4; trial++) {
      bool one_value = scheme_mask ==
                       ((1u << static_cast<u32>(StringSchemeCode::kOneValue)) | 1u);
      u32 rows = 500 + static_cast<u32>(rng.NextBounded(8000));
      Column column("s", ColumnType::kString);
      const char* only = palette[rng.NextBounded(10)];
      for (u32 i = 0; i < rows; i++) {
        if (trial % 2 == 1 && rng.NextBounded(16) == 0) {
          column.AppendNull();
        } else {
          column.AppendString(one_value ? only : palette[rng.NextBounded(10)]);
        }
      }
      CompressedColumn compressed = CompressColumn(column, config);

      std::vector<PredicateExpr> probes;
      probes.push_back(Predicate::EqualsString("s", "bonn"));
      probes.push_back(Predicate::EqualsString("s", ""));  // empty string
      probes.push_back(Predicate::CompareString("s", CompareOp::kLt, "c"));
      probes.push_back(Predicate::CompareString("s", CompareOp::kGe, "m"));
      probes.push_back(Predicate::BetweenString("s", "a", "c"));
      probes.push_back(Predicate::InString("s", {"", "munich", "paris"}));
      for (const PredicateExpr& probe : probes) {
        ExpectEnginesAgree(compressed, column, probe, config, "string");
      }
    }
  }
}

// --- all-null blocks ---------------------------------------------------------

TEST(SimdKernelPropertyTest, AllNullBlocksAreAllUnknown) {
  CompressionConfig config;
  const ColumnType types[] = {ColumnType::kInteger, ColumnType::kDouble,
                              ColumnType::kString};
  for (ColumnType type : types) {
    Column column("c", type);
    for (u32 i = 0; i < 2000; i++) column.AppendNull();
    CompressedColumn compressed = CompressColumn(column, config);

    PredicateExpr probe;
    switch (type) {
      case ColumnType::kInteger:
        probe = Predicate::BetweenInt("c", kIntMin, kIntMax);
        break;
      case ColumnType::kDouble:
        probe = Predicate::CompareDouble("c", CompareOp::kGe, -kInf);
        break;
      case ColumnType::kString:
        probe = Predicate::CompareString("c", CompareOp::kGe, "");
        break;
    }
    EvalResult r =
        ExpectEnginesAgree(compressed, column, probe, config, "all-null");
    EXPECT_EQ(r.pass.Cardinality(), 0u);
    EXPECT_EQ(r.unknown.Cardinality(), 2000u);
  }
}

// --- raw kernel equivalence --------------------------------------------------

// Drives the simd:: kernels directly (not through block evaluation) on
// adversarial buffers: unaligned counts, values at the extremes, sets of
// every size class (broadcast-compare vs binary-search).
TEST(SimdKernelPropertyTest, RawKernelsMatchScalarTwins) {
  // Kernels overwrite every word they cover: the buffers start all ones.
  auto fresh_words = [](u32 count) {
    return std::vector<u64>(WordCount(count), ~u64{0});
  };
  auto expect_no_bits_past = [](const std::vector<u64>& words, u32 count,
                                const char* what) {
    for (u32 bit = count; bit < words.size() * 64; bit++) {
      EXPECT_EQ((words[bit / 64] >> (bit % 64)) & 1, 0u)
          << what << ": bit " << bit << " set past count " << count;
    }
  };
  // Row-at-a-time reference words.
  auto reference_words = [](u32 count, const auto& match) {
    std::vector<u64> words(WordCount(count), 0);
    for (u32 i = 0; i < count; i++) {
      if (match(i)) words[i / 64] |= u64{1} << (i % 64);
    }
    return words;
  };

  Random rng(404);
  for (int trial = 0; trial < 40; trial++) {
    u32 count = 1 + static_cast<u32>(rng.NextBounded(3000));
    std::vector<i32> values(count);
    for (i32& v : values) {
      switch (rng.NextBounded(12)) {
        case 0: v = kIntMin; break;
        case 1: v = kIntMax; break;
        default: v = static_cast<i32>(rng.NextRange(-500, 500));
      }
    }
    i32 a = static_cast<i32>(rng.NextRange(-600, 600));
    i32 b = static_cast<i32>(rng.NextRange(-600, 600));
    i32 lo = std::min(a, b), hi = std::max(a, b);

    std::vector<u64> vec = fresh_words(count), scalar = fresh_words(count);
    {
      ScopedSimd on(true);
      simd::SelectI32Range(values.data(), count, lo, hi, vec.data());
    }
    {
      ScopedSimd off(false);
      simd::SelectI32Range(values.data(), count, lo, hi, scalar.data());
    }
    EXPECT_EQ(vec, scalar)
        << "range [" << lo << ", " << hi << "], count " << count;
    expect_no_bits_past(vec, count, "i32 range");
    EXPECT_EQ(vec, reference_words(count, [&](u32 i) {
                return values[i] >= lo && values[i] <= hi;
              }))
        << "range [" << lo << ", " << hi << "] vs reference, count " << count;

    // Set kernel across the small-set / binary-search boundary.
    u32 set_size = 1 + static_cast<u32>(rng.NextBounded(24));
    std::vector<i32> set;
    for (u32 i = 0; i < set_size; i++) {
      set.push_back(static_cast<i32>(rng.NextRange(-600, 600)));
    }
    PredicateExpr in = Predicate::InInt("c", set);  // sorts + dedupes
    std::vector<u64> vec_set = fresh_words(count);
    std::vector<u64> scalar_set = fresh_words(count);
    {
      ScopedSimd on(true);
      simd::SelectI32Set(values.data(), count, in.int_set, vec_set.data());
    }
    {
      ScopedSimd off(false);
      simd::SelectI32Set(values.data(), count, in.int_set, scalar_set.data());
    }
    EXPECT_EQ(vec_set, scalar_set)
        << "set size " << in.int_set.size() << ", count " << count;
    expect_no_bits_past(vec_set, count, "i32 set");
  }

  // Double range kernel with strictness flags and NaN traffic.
  for (int trial = 0; trial < 20; trial++) {
    u32 count = 1 + static_cast<u32>(rng.NextBounded(2000));
    std::vector<double> values(count);
    for (double& v : values) {
      switch (rng.NextBounded(10)) {
        case 0: v = kNaN; break;
        case 1: v = kInf; break;
        case 2: v = -kInf; break;
        case 3: v = -0.0; break;
        default: v = rng.NextDouble() * 200 - 100;
      }
    }
    double lo = rng.NextDouble() * 200 - 100;
    double hi = lo + rng.NextDouble() * 50;
    bool lo_strict = rng.NextBounded(2) == 0;
    bool hi_strict = rng.NextBounded(2) == 0;
    std::vector<u64> vec = fresh_words(count), scalar = fresh_words(count);
    {
      ScopedSimd on(true);
      simd::SelectF64Range(values.data(), count, lo, hi, lo_strict, hi_strict,
                           vec.data());
    }
    {
      ScopedSimd off(false);
      simd::SelectF64Range(values.data(), count, lo, hi, lo_strict, hi_strict,
                           scalar.data());
    }
    EXPECT_EQ(vec, scalar) << "f64 range trial " << trial;
    expect_no_bits_past(vec, count, "f64 range");
    EXPECT_EQ(vec, reference_words(count, [&](u32 i) {
                bool ge = lo_strict ? values[i] > lo : values[i] >= lo;
                bool le = hi_strict ? values[i] < hi : values[i] <= hi;
                return ge && le;
              }))
        << "f64 range trial " << trial << " vs reference";
  }
}

// SelectBp128Range's frame-envelope telemetry must account for every
// miniblock, and a clustered block must actually prune/accept some of
// them without unpacking (the ByteSlice-style early exit).
TEST(SimdKernelPropertyTest, Bp128EnvelopeStatsAccountForAllMiniblocks) {
  CompressionConfig config = IntConfig(IntSchemeCode::kBp128);
  Column column("c", ColumnType::kInteger);
  for (u32 i = 0; i < 40000; i++) {
    column.AppendInt(static_cast<i32>(i / 4));  // clustered, Bp128-friendly
  }
  CompressedColumn compressed = CompressColumn(column, config);
  ASSERT_EQ(PeekBlockScheme(compressed.blocks[0].data()),
            static_cast<u8>(IntSchemeCode::kBp128));

  // ~1% selective range in the middle of the block.
  PredicateExpr probe = Predicate::BetweenInt("c", 5000, 5099);
  EvalResult r = ExpectEnginesAgree(compressed, column, probe, config,
                                    "bp128 envelope");
  EXPECT_EQ(r.pass.Cardinality(), 400u);
  EXPECT_TRUE(HasFastPath(compressed.blocks[0].data(), probe));
}

}  // namespace
}  // namespace btr
