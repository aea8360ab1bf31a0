// Tests for the sampling module (paper Section 3.1 / Figure 2) and the
// exhaustive-estimation oracle mode.
#include <gtest/gtest.h>

#include <vector>

#include "btr/sampling.h"
#include "btr/scheme_picker.h"

namespace btr {
namespace {

TEST(SamplingTest, DefaultIsTenRunsOfSixtyFour) {
  auto ranges = SampleRanges(64000, 10, 64, 42);
  ASSERT_EQ(ranges.size(), 10u);
  u32 total = 0;
  u32 part_size = 64000 / 10;
  for (size_t i = 0; i < ranges.size(); i++) {
    auto [begin, end] = ranges[i];
    EXPECT_EQ(end - begin, 64u);
    // Each run must stay within its non-overlapping part (Figure 2).
    EXPECT_GE(begin, i * part_size);
    EXPECT_LE(end, (i + 1 == ranges.size()) ? 64000u : (i + 1) * part_size);
    total += end - begin;
  }
  EXPECT_EQ(total, 640u);  // 1% of the block
}

TEST(SamplingTest, DeterministicForSameSeed) {
  auto a = SampleRanges(64000, 10, 64, 7);
  auto b = SampleRanges(64000, 10, 64, 7);
  EXPECT_EQ(a, b);
  auto c = SampleRanges(64000, 10, 64, 8);
  EXPECT_NE(a, c);  // astronomically unlikely to collide
}

TEST(SamplingTest, SmallBlockFallsBackToFullRange) {
  auto ranges = SampleRanges(500, 10, 64, 42);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(0u, 500u));
}

TEST(SamplingTest, ZeroCount) {
  EXPECT_TRUE(SampleRanges(0, 10, 64, 42).empty());
}

TEST(SamplingTest, BuildIntSamplePreservesRuns) {
  // A block of runs must produce a sample that still contains runs —
  // the reason for run-based sampling over random tuples.
  std::vector<i32> data(64000);
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<i32>(i / 100);
  CompressionConfig config;
  IntSample sample = BuildSample(data.data(), 64000, config);
  ASSERT_EQ(sample.values.size(), 640u);
  u32 run_count = 1;
  for (size_t i = 1; i < sample.values.size(); i++) {
    if (sample.values[i] != sample.values[i - 1]) run_count++;
  }
  // 10 runs of 64 over runs of 100: each sampled run has 1-2 distinct
  // values, so far fewer than 640 runs and an avg run length >= 2.
  EXPECT_LE(run_count, 30u);
}

TEST(SamplingTest, ExhaustiveModeUsesWholeBlock) {
  std::vector<i32> data(10000, 1);
  CompressionConfig config;
  config.exhaustive_estimation = true;
  IntSample sample = BuildSample(data.data(), 10000, config);
  EXPECT_EQ(sample.values.size(), 10000u);
}

TEST(SamplingTest, StringSampleMatchesRanges) {
  std::vector<u32> offsets;
  std::vector<u8> bytes;
  offsets.push_back(0);
  for (int i = 0; i < 64000; i++) {
    std::string s = "v" + std::to_string(i % 100);
    bytes.insert(bytes.end(), s.begin(), s.end());
    offsets.push_back(static_cast<u32>(bytes.size()));
  }
  StringsView view{offsets.data(), bytes.data(), 64000};
  CompressionConfig config;
  StringSample sample = BuildSample(view, config);
  EXPECT_EQ(sample.View().count, 640u);
  // Spot check: sampled strings are valid values from the input domain.
  for (u32 i = 0; i < sample.View().count; i++) {
    std::string_view s = sample.View().Get(i);
    EXPECT_EQ(s[0], 'v');
  }
}

TEST(SamplingTest, PickerAgreesWithOracleOnEasyShapes) {
  // On clear-cut distributions the 1% sample must pick the same scheme
  // as exhaustive estimation.
  CompressionConfig sampled;
  CompressionConfig oracle;
  oracle.exhaustive_estimation = true;

  std::vector<i32> constant(64000, 5);
  EXPECT_EQ(PickScheme(constant.data(), 64000, sampled),
            PickScheme(constant.data(), 64000, oracle));

  std::vector<i32> sequential(64000);
  for (i32 i = 0; i < 64000; i++) sequential[i] = i;
  EXPECT_EQ(PickScheme(sequential.data(), 64000, sampled),
            PickScheme(sequential.data(), 64000, oracle));
}

}  // namespace
}  // namespace btr
