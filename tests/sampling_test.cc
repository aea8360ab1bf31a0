// Tests for the sampling module (paper Section 3.1 / Figure 2), the
// exhaustive-estimation oracle mode, and the block statistics the scheme
// picker filters on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "btr/sampling.h"
#include "btr/scheme_picker.h"
#include "btr/stats.h"
#include "util/random.h"

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
    std::string s = std::string("v").append(std::to_string(i % 100));
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

// ComputeStats against a std::set reference. Uniqueness and runs are over
// the equality key (a double's bit pattern); min and max are the first
// minimum and maximum under operator<, as std::min_element finds them.
template <typename T>
void ExpectStatsMatchReference(const std::vector<T>& data) {
  using Key = typename SchemeTraits<T>::Key;
  NumericStats<T> stats = ComputeStats(data.data(), static_cast<u32>(data.size()));
  std::set<Key> keys;
  u32 runs = 0;
  for (size_t i = 0; i < data.size(); i++) {
    Key key = SchemeTraits<T>::KeyOf(data[i]);
    keys.insert(key);
    if (i == 0 || key != SchemeTraits<T>::KeyOf(data[i - 1])) runs++;
  }
  EXPECT_EQ(stats.count, data.size());
  EXPECT_EQ(stats.unique_count, keys.size());
  EXPECT_EQ(stats.run_count, runs);
  if (data.empty()) return;
  EXPECT_EQ(SchemeTraits<T>::KeyOf(stats.min),
            SchemeTraits<T>::KeyOf(*std::min_element(data.begin(), data.end())));
  EXPECT_EQ(SchemeTraits<T>::KeyOf(stats.max),
            SchemeTraits<T>::KeyOf(*std::max_element(data.begin(), data.end())));
}

TEST(StatsTest, DoublesMatchReference) {
  Random rng(11);
  const u32 n = 32000;
  std::vector<double> quarter_steps(n), prices(n), integral(n);
  for (u32 i = 0; i < n; i++) {
    quarter_steps[i] = 0.25 * static_cast<double>(rng.NextBounded(20000));
    prices[i] = static_cast<double>(rng.NextBounded(1000000)) / 100.0;
    integral[i] = static_cast<double>(rng.NextBounded(5000)) - 2500.0;
  }
  ExpectStatsMatchReference(quarter_steps);
  ExpectStatsMatchReference(prices);
  ExpectStatsMatchReference(integral);
  ExpectStatsMatchReference(std::vector<double>(n, 19.99));

  // Zeros of both signs, NaNs with distinct payloads and infinities are
  // distinct values, because equality is on bit patterns.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> special = {
      0.0, -0.0, 0.0, std::bit_cast<double>(u64{0x7FF8000000000001}),
      std::bit_cast<double>(u64{0x7FF8000000000002}), inf, -inf, inf,
      std::bit_cast<double>(u64{0xFFF8000000000000}), -0.0, 1.5, -0.0};
  ExpectStatsMatchReference(special);
  std::vector<double> nan_first = {std::nan(""), 3.0, -inf, 2.0, std::nan("")};
  ExpectStatsMatchReference(nan_first);
  std::vector<double> mixed = prices;
  for (u32 i = 0; i < n; i += 97) mixed[i] = special[i % special.size()];
  ExpectStatsMatchReference(mixed);
}

TEST(StatsTest, IntsMatchReference) {
  const u32 n = 32000;
  std::vector<i32> sequential(n), extremes(n), runs(n);
  Random rng(12);
  for (u32 i = 0; i < n; i++) {
    sequential[i] = static_cast<i32>(i) - 100;
    const i32 edge[] = {std::numeric_limits<i32>::min(),
                        std::numeric_limits<i32>::max(), 0, -1, 1};
    extremes[i] = edge[rng.NextBounded(5)];
    runs[i] = static_cast<i32>(i / 37) * 1000;
  }
  ExpectStatsMatchReference(sequential);
  ExpectStatsMatchReference(extremes);
  ExpectStatsMatchReference(runs);
  ExpectStatsMatchReference(std::vector<i32>(n, 0));
  ExpectStatsMatchReference(std::vector<i32>(n, std::numeric_limits<i32>::min()));
  ExpectStatsMatchReference(std::vector<i32>{});
}

// Strings of 0-24 bytes, empty strings and embedded zeros among them, in a
// buffer of exactly their bytes whose last string has `last_length` bytes:
// a load past the buffer's end fails under AddressSanitizer. With
// `zero_tails`, strings may also end in zero bytes, "a" and "b\0" among
// them.
void ExpectStringStatsMatchReference(u32 last_length, bool zero_tails) {
  Random rng(13 + last_length);
  std::vector<std::string> strings;
  if (zero_tails) {
    strings.push_back("a");
    strings.push_back(std::string("b\0", 2));
  }
  for (u32 i = 0; i < 3000; i++) {
    std::string s(rng.NextBounded(25), '\0');
    for (char& c : s) c = "ab\0z"[rng.NextBounded(4)];
    if (!zero_tails && !s.empty() && s.back() == '\0') s.back() = 'z';
    strings.push_back(s);
    if (i % 5 == 0) strings.push_back(s);  // runs
    if (i % 7 == 0) strings.push_back("");
  }
  strings.push_back(std::string(last_length, 'q'));
  std::vector<u32> offsets = {0};
  for (const std::string& s : strings) {
    offsets.push_back(offsets.back() + static_cast<u32>(s.size()));
  }
  auto data = std::make_unique<u8[]>(offsets.back());
  for (size_t i = 0; i < strings.size(); i++) {
    std::copy(strings[i].begin(), strings[i].end(), data.get() + offsets[i]);
  }
  StringsView view{offsets.data(), data.get(), static_cast<u32>(strings.size())};
  StringStats stats = ComputeStats(view);

  // Distinct strings are counted by a 64-bit hash of the length and the
  // first 16 and last 8 bytes: all of a string of at most 24 bytes. Words
  // are zero padded, and the length is mixed in as a step of its own, so
  // a string that ends in zero bytes hashes apart from a shorter one
  // ("a" and "b\0"); these fixed inputs have no collision.
  std::set<std::string> distinct(strings.begin(), strings.end());
  u64 unique_bytes = 0;
  for (const std::string& s : distinct) unique_bytes += s.size();
  u32 runs = 0, max_length = 0;
  for (size_t i = 0; i < strings.size(); i++) {
    if (i == 0 || strings[i] != strings[i - 1]) runs++;
    max_length = std::max(max_length, static_cast<u32>(strings[i].size()));
  }
  EXPECT_EQ(stats.count, strings.size());
  EXPECT_EQ(stats.unique_count, distinct.size());
  EXPECT_EQ(stats.unique_bytes, unique_bytes);
  EXPECT_EQ(stats.run_count, runs);
  EXPECT_EQ(stats.max_length, max_length);
  EXPECT_EQ(stats.total_bytes, offsets.back());
}

TEST(StatsTest, StringsMatchReference) {
  for (bool zero_tails : {false, true}) {
    for (u32 last_length = 0; last_length <= 24; last_length++) {
      SCOPED_TRACE(testing::Message() << "zero_tails " << zero_tails
                                      << " last_length " << last_length);
      ExpectStringStatsMatchReference(last_length, zero_tails);
    }
  }
}

}  // namespace
}  // namespace btr
