#include "btr/sampling.h"

#include <algorithm>

namespace btr {

std::vector<std::pair<u32, u32>> SampleRanges(u32 count, u32 runs,
                                              u32 run_length, u64 seed) {
  std::vector<std::pair<u32, u32>> ranges;
  if (count == 0) return ranges;
  if (runs == 0 || run_length == 0 ||
      static_cast<u64>(runs) * run_length >= count) {
    ranges.emplace_back(0, count);
    return ranges;
  }
  Random rng(seed ^ (static_cast<u64>(count) << 20));
  u32 part_size = count / runs;
  ranges.reserve(runs);
  for (u32 part = 0; part < runs; part++) {
    u32 part_begin = part * part_size;
    u32 part_end = (part == runs - 1) ? count : part_begin + part_size;
    u32 span = part_end - part_begin;
    u32 len = std::min(run_length, span);
    u32 max_start = span - len;
    u32 start = part_begin +
                (max_start == 0 ? 0 : static_cast<u32>(rng.NextBounded(max_start + 1)));
    ranges.emplace_back(start, start + len);
  }
  return ranges;
}

namespace {
// Seed of every block's sample: scheme choices are reproducible.
constexpr u64 kSamplingSeed = 42;

std::vector<std::pair<u32, u32>> RangesFor(u32 count, const CompressionConfig& c) {
  if (c.exhaustive_estimation) return {{0, count}};
  return SampleRanges(count, c.sample_runs, c.sample_run_length, kSamplingSeed);
}
}  // namespace

template <typename T>
NumericSample<T> BuildSample(const T* data, u32 count,
                             const CompressionConfig& config) {
  NumericSample<T> sample;
  for (auto [begin, end] : RangesFor(count, config)) {
    sample.values.insert(sample.values.end(), data + begin, data + end);
  }
  return sample;
}
template IntSample BuildSample(const i32*, u32, const CompressionConfig&);
template DoubleSample BuildSample(const double*, u32, const CompressionConfig&);

StringSample BuildSample(const StringsView& view,
                         const CompressionConfig& config) {
  StringSample sample;
  sample.offsets.push_back(0);
  for (auto [begin, end] : RangesFor(view.count, config)) {
    for (u32 i = begin; i < end; i++) {
      std::string_view s = view.Get(i);
      sample.data.insert(sample.data.end(), s.begin(), s.end());
      sample.offsets.push_back(static_cast<u32>(sample.data.size()));
    }
  }
  return sample;
}

}  // namespace btr
