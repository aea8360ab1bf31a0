// Sampling for compression-ratio estimation (paper Section 3.1, Figure 2):
// the block is split into `runs` non-overlapping parts and one contiguous
// run of `run_length` tuples is taken from a random position inside each
// part. This preserves local patterns (runs) while covering the whole
// value range. Default 10 x 64 = 1% of a 64,000-value block.
#ifndef BTR_BTR_SAMPLING_H_
#define BTR_BTR_SAMPLING_H_

#include <vector>

#include "btr/column.h"
#include "btr/config.h"
#include "util/random.h"

namespace btr {

// Computes the [begin, end) ranges of each sample run for a block of
// `count` values. Deterministic given the seed. If the requested sample
// covers the block (or exhaustive estimation is on), a single full-block
// range is returned.
std::vector<std::pair<u32, u32>> SampleRanges(u32 count, u32 runs,
                                              u32 run_length, u64 seed);

template <typename T>
struct NumericSample {
  std::vector<T> values;
};
using IntSample = NumericSample<i32>;
using DoubleSample = NumericSample<double>;

struct StringSample {
  std::vector<u32> offsets;  // count+1
  std::vector<u8> data;
  StringsView View() const {
    return StringsView{offsets.data(), data.data(),
                       static_cast<u32>(offsets.empty() ? 0 : offsets.size() - 1)};
  }
};

// Defined for T = i32 and double.
template <typename T>
NumericSample<T> BuildSample(const T* data, u32 count,
                             const CompressionConfig& config);
StringSample BuildSample(const StringsView& view,
                         const CompressionConfig& config);

}  // namespace btr

#endif  // BTR_BTR_SAMPLING_H_
