// Single-pass block statistics (paper Section 3, step 1): min, max, unique
// count and average run length. Schemes use these to filter non-viable
// candidates before any sample is compressed.
#ifndef BTR_BTR_STATS_H_
#define BTR_BTR_STATS_H_

#include "btr/column.h"
#include "util/types.h"

namespace btr {

// Statistics of an i32 or double block. Doubles are compared on bit
// patterns for uniqueness and runs (the format is bitwise-lossless).
template <typename T>
struct NumericStats {
  u32 count = 0;
  T min = 0;
  T max = 0;
  u32 unique_count = 0;
  u32 run_count = 0;
  double AverageRunLength() const {
    return run_count == 0 ? 0.0 : static_cast<double>(count) / run_count;
  }
};
using IntStats = NumericStats<i32>;
using DoubleStats = NumericStats<double>;

struct StringStats {
  u32 count = 0;
  u32 unique_count = 0;
  u32 run_count = 0;
  u32 total_bytes = 0;
  u32 max_length = 0;
  u64 unique_bytes = 0;  // total bytes of distinct values
  double AverageRunLength() const {
    return run_count == 0 ? 0.0 : static_cast<double>(count) / run_count;
  }
};

// Defined for T = i32 and double.
template <typename T>
NumericStats<T> ComputeStats(const T* data, u32 count);
StringStats ComputeStats(const StringsView& view);

}  // namespace btr

#endif  // BTR_BTR_STATS_H_
