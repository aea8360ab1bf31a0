#include "btr/stats.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "btr/scheme.h"

namespace btr {

namespace {

// Open-addressing distinct counters. Stats run once per block per cascade
// level and must stay a small fraction of compression time (the paper
// keeps scheme selection around 1.2%); std::unordered_set is an order of
// magnitude too slow for that.

inline u64 HashKey(u64 key) {
  u64 h = key * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

inline u32 TableSizeFor(u32 count) {
  u32 size = 64;
  while (size < 2 * count) size <<= 1;
  return size;
}

// Counts distinct non-zero u64 keys; the caller tracks zero separately.
class DistinctCounter {
 public:
  explicit DistinctCounter(u32 count) : mask_(TableSizeFor(count) - 1) {
    table_.assign(mask_ + 1, 0);
  }

  // Returns true when the key was newly inserted. key must be non-zero.
  bool Insert(u64 key) {
    u64 slot = HashKey(key) & mask_;
    while (table_[slot] != 0) {
      if (table_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    table_[slot] = key;
    return true;
  }

 private:
  u32 mask_;
  std::vector<u64> table_;
};

}  // namespace

template <typename T>
NumericStats<T> ComputeStats(const T* data, u32 count) {
  using Key = typename SchemeTraits<T>::Key;
  NumericStats<T> stats;
  stats.count = count;
  if (count == 0) return stats;
  stats.min = data[0];
  stats.max = data[0];
  stats.run_count = 1;
  // Uniqueness and runs over the equality key: for doubles the bit
  // pattern, so +0.0 / -0.0 and NaN payloads are distinct values.
  DistinctCounter distinct(count);
  bool saw_zero = false;
  u32 unique = 0;
  Key prev = SchemeTraits<T>::KeyOf(data[0]);
  for (u32 i = 0; i < count; i++) {
    T v = data[i];
    if (v < stats.min) stats.min = v;
    if (v > stats.max) stats.max = v;
    Key key = SchemeTraits<T>::KeyOf(v);
    if (key != prev) stats.run_count++;
    prev = key;
    if (key == 0) {
      if (!saw_zero) {
        saw_zero = true;
        unique++;
      }
    } else if (distinct.Insert(static_cast<std::make_unsigned_t<Key>>(key))) {
      unique++;
    }
  }
  stats.unique_count = unique;
  return stats;
}
template IntStats ComputeStats(const i32*, u32);
template DoubleStats ComputeStats(const double*, u32);

StringStats ComputeStats(const StringsView& view) {
  StringStats stats;
  stats.count = view.count;
  if (view.count == 0) return stats;
  stats.run_count = 1;
  stats.total_bytes = view.TotalBytes();
  // Distinct strings are counted by 64-bit content hash; a collision
  // undercounts by one, which is irrelevant for the viability thresholds
  // these stats feed.
  DistinctCounter distinct(view.count);
  u32 unique = 0;
  for (u32 i = 0; i < view.count; i++) {
    std::string_view s = view.Get(i);
    stats.max_length = std::max(stats.max_length, static_cast<u32>(s.size()));
    if (i > 0 && s != view.Get(i - 1)) stats.run_count++;
    // Constant-time content hash: length plus the first 16 and last 8
    // bytes. Stats run on every block; hashing whole long strings shows
    // up in profiles, and a rare collision merely undercounts distinct
    // values by one — irrelevant for the viability thresholds.
    u64 h = 0xCBF29CE484222325ULL ^ s.size();
    auto mix = [&h](u64 word) {
      h = (h ^ word) * 0x100000001B3ULL;
      h ^= h >> 31;
    };
    u64 word = 0;
    size_t len = s.size();
    if (len > 0) std::memcpy(&word, s.data(), std::min<size_t>(len, 8));
    mix(word);
    if (len > 8) {
      word = 0;
      std::memcpy(&word, s.data() + 8, std::min<size_t>(len - 8, 8));
      mix(word);
    }
    if (len > 16) {
      std::memcpy(&word, s.data() + len - 8, 8);
      mix(word);
    }
    if (h == 0) h = 1;
    if (distinct.Insert(h)) {
      unique++;
      stats.unique_bytes += s.size();
    }
  }
  stats.unique_count = unique;
  return stats;
}

}  // namespace btr
