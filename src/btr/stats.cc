#include "btr/stats.h"

#include <algorithm>
#include <bit>
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

inline u32 TableSizeFor(u32 count) {
  u32 size = 64;
  while (size < 2 * count) size <<= 1;
  return size;
}

// Counts distinct non-zero u64 keys; the caller tracks zero separately.
class DistinctCounter {
 public:
  explicit DistinctCounter(u32 count)
      : mask_(TableSizeFor(count) - 1),
        shift_(64 - std::countr_zero(mask_ + 1)) {
    table_.assign(mask_ + 1, 0);
  }

  // Returns true when the key was newly inserted. key must be non-zero.
  bool Insert(u64 key) {
    // The slot is the top bits of key * C, which every key bit reaches.
    // The low product bits depend only on the low key bits, which decimal
    // doubles share: x.97 carries the mantissa bits of .97 for any x.
    u64 slot = (key * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (table_[slot] != 0) {
      if (table_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    table_[slot] = key;
    return true;
  }

 private:
  u32 mask_;
  u32 shift_;
  std::vector<u64> table_;
};

// Distinct values among `count` values, by equality key. A key equal to
// its predecessor was counted with it, so only run heads probe the table.
template <typename T>
u32 CountDistinct(const T* data, u32 count) {
  using Key = typename SchemeTraits<T>::Key;
  DistinctCounter distinct(count);
  bool saw_zero = false;
  u32 unique = 0;
  for (u32 i = 0; i < count; i++) {
    Key key = SchemeTraits<T>::KeyOf(data[i]);
    if (i > 0 && key == SchemeTraits<T>::KeyOf(data[i - 1])) continue;
    if (key == 0) {
      unique += !saw_zero;
      saw_zero = true;
    } else {
      unique += distinct.Insert(static_cast<std::make_unsigned_t<Key>>(key));
    }
  }
  return unique;
}

}  // namespace

template <typename T>
NumericStats<T> ComputeStats(const T* data, u32 count) {
  NumericStats<T> stats;
  stats.count = count;
  if (count == 0) return stats;
  stats.min = data[0];
  stats.max = data[0];
  stats.run_count = 1;
  // Uniqueness and runs over the equality key: for doubles the bit
  // pattern, so +0.0 / -0.0 and NaN payloads are distinct values.
  for (u32 i = 1; i < count; i++) {
    T v = data[i];
    if (v < stats.min) stats.min = v;
    if (v > stats.max) stats.max = v;
    stats.run_count +=
        SchemeTraits<T>::KeyOf(v) != SchemeTraits<T>::KeyOf(data[i - 1]);
  }
  stats.unique_count = CountDistinct(data, count);
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
  const u8* end = view.data + view.offsets[view.count];
  // Little-endian word of the n <= 8 bytes at p, zero padded: one fixed
  // 8-byte load wherever 8 bytes remain before the view's end.
  auto load = [end](const u8* p, size_t n) {
    u64 word = 0;
    if (end - p >= 8) {
      std::memcpy(&word, p, 8);
      if (n < 8) word &= (u64{1} << (8 * n)) - 1;
    } else if (n > 0) {
      std::memcpy(&word, p, n);
    }
    return word;
  };
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
    // values by one — irrelevant for the viability thresholds. The length
    // is a step of its own: xored into the seed, it cancels against a
    // zero-padded word ("a" and "b\0" hashed alike).
    u64 h = 0xCBF29CE484222325ULL;
    auto mix = [&h](u64 word) {
      h = (h ^ word) * 0x100000001B3ULL;
      h ^= h >> 31;
    };
    const u8* p = reinterpret_cast<const u8*>(s.data());
    size_t len = s.size();
    mix(len);
    mix(load(p, std::min<size_t>(len, 8)));
    if (len > 8) mix(load(p + 8, std::min<size_t>(len - 8, 8)));
    if (len > 16) {
      u64 word;
      std::memcpy(&word, p + len - 8, 8);
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
