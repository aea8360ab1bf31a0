// Bit-twiddling helpers shared by the bit-packing, floating-point and
// bitmap modules.
#ifndef BTR_UTIL_BITS_H_
#define BTR_UTIL_BITS_H_

#include <bit>

#include "util/types.h"

namespace btr {

// Number of bits required to represent `v` (0 needs 0 bits).
inline u32 BitWidth(u32 v) { return v == 0 ? 0 : 32 - std::countl_zero(v); }
inline u32 BitWidth64(u64 v) { return v == 0 ? 0 : 64 - std::countl_zero(v); }

inline u32 CountLeadingZeros64(u64 v) { return v == 0 ? 64 : std::countl_zero(v); }
inline u32 CountTrailingZeros64(u64 v) { return v == 0 ? 64 : std::countr_zero(v); }
inline u32 PopCount64(u64 v) { return std::popcount(v); }

// Zigzag maps signed to unsigned so small-magnitude values stay small.
inline u32 ZigzagEncode(i32 v) { return (static_cast<u32>(v) << 1) ^ static_cast<u32>(v >> 31); }
inline i32 ZigzagDecode(u32 v) { return static_cast<i32>(v >> 1) ^ -static_cast<i32>(v & 1); }
inline u64 ZigzagEncode64(i64 v) { return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63); }
inline i64 ZigzagDecode64(u64 v) { return static_cast<i64>(v >> 1) ^ -static_cast<i64>(v & 1); }

inline u64 CeilDiv(u64 a, u64 b) { return (a + b - 1) / b; }

// --- dense bit words ---------------------------------------------------------
// Bit i of words[i / 64] is position i: the predicate engine's block-local
// selections (btr/simd_scan.h) and RoaringBitmap::FromWords / OrInto.

// Words holding `bits` positions.
inline u32 WordCount(u32 bits) { return (bits + 63) / 64; }

// The valid bits of the last of WordCount(count) words (all ones when
// count is a multiple of 64).
inline u64 LastWordMask(u32 count) {
  return count % 64 == 0 ? ~u64{0} : (u64{1} << (count % 64)) - 1;
}

inline void SetBit(u64* words, u32 i) { words[i >> 6] |= u64{1} << (i & 63); }

// Overwrites the words of positions [begin, count), begin a multiple of 64:
// bit i is bit_of(i), and the bits past `count` in the last word are zero.
template <typename BitFn>
void WriteBits(u32 begin, u32 count, u64* words, const BitFn& bit_of) {
  for (u32 first = begin; first < count; first += 64) {
    const u32 n = count - first < 64 ? count - first : 64;
    u64 word = 0;
    for (u32 j = 0; j < n; j++) {
      word |= static_cast<u64>(bit_of(first + j)) << j;
    }
    words[first / 64] = word;
  }
}

// Sets positions [begin, end).
inline void SetBits(u64* words, u32 begin, u32 end) {
  if (begin >= end) return;
  const u32 first = begin >> 6;
  const u32 last = (end - 1) >> 6;
  const u64 first_mask = ~u64{0} << (begin & 63);
  const u64 last_mask = ~u64{0} >> (63 - ((end - 1) & 63));
  if (first == last) {
    words[first] |= first_mask & last_mask;
    return;
  }
  words[first] |= first_mask;
  for (u32 w = first + 1; w < last; w++) words[w] = ~u64{0};
  words[last] |= last_mask;
}

}  // namespace btr

#endif  // BTR_UTIL_BITS_H_
