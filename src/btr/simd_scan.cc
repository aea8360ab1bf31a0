#include "btr/simd_scan.h"

#include <algorithm>
#include <cstring>

#include "bitpack/bitpack.h"
#include "util/simd.h"

namespace btr::simd {

namespace {

inline bool F64InRange(double v, double lo, double hi, bool lo_strict,
                       bool hi_strict) {
  // IEEE ordered comparisons: NaN fails every clause.
  bool ge = lo_strict ? (v > lo) : (v >= lo);
  bool le = hi_strict ? (v < hi) : (v <= hi);
  return ge && le;
}

inline u64 BitsOf(double d) {
  u64 b;
  std::memcpy(&b, &d, sizeof(u64));
  return b;
}

#if BTR_HAS_AVX2
// The 32 row bits of four consecutive 8-lane i32 compare masks: one
// signed-saturating narrowing to bytes and one movemask instead of four.
inline u32 MoveMask32(__m256i a, __m256i b, __m256i c, __m256i d) {
  const __m256i lane_fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  __m256i bytes = _mm256_packs_epi16(_mm256_packs_epi32(a, b),
                                     _mm256_packs_epi32(c, d));
  return static_cast<u32>(
      _mm256_movemask_epi8(_mm256_permutevar8x32_epi32(bytes, lane_fix)));
}

// One word from 64 consecutive i32 rows; lanes(p) compares rows p..p+7.
template <typename LanesFn>
inline u64 I32Word(const i32* p, const LanesFn& lanes) {
  const u64 low = MoveMask32(lanes(p), lanes(p + 8), lanes(p + 16),
                             lanes(p + 24));
  const u64 high = MoveMask32(lanes(p + 32), lanes(p + 40), lanes(p + 48),
                              lanes(p + 56));
  return low | high << 32;
}
#endif

}  // namespace

void SelectI32Range(const i32* values, u32 count, i32 lo, i32 hi,
                    u64* words) {
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled() && lo <= hi) {
    // lo <= v <= hi  <=>  u32(v - lo) <= u32(hi - lo): one unsigned test.
    const __m256i vlo = _mm256_set1_epi32(lo);
    const __m256i span = _mm256_set1_epi32(
        static_cast<i32>(static_cast<u32>(hi) - static_cast<u32>(lo)));
    auto lanes = [&](const i32* p) {
      __m256i offset = _mm256_sub_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), vlo);
      return _mm256_cmpeq_epi32(_mm256_max_epu32(offset, span), span);
    };
    for (; i + 64 <= count; i += 64) words[i / 64] = I32Word(values + i, lanes);
  }
#endif
  // The scalar twin, and the rows after the last full AVX2 group.
  WriteBits(i, count, words,
            [&](u32 j) { return values[j] >= lo && values[j] <= hi; });
}

void SelectI32Set(const i32* values, u32 count, const std::vector<i32>& set,
                  u64* words) {
  if (set.size() == 1) {
    SelectI32Range(values, count, set[0], set[0], words);
    return;
  }
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled() && !set.empty() && set.size() <= 8) {
    __m256i needles[8];
    for (size_t s = 0; s < set.size(); s++) {
      needles[s] = _mm256_set1_epi32(set[s]);
    }
    auto lanes = [&](const i32* p) {
      __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      __m256i eq = _mm256_cmpeq_epi32(v, needles[0]);
      for (size_t s = 1; s < set.size(); s++) {
        eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(v, needles[s]));
      }
      return eq;
    };
    for (; i + 64 <= count; i += 64) words[i / 64] = I32Word(values + i, lanes);
  }
#endif
  WriteBits(i, count, words, [&](u32 j) {
    return std::binary_search(set.begin(), set.end(), values[j]);
  });
}

void SelectF64Range(const double* values, u32 count, double lo, double hi,
                    bool lo_strict, bool hi_strict, u64* words) {
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    const __m256d vlo = _mm256_set1_pd(lo);
    const __m256d vhi = _mm256_set1_pd(hi);
    for (; i + 64 <= count; i += 64) {
      u64 word = 0;
      for (u32 g = 0; g < 64; g += 4) {
        __m256d v = _mm256_loadu_pd(values + i + g);
        __m256d ge = lo_strict ? _mm256_cmp_pd(v, vlo, _CMP_GT_OQ)
                               : _mm256_cmp_pd(v, vlo, _CMP_GE_OQ);
        __m256d le = hi_strict ? _mm256_cmp_pd(v, vhi, _CMP_LT_OQ)
                               : _mm256_cmp_pd(v, vhi, _CMP_LE_OQ);
        word |= static_cast<u64>(static_cast<u32>(
                    _mm256_movemask_pd(_mm256_and_pd(ge, le))))
                << g;
      }
      words[i / 64] = word;
    }
  }
#endif
  WriteBits(i, count, words, [&](u32 j) {
    return F64InRange(values[j], lo, hi, lo_strict, hi_strict);
  });
}

void SelectF64BitsSet(const double* values, u32 count,
                      const std::vector<u64>& bit_set, u64* words) {
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled() && !bit_set.empty() && bit_set.size() <= 8) {
    __m256i needles[8];
    for (size_t s = 0; s < bit_set.size(); s++) {
      needles[s] = _mm256_set1_epi64x(static_cast<long long>(bit_set[s]));
    }
    for (; i + 64 <= count; i += 64) {
      u64 word = 0;
      for (u32 g = 0; g < 64; g += 4) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(values + i + g));
        __m256i eq = _mm256_cmpeq_epi64(v, needles[0]);
        for (size_t s = 1; s < bit_set.size(); s++) {
          eq = _mm256_or_si256(eq, _mm256_cmpeq_epi64(v, needles[s]));
        }
        word |= static_cast<u64>(static_cast<u32>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(eq))))
                << g;
      }
      words[i / 64] = word;
    }
  }
#endif
  WriteBits(i, count, words, [&](u32 j) {
    return std::binary_search(bit_set.begin(), bit_set.end(),
                              BitsOf(values[j]));
  });
}

// --- FastBP128 stream range scan ---------------------------------------------

namespace {

// Compares one frame's 128 unpacked deltas against the closed unsigned
// interval [dlo, dhi] and writes the frame's two words.
void CompareDeltas128(const u32* deltas, u32 dlo, u32 dhi, u32 bits,
                      u64* out) {
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    if (bits <= 8) {
      // ByteSlice-style byte kernel: deltas fit one byte, so narrow four
      // 8-lane u32 vectors into one 32-lane u8 vector and compare all 32
      // per instruction. saturating-subtract trick: subs_epu8(x, dhi) is
      // nonzero iff x > dhi, subs_epu8(dlo, x) nonzero iff x < dlo.
      const __m256i vdlo = _mm256_set1_epi8(static_cast<char>(dlo));
      const __m256i vdhi = _mm256_set1_epi8(static_cast<char>(dhi));
      const __m256i zero = _mm256_setzero_si256();
      const __m256i lane_fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
      u64 masks[4];
      for (u32 g = 0; g < 128; g += 32) {
        const __m256i* p = reinterpret_cast<const __m256i*>(deltas + g);
        __m256i ab = _mm256_packus_epi32(_mm256_loadu_si256(p),
                                         _mm256_loadu_si256(p + 1));
        __m256i cd = _mm256_packus_epi32(_mm256_loadu_si256(p + 2),
                                         _mm256_loadu_si256(p + 3));
        __m256i bytes = _mm256_permutevar8x32_epi32(
            _mm256_packus_epi16(ab, cd), lane_fix);
        __m256i bad = _mm256_or_si256(_mm256_subs_epu8(bytes, vdhi),
                                      _mm256_subs_epu8(vdlo, bytes));
        masks[g / 32] = static_cast<u32>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(bad, zero)));
      }
      out[0] = masks[0] | masks[1] << 32;
      out[1] = masks[2] | masks[3] << 32;
      return;
    }
    // Dword kernel: unsigned 32-bit interval test via sign-bias + signed
    // compare, 8 lanes per instruction.
    const __m256i bias = _mm256_set1_epi32(static_cast<i32>(0x80000000u));
    const __m256i vdlo =
        _mm256_xor_si256(_mm256_set1_epi32(static_cast<i32>(dlo)), bias);
    const __m256i vdhi =
        _mm256_xor_si256(_mm256_set1_epi32(static_cast<i32>(dhi)), bias);
    out[0] = out[1] = 0;
    for (u32 g = 0; g < 128; g += 8) {
      __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(deltas + g)),
          bias);
      __m256i lt = _mm256_cmpgt_epi32(vdlo, v);
      __m256i gt = _mm256_cmpgt_epi32(v, vdhi);
      u32 bad = static_cast<u32>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(lt, gt))));
      out[g / 64] |= static_cast<u64>(~bad & 0xFFu) << (g % 64);
    }
    return;
  }
#endif
  (void)bits;
  WriteBits(0, bitpack::kBlockSize, out,
            [&](u32 j) { return deltas[j] >= dlo && deltas[j] <= dhi; });
}

}  // namespace

void SelectBp128Range(const u8* stream, u32 count, i32 lo, i32 hi,
                      u64* words) {
  if (lo > hi) {
    std::fill_n(words, WordCount(count), u64{0});
    return;
  }
  alignas(32) u32 deltas[bitpack::kBlockSize];
  bitpack::Bp128Reader reader(stream, count);
  for (bitpack::Bp128Frame frame; reader.Next(&frame);) {
    i64 bmin = static_cast<i32>(frame.reference);
    if (frame.count < bitpack::kBlockSize) {
      // Contiguously packed tail: always scalar (both policies take the
      // same path, trivially preserving SIMD/scalar parity on the last
      // values).
      bitpack::UnpackFrame(frame, deltas);
      WriteBits(frame.first, frame.first + frame.count, words, [&](u32 row) {
        i64 v = bmin + deltas[row - frame.first];
        return v >= lo && v <= hi;
      });
      continue;
    }
    // Frames start at multiples of 128: a full frame's rows are two words.
    u64* frame_words = words + frame.first / 64;

    // Frame-of-reference envelope: every value lies in [bmin, bmin+mask].
    // i64 math sidesteps overflow at the i32 extremes.
    u64 mask = frame.bits == 32 ? 0xFFFFFFFFull : ((u64{1} << frame.bits) - 1);
    i64 bmax = bmin + static_cast<i64>(mask);
    if (bmin > hi || bmax < lo) {  // byte-prune: skip the payload
      frame_words[0] = frame_words[1] = 0;
      continue;
    }
    if (bmin >= lo && bmax <= hi) {  // whole-accept without unpacking
      frame_words[0] = frame_words[1] = ~u64{0};
      continue;
    }
    bitpack::UnpackFrame(frame, deltas);
    u32 dlo = static_cast<u32>(std::max<i64>(0, static_cast<i64>(lo) - bmin));
    u32 dhi = static_cast<u32>(
        std::min<i64>(static_cast<i64>(mask), static_cast<i64>(hi) - bmin));
    CompareDeltas128(deltas, dlo, dhi, frame.bits, frame_words);
  }
}

}  // namespace btr::simd
