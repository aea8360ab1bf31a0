#include "btr/simd_scan.h"

#include <algorithm>
#include <cstring>

#include "bitpack/bitpack.h"
#include "util/simd.h"

namespace btr::simd {

namespace {

// Shared scalar reference for the i32 closed-range kernel; also the tail
// loop of the AVX2 body so both paths agree on every position.
inline void SelectI32RangeScalar(const i32* values, u32 count, u32 base,
                                 i32 lo, i32 hi, RoaringBitmap* out) {
  for (u32 i = 0; i < count; i++) {
    if (values[i] >= lo && values[i] <= hi) out->Add(base + i);
  }
}

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

}  // namespace

void SelectI32Range(const i32* values, u32 count, u32 base, i32 lo, i32 hi,
                    RoaringBitmap* out) {
  if (lo > hi) return;
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    const __m256i vlo = _mm256_set1_epi32(lo);
    const __m256i vhi = _mm256_set1_epi32(hi);
    for (; i + 8 <= count; i += 8) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + i));
      __m256i lt = _mm256_cmpgt_epi32(vlo, v);  // v < lo
      __m256i gt = _mm256_cmpgt_epi32(v, vhi);  // v > hi
      u32 bad = static_cast<u32>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(lt, gt))));
      u32 good = ~bad & 0xFFu;
      while (good != 0) {
        u32 bit = static_cast<u32>(__builtin_ctz(good));
        out->Add(base + i + bit);
        good &= good - 1;
      }
    }
  }
#endif
  SelectI32RangeScalar(values + i, count - i, base + i, lo, hi, out);
}

void SelectI32Set(const i32* values, u32 count, u32 base,
                  const std::vector<i32>& set, RoaringBitmap* out) {
  if (set.empty()) return;
  if (set.size() == 1) {
    SelectI32Range(values, count, base, set[0], set[0], out);
    return;
  }
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled() && set.size() <= 8) {
    __m256i needles[8];
    for (size_t s = 0; s < set.size(); s++) {
      needles[s] = _mm256_set1_epi32(set[s]);
    }
    for (; i + 8 <= count; i += 8) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + i));
      __m256i eq = _mm256_cmpeq_epi32(v, needles[0]);
      for (size_t s = 1; s < set.size(); s++) {
        eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(v, needles[s]));
      }
      u32 good =
          static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
      while (good != 0) {
        u32 bit = static_cast<u32>(__builtin_ctz(good));
        out->Add(base + i + bit);
        good &= good - 1;
      }
    }
  }
#endif
  for (; i < count; i++) {
    if (std::binary_search(set.begin(), set.end(), values[i])) {
      out->Add(base + i);
    }
  }
}

void SelectF64Range(const double* values, u32 count, u32 base, double lo,
                    double hi, bool lo_strict, bool hi_strict,
                    RoaringBitmap* out) {
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    const __m256d vlo = _mm256_set1_pd(lo);
    const __m256d vhi = _mm256_set1_pd(hi);
    for (; i + 4 <= count; i += 4) {
      __m256d v = _mm256_loadu_pd(values + i);
      __m256d ge = lo_strict ? _mm256_cmp_pd(v, vlo, _CMP_GT_OQ)
                             : _mm256_cmp_pd(v, vlo, _CMP_GE_OQ);
      __m256d le = hi_strict ? _mm256_cmp_pd(v, vhi, _CMP_LT_OQ)
                             : _mm256_cmp_pd(v, vhi, _CMP_LE_OQ);
      u32 good =
          static_cast<u32>(_mm256_movemask_pd(_mm256_and_pd(ge, le)));
      while (good != 0) {
        u32 bit = static_cast<u32>(__builtin_ctz(good));
        out->Add(base + i + bit);
        good &= good - 1;
      }
    }
  }
#endif
  for (; i < count; i++) {
    if (F64InRange(values[i], lo, hi, lo_strict, hi_strict)) {
      out->Add(base + i);
    }
  }
}

void SelectF64BitsSet(const double* values, u32 count, u32 base,
                      const std::vector<u64>& bit_set, RoaringBitmap* out) {
  if (bit_set.empty()) return;
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled() && bit_set.size() <= 8) {
    __m256i needles[8];
    for (size_t s = 0; s < bit_set.size(); s++) {
      needles[s] = _mm256_set1_epi64x(static_cast<long long>(bit_set[s]));
    }
    for (; i + 4 <= count; i += 4) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + i));
      __m256i eq = _mm256_cmpeq_epi64(v, needles[0]);
      for (size_t s = 1; s < bit_set.size(); s++) {
        eq = _mm256_or_si256(eq, _mm256_cmpeq_epi64(v, needles[s]));
      }
      u32 good =
          static_cast<u32>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
      while (good != 0) {
        u32 bit = static_cast<u32>(__builtin_ctz(good));
        out->Add(base + i + bit);
        good &= good - 1;
      }
    }
  }
#endif
  for (; i < count; i++) {
    if (std::binary_search(bit_set.begin(), bit_set.end(),
                           BitsOf(values[i]))) {
      out->Add(base + i);
    }
  }
}

// --- FastBP128 stream range scan ---------------------------------------------

namespace {

// Compares 128 unpacked deltas against the closed unsigned interval
// [dlo, dhi], adding matches at base..base+127.
void CompareDeltas128(const u32* deltas, u32 base, u32 dlo, u32 dhi, u32 bits,
                      RoaringBitmap* out) {
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
        u32 good = static_cast<u32>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(bad, zero)));
        while (good != 0) {  // early exit: all-miss groups fall through
          u32 bit = static_cast<u32>(__builtin_ctz(good));
          out->Add(base + g + bit);
          good &= good - 1;
        }
      }
      return;
    }
    // Word kernel: unsigned 32-bit interval test via sign-bias + signed
    // compare, 8 lanes per instruction.
    const __m256i bias = _mm256_set1_epi32(static_cast<i32>(0x80000000u));
    const __m256i vdlo =
        _mm256_xor_si256(_mm256_set1_epi32(static_cast<i32>(dlo)), bias);
    const __m256i vdhi =
        _mm256_xor_si256(_mm256_set1_epi32(static_cast<i32>(dhi)), bias);
    for (u32 g = 0; g < 128; g += 8) {
      __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(deltas + g)),
          bias);
      __m256i lt = _mm256_cmpgt_epi32(vdlo, v);
      __m256i gt = _mm256_cmpgt_epi32(v, vdhi);
      u32 bad = static_cast<u32>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(lt, gt))));
      u32 good = ~bad & 0xFFu;
      while (good != 0) {
        u32 bit = static_cast<u32>(__builtin_ctz(good));
        out->Add(base + g + bit);
        good &= good - 1;
      }
    }
    return;
  }
#endif
  (void)bits;
  for (u32 j = 0; j < 128; j++) {
    if (deltas[j] >= dlo && deltas[j] <= dhi) out->Add(base + j);
  }
}

}  // namespace

void SelectBp128Range(const u8* stream, u32 count, u32 base, i32 lo, i32 hi,
                      RoaringBitmap* out, Bp128ScanStats* stats) {
  if (lo > hi) return;
  alignas(32) u32 deltas[bitpack::kBlockSize];
  bitpack::Bp128Reader reader(stream, count);
  for (bitpack::Bp128Frame frame; reader.Next(&frame);) {
    u32 first = base + frame.first;
    i64 bmin = static_cast<i32>(frame.reference);
    if (frame.count < bitpack::kBlockSize) {
      // Contiguously packed tail: always scalar (both policies take the
      // same path, trivially preserving SIMD/scalar parity on the last
      // values).
      bitpack::UnpackFrame(frame, deltas);
      for (u32 j = 0; j < frame.count; j++) {
        i64 v = bmin + deltas[j];
        if (v >= lo && v <= hi) out->Add(first + j);
      }
      continue;
    }
    if (stats != nullptr) stats->miniblocks++;

    // Frame-of-reference envelope: every value lies in [bmin, bmin+mask].
    // i64 math sidesteps overflow at the i32 extremes.
    u64 mask = frame.bits == 32 ? 0xFFFFFFFFull : ((u64{1} << frame.bits) - 1);
    i64 bmax = bmin + static_cast<i64>(mask);
    if (bmin > hi || bmax < lo) {  // byte-prune: skip the packed payload
      if (stats != nullptr) stats->pruned++;
      continue;
    }
    if (bmin >= lo && bmax <= hi) {  // whole-accept without unpacking
      if (stats != nullptr) stats->accepted++;
      out->AddRange(first, first + bitpack::kBlockSize);
      continue;
    }
    if (stats != nullptr) stats->scanned++;
    bitpack::UnpackFrame(frame, deltas);
    u32 dlo = static_cast<u32>(std::max<i64>(0, static_cast<i64>(lo) - bmin));
    u32 dhi = static_cast<u32>(
        std::min<i64>(static_cast<i64>(mask), static_cast<i64>(hi) - bmin));
    CompareDeltas128(deltas, first, dlo, dhi, frame.bits, out);
  }
}

}  // namespace btr::simd
