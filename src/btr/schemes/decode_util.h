// Shared decode kernels of the scheme decoders (paper Section 5): value
// broadcast, run expansion, dictionary gather and the fused RLE+Dict path.
// Each is written once for any 4- or 8-byte trivially copyable value
// (i32, double, StringSlot), with an AVX2 body and a scalar twin chosen by
// SimdPolicy. The AVX2 bodies store whole vectors past the logical end, so
// output buffers need kDecodeSlack elements of slack.
#ifndef BTR_BTR_SCHEMES_DECODE_UTIL_H_
#define BTR_BTR_SCHEMES_DECODE_UTIL_H_

#include <algorithm>
#include <cstring>
#include <vector>

#include "btr/layout.h"
#include "btr/scheme_picker.h"
#include "util/simd.h"

namespace btr {

namespace decode_detail {

#if BTR_HAS_AVX2
template <typename T>
constexpr u32 kLanes = 32 / sizeof(T);

template <typename T>
__m256i Broadcast(const T& value) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 4) {
    i32 bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return _mm256_set1_epi32(bits);
  } else {
    long long bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return _mm256_set1_epi64x(bits);
  }
}
#endif

}  // namespace decode_detail

// out[0, count) = value.
template <typename T>
void FillValue(T value, u32 count, T* out) {
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    const __m256i v = decode_detail::Broadcast(value);
    for (T* p = out; p < out + count; p += decode_detail::kLanes<T>) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    return;
  }
#endif
  std::fill_n(out, count, value);
}

// Writes value_of(r) lengths[r] times for every run r (paper Listing 3,
// top): AVX2 stores overrun short runs and the cursor is corrected
// afterwards. Returns the end of the written values.
template <typename T, typename ValueOf>
T* ExpandRuns(const ValueOf& value_of, const i32* lengths, u32 run_count,
              T* out) {
  T* dst = out;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    for (u32 r = 0; r < run_count; r++) {
      const __m256i v = decode_detail::Broadcast<T>(value_of(r));
      T* target = dst + lengths[r];
      for (; dst < target; dst += decode_detail::kLanes<T>) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
      }
      dst = target;  // correct the overshoot
    }
    return dst;
  }
#endif
  for (u32 r = 0; r < run_count; r++) {
    dst = std::fill_n(dst, lengths[r], static_cast<T>(value_of(r)));
  }
  return dst;
}

// out[i] = dict[codes[i]], a 4x unrolled AVX2 gather (paper Listing 3,
// bottom).
template <typename T>
void GatherDict(const T* dict, const i32* codes, u32 count, T* out) {
  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    constexpr u32 kLanes = decode_detail::kLanes<T>;
    auto gather = [&](u32 at) {
      __m256i v;
      if constexpr (sizeof(T) == 4) {
        __m256i c =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + at));
        v = _mm256_i32gather_epi32(reinterpret_cast<const int*>(dict), c, 4);
      } else {
        __m128i c =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + at));
        v = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(dict),
                                   c, 8);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + at), v);
    };
    for (; i + 4 * kLanes <= count; i += 4 * kLanes) {
      for (u32 u = 0; u < 4; u++) gather(i + u * kLanes);
    }
    for (; i + kLanes <= count; i += kLanes) gather(i);
  }
#endif
  for (; i < count; i++) out[i] = dict[codes[i]];
}

// Row values of a dictionary-encoded vector: out[i] = dict[code of row i].
// With `fuse` set and a code vector that is RLE with runs averaging at
// least 3 rows, runs of codes become runs of values without an
// intermediate code array (fused RLE+Dict, paper Section 5; below that
// run length fusing does not pay).
template <typename T>
void DecodeDictionary(const u8* codes, u32 count, const T* dict, bool fuse,
                      T* out) {
  if (fuse && PeekIntScheme(codes) == IntSchemeCode::kRle) {
    layout::Rle rle = layout::ReadRle(codes + 1);
    if (rle.run_count * 3 <= count) {
      layout::Runs<i32> runs = layout::DecodeRuns<i32>(rle);
      T* end = ExpandRuns([&](u32 r) { return dict[runs.values[r]]; },
                          runs.lengths.data(), runs.count, out);
      BTR_DCHECK(end == out + count);
      (void)end;
      return;
    }
  }
  std::vector<i32> ids(count + kDecodeSlack);
  DecompressInts(codes, count, ids.data());
  GatherDict(dict, ids.data(), count, out);
}

}  // namespace btr

#endif  // BTR_BTR_SCHEMES_DECODE_UTIL_H_
