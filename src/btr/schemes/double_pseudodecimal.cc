// Pseudodecimal Encoding (paper Section 4): each double becomes
// (significant digits with sign, base-10 exponent); values that admit no
// exact decimal form with <= 32-bit digits and exponent <= 22 — as well as
// -0.0, infinities and NaNs — are stored verbatim as patches. Digits and
// exponents are integer vectors that cascade into the integer scheme pool
// (paper Section 4.2). Decompression is vectorized (Section 5): 4 doubles
// per step via cvtepi32_pd + gathered power-of-ten multipliers, falling
// back to scalar code only for vector blocks containing patches.
//
// Payload: [u32 patch_count][u32 digits_bytes][digits vector]
//          [u32 exps_bytes][exps vector][u32 bitmap_bytes][roaring bitmap]
//          [raw patch doubles]
#include <cmath>
#include <cstring>
#include <vector>

#include "bitmap/roaring.h"
#include "btr/scheme_picker.h"
#include "btr/schemes/double_schemes.h"
#include "btr/schemes/estimate_util.h"
#include "util/simd.h"

namespace btr {

namespace pseudodecimal {

// frac10[e] == 10^-e. Stored (rather than computed) so encoder and decoder
// use bit-identical multipliers (paper Listing 2, footnote 1: multiplying
// is slightly faster than dividing during decompression).
extern const double kFrac10[kMaxExponent + 1];
const double kFrac10[kMaxExponent + 1] = {
    1.0,   1e-1,  1e-2,  1e-3,  1e-4,  1e-5,  1e-6,  1e-7,
    1e-8,  1e-9,  1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15,
    1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21, 1e-22};

Decimal EncodeSingle(double input) {
  if (!std::isfinite(input) || (input == 0.0 && std::signbit(input))) {
    return Decimal{0, kExponentException, input};
  }
  bool neg = input < 0;
  double dbl = neg ? -input : input;
  for (u32 exp = 0; exp <= kMaxExponent; exp++) {
    double cd = dbl / kFrac10[exp];
    if (cd > 2147483646.0) break;  // digits must fit 32 signed bits
    i64 digits = std::llround(cd);
    double orig = static_cast<double>(digits) * kFrac10[exp];
    if (orig == dbl) {
      return Decimal{static_cast<i32>(neg ? -digits : digits), exp, 0.0};
    }
  }
  return Decimal{0, kExponentException, input};
}

double DecodeSingle(i32 digits, u32 exp) {
  return static_cast<double>(digits) * kFrac10[exp];
}

}  // namespace pseudodecimal

using pseudodecimal::Decimal;
using pseudodecimal::EncodeSingle;
using pseudodecimal::kExponentException;
using pseudodecimal::kFrac10;

double DoublePseudodecimal::EstimateRatio(const DoubleStats& stats,
                                          const DoubleSample& sample,
                                          const CompressionContext& ctx) const {
  // Paper Section 4.2: disabled for columns with < 10% unique values
  // (dictionaries decompress faster at similar ratios)...
  if (stats.unique_count * 10 < stats.count) return 0.0;
  // ...and for columns with > 50% non-encodable exception values.
  u32 patches = 0;
  for (double v : sample.values) {
    if (EncodeSingle(v).exp == kExponentException) patches++;
  }
  if (patches * 2 > sample.values.size()) return 0.0;
  return EstimateBySample(*this, sample, ctx);
}

size_t DoublePseudodecimal::Compress(const double* in, u32 count,
                                     ByteBuffer* out,
                                     const CompressionContext& ctx) const {
  size_t start = out->size();
  std::vector<i32> digits(count);
  std::vector<i32> exps(count);
  std::vector<double> patches;
  RoaringBitmap patch_bitmap;
  for (u32 i = 0; i < count; i++) {
    Decimal d = EncodeSingle(in[i]);
    digits[i] = d.digits;
    exps[i] = static_cast<i32>(d.exp);
    if (d.exp == kExponentException) {
      patch_bitmap.Add(i);
      patches.push_back(d.patch);
    }
  }
  patch_bitmap.RunOptimize();

  out->AppendValue<u32>(static_cast<u32>(patches.size()));
  size_t digits_slot = out->size();
  out->AppendValue<u32>(0);
  u32 digits_bytes = static_cast<u32>(
      CompressValues(digits.data(), count, out, ctx.Descend()));
  std::memcpy(out->data() + digits_slot, &digits_bytes, sizeof(u32));
  size_t exps_slot = out->size();
  out->AppendValue<u32>(0);
  u32 exps_bytes =
      static_cast<u32>(CompressValues(exps.data(), count, out, ctx.Descend()));
  std::memcpy(out->data() + exps_slot, &exps_bytes, sizeof(u32));
  out->AppendValue<u32>(static_cast<u32>(patch_bitmap.SerializedSizeBytes()));
  patch_bitmap.SerializeTo(out);
  out->Append(patches.data(), patches.size() * sizeof(double));
  return out->size() - start;
}

void DoublePseudodecimal::Decompress(const u8* in, u32 count,
                                     double* out) const {
  u32 patch_count, digits_bytes;
  std::memcpy(&patch_count, in, sizeof(u32));
  std::memcpy(&digits_bytes, in + 4, sizeof(u32));
  const u8* digits_blob = in + 8;
  const u8* after_digits = digits_blob + digits_bytes;
  u32 exps_bytes;
  std::memcpy(&exps_bytes, after_digits, sizeof(u32));
  const u8* exps_blob = after_digits + 4;
  const u8* after_exps = exps_blob + exps_bytes;
  u32 bitmap_bytes;
  std::memcpy(&bitmap_bytes, after_exps, sizeof(u32));
  const u8* bitmap_blob = after_exps + 4;
  const u8* patch_bytes = bitmap_blob + bitmap_bytes;
  auto load_patch = [&](size_t k) {
    double v;  // may be unaligned in the payload
    std::memcpy(&v, patch_bytes + k * sizeof(double), sizeof(double));
    return v;
  };

  std::vector<i32> digits(count + kDecodeSlack);
  std::vector<i32> exps(count + kDecodeSlack);
  DecompressInts(digits_blob, count, digits.data());
  DecompressInts(exps_blob, count, exps.data());

  // Patch positions in ascending order; consumed front to back.
  std::vector<u32> patch_positions;
  if (patch_count > 0) {
    RoaringBitmap bitmap = RoaringBitmap::Deserialize(bitmap_blob, nullptr);
    patch_positions = bitmap.ToVector();
    BTR_DCHECK(patch_positions.size() == patch_count);
  }
  size_t next_patch = 0;
  auto patch_position = [&](size_t k) {
    return k < patch_positions.size() ? patch_positions[k] : count;
  };

  u32 i = 0;
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    for (; i + 4 <= count; i += 4) {
      if (patch_position(next_patch) < i + 4) {
        // Scalar fallback for blocks containing patches (paper Section 5).
        for (u32 j = i; j < i + 4; j++) {
          if (patch_position(next_patch) == j) {
            out[j] = load_patch(next_patch++);
          } else {
            out[j] = pseudodecimal::DecodeSingle(digits[j], exps[j]);
          }
        }
        continue;
      }
      __m128i dig =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(digits.data() + i));
      __m128i exp =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(exps.data() + i));
      __m256d values = _mm256_cvtepi32_pd(dig);
      // Gathered as 64-bit integers: GCC's _mm256_i32gather_pd starts from
      // an undefined vector and trips -Wmaybe-uninitialized.
      __m256d multipliers = _mm256_castsi256_pd(_mm256_i32gather_epi64(
          reinterpret_cast<const long long*>(kFrac10), exp, 8));
      _mm256_storeu_pd(out + i, _mm256_mul_pd(values, multipliers));
    }
  }
#endif
  for (; i < count; i++) {
    if (patch_position(next_patch) == i) {
      out[i] = load_patch(next_patch++);
    } else {
      out[i] = pseudodecimal::DecodeSingle(digits[i], exps[i]);
    }
  }
  BTR_DCHECK(next_patch == patch_count);
}

}  // namespace btr
