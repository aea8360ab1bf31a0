// Shared helper: estimate a scheme's compression ratio by actually
// compressing the sample with it (paper Section 3.1, step 3). Cascades
// inside the sample compression run with the same recursion budget the
// real compression would get, so the estimate reflects the full cascade.
#ifndef BTR_BTR_SCHEMES_ESTIMATE_UTIL_H_
#define BTR_BTR_SCHEMES_ESTIMATE_UTIL_H_

#include "btr/scheme.h"

namespace btr {

inline double RatioOf(size_t input_bytes, size_t output_bytes) {
  if (output_bytes == 0) return 0.0;
  return static_cast<double>(input_bytes) / static_cast<double>(output_bytes);
}

template <typename T>
double EstimateBySample(const NumericScheme<T>& scheme,
                        const NumericSample<T>& sample,
                        const CompressionContext& ctx) {
  if (sample.values.empty()) return 0.0;
  ByteBuffer scratch;
  CompressionContext estimate_ctx = ctx;
  estimate_ctx.estimating = true;
  u32 count = static_cast<u32>(sample.values.size());
  size_t out_bytes =
      scheme.Compress(sample.values.data(), count, &scratch, estimate_ctx);
  return RatioOf(InputBytes(sample.values.data(), count), out_bytes);
}

inline double EstimateBySample(const StringScheme& scheme,
                               const StringSample& sample,
                               const CompressionContext& ctx) {
  StringsView view = sample.View();
  if (view.count == 0) return 0.0;
  ByteBuffer scratch;
  CompressionContext estimate_ctx = ctx;
  estimate_ctx.estimating = true;
  size_t out_bytes = scheme.Compress(view, &scratch, estimate_ctx);
  return RatioOf(InputBytes(view), out_bytes);
}

}  // namespace btr

#endif  // BTR_BTR_SCHEMES_ESTIMATE_UTIL_H_
