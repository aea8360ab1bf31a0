// The integer scheme pool (paper Figure 3, left-to-right): Uncompressed,
// OneValue, RLE, Dictionary and Frequency (shared with doubles,
// numeric_schemes.h), then the integer-only SIMD-FastBP128 and
// SIMD-FastPFOR declared here. Registry in registry.cc.
#ifndef BTR_BTR_SCHEMES_INT_SCHEMES_H_
#define BTR_BTR_SCHEMES_INT_SCHEMES_H_

#include "btr/scheme.h"

namespace btr {

class IntBp128 final : public IntScheme {
 public:
  IntSchemeCode code() const override { return IntSchemeCode::kBp128; }
  const char* name() const override { return "fastbp128"; }
  double EstimateRatio(const IntStats&, const IntSample&,
                       const CompressionContext&) const override;
  size_t Compress(const i32* in, u32 count, ByteBuffer* out,
                  const CompressionContext& ctx) const override;
  void Decompress(const u8* in, u32 count, i32* out) const override;
};

class IntPfor final : public IntScheme {
 public:
  IntSchemeCode code() const override { return IntSchemeCode::kPfor; }
  const char* name() const override { return "fastpfor"; }
  double EstimateRatio(const IntStats&, const IntSample&,
                       const CompressionContext&) const override;
  size_t Compress(const i32* in, u32 count, ByteBuffer* out,
                  const CompressionContext& ctx) const override;
  void Decompress(const u8* in, u32 count, i32* out) const override;
};

}  // namespace btr

#endif  // BTR_BTR_SCHEMES_INT_SCHEMES_H_
