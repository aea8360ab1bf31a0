// The double scheme pool (paper Figure 3, middle): Uncompressed, OneValue,
// RLE, Dictionary and Frequency (shared with integers,
// numeric_schemes.h), then the novel Pseudodecimal Encoding (paper
// Section 4) declared here.
#ifndef BTR_BTR_SCHEMES_DOUBLE_SCHEMES_H_
#define BTR_BTR_SCHEMES_DOUBLE_SCHEMES_H_

#include "btr/scheme.h"

namespace btr {

class DoublePseudodecimal final : public DoubleScheme {
 public:
  DoubleSchemeCode code() const override {
    return DoubleSchemeCode::kPseudodecimal;
  }
  const char* name() const override { return "pseudodecimal"; }
  double EstimateRatio(const DoubleStats&, const DoubleSample&,
                       const CompressionContext&) const override;
  size_t Compress(const double* in, u32 count, ByteBuffer* out,
                  const CompressionContext& ctx) const override;
  void Decompress(const u8* in, u32 count, double* out) const override;
};

namespace pseudodecimal {

// One encoded double: significant digits with sign and a base-10 exponent
// (paper Listing 2); exp == kExponentException marks a patch.
inline constexpr u32 kMaxExponent = 22;
inline constexpr u32 kExponentException = 23;

struct Decimal {
  i32 digits;
  u32 exp;        // 0..22, or kExponentException
  double patch;   // original value when exp == kExponentException
};

Decimal EncodeSingle(double input);
double DecodeSingle(i32 digits, u32 exp);

}  // namespace pseudodecimal

}  // namespace btr

#endif  // BTR_BTR_SCHEMES_DOUBLE_SCHEMES_H_
