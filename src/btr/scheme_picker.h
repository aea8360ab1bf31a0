// The sampling-based cascading scheme picker (paper Section 3, Listing 1):
//   1. collect statistics, 2. filter non-viable schemes, 3. estimate each
//   viable scheme's ratio on a sample, 4. compress with the best scheme,
//   5. recurse on compressible outputs until the cascade budget runs out.
//
// These free functions are both the top-level entry points for one block
// and the recursion points schemes call from inside their payloads.
#ifndef BTR_BTR_SCHEME_PICKER_H_
#define BTR_BTR_SCHEME_PICKER_H_

#include "btr/scheme.h"

namespace btr {

// Compresses in[0..count) as [u8 scheme][payload]; returns bytes appended.
// `chosen` (optional) reports the selected scheme.
size_t CompressInts(const i32* in, u32 count, ByteBuffer* out,
                    const CompressionContext& ctx,
                    IntSchemeCode* chosen = nullptr);
size_t CompressDoubles(const double* in, u32 count, ByteBuffer* out,
                       const CompressionContext& ctx,
                       DoubleSchemeCode* chosen = nullptr);
size_t CompressStrings(const StringsView& in, ByteBuffer* out,
                       const CompressionContext& ctx,
                       StringSchemeCode* chosen = nullptr);

// Decompress a [scheme][payload] vector produced by the functions above.
// Output buffers need kDecodeSlack elements of slack.
void DecompressInts(const u8* in, u32 count, i32* out);
void DecompressDoubles(const u8* in, u32 count, double* out);
void DecompressStrings(const u8* in, u32 count, DecodedStrings* out,
                       const CompressionConfig& config);

// Type-generic spelling of DecompressInts / DecompressDoubles.
inline void DecompressValues(const u8* in, u32 count, i32* out) {
  DecompressInts(in, count, out);
}
inline void DecompressValues(const u8* in, u32 count, double* out) {
  DecompressDoubles(in, count, out);
}

// Scheme byte of a compressed int vector (fused RLE+Dict decoding and
// code-vector run arithmetic in the predicate engine).
inline IntSchemeCode PeekIntScheme(const u8* in) {
  return static_cast<IntSchemeCode>(in[0]);
}

// Scheme selection without compressing (Figures 5/6): returns the scheme
// the picker would choose for this block under `config`.
IntSchemeCode PickIntScheme(const i32* in, u32 count,
                            const CompressionConfig& config);
DoubleSchemeCode PickDoubleScheme(const double* in, u32 count,
                                  const CompressionConfig& config);
StringSchemeCode PickStringScheme(const StringsView& in,
                                  const CompressionConfig& config);

}  // namespace btr

#endif  // BTR_BTR_SCHEME_PICKER_H_
