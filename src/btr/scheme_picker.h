// The sampling-based cascading scheme picker (paper Section 3, Listing 1):
//   1. collect statistics, 2. filter non-viable schemes, 3. estimate each
//   viable scheme's ratio on a sample, 4. compress with the best scheme,
//   5. recurse on compressible outputs until the cascade budget runs out.
//
// These free functions are both the top-level entry points for one block
// and the recursion points schemes call from inside their payloads. One
// pick step and one compress step serve all three column types.
#ifndef BTR_BTR_SCHEME_PICKER_H_
#define BTR_BTR_SCHEME_PICKER_H_

#include "btr/scheme.h"

namespace btr {

namespace obs {
class Histogram;  // obs/metrics.h
}  // namespace obs

// Compresses in[0..count) (T = i32 or double) or a string view as
// [u8 scheme][payload]; returns bytes appended. `chosen` (optional)
// reports the selected scheme.
template <typename T>
size_t CompressValues(const T* in, u32 count, ByteBuffer* out,
                      const CompressionContext& ctx,
                      typename SchemeTraits<T>::Code* chosen = nullptr);
size_t CompressValues(const StringsView& in, ByteBuffer* out,
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
template <typename T>
typename SchemeTraits<T>::Code PickScheme(const T* in, u32 count,
                                          const CompressionConfig& config);
StringSchemeCode PickScheme(const StringsView& in,
                            const CompressionConfig& config);

// Per-scheme timing histogram "btr.<phase>.<type>.<scheme>.ns", with
// phase "estimate", "compress" or "decompress" and type int, double or
// string; resolved through the metrics registry once and cached.
enum class SchemePhase : u8 { kEstimate, kCompress, kDecompress };
obs::Histogram& SchemeHistogram(SchemePhase phase, ColumnType type, u8 code);

}  // namespace btr

#endif  // BTR_BTR_SCHEME_PICKER_H_
