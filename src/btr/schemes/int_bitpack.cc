// FastBP128 and FastPFOR, the integer-only schemes (bitpack/bitpack.h).
#include "bitpack/bitpack.h"
#include "btr/schemes/estimate_util.h"
#include "btr/schemes/int_schemes.h"

namespace btr {

// --- FastBP128 ----------------------------------------------------------------------

double IntBp128::EstimateRatio(const IntStats&, const IntSample& sample,
                               const CompressionContext&) const {
  // Exact compressed size is cheap to compute; no cascading inside.
  size_t bytes = bitpack::Bp128CompressedSize(
      sample.values.data(), static_cast<u32>(sample.values.size()));
  return RatioOf(sample.values.size() * sizeof(i32), bytes);
}

size_t IntBp128::Compress(const i32* in, u32 count, ByteBuffer* out,
                          const CompressionContext&) const {
  return bitpack::Bp128Compress(in, count, out);
}

void IntBp128::Decompress(const u8* in, u32 count, i32* out) const {
  bitpack::Bp128Decompress(in, count, out);
}

// --- FastPFOR -----------------------------------------------------------------------

double IntPfor::EstimateRatio(const IntStats&, const IntSample& sample,
                              const CompressionContext&) const {
  size_t bytes = bitpack::PforCompressedSize(
      sample.values.data(), static_cast<u32>(sample.values.size()));
  return RatioOf(sample.values.size() * sizeof(i32), bytes);
}

size_t IntPfor::Compress(const i32* in, u32 count, ByteBuffer* out,
                         const CompressionContext&) const {
  return bitpack::PforCompress(in, count, out);
}

void IntPfor::Decompress(const u8* in, u32 count, i32* out) const {
  bitpack::PforDecompress(in, count, out);
}

}  // namespace btr
