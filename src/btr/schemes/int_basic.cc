// Uncompressed, OneValue, FastBP128 and FastPFOR integer schemes.
#include <cstring>

#include "bitpack/bitpack.h"
#include "btr/schemes/decode_util.h"
#include "btr/schemes/estimate_util.h"
#include "btr/schemes/int_schemes.h"

namespace btr {

// --- Uncompressed ---------------------------------------------------------------

double IntUncompressed::EstimateRatio(const IntStats&, const IntSample&,
                                      const CompressionContext&) const {
  return 1.0;
}

size_t IntUncompressed::Compress(const i32* in, u32 count, ByteBuffer* out,
                                 const CompressionContext&) const {
  out->Append(in, count * sizeof(i32));
  return count * sizeof(i32);
}

void IntUncompressed::Decompress(const u8* in, u32 count, i32* out) const {
  std::memcpy(out, in, count * sizeof(i32));
}

// --- OneValue ---------------------------------------------------------------------

double IntOneValue::EstimateRatio(const IntStats& stats, const IntSample&,
                                  const CompressionContext&) const {
  if (stats.unique_count != 1) return 0.0;
  return RatioOf(stats.count * sizeof(i32), sizeof(i32));
}

size_t IntOneValue::Compress(const i32* in, u32 count, ByteBuffer* out,
                             const CompressionContext&) const {
  BTR_CHECK(count > 0);
  out->AppendValue<i32>(in[0]);
  return sizeof(i32);
}

void IntOneValue::Decompress(const u8* in, u32 count, i32* out) const {
  FillValue(layout::ReadOneValue<i32>(in), count, out);
}

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
