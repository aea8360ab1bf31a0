// Bit-packing primitives and the two high-performance integer codecs used
// by BtrBlocks (paper Table 1): SIMD-FastBP128 and SIMD-FastPFOR, both
// reimplemented from scratch in the spirit of Lemire & Boytsov, "Decoding
// billions of integers per second through vectorization".
//
// Layouts
// -------
// Contiguous packing (PackScalar/UnpackScalar): values packed LSB-first
// into a byte stream; used for small tails and exception streams.
//
// Vertical 128-blocks (Pack128/Unpack128*): 128 values per block in 8
// lanes x 16 rows. Value i lives in lane (i % 8), row (i / 8). All lanes
// share the same bit schedule, so an AVX2 unpack processes 8 lanes with
// scalar control flow. A block with bitwidth b occupies exactly 4*b u32
// words (16*b bytes).
//
// Codecs
// ------
// Bp128: per-128-block frame-of-reference (min) + per-block bitwidth.
// Pfor:  per-128-block FOR + cost-chosen bitwidth b; values whose delta
//        needs more than b bits keep their low b bits in place and store
//        position + high bits in a patch stream (Zukowski et al. PFOR).
#ifndef BTR_BITPACK_BITPACK_H_
#define BTR_BITPACK_BITPACK_H_

#include "util/buffer.h"
#include "util/simd.h"
#include "util/types.h"

namespace btr::bitpack {

inline constexpr u32 kBlockSize = 128;

// Largest bitwidth needed by any of the `count` values.
u32 MaxBits(const u32* in, u32 count);

// --- Contiguous packing ----------------------------------------------------
// Packs `count` values at `bits` bits each, LSB-first. `out` must have
// PackedBytes(count, bits) writable bytes (plus SIMD padding).
size_t PackedBytes(u32 count, u32 bits);
void PackScalar(const u32* in, u32 count, u32 bits, u8* out);
void UnpackScalar(const u8* in, u32 count, u32 bits, u32* out);

// --- Vertical 128-value blocks ----------------------------------------------
// Buffers are byte pointers (packed blocks land at unaligned offsets in
// compressed payloads); Packed128Bytes(bits) bytes are read/written.
size_t Packed128Bytes(u32 bits);
void Pack128(const u32* in, u32 bits, u8* out);
void Unpack128Scalar(const u8* in, u32 bits, u32* out);
#if BTR_HAS_AVX2
void Unpack128Avx2(const u8* in, u32 bits, u32* out);
#endif
// Dispatches on SimdPolicy.
void Unpack128(const u8* in, u32 bits, u32* out);

// --- FastBP128-style codec ---------------------------------------------------
// Appends the compressed form of in[0..count) to *out; returns bytes added.
size_t Bp128Compress(const i32* in, u32 count, ByteBuffer* out);
// `in` points at data produced by Bp128Compress with the same count.
// Returns bytes consumed. `out` must hold count i32 plus SIMD padding.
size_t Bp128Decompress(const u8* in, u32 count, i32* out);
// Compressed size without materializing the output.
size_t Bp128CompressedSize(const i32* in, u32 count);

// One frame of a Bp128 stream: a vertical 128-value block, or the
// contiguously packed tail when count % 128 != 0.
//   [u32 reference][u8 bits][packed deltas]
struct Bp128Frame {
  u32 first;      // index of the frame's first value in the stream
  u32 count;      // kBlockSize, or the tail length
  u32 reference;  // frame of reference: the frame's i32 minimum, bit-cast
  u32 bits;       // width of (value - reference)
  const u8* packed;
};

// The one reader of the Bp128 stream layout: walks the frames of a stream
// holding `count` values (Bp128Decompress, simd::SelectBp128Range).
class Bp128Reader {
 public:
  Bp128Reader(const u8* stream, u32 count)
      : start_(stream), cursor_(stream), count_(count) {}

  // Reads the next frame; false past the last one.
  bool Next(Bp128Frame* frame);
  // Stream bytes consumed by the frames read so far.
  size_t consumed() const { return static_cast<size_t>(cursor_ - start_); }

 private:
  const u8* start_;
  const u8* cursor_;
  u32 count_;
  u32 next_ = 0;
};

// Unpacks a frame's frame.count deltas (value - reference) into `out`.
void UnpackFrame(const Bp128Frame& frame, u32* out);

// --- FastPFOR-style codec ----------------------------------------------------
size_t PforCompress(const i32* in, u32 count, ByteBuffer* out);
size_t PforDecompress(const u8* in, u32 count, i32* out);
size_t PforCompressedSize(const i32* in, u32 count);

}  // namespace btr::bitpack

#endif  // BTR_BITPACK_BITPACK_H_
