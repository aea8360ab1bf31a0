#include "bitpack/bitpack.h"

#include <algorithm>
#include <cstring>

#include "util/bits.h"

namespace btr::bitpack {

u32 MaxBits(const u32* in, u32 count) {
  u32 accum = 0;
  for (u32 i = 0; i < count; i++) accum |= in[i];
  return BitWidth(accum);
}

size_t PackedBytes(u32 count, u32 bits) {
  return CeilDiv(static_cast<u64>(count) * bits, 8);
}

// Bytes occupied by one vertical 128-block: whole words per lane.
size_t Packed128Bytes(u32 bits) {
  return CeilDiv(16 * bits, 32) * 32;
}

void PackScalar(const u32* in, u32 count, u32 bits, u8* out) {
  if (bits == 0) return;
  BTR_DCHECK(bits <= 32);
  std::memset(out, 0, PackedBytes(count, bits));
  u64 bit_pos = 0;
  for (u32 i = 0; i < count; i++) {
    u64 value = in[i] & ((bits == 32) ? 0xFFFFFFFFu : ((u32{1} << bits) - 1));
    u64 byte = bit_pos >> 3;
    u32 shift = static_cast<u32>(bit_pos & 7);
    // Write into a 64-bit window; 32 bits + 7 bits shift fits in 64 - 25.
    u64 window;
    std::memcpy(&window, out + byte, sizeof(u64));
    window |= value << shift;
    std::memcpy(out + byte, &window, sizeof(u64));
    bit_pos += bits;
  }
}

void UnpackScalar(const u8* in, u32 count, u32 bits, u32* out) {
  if (bits == 0) {
    std::memset(out, 0, count * sizeof(u32));
    return;
  }
  BTR_DCHECK(bits <= 32);
  u64 mask = (bits == 64) ? ~u64{0} : ((u64{1} << bits) - 1);
  u64 bit_pos = 0;
  for (u32 i = 0; i < count; i++) {
    u64 byte = bit_pos >> 3;
    u32 shift = static_cast<u32>(bit_pos & 7);
    u64 window;
    std::memcpy(&window, in + byte, sizeof(u64));
    out[i] = static_cast<u32>((window >> shift) & mask);
    bit_pos += bits;
  }
}

// --- Vertical 128-blocks -----------------------------------------------------
// Lane l stream: rows r = 0..15 hold in[r*8 + l]. Word w of lane l is at
// buf[w*8 + l]. All lanes share one schedule: row r starts at bit r*bits.

namespace {
// Unaligned u32 access: packed blocks sit at arbitrary byte offsets in
// compressed payloads, so typed loads would be UB.
inline u32 LoadWord(const u8* p) {
  u32 v;
  std::memcpy(&v, p, sizeof(u32));
  return v;
}
inline void OrWord(u8* p, u32 v) {
  u32 old;
  std::memcpy(&old, p, sizeof(u32));
  old |= v;
  std::memcpy(p, &old, sizeof(u32));
}
}  // namespace

void Pack128(const u32* in, u32 bits, u8* out) {
  if (bits == 0) return;
  std::memset(out, 0, Packed128Bytes(bits));
  u32 mask = (bits == 32) ? 0xFFFFFFFFu : ((u32{1} << bits) - 1);
  for (u32 lane = 0; lane < 8; lane++) {
    for (u32 row = 0; row < 16; row++) {
      u32 value = in[row * 8 + lane] & mask;
      u32 bit = row * bits;
      u32 word = bit >> 5;
      u32 shift = bit & 31;
      OrWord(out + (word * 8 + lane) * 4, value << shift);
      if (shift + bits > 32) {
        OrWord(out + ((word + 1) * 8 + lane) * 4, value >> (32 - shift));
      }
    }
  }
}

void Unpack128Scalar(const u8* in, u32 bits, u32* out) {
  if (bits == 0) {
    std::memset(out, 0, kBlockSize * sizeof(u32));
    return;
  }
  u32 mask = (bits == 32) ? 0xFFFFFFFFu : ((u32{1} << bits) - 1);
  for (u32 lane = 0; lane < 8; lane++) {
    for (u32 row = 0; row < 16; row++) {
      u32 bit = row * bits;
      u32 word = bit >> 5;
      u32 shift = bit & 31;
      u32 value = LoadWord(in + (word * 8 + lane) * 4) >> shift;
      if (shift + bits > 32) {
        value |= LoadWord(in + ((word + 1) * 8 + lane) * 4) << (32 - shift);
      }
      out[row * 8 + lane] = value & mask;
    }
  }
}

#if BTR_HAS_AVX2
void Unpack128Avx2(const u8* in, u32 bits, u32* out) {
  if (bits == 0) {
    std::memset(out, 0, kBlockSize * sizeof(u32));
    return;
  }
  const __m256i mask = _mm256_set1_epi32(
      bits == 32 ? -1 : static_cast<int>((u32{1} << bits) - 1));
  // One 256-bit load covers word w of all 8 lanes; shifts are uniform.
  for (u32 row = 0; row < 16; row++) {
    u32 bit = row * bits;
    u32 word = bit >> 5;
    u32 shift = bit & 31;
    __m256i lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in + word * 32));
    __m256i value = _mm256_srli_epi32(lo, static_cast<int>(shift));
    if (shift + bits > 32) {
      __m256i hi = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(in + (word + 1) * 32));
      value = _mm256_or_si256(value,
                              _mm256_slli_epi32(hi, static_cast<int>(32 - shift)));
    }
    value = _mm256_and_si256(value, mask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + row * 8), value);
  }
}
#endif

void Unpack128(const u8* in, u32 bits, u32* out) {
#if BTR_HAS_AVX2
  if (SimdPolicy::Enabled()) {
    Unpack128Avx2(in, bits, out);
    return;
  }
#endif
  Unpack128Scalar(in, bits, out);
}

// --- BP128 codec --------------------------------------------------------------
// Stream layout (read by Bp128Reader):
//   full blocks: [u32 min][u8 bits][16*bits bytes packed]
//   tail (count % 128 != 0): [u32 min][u8 bits][PackedBytes(tail, bits)]
namespace {

struct BlockPlan {
  u32 min;      // frame of reference (reinterpreted i32 minimum)
  u32 bits;     // width of (value - min)
};

BlockPlan PlanBlock(const i32* in, u32 count) {
  i32 min = in[0];
  for (u32 i = 1; i < count; i++) min = std::min(min, in[i]);
  u32 max_delta = 0;
  for (u32 i = 0; i < count; i++) {
    max_delta |= static_cast<u32>(static_cast<i64>(in[i]) - min);
  }
  return BlockPlan{static_cast<u32>(min), BitWidth(max_delta)};
}

}  // namespace

size_t Bp128Compress(const i32* in, u32 count, ByteBuffer* out) {
  size_t start = out->size();
  u32 scratch[kBlockSize];
  u32 i = 0;
  for (; i + kBlockSize <= count; i += kBlockSize) {
    BlockPlan plan = PlanBlock(in + i, kBlockSize);
    for (u32 j = 0; j < kBlockSize; j++) {
      scratch[j] = static_cast<u32>(in[i + j]) - plan.min;
    }
    out->AppendValue<u32>(plan.min);
    out->AppendValue<u8>(static_cast<u8>(plan.bits));
    size_t offset = out->size();
    out->Resize(offset + Packed128Bytes(plan.bits));
    Pack128(scratch, plan.bits, out->data() + offset);
  }
  if (i < count) {
    u32 tail = count - i;
    BlockPlan plan = PlanBlock(in + i, tail);
    for (u32 j = 0; j < tail; j++) {
      scratch[j] = static_cast<u32>(in[i + j]) - plan.min;
    }
    out->AppendValue<u32>(plan.min);
    out->AppendValue<u8>(static_cast<u8>(plan.bits));
    size_t offset = out->size();
    out->Resize(offset + PackedBytes(tail, plan.bits));
    PackScalar(scratch, tail, plan.bits, out->data() + offset);
  }
  return out->size() - start;
}

size_t Bp128CompressedSize(const i32* in, u32 count) {
  size_t total = 0;
  u32 i = 0;
  for (; i + kBlockSize <= count; i += kBlockSize) {
    total += 5 + Packed128Bytes(PlanBlock(in + i, kBlockSize).bits);
  }
  if (i < count) {
    total += 5 + PackedBytes(count - i, PlanBlock(in + i, count - i).bits);
  }
  return total;
}

bool Bp128Reader::Next(Bp128Frame* frame) {
  if (next_ >= count_) return false;
  frame->first = next_;
  frame->count = std::min(kBlockSize, count_ - next_);
  std::memcpy(&frame->reference, cursor_, sizeof(u32));
  frame->bits = cursor_[4];
  frame->packed = cursor_ + 5;
  cursor_ = frame->packed + (frame->count == kBlockSize
                                 ? Packed128Bytes(frame->bits)
                                 : PackedBytes(frame->count, frame->bits));
  next_ += frame->count;
  return true;
}

void UnpackFrame(const Bp128Frame& frame, u32* out) {
  if (frame.count == kBlockSize) {
    Unpack128(frame.packed, frame.bits, out);
  } else {
    UnpackScalar(frame.packed, frame.count, frame.bits, out);
  }
}

size_t Bp128Decompress(const u8* in, u32 count, i32* out) {
  Bp128Reader reader(in, count);
  u32 deltas[kBlockSize];
  for (Bp128Frame frame; reader.Next(&frame);) {
    UnpackFrame(frame, deltas);
    i32* dst = out + frame.first;
    for (u32 j = 0; j < frame.count; j++) {
      dst[j] = static_cast<i32>(deltas[j] + frame.reference);
    }
  }
  return reader.consumed();
}

// --- PFOR codec ----------------------------------------------------------------
// Per block: [u32 min][u8 base_bits][u8 max_bits][u8 exception_count]
//            [16*base_bits bytes packed low parts]
//            [exception_count bytes positions]
//            [PackedBytes(exception_count, max_bits - base_bits) high parts]
// Tail blocks use contiguous packing instead of the vertical layout.
namespace {

struct PforPlan {
  u32 min;
  u32 base_bits;
  u32 max_bits;
  u32 exceptions;
};

// Chooses the frame of reference and base_bits minimizing packed + patch
// bytes. Deltas wrap mod 2^32 (decompression adds the reference back mod
// 2^32), so *any* reference is lossless; a plain minimum is a bad choice
// when a low outlier would inflate every delta, so the k-th smallest
// values are evaluated as candidates and low outliers become exceptions.
PforPlan PlanPfor(const i32* in, u32 count) {
  // Only the 33 smallest values are candidates (sorted[k] and sorted[k - 1]
  // for k <= 32), so only they are put in order.
  i32 sorted[kBlockSize];
  std::memcpy(sorted, in, count * sizeof(i32));
  u32 ordered = count;
  if (count > 33) {
    std::nth_element(sorted, sorted + 32, sorted + count);
    ordered = 32;  // sorted[32] is in place, the smaller values before it
  }
  std::sort(sorted, sorted + ordered);

  PforPlan best{};
  u64 best_cost = ~u64{0};
  for (u32 k : {0u, 1u, 2u, 4u, 8u, 16u, 32u}) {
    if (k >= count) break;
    i32 reference = sorted[k];
    if (k > 0 && reference == sorted[k - 1]) continue;  // same candidate
    u32 histogram[33] = {0};
    u32 max_bits = 0;
    for (u32 i = 0; i < count; i++) {
      u32 w = BitWidth(static_cast<u32>(in[i]) - static_cast<u32>(reference));
      histogram[w]++;
      max_bits = std::max(max_bits, w);
    }
    u32 cand_bits = max_bits;
    u64 cand_cost = PackedBytes(count, max_bits);
    u32 cumulative = 0;  // values needing more than b bits
    for (u32 b = max_bits; b-- > 0;) {
      cumulative += histogram[b + 1];
      // Each exception costs 1 position byte + packed high bits.
      u64 cost = PackedBytes(count, b) + cumulative +
                 PackedBytes(cumulative, max_bits - b);
      if (cost < cand_cost) {
        cand_cost = cost;
        cand_bits = b;
      }
    }
    if (cand_cost < best_cost) {
      best_cost = cand_cost;
      u32 exceptions = 0;
      for (u32 b = cand_bits + 1; b <= max_bits; b++) exceptions += histogram[b];
      best = PforPlan{static_cast<u32>(reference), cand_bits, max_bits,
                      exceptions};
    }
  }
  return best;
}

void PforCompressBlock(const i32* in, u32 count, bool vertical, ByteBuffer* out) {
  PforPlan plan = PlanPfor(in, count);
  u32 deltas[kBlockSize];
  u8 positions[kBlockSize];
  u32 highs[kBlockSize];
  u32 exception_count = 0;
  u32 base_mask = plan.base_bits == 32
                      ? 0xFFFFFFFFu
                      : ((u32{1} << plan.base_bits) - 1);
  for (u32 i = 0; i < count; i++) {
    u32 d = static_cast<u32>(static_cast<i64>(in[i]) - static_cast<i32>(plan.min));
    if (BitWidth(d) > plan.base_bits) {
      positions[exception_count] = static_cast<u8>(i);
      highs[exception_count] = d >> plan.base_bits;
      exception_count++;
    }
    deltas[i] = d & base_mask;
  }
  BTR_DCHECK(exception_count == plan.exceptions);
  out->AppendValue<u32>(plan.min);
  out->AppendValue<u8>(static_cast<u8>(plan.base_bits));
  out->AppendValue<u8>(static_cast<u8>(plan.max_bits));
  out->AppendValue<u8>(static_cast<u8>(exception_count));
  size_t offset = out->size();
  if (vertical) {
    out->Resize(offset + Packed128Bytes(plan.base_bits));
    Pack128(deltas, plan.base_bits, out->data() + offset);
  } else {
    out->Resize(offset + PackedBytes(count, plan.base_bits));
    PackScalar(deltas, count, plan.base_bits, out->data() + offset);
  }
  out->Append(positions, exception_count);
  u32 high_bits = plan.max_bits - plan.base_bits;
  offset = out->size();
  out->Resize(offset + PackedBytes(exception_count, high_bits));
  PackScalar(highs, exception_count, high_bits, out->data() + offset);
}

const u8* PforDecompressBlock(const u8* cursor, u32 count, bool vertical, i32* out) {
  u32 min;
  std::memcpy(&min, cursor, sizeof(u32));
  u32 base_bits = cursor[4];
  u32 max_bits = cursor[5];
  u32 exception_count = cursor[6];
  cursor += 7;
  u32 scratch[kBlockSize];
  if (vertical) {
    Unpack128(cursor, base_bits, scratch);
    cursor += Packed128Bytes(base_bits);
  } else {
    UnpackScalar(cursor, count, base_bits, scratch);
    cursor += PackedBytes(count, base_bits);
  }
  const u8* positions = cursor;
  cursor += exception_count;
  u32 highs[kBlockSize];
  u32 high_bits = max_bits - base_bits;
  UnpackScalar(cursor, exception_count, high_bits, highs);
  cursor += PackedBytes(exception_count, high_bits);
  for (u32 e = 0; e < exception_count; e++) {
    scratch[positions[e]] |= highs[e] << base_bits;
  }
  for (u32 i = 0; i < count; i++) out[i] = static_cast<i32>(scratch[i] + min);
  return cursor;
}

}  // namespace

size_t PforCompress(const i32* in, u32 count, ByteBuffer* out) {
  size_t start = out->size();
  u32 i = 0;
  for (; i + kBlockSize <= count; i += kBlockSize) {
    PforCompressBlock(in + i, kBlockSize, /*vertical=*/true, out);
  }
  if (i < count) {
    PforCompressBlock(in + i, count - i, /*vertical=*/false, out);
  }
  return out->size() - start;
}

size_t PforCompressedSize(const i32* in, u32 count) {
  size_t total = 0;
  u32 i = 0;
  auto block_size = [&](const i32* block, u32 n) {
    PforPlan plan = PlanPfor(block, n);
    size_t packed = (n == kBlockSize) ? Packed128Bytes(plan.base_bits)
                                      : PackedBytes(n, plan.base_bits);
    return 7 + packed + plan.exceptions +
           PackedBytes(plan.exceptions, plan.max_bits - plan.base_bits);
  };
  for (; i + kBlockSize <= count; i += kBlockSize) {
    total += block_size(in + i, kBlockSize);
  }
  if (i < count) total += block_size(in + i, count - i);
  return total;
}

size_t PforDecompress(const u8* in, u32 count, i32* out) {
  const u8* cursor = in;
  u32 i = 0;
  for (; i + kBlockSize <= count; i += kBlockSize) {
    cursor = PforDecompressBlock(cursor, kBlockSize, /*vertical=*/true, out + i);
  }
  if (i < count) {
    cursor = PforDecompressBlock(cursor, count - i, /*vertical=*/false, out + i);
  }
  return static_cast<size_t>(cursor - in);
}

}  // namespace btr::bitpack
