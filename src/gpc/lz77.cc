#include "gpc/lz77.h"

#include <cstring>

namespace btr::gpc {

namespace {

constexpr u32 kHashBits = 15;
constexpr u32 kHashSize = 1u << kHashBits;
constexpr u32 kMinMatch = 4;
constexpr u32 kMaxOffset = 65535;
// Matches may not start within the last kTailLiterals bytes; keeps the
// decompressor's wild copies inside the buffer.
constexpr size_t kTailLiterals = 12;

inline u32 Hash4(const u8* p) {
  u32 v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void EmitLength(size_t len, ByteBuffer* out) {
  while (len >= 255) {
    out->AppendValue<u8>(255);
    len -= 255;
  }
  out->AppendValue<u8>(static_cast<u8>(len));
}

void EmitSequence(const u8* literals, size_t literal_len, u32 offset,
                  size_t match_len, bool final_sequence, ByteBuffer* out) {
  u8 token = 0;
  size_t lit_extra = 0;
  if (literal_len >= 15) {
    token = 15 << 4;
    lit_extra = literal_len - 15;
  } else {
    token = static_cast<u8>(literal_len) << 4;
  }
  size_t match_extra = 0;
  if (!final_sequence) {
    size_t stored = match_len - kMinMatch;
    if (stored >= 15) {
      token |= 15;
      match_extra = stored - 15;
    } else {
      token |= static_cast<u8>(stored);
    }
  }
  out->AppendValue<u8>(token);
  if (literal_len >= 15) EmitLength(lit_extra, out);
  out->Append(literals, literal_len);
  if (!final_sequence) {
    out->AppendValue<u16>(static_cast<u16>(offset));
    if ((token & 15) == 15) EmitLength(match_extra, out);
  }
}

}  // namespace

size_t Lz77Codec::Compress(const u8* in, size_t len, ByteBuffer* out) const {
  size_t start_size = out->size();
  if (len == 0) return 0;

  u32 table[kHashSize];
  std::memset(table, 0xFF, sizeof(table));  // 0xFFFFFFFF = empty

  size_t pos = 0;
  size_t literal_start = 0;
  size_t match_limit = len > kTailLiterals ? len - kTailLiterals : 0;

  while (pos + kMinMatch <= match_limit) {
    u32 h = Hash4(in + pos);
    u32 candidate = table[h];
    table[h] = static_cast<u32>(pos);
    if (candidate != 0xFFFFFFFFu && pos - candidate <= kMaxOffset &&
        std::memcmp(in + candidate, in + pos, kMinMatch) == 0) {
      // Extend the match forward.
      size_t match_len = kMinMatch;
      while (pos + match_len < match_limit &&
             in[candidate + match_len] == in[pos + match_len]) {
        match_len++;
      }
      EmitSequence(in + literal_start, pos - literal_start,
                   static_cast<u32>(pos - candidate), match_len,
                   /*final_sequence=*/false, out);
      // Insert a couple of positions inside the match to help later finds.
      for (size_t p = pos + 1; p + kMinMatch <= pos + match_len && p < match_limit;
           p += 3) {
        table[Hash4(in + p)] = static_cast<u32>(p);
      }
      pos += match_len;
      literal_start = pos;
    } else {
      pos++;
    }
  }
  // Final literal run.
  EmitSequence(in + literal_start, len - literal_start, 0, 0,
               /*final_sequence=*/true, out);
  return out->size() - start_size;
}

size_t Lz77Codec::Decompress(const u8* in, size_t compressed_len, u8* out,
                             size_t decompressed_len) const {
  const u8* src = in;
  [[maybe_unused]] const u8* src_end = in + compressed_len;  // DCHECK only
  u8* dst = out;
  u8* dst_end = out + decompressed_len;

  while (dst < dst_end) {
    BTR_DCHECK(src < src_end);
    u8 token = *src++;
    // Literals.
    size_t literal_len = token >> 4;
    if (literal_len == 15) {
      u8 ext;
      do {
        ext = *src++;
        literal_len += ext;
      } while (ext == 255);
    }
    if (literal_len > 0) {
      // Wild copy in 16-byte steps: output has kSimdPadding slack and the
      // compressor never lets literals overrun the source.
      const u8* lsrc = src;
      u8* ldst = dst;
      size_t remaining = literal_len;
      while (true) {
        std::memcpy(ldst, lsrc, 16);
        if (remaining <= 16) break;
        ldst += 16;
        lsrc += 16;
        remaining -= 16;
      }
      src += literal_len;
      dst += literal_len;
    }
    if (dst >= dst_end) break;  // final sequence has no match
    // Match.
    u16 offset;
    std::memcpy(&offset, src, 2);
    src += 2;
    size_t match_len = (token & 15);
    if (match_len == 15) {
      u8 ext;
      do {
        ext = *src++;
        match_len += ext;
      } while (ext == 255);
    }
    match_len += kMinMatch;
    const u8* match_src = dst - offset;
    BTR_DCHECK(match_src >= out);
    if (offset >= 8) {
      u8* mdst = dst;
      const u8* msrc = match_src;
      size_t remaining = match_len;
      while (true) {
        std::memcpy(mdst, msrc, 8);
        if (remaining <= 8) break;
        mdst += 8;
        msrc += 8;
        remaining -= 8;
      }
    } else {
      for (size_t i = 0; i < match_len; i++) dst[i] = match_src[i];
    }
    dst += match_len;
  }
  BTR_DCHECK(dst == dst_end);
  return static_cast<size_t>(src - in);
}

}  // namespace btr::gpc
