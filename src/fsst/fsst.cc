#include "fsst/fsst.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace btr::fsst {

namespace {

inline u64 LoadWord(const u8* p, size_t remaining) {
  // Little-endian load of up to 8 bytes, zero padded.
  if (remaining >= 8) {
    u64 w;
    std::memcpy(&w, p, 8);
    return w;
  }
  u64 w = 0;
  std::memcpy(&w, p, remaining);
  return w;
}

inline u64 LengthMask(u32 len) {
  return len >= 8 ? ~u64{0} : ((u64{1} << (len * 8)) - 1);
}

inline u64 HashBytes(u64 bytes) {
  u64 h = bytes * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

// Composite key for the build-time candidate map.
struct SymbolKey {
  u64 bytes;
  u8 length;
};

}  // namespace

// The encoder lookup. A position's symbols of >= 2 bytes all start with
// its first two bytes, so a bucket per 2-byte prefix holds its 2-byte
// symbol and its longer ones, longest first: the first that matches is
// the longest match. A table has at most 255 symbols, so bucket ids fit
// a byte and one table of 65,536 bytes maps every prefix to its bucket.
struct SymbolTable::Index {
  struct Bucket {
    u8 begin = 0;  // symbols of >= 3 bytes: long_*[begin, end)
    u8 end = 0;
    u8 two_byte_code = kEscapeCode;  // kEscapeCode: none
  };
  i16 single_code[256];  // 1-byte symbol per byte, or -1
  u8 bucket_of[65536] = {};  // 0: no symbol of >= 2 bytes
  Bucket buckets[kMaxSymbols + 1];
  u32 bucket_count = 0;
  u64 long_bytes[kMaxSymbols];
  u8 long_length[kMaxSymbols];
  u8 long_code[kMaxSymbols];

  Index() { std::fill(std::begin(single_code), std::end(single_code), i16{-1}); }
};

SymbolTable::SymbolTable() = default;
SymbolTable::~SymbolTable() = default;
SymbolTable::SymbolTable(SymbolTable&&) noexcept = default;
SymbolTable& SymbolTable::operator=(SymbolTable&&) noexcept = default;

void SymbolTable::AddSymbol(u64 bytes, u8 length) {
  BTR_DCHECK(count_ < kMaxSymbols);
  BTR_DCHECK(length >= 1 && length <= kMaxSymbolLength);
  symbol_bytes_[count_] = bytes & LengthMask(length);
  symbol_length_[count_] = length;
  count_++;
}

void SymbolTable::IndexSymbols() {
  Index& index = *index_;
  // Each symbol's bucket, counting its symbols of >= 3 bytes in `end`.
  // On a duplicate symbol the lowest code wins.
  for (u32 code = 0; code < count_; code++) {
    u64 bytes = symbol_bytes_[code];
    u8 len = symbol_length_[code];
    if (len == 1) {
      if (index.single_code[bytes & 0xFF] < 0) {
        index.single_code[bytes & 0xFF] = static_cast<i16>(code);
      }
      continue;
    }
    u8& id = index.bucket_of[bytes & 0xFFFF];
    if (id == 0) {
      id = static_cast<u8>(++index.bucket_count);
      index.buckets[id] = Index::Bucket{};
    }
    Index::Bucket& bucket = index.buckets[id];
    if (len > 2) {
      bucket.end++;
    } else if (bucket.two_byte_code == kEscapeCode) {
      bucket.two_byte_code = static_cast<u8>(code);
    }
  }
  // Lay the buckets out back to back, then place the long symbols
  // longest first, lowest code first within a length.
  u32 next = 0;
  for (u32 id = 1; id <= index.bucket_count; id++) {
    Index::Bucket& bucket = index.buckets[id];
    u32 size = bucket.end;
    bucket.begin = bucket.end = static_cast<u8>(next);
    next += size;
  }
  for (u32 len = kMaxSymbolLength; len > 2; len--) {
    for (u32 code = 0; code < count_; code++) {
      if (symbol_length_[code] != len) continue;
      u64 bytes = symbol_bytes_[code];
      u32 slot = index.buckets[index.bucket_of[bytes & 0xFFFF]].end++;
      index.long_bytes[slot] = bytes;
      index.long_length[slot] = static_cast<u8>(len);
      index.long_code[slot] = static_cast<u8>(code);
    }
  }
}

void SymbolTable::ClearIndex() {
  Index& index = *index_;
  for (u32 code = 0; code < count_; code++) {
    if (symbol_length_[code] == 1) {
      index.single_code[symbol_bytes_[code] & 0xFF] = -1;
    } else {
      index.bucket_of[symbol_bytes_[code] & 0xFFFF] = 0;
    }
  }
  index.bucket_count = 0;
}

int SymbolTable::FindLongestSymbol(u64 word, u32 remaining, u32* match_len) const {
  const Index& index = *index_;
  if (remaining >= 2) {
    u8 id = index.bucket_of[word & 0xFFFF];
    if (id != 0) {
      const Index::Bucket& bucket = index.buckets[id];
      for (u32 i = bucket.begin; i < bucket.end; i++) {
        u32 len = index.long_length[i];
        if (len <= remaining && (word & LengthMask(len)) == index.long_bytes[i]) {
          *match_len = len;
          return index.long_code[i];
        }
      }
      if (bucket.two_byte_code != kEscapeCode) {
        *match_len = 2;
        return bucket.two_byte_code;
      }
    }
  }
  i16 code = index.single_code[word & 0xFF];
  if (code >= 0) {
    *match_len = 1;
    return code;
  }
  return -1;
}

size_t SymbolTable::Compress(const u8* in, size_t len, u8* out) const {
  BTR_CHECK_MSG(index_ != nullptr, "only a table from Build compresses");
  u8* dst = out;
  size_t pos = 0;
  while (pos < len) {
    u64 word = LoadWord(in + pos, len - pos);
    u32 match_len = 0;
    int code = FindLongestSymbol(word, static_cast<u32>(len - pos), &match_len);
    if (code >= 0) {
      *dst++ = static_cast<u8>(code);
      pos += match_len;
    } else {
      *dst++ = kEscapeCode;
      *dst++ = static_cast<u8>(word & 0xFF);
      pos++;
    }
  }
  return static_cast<size_t>(dst - out);
}

size_t SymbolTable::Decompress(const u8* in, size_t compressed_len, u8* out) const {
  u8* dst = out;
  size_t pos = 0;
  while (pos < compressed_len) {
    u8 code = in[pos++];
    if (code == kEscapeCode) {
      *dst++ = in[pos++];
    } else {
      BTR_DCHECK(code < count_);
      // Unconditional 8-byte store; caller guarantees slack.
      std::memcpy(dst, &symbol_bytes_[code], 8);
      dst += symbol_length_[code];
    }
  }
  return static_cast<size_t>(dst - out);
}

size_t SymbolTable::DecompressedSize(const u8* in, size_t compressed_len) const {
  size_t total = 0;
  size_t pos = 0;
  while (pos < compressed_len) {
    u8 code = in[pos++];
    if (code == kEscapeCode) {
      pos++;
      total++;
    } else {
      total += symbol_length_[code];
    }
  }
  return total;
}

SymbolTable SymbolTable::Build(const u8* sample, size_t sample_len) {
  // Cap the training sample; FSST quality saturates quickly.
  constexpr size_t kMaxSample = 1 << 14;
  sample_len = std::min(sample_len, kMaxSample);

  constexpr int kIterations = 5;
  SymbolTable table;
  table.index_ = std::make_unique<Index>();  // no symbols: everything escapes

  // Open-addressing candidate counter, reused across iterations: the
  // unordered_map equivalent dominates build time in profiles.
  struct CountSlot {
    u64 bytes = 0;
    u32 count = 0;
    u8 length = 0;
  };
  constexpr u32 kCountSlots = 1u << 14;
  std::vector<CountSlot> counts(kCountSlots);
  std::vector<u32> filled;  // the slots of `counts` in use

  for (int iter = 0; iter < kIterations; iter++) {
    // Encode the sample with the current table, counting symbol and
    // adjacent-pair frequencies.
    auto bump = [&](u64 bytes, u8 length) {
      u64 slot = (HashBytes(bytes) ^ (length * 0x517CC1B7ULL)) & (kCountSlots - 1);
      // Bounded probe; a full neighborhood just drops the candidate.
      for (u32 probe = 0; probe < 16; probe++) {
        CountSlot& s = counts[slot];
        if (s.count == 0) {
          s = CountSlot{bytes, 1, length};
          filled.push_back(static_cast<u32>(slot));
          return;
        }
        if (s.bytes == bytes && s.length == length) {
          s.count++;
          return;
        }
        slot = (slot + 1) & (kCountSlots - 1);
      }
    };
    u64 prev_bytes = 0;
    u8 prev_len = 0;
    size_t pos = 0;
    while (pos < sample_len) {
      u64 word = LoadWord(sample + pos, sample_len - pos);
      u32 match_len = 0;
      int code = table.FindLongestSymbol(
          word, static_cast<u32>(sample_len - pos), &match_len);
      u64 cur_bytes;
      u8 cur_len;
      if (code >= 0) {
        cur_bytes = table.symbol_bytes_[code];
        cur_len = table.symbol_length_[code];
      } else {
        cur_bytes = word & 0xFF;
        cur_len = 1;
        match_len = 1;
      }
      bump(cur_bytes, cur_len);
      if (prev_len != 0 && prev_len + cur_len <= kMaxSymbolLength) {
        u64 merged = prev_bytes | (cur_bytes << (prev_len * 8));
        bump(merged, static_cast<u8>(prev_len + cur_len));
      }
      prev_bytes = cur_bytes;
      prev_len = cur_len;
      pos += match_len;
    }

    // Keep the kMaxSymbols candidates with the highest gain. The order
    // below is total (candidates are distinct), so the pick does not
    // depend on the order of `filled`.
    struct Scored {
      u64 gain;
      SymbolKey key;
    };
    std::vector<Scored> scored;
    scored.reserve(filled.size());
    for (u32 i : filled) {
      CountSlot& slot = counts[i];
      // Gain: bytes covered. Single-byte symbols only pay off vs the
      // escape path, but keeping frequent ones avoids 2x blowup.
      scored.push_back(Scored{static_cast<u64>(slot.count) * slot.length,
                              SymbolKey{slot.bytes, slot.length}});
      slot = CountSlot{};
    }
    filled.clear();
    size_t keep = std::min<size_t>(scored.size(), kMaxSymbols);
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      [](const Scored& a, const Scored& b) {
                        if (a.gain != b.gain) return a.gain > b.gain;
                        if (a.key.length != b.key.length) {
                          return a.key.length > b.key.length;
                        }
                        return a.key.bytes < b.key.bytes;
                      });
    table.ClearIndex();
    table.count_ = 0;
    for (size_t i = 0; i < keep; i++) {
      table.AddSymbol(scored[i].key.bytes, scored[i].key.length);
    }
    table.IndexSymbols();
  }
  return table;
}

void SymbolTable::SerializeTo(ByteBuffer* out) const {
  out->AppendValue<u8>(static_cast<u8>(count_));
  out->Append(symbol_length_, count_);
  for (u32 i = 0; i < count_; i++) {
    out->Append(&symbol_bytes_[i], symbol_length_[i]);
  }
}

size_t SymbolTable::SerializedSizeBytes() const {
  size_t total = 1 + count_;
  for (u32 i = 0; i < count_; i++) total += symbol_length_[i];
  return total;
}

SymbolTable SymbolTable::Deserialize(const u8* data, size_t* bytes_consumed) {
  SymbolTable table;
  const u8* cursor = data;
  u32 count = *cursor++;
  const u8* lengths = cursor;
  cursor += count;
  for (u32 i = 0; i < count; i++) {
    u64 bytes = 0;
    std::memcpy(&bytes, cursor, lengths[i]);
    cursor += lengths[i];
    table.AddSymbol(bytes, lengths[i]);
  }
  if (bytes_consumed != nullptr) {
    *bytes_consumed = static_cast<size_t>(cursor - data);
  }
  return table;
}

size_t CompressBlock(const SymbolTable& table, const u8* in, size_t len,
                     ByteBuffer* out) {
  size_t offset = out->size();
  out->Resize(offset + 2 * len);  // escape worst case
  size_t written = table.Compress(in, len, out->data() + offset);
  out->Resize(offset + written);
  return written;
}

}  // namespace btr::fsst
