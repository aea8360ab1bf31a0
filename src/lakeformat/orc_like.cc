#include "lakeformat/orc_like.h"

#include <cstring>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lakeformat/container.h"
#include "util/bits.h"

namespace btr::lakeformat {

namespace {

constexpr u32 kDirectWindow = 512;

enum class IntMode : u8 { kRepeat = 0, kDelta = 1, kDirect = 2 };

}  // namespace

void OrcIntEncode(const i64* values, u32 count, ByteBuffer* out) {
  u32 i = 0;
  std::vector<u64> pending;  // zigzagged direct values
  auto flush_direct = [&]() {
    if (pending.empty()) return;
    u64 accum = 0;
    for (u64 v : pending) accum |= v;
    u32 bit_width = std::max(1u, BitWidth64(accum));
    out->AppendValue<u8>(static_cast<u8>(IntMode::kDirect));
    PutVarint(pending.size(), out);
    out->AppendValue<u8>(static_cast<u8>(bit_width));
    AppendBitPacked(pending.data(), pending.size(), bit_width, out);
    pending.clear();
  };

  // Difference of values[j] and its predecessor, computed mod 2^64:
  // adjacent random 64-bit values would overflow signed subtraction.
  auto delta_at = [&](u32 j) {
    return static_cast<i64>(static_cast<u64>(values[j]) -
                            static_cast<u64>(values[j - 1]));
  };
  while (i < count) {
    // A run of 8+ values with one delta: REPEAT when the delta is 0.
    if (i + 1 < count) {
      i64 delta = delta_at(i + 1);
      u32 run = 2;
      while (i + run < count && delta_at(i + run) == delta) run++;
      if (run >= 8) {
        flush_direct();
        out->AppendValue<u8>(
            static_cast<u8>(delta == 0 ? IntMode::kRepeat : IntMode::kDelta));
        PutVarint(run, out);
        PutVarint(ZigzagEncode64(values[i]), out);
        if (delta != 0) PutVarint(ZigzagEncode64(delta), out);
        i += run;
        continue;
      }
    }
    pending.push_back(ZigzagEncode64(values[i]));
    if (pending.size() == kDirectWindow) flush_direct();
    i++;
  }
  flush_direct();
}

void OrcIntDecode(const u8* data, u32 count, i64* out) {
  const u8* p = data;
  u32 produced = 0;
  while (produced < count) {
    IntMode mode = static_cast<IntMode>(*p++);
    switch (mode) {
      case IntMode::kRepeat: {
        u64 run = GetVarint(p);
        i64 value = ZigzagDecode64(GetVarint(p));
        for (u64 i = 0; i < run; i++) out[produced + i] = value;
        produced += static_cast<u32>(run);
        break;
      }
      case IntMode::kDelta: {
        u64 run = GetVarint(p);
        i64 base = ZigzagDecode64(GetVarint(p));
        i64 delta = ZigzagDecode64(GetVarint(p));
        u64 value = static_cast<u64>(base);
        for (u64 i = 0; i < run; i++) {
          out[produced + i] = static_cast<i64>(value);
          value += static_cast<u64>(delta);
        }
        produced += static_cast<u32>(run);
        break;
      }
      case IntMode::kDirect: {
        u64 run = GetVarint(p);
        u32 bit_width = *p++;
        u64 mask = bit_width == 64 ? ~u64{0} : ((u64{1} << bit_width) - 1);
        u64 bit_pos = 0;
        for (u64 i = 0; i < run; i++) {
          u64 byte = bit_pos >> 3;
          u32 shift = static_cast<u32>(bit_pos & 7);
          u64 window;
          std::memcpy(&window, p + byte, sizeof(u64));
          u64 v = window >> shift;
          if (shift != 0 && bit_width > 64 - shift) {
            u64 spill = p[byte + 8];
            v |= spill << (64 - shift);
          }
          out[produced + i] = ZigzagDecode64(v & mask);
          bit_pos += bit_width;
        }
        p += CeilDiv(run * bit_width, 8);
        produced += static_cast<u32>(run);
        break;
      }
    }
  }
}

namespace {

// Hive's default dictionary_key_size_threshold: a string chunk is
// dictionary-encoded only when its distinct keys are at most 0.8x its rows.
constexpr double kDictionaryKeySizeThreshold = 0.8;

enum class StringEncoding : u8 { kDirect = 0, kDictionary = 1 };

// An integer stream prefixed by its u32 byte length.
void AppendIntStream(const i64* values, u32 count, ByteBuffer* out) {
  size_t length_at = out->size();
  out->AppendValue<u32>(0);
  OrcIntEncode(values, count, out);
  u32 length = static_cast<u32>(out->size() - length_at - 4);
  std::memcpy(out->data() + length_at, &length, 4);
}

const u8* ReadIntStream(const u8* p, u32 count, std::vector<i64>* out) {
  u32 length = 0;
  std::memcpy(&length, p, 4);
  out->resize(count);
  OrcIntDecode(p + 4, count, out->data());
  return p + 4 + length;
}

// Both string encodings store strings as "lengths stream + blob": their
// lengths as an integer stream, u32 blob bytes, then the bytes back to
// back. at(i) is the i-th of `count` strings.
template <typename At>
void AppendLengthsAndBlob(u32 count, At at, ByteBuffer* out) {
  std::vector<i64> lengths(count);
  u32 blob_bytes = 0;
  for (u32 i = 0; i < count; i++) {
    lengths[i] = static_cast<i64>(at(i).size());
    blob_bytes += static_cast<u32>(lengths[i]);
  }
  AppendIntStream(lengths.data(), count, out);
  out->AppendValue<u32>(blob_bytes);
  for (u32 i = 0; i < count; i++) out->Append(at(i).data(), at(i).size());
}

// Reads "lengths stream + blob": the lengths land in scratch->wide. Returns
// the blob and moves *p past it.
const u8* ReadLengthsAndBlob(const u8** p, u32 count, u32* blob_bytes,
                             ChunkScratch* scratch) {
  const u8* blob_header = ReadIntStream(*p, count, &scratch->wide);
  std::memcpy(blob_bytes, blob_header, 4);
  *p = blob_header + 4 + *blob_bytes;
  return blob_header + 4;
}

u8 EncodeStrings(const Column& column, u32 begin, u32 count, ByteBuffer* out) {
  std::unordered_map<std::string_view, u32> code_of;
  std::vector<std::string_view> dict;
  std::vector<i64> codes(count);
  for (u32 i = 0; i < count; i++) {
    auto [it, inserted] = code_of.try_emplace(column.GetString(begin + i),
                                              static_cast<u32>(dict.size()));
    if (inserted) dict.push_back(it->first);
    codes[i] = it->second;
  }
  if (static_cast<double>(dict.size()) > kDictionaryKeySizeThreshold * count) {
    AppendLengthsAndBlob(
        count, [&](u32 i) { return column.GetString(begin + i); }, out);
    return static_cast<u8>(StringEncoding::kDirect);
  }
  out->AppendValue<u32>(static_cast<u32>(dict.size()));
  AppendLengthsAndBlob(
      static_cast<u32>(dict.size()), [&](u32 e) { return dict[e]; }, out);
  AppendIntStream(codes.data(), count, out);
  return static_cast<u8>(StringEncoding::kDictionary);
}

u8 EncodeValues(const Column& column, u32 begin, u32 count, ByteBuffer* out) {
  switch (column.type()) {
    case ColumnType::kInteger: {
      std::vector<i64> wide(column.ints().begin() + begin,
                            column.ints().begin() + begin + count);
      OrcIntEncode(wide.data(), count, out);
      return 0;
    }
    case ColumnType::kDouble:
      // ORC stores doubles as plain little-endian IEEE 754.
      out->Append(column.doubles().data() + begin, count * sizeof(double));
      return 0;
    case ColumnType::kString: return EncodeStrings(column, begin, count, out);
  }
  return 0;
}

void DecodeStrings(const u8* p, u32 count, StringEncoding encoding,
                   ChunkScratch* scratch) {
  u32 blob_bytes = 0;
  if (encoding == StringEncoding::kDirect) {
    const u8* blob = ReadLengthsAndBlob(&p, count, &blob_bytes, scratch);
    scratch->string_pool.assign(blob, blob + blob_bytes);
    for (u32 i = 0, offset = 0; i < count; i++) {
      offset += static_cast<u32>(scratch->wide[i]);
      scratch->string_offsets.push_back(offset);
    }
    return;
  }
  u32 dict_count = 0;
  std::memcpy(&dict_count, p, 4);
  p += 4;
  const u8* blob = ReadLengthsAndBlob(&p, dict_count, &blob_bytes, scratch);
  scratch->entries.resize(dict_count);
  for (u32 e = 0, offset = 0; e < dict_count; e++) {
    scratch->entries[e] = {offset, static_cast<u32>(scratch->wide[e])};
    offset += scratch->entries[e].second;
  }
  ReadIntStream(p, count, &scratch->wide);
  GatherStrings(blob, scratch->wide.data(), count, scratch);
}

void DecodeValues(const u8* p, u32 count, ColumnType type, u8 encoding,
                  ChunkScratch* scratch) {
  switch (type) {
    case ColumnType::kInteger:
      scratch->wide.resize(count);
      OrcIntDecode(p, count, scratch->wide.data());
      scratch->ints.assign(scratch->wide.begin(), scratch->wide.end());
      return;
    case ColumnType::kDouble:
      scratch->doubles.resize(count);
      std::memcpy(scratch->doubles.data(), p, count * sizeof(double));
      return;
    case ColumnType::kString:
      return DecodeStrings(p, count, static_cast<StringEncoding>(encoding),
                           scratch);
  }
}

constexpr ValueCodec kOrcLike = {{'O', 'R', 'C', 'L'}, "orc-like",
                                 EncodeValues, DecodeValues};

}  // namespace

ByteBuffer WriteOrcLike(const Relation& relation, const OrcOptions& options) {
  return WriteContainer(relation, options.stripe_rows, options.codec,
                        kOrcLike);
}

Status DecodeOrcLikeBytes(const u8* data, size_t size, u64* bytes) {
  return DecodeContainer(data, size, kOrcLike, bytes, nullptr);
}

Status ReadOrcLike(const u8* data, size_t size, Relation* out) {
  u64 bytes = 0;
  return DecodeContainer(data, size, kOrcLike, &bytes, out);
}

}  // namespace btr::lakeformat
