#include "lakeformat/parquet_like.h"

#include <cstring>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lakeformat/container.h"
#include "util/bits.h"

namespace btr::lakeformat {

// --- RLE / bit-packed hybrid --------------------------------------------------

void HybridEncode(const u32* values, u32 count, u32 bit_width, ByteBuffer* out) {
  if (bit_width == 0) return;  // single dict entry: nothing stored
  u32 value_bytes = (bit_width + 7) / 8;
  std::vector<u64> pending;

  auto flush_pending = [&]() {
    if (pending.empty()) return;
    u32 groups = static_cast<u32>(CeilDiv(pending.size(), 8));
    pending.resize(groups * 8, 0);  // final-group padding
    PutVarint((static_cast<u64>(groups) << 1) | 1, out);
    AppendBitPacked(pending.data(), pending.size(), bit_width, out);
    pending.clear();
  };

  u32 i = 0;
  while (i < count) {
    // Measure the run at i.
    u32 run = 1;
    while (i + run < count && values[i + run] == values[i]) run++;
    if (run >= 8 && pending.size() % 8 == 0) {
      flush_pending();
      PutVarint(static_cast<u64>(run) << 1, out);
      out->Append(&values[i], value_bytes);
      i += run;
    } else {
      pending.push_back(values[i]);
      i++;
    }
  }
  flush_pending();
}

void HybridDecode(const u8* data, u32 count, u32 bit_width, u32* out) {
  if (bit_width == 0) {
    std::memset(out, 0, count * sizeof(u32));
    return;
  }
  u32 value_bytes = (bit_width + 7) / 8;
  u64 mask = (bit_width == 32) ? 0xFFFFFFFFull : ((u64{1} << bit_width) - 1);
  const u8* p = data;
  u32 produced = 0;
  while (produced < count) {
    u64 header = GetVarint(p);
    if (header & 1) {
      u32 groups = static_cast<u32>(header >> 1);
      u32 available = groups * 8;
      u32 take = std::min(available, count - produced);
      u64 bit_pos = 0;
      for (u32 i = 0; i < take; i++) {
        u64 byte = bit_pos >> 3;
        u32 shift = static_cast<u32>(bit_pos & 7);
        u64 window;
        std::memcpy(&window, p + byte, sizeof(u64));
        out[produced + i] = static_cast<u32>((window >> shift) & mask);
        bit_pos += bit_width;
      }
      p += CeilDiv(static_cast<u64>(available) * bit_width, 8);
      produced += take;
    } else {
      u32 run = static_cast<u32>(header >> 1);
      u32 value = 0;
      std::memcpy(&value, p, value_bytes);
      p += value_bytes;
      u32 take = std::min(run, count - produced);
      for (u32 i = 0; i < take; i++) out[produced + i] = value;
      produced += take;
    }
  }
}

namespace {

enum class Encoding : u8 { kPlain = 0, kDictionary = 1 };

// Dictionary fallback threshold (Arrow: dictionary_pagesize_limit).
constexpr size_t kDictByteLimit = 1u << 20;

// A numeric chunk keys its dictionary on the value's bits: a double on its
// bit pattern, so NaN payloads and -0.0 stay distinct entries.
template <typename T, typename Key>
struct NumericValues {
  using KeyType = Key;
  const T* values;

  Key At(u32 i) const {
    Key key{};
    std::memcpy(&key, &values[i], sizeof(Key));
    return key;
  }
  static size_t EntryBytes(Key) { return sizeof(Key); }
  static void AppendEntries(const std::vector<Key>& keys, ByteBuffer* out) {
    out->Append(keys.data(), keys.size() * sizeof(Key));
  }
  void AppendPlain(u32 count, ByteBuffer* out) const {
    out->Append(values, count * sizeof(T));
  }
};

// A string, PLAIN or as a dictionary entry, is a u32 length + its bytes.
struct StringValues {
  using KeyType = std::string_view;
  const Column* column;
  u32 begin;

  std::string_view At(u32 i) const { return column->GetString(begin + i); }
  static size_t EntryBytes(std::string_view s) { return sizeof(u32) + s.size(); }
  static void Append(std::string_view s, ByteBuffer* out) {
    out->AppendValue<u32>(static_cast<u32>(s.size()));
    out->Append(s.data(), s.size());
  }
  static void AppendEntries(const std::vector<std::string_view>& keys,
                            ByteBuffer* out) {
    for (std::string_view s : keys) Append(s, out);
  }
  void AppendPlain(u32 count, ByteBuffer* out) const {
    for (u32 i = 0; i < count; i++) Append(At(i), out);
  }
};

// Parquet's default: try a dictionary, fall back to PLAIN once its entries
// pass kDictByteLimit or when every value is distinct. A dictionary chunk
// is u32 entry count, u32 entry bytes, the entries, u8 code bit width and
// the codes in the RLE/bit-packed hybrid.
template <typename Values>
u8 EncodeDictionaryOrPlain(const Values& values, u32 count, ByteBuffer* out) {
  using Key = typename Values::KeyType;
  std::unordered_map<Key, u32> code_of;
  std::vector<Key> dict;
  std::vector<u32> codes(count);
  size_t dict_bytes = 0;
  for (u32 i = 0; i < count && dict_bytes <= kDictByteLimit; i++) {
    auto [it, inserted] =
        code_of.try_emplace(values.At(i), static_cast<u32>(dict.size()));
    if (inserted) {
      dict.push_back(it->first);
      dict_bytes += Values::EntryBytes(it->first);
    }
    codes[i] = it->second;
  }
  if (dict_bytes > kDictByteLimit || dict.size() == count) {
    values.AppendPlain(count, out);
    return static_cast<u8>(Encoding::kPlain);
  }
  out->AppendValue<u32>(static_cast<u32>(dict.size()));
  out->AppendValue<u32>(static_cast<u32>(dict_bytes));
  Values::AppendEntries(dict, out);
  u32 bit_width = BitWidth(static_cast<u32>(dict.size() - 1));
  out->AppendValue<u8>(static_cast<u8>(bit_width));
  HybridEncode(codes.data(), count, bit_width, out);
  return static_cast<u8>(Encoding::kDictionary);
}

u8 EncodeValues(const Column& column, u32 begin, u32 count, ByteBuffer* out) {
  switch (column.type()) {
    case ColumnType::kInteger:
      return EncodeDictionaryOrPlain(
          NumericValues<i32, i32>{column.ints().data() + begin}, count, out);
    case ColumnType::kDouble:
      return EncodeDictionaryOrPlain(
          NumericValues<double, u64>{column.doubles().data() + begin}, count,
          out);
    case ColumnType::kString:
      return EncodeDictionaryOrPlain(StringValues{&column, begin}, count, out);
  }
  return 0;
}

// Decodes a dictionary chunk's codes into scratch->codes; returns its
// entries.
const u8* DecodeCodes(const u8* p, u32 count, ChunkScratch* scratch) {
  u32 entry_bytes = 0;
  std::memcpy(&entry_bytes, p + 4, 4);
  const u8* codes = p + 8 + entry_bytes;
  scratch->codes.resize(count);
  HybridDecode(codes + 1, count, *codes, scratch->codes.data());
  return p + 8;
}

template <typename T>
void DecodeNumeric(const u8* p, u32 count, Encoding encoding,
                   ChunkScratch* scratch, std::vector<T>* out) {
  out->resize(count);
  T* values = out->data();
  if (encoding == Encoding::kPlain) {
    std::memcpy(values, p, count * sizeof(T));
    return;
  }
  const u8* dict = DecodeCodes(p, count, scratch);
  const u32* codes = scratch->codes.data();
  for (u32 i = 0; i < count; i++) {
    std::memcpy(&values[i], dict + codes[i] * sizeof(T), sizeof(T));
  }
}

void DecodeStrings(const u8* p, u32 count, Encoding encoding,
                   ChunkScratch* scratch) {
  if (encoding == Encoding::kPlain) {
    for (u32 i = 0; i < count; i++) {
      u32 length = 0;
      std::memcpy(&length, p, 4);
      scratch->string_pool.insert(scratch->string_pool.end(), p + 4,
                                  p + 4 + length);
      scratch->string_offsets.push_back(
          static_cast<u32>(scratch->string_pool.size()));
      p += 4 + length;
    }
    return;
  }
  u32 dict_count = 0;
  std::memcpy(&dict_count, p, 4);
  const u8* dict = DecodeCodes(p, count, scratch);
  scratch->entries.resize(dict_count);
  for (u32 e = 0, offset = 0; e < dict_count; e++) {
    u32 length = 0;
    std::memcpy(&length, dict + offset, 4);
    scratch->entries[e] = {offset + 4, length};
    offset += 4 + length;
  }
  // Arrow-style materialization: copy the bytes per value.
  GatherStrings(dict, scratch->codes.data(), count, scratch);
}

void DecodeValues(const u8* p, u32 count, ColumnType type, u8 encoding,
                  ChunkScratch* scratch) {
  auto e = static_cast<Encoding>(encoding);
  switch (type) {
    case ColumnType::kInteger:
      return DecodeNumeric(p, count, e, scratch, &scratch->ints);
    case ColumnType::kDouble:
      return DecodeNumeric(p, count, e, scratch, &scratch->doubles);
    case ColumnType::kString: return DecodeStrings(p, count, e, scratch);
  }
}

constexpr ValueCodec kParquetLike = {{'P', 'Q', 'L', '1'}, "parquet-like",
                                     EncodeValues, DecodeValues};

}  // namespace

ByteBuffer WriteParquetLike(const Relation& relation,
                            const ParquetOptions& options) {
  return WriteContainer(relation, options.rowgroup_rows, options.codec,
                        kParquetLike);
}

Status DecodeParquetLikeBytes(const u8* data, size_t size, u64* bytes) {
  return DecodeContainer(data, size, kParquetLike, bytes, nullptr);
}

Status ReadParquetLike(const u8* data, size_t size, Relation* out) {
  u64 bytes = 0;
  return DecodeContainer(data, size, kParquetLike, &bytes, out);
}

}  // namespace btr::lakeformat
