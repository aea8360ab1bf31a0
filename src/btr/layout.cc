#include "btr/layout.h"

#include "btr/scheme_picker.h"

namespace btr::layout {

Block ReadBlock(const u8* data) {
  Block b;
  b.type = static_cast<ColumnType>(data[0]);
  b.count = Load<u32>(data + 1);
  b.null_bytes = Load<u32>(data + 5);
  b.nulls = data + kBlockHeaderBytes;
  b.vector = b.nulls + b.null_bytes;
  return b;
}

RoaringBitmap Block::NullRows() const {
  if (null_bytes == 0) return RoaringBitmap();
  return RoaringBitmap::Deserialize(nulls, nullptr);
}

std::string_view ReadOneString(const u8* payload) {
  return std::string_view(reinterpret_cast<const char*>(payload + 4),
                          Load<u32>(payload));
}

Rle ReadRle(const u8* payload) {
  Rle rle;
  rle.run_count = Load<u32>(payload);
  rle.values = payload + 8;
  rle.lengths = rle.values + Load<u32>(payload + 4);
  return rle;
}

template <typename T>
Runs<T> DecodeRuns(const Rle& rle) {
  Runs<T> runs;
  runs.count = rle.run_count;
  runs.values.resize(rle.run_count + kDecodeSlack);
  runs.lengths.resize(rle.run_count + kDecodeSlack);
  DecompressValues(rle.values, rle.run_count, runs.values.data());
  DecompressInts(rle.lengths, rle.run_count, runs.lengths.data());
  return runs;
}

template <typename T>
Dict<T> ReadDict(const u8* payload) {
  u32 dict_count = Load<u32>(payload);
  Dict<T> dict;
  dict.codes = payload + 8;
  dict.entries.resize(dict_count);
  std::memcpy(dict.entries.data(), dict.codes + Load<u32>(payload + 4),
              dict_count * sizeof(T));
  return dict;
}

template <typename T>
Frequency<T> DecodeFrequency(const u8* payload) {
  Frequency<T> f;
  f.top = Load<T>(payload);
  u32 exception_count = Load<u32>(payload + sizeof(T));
  u32 bitmap_bytes = Load<u32>(payload + sizeof(T) + 4);
  const u8* bitmap = payload + sizeof(T) + 8;
  f.positions = RoaringBitmap::Deserialize(bitmap, nullptr);
  if (exception_count > 0) {
    f.exceptions.resize(exception_count + kDecodeSlack);
    DecompressValues(bitmap + bitmap_bytes, exception_count,
                     f.exceptions.data());
  }
  return f;
}

StringDict ReadStringDict(const u8* payload) {
  u32 dict_count = Load<u32>(payload);
  StringDict dict;
  dict.pool_bytes = Load<u32>(payload + 4);
  dict.codes = payload + 12;
  const u8* tuples = dict.codes + Load<u32>(payload + 8);
  dict.entries.resize(dict_count);
  std::memcpy(dict.entries.data(), tuples, dict_count * sizeof(StringSlot));
  dict.pool = tuples + dict_count * sizeof(StringSlot);
  return dict;
}

template Runs<i32> DecodeRuns<i32>(const Rle&);
template Runs<double> DecodeRuns<double>(const Rle&);
template Dict<i32> ReadDict<i32>(const u8*);
template Dict<double> ReadDict<double>(const u8*);
template Frequency<i32> DecodeFrequency<i32>(const u8*);
template Frequency<double> DecodeFrequency<double>(const u8*);

}  // namespace btr::layout
