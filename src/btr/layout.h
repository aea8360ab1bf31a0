// Readers for the stored block and payload layouts (docs/FORMAT.md §2-3).
//
// The encoders in btr/schemes/ write these layouts; everything that reads
// them — the scheme decoders, the predicate engine on the compressed form,
// DecompressBlock / ValidateBlock / PeekBlockScheme — goes through the
// readers below, so each layout's byte offsets live in exactly one place.
// (The FastBP128 stream has its reader in bitpack/bitpack.h; layouts with
// a single consumer — PFOR, pseudodecimal, FSST, uncompressed strings —
// are read only by their own decoder.)
//
// Readers trust their input: callers validate blocks that crossed a
// network or disk boundary with ValidateBlock and the per-block CRC first.
#ifndef BTR_BTR_LAYOUT_H_
#define BTR_BTR_LAYOUT_H_

#include <cstring>
#include <string_view>
#include <vector>

#include "bitmap/roaring.h"
#include "btr/column.h"

namespace btr::layout {

// Unaligned-safe load of a fixed-width value; payloads are byte-packed.
template <typename T>
T Load(const u8* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// --- §2 block ----------------------------------------------------------------
// [u8 column_type][u32 value_count][u32 null_bitmap_bytes]
// [roaring null bitmap][compressed vector: u8 scheme + payload]

inline constexpr size_t kBlockHeaderBytes = 9;

struct Block {
  ColumnType type;
  u32 count;
  u32 null_bytes;
  const u8* nulls;   // serialized roaring bitmap, null_bytes long
  const u8* vector;  // [u8 scheme][payload]

  u8 scheme() const { return vector[0]; }
  const u8* payload() const { return vector + 1; }
  // NULL row positions; empty when the block has none.
  RoaringBitmap NullRows() const;
};

Block ReadBlock(const u8* data);

// --- §3.1 / §3.2 payloads ----------------------------------------------------
// Numeric readers are instantiated for T = i32 and T = double.

// one_value: [T value] / strings: [u32 length][bytes]
template <typename T>
T ReadOneValue(const u8* payload) {
  return Load<T>(payload);
}
std::string_view ReadOneString(const u8* payload);

// rle: [u32 run_count][u32 values_bytes][vec<T> run_values][vec<int> lengths]
struct Rle {
  u32 run_count;
  const u8* values;   // nested compressed vector
  const u8* lengths;  // nested compressed int vector
};
Rle ReadRle(const u8* payload);

// Both run vectors decoded; each carries kDecodeSlack elements of slack.
template <typename T>
struct Runs {
  u32 count = 0;
  std::vector<T> values;
  std::vector<i32> lengths;
};
template <typename T>
Runs<T> DecodeRuns(const Rle& rle);

// dict: [u32 dict_count][u32 codes_bytes][vec<int> codes][raw T entries]
// Entries are copied to aligned storage (dictionaries are small).
template <typename T>
struct Dict {
  const u8* codes;  // nested compressed int vector, one code per row
  std::vector<T> entries;
};
template <typename T>
Dict<T> ReadDict(const u8* payload);

// frequency: [T top][u32 exception_count][u32 bitmap_bytes]
//            [roaring positions][vec<T> exception values]
// Decoded: exceptions[k] is the value at the k-th smallest position.
template <typename T>
struct Frequency {
  T top;
  RoaringBitmap positions;
  std::vector<T> exceptions;  // exception count + kDecodeSlack
};
template <typename T>
Frequency<T> DecodeFrequency(const u8* payload);

// string dict: [u32 dict_count][u32 pool_bytes][u32 codes_bytes]
//              [vec<int> codes][dict_count x (u32 offset, u32 length)][pool]
struct StringDict {
  const u8* codes;  // nested compressed int vector, one code per row
  std::vector<StringSlot> entries;  // offsets relative to `pool`
  const u8* pool;
  u32 pool_bytes;

  std::string_view Entry(u32 code) const {
    return std::string_view(
        reinterpret_cast<const char*>(pool + entries[code].offset),
        entries[code].length);
  }
};
StringDict ReadStringDict(const u8* payload);

}  // namespace btr::layout

#endif  // BTR_BTR_LAYOUT_H_
