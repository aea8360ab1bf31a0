// Container shared by the Parquet-like and ORC-like baselines (internal).
// Rows are split into groups (row groups / stripes) of one chunk per
// column; a chunk is one gpc frame holding a u32-length-prefixed roaring
// null bitmap and the format's values; a footer of 24-byte chunk records
// ends the file (DESIGN.md §1.3). A format supplies only its ValueCodec.
// Readers check the footer and the chunk framing and return
// Status::Corruption; the values are trusted (docs/ROBUSTNESS.md).
#ifndef BTR_LAKEFORMAT_CONTAINER_H_
#define BTR_LAKEFORMAT_CONTAINER_H_

#include <utility>
#include <vector>

#include "btr/relation.h"
#include "gpc/codec.h"
#include "util/status.h"

namespace btr::lakeformat {

void PutVarint(u64 v, ByteBuffer* out);
u64 GetVarint(const u8*& p);

// Appends `count` values bit-packed LSB-first, `bit_width` (1-64) bits each.
void AppendBitPacked(const u64* values, size_t count, u32 bit_width,
                     ByteBuffer* out);

// One decoded chunk, reused across chunks. The container fills null_flags
// and resets the string outputs; a codec fills its type's output.
struct ChunkScratch {
  std::vector<u8> null_flags;
  std::vector<i32> ints;
  std::vector<double> doubles;
  std::vector<u32> string_offsets;  // value_count + 1 entries
  std::vector<u8> string_pool;
  // Codec scratch.
  std::vector<u32> codes;
  std::vector<i64> wide;
  std::vector<std::pair<u32, u32>> entries;  // dictionary (offset, length)
  ByteBuffer raw;                            // gpc frame output
};

// Appends dictionary entry codes[i] of `blob` for each of `count` rows.
template <typename Code>
void GatherStrings(const u8* blob, const Code* codes, u32 count,
                   ChunkScratch* scratch) {
  for (u32 i = 0; i < count; i++) {
    auto [offset, length] = scratch->entries[codes[i]];
    scratch->string_pool.insert(scratch->string_pool.end(), blob + offset,
                                blob + offset + length);
    scratch->string_offsets.push_back(
        static_cast<u32>(scratch->string_pool.size()));
  }
}

struct ValueCodec {
  char magic[4];
  const char* name;
  // Writes rows [begin, begin + count), NULL rows as their default value;
  // returns the chunk's encoding byte.
  u8 (*encode)(const Column& column, u32 begin, u32 count, ByteBuffer* out);
  void (*decode)(const u8* values, u32 count, ColumnType type, u8 encoding,
                 ChunkScratch* scratch);
};

ByteBuffer WriteContainer(const Relation& relation, u32 group_rows,
                          gpc::CodecKind codec, const ValueCodec& format);

// Decodes every chunk, storing the logical value bytes in *bytes and, when
// `out` is not null, appending the rows to it.
Status DecodeContainer(const u8* data, size_t size, const ValueCodec& format,
                       u64* bytes, Relation* out);

}  // namespace btr::lakeformat

#endif  // BTR_LAKEFORMAT_CONTAINER_H_
