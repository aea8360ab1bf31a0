// Block-level compression: one self-contained compressed unit per
// <= 64,000 values of one column, with NULL positions tracked in a Roaring
// bitmap ahead of the encoded values (paper Section 2.2). Blocks carry no
// file metadata — BtrBlocks deliberately decouples statistics/indices from
// the data blocks (paper Section 2.1).
//
// Block layout (read through btr/layout.h):
//   [u8 column_type][u32 value_count][u32 null_bitmap_bytes]
//   [roaring null bitmap][scheme vector: u8 code + payload]
#ifndef BTR_BTR_DATABLOCK_H_
#define BTR_BTR_DATABLOCK_H_

#include <vector>

#include "btr/column.h"
#include "btr/config.h"
#include "btr/scheme.h"
#include "obs/cascade_trace.h"
#include "util/status.h"

namespace btr {

// Chosen root scheme, reported for introspection (Table 4's
// "Scheme (Root)" column).
struct BlockCompressionInfo {
  u8 root_scheme = 0;
  size_t compressed_bytes = 0;
  // Full cascade decision tree for this block; populated only when
  // CompressionConfig::collect_cascade_trace is set.
  obs::CascadeNode trace;
};

// Compresses one block of `count` values (T = i32 or double) or of a
// string view. null_flags may be nullptr (no NULLs). Returns bytes
// appended to out.
template <typename T>
size_t CompressBlock(const T* values, const u8* null_flags, u32 count,
                     ByteBuffer* out, const CompressionConfig& config,
                     BlockCompressionInfo* info = nullptr);
size_t CompressBlock(const StringsView& values, const u8* null_flags,
                     ByteBuffer* out, const CompressionConfig& config,
                     BlockCompressionInfo* info = nullptr);

// Decompressed block contents. Exactly one of the value containers is
// populated, matching `type`.
struct DecodedBlock {
  ColumnType type = ColumnType::kInteger;
  u32 count = 0;
  std::vector<i32> ints;
  std::vector<double> doubles;
  DecodedStrings strings;
  std::vector<u8> null_flags;  // empty when the block has no NULLs

  bool IsNull(u32 i) const { return !null_flags.empty() && null_flags[i] != 0; }

  // Logical uncompressed size of the block's values, for throughput math.
  u64 ValueBytes() const;

  void Clear();
};

// Decompresses one block. `out` containers are reused across calls.
// Blocks do not record their own byte size; callers framing several
// blocks keep per-block sizes externally (see file_format.h).
void DecompressBlock(const u8* data, DecodedBlock* out,
                     const CompressionConfig& config);

// Root scheme code of a serialized block (after type/count/null header).
u8 PeekBlockScheme(const u8* data);

// Structural validation of one serialized block, for data that crossed a
// network or disk boundary (btr::Scanner runs this before handing blocks
// to decode workers). Checks the header — type byte, value count, null
// bitmap extent — and that the root scheme code exists for the type,
// without decoding anything. DecompressBlock assumes validated input and
// BTR_CHECK-aborts on garbage; this turns the common corruptions into a
// Status instead.
Status ValidateBlock(const u8* data, size_t size, ColumnType expected_type,
                     u32 expected_count);

}  // namespace btr

#endif  // BTR_BTR_DATABLOCK_H_
