// Parquet-like baseline file format (paper Section 2.1).
//
// Mirrors the parts of Apache Parquet that matter for the evaluation:
//   - row groups (default 2^17 rows, the paper's tuned Arrow setting),
//   - per-column chunks with PLAIN or DICTIONARY encoding,
//   - dictionary codes in the RLE/bit-packed hybrid,
//   - Parquet's fallback heuristic: try dictionary, fall back to PLAIN
//     when the dictionary grows past 1 MiB (paper Section 2.1:
//     "the default C++ implementation simply tries dictionary compression
//     and leaves the data uncompressed if the dictionary grows too
//     large"),
//   - optional general-purpose compression applied per column chunk
//     (Snappy/Zstd in the paper; gpc codecs here),
//   - metadata footer at the end of the file.
// The row groups, chunk framing and footer are the container shared with
// the ORC-like format (lakeformat/container.h); this file adds the values.
#ifndef BTR_LAKEFORMAT_PARQUET_LIKE_H_
#define BTR_LAKEFORMAT_PARQUET_LIKE_H_

#include "btr/relation.h"
#include "gpc/codec.h"
#include "util/status.h"

namespace btr::lakeformat {

struct ParquetOptions {
  u32 rowgroup_rows = 1u << 17;
  gpc::CodecKind codec = gpc::CodecKind::kNone;
};

// Serializes the whole relation into one in-memory "file".
ByteBuffer WriteParquetLike(const Relation& relation,
                            const ParquetOptions& options);

// Decodes every column chunk (decompress + decode), without materializing
// a Relation: the in-memory scan path used by the decompression benches.
// On success stores the total logical value bytes produced in *bytes; a
// corrupt footer or chunk frame yields Status::Corruption (the values
// inside a chunk are trusted, docs/ROBUSTNESS.md).
Status DecodeParquetLikeBytes(const u8* data, size_t size, u64* bytes);

// Full materialization (round-trip tests).
Status ReadParquetLike(const u8* data, size_t size, Relation* out);

// --- building blocks exposed for tests -----------------------------------

// Parquet RLE/bit-packed hybrid for dictionary codes.
void HybridEncode(const u32* values, u32 count, u32 bit_width, ByteBuffer* out);
void HybridDecode(const u8* data, u32 count, u32 bit_width, u32* out);

}  // namespace btr::lakeformat

#endif  // BTR_LAKEFORMAT_PARQUET_LIKE_H_
