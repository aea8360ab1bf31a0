// ORC-like baseline file format (paper Sections 2.1 and 6.6).
//
// Mirrors the parts of Apache ORC the evaluation touches:
//   - stripes of rows (ORC's rowgroup equivalent),
//   - RLEv2-style integer encoding with REPEAT / DELTA / DIRECT windows
//     (zigzag + bit-packing),
//   - string dictionary encoding gated by dictionary_key_size_threshold
//     (the paper sets Hive's default 0.8: dictionary only when the number
//     of distinct keys is at most 0.8x the number of values),
//   - general-purpose compression per column chunk,
//   - metadata footer at the end of the file.
// The stripes, chunk framing and footer are the container shared with the
// Parquet-like format (lakeformat/container.h); this file adds the values.
#ifndef BTR_LAKEFORMAT_ORC_LIKE_H_
#define BTR_LAKEFORMAT_ORC_LIKE_H_

#include "btr/relation.h"
#include "gpc/codec.h"
#include "util/status.h"

namespace btr::lakeformat {

struct OrcOptions {
  u32 stripe_rows = 1u << 16;
  gpc::CodecKind codec = gpc::CodecKind::kNone;
};

ByteBuffer WriteOrcLike(const Relation& relation, const OrcOptions& options);

// Decode-everything scan path. On success stores the logical value bytes
// produced in *bytes; a corrupt footer or chunk frame yields
// Status::Corruption (the values inside a chunk are trusted,
// docs/ROBUSTNESS.md).
Status DecodeOrcLikeBytes(const u8* data, size_t size, u64* bytes);

// Full materialization (round-trip tests).
Status ReadOrcLike(const u8* data, size_t size, Relation* out);

// --- building blocks exposed for tests -------------------------------------

// RLEv2-style integer stream codec.
void OrcIntEncode(const i64* values, u32 count, ByteBuffer* out);
void OrcIntDecode(const u8* data, u32 count, i64* out);

}  // namespace btr::lakeformat

#endif  // BTR_LAKEFORMAT_ORC_LIKE_H_
