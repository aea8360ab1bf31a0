// On-disk layout. Following the paper (Sections 2.1 and 6.7), BtrBlocks
// keeps data files free of metadata: each column is written to its own
// file of concatenated blocks, and table metadata (column names, types,
// row counts and where each block sits) lives in one separate metadata
// file.
//
//   <dir>/<table>.btrmeta            table metadata
//   <dir>/<table>.<column_idx>.btr   one file per column
//
// Every structure is integrity-checked with CRC32C (util/crc32c.h): data
// that crossed a network or disk boundary must be *detectably* corrupt,
// never silently wrong (docs/ROBUSTNESS.md).
//
// Column file: the column's block payloads, concatenated. Nothing else.
// Metadata:    "BTRT" | u32 column_count | u32 row_count | per column:
//              u16 name_len | name | u8 type | u64 uncompressed_bytes |
//              u32 block_count | block_count * u32 value_counts |
//              block_count * u32 payload sizes |
//              block_count * u32 payload CRC32Cs
//              | trailing u32 CRC32C over all preceding bytes.
//              The sizes place each payload in its column file, and each
//              payload CRC covers one block's bytes, so a reader that
//              ranged-GETs a single block verifies it against the
//              metadata it already holds, without touching the rest of
//              the object.
#ifndef BTR_BTR_FILE_FORMAT_H_
#define BTR_BTR_FILE_FORMAT_H_

#include <string>
#include <vector>

#include "btr/relation.h"
#include "util/status.h"

namespace btr {

Status WriteCompressedRelation(const CompressedRelation& relation,
                               const std::string& directory);

Status ReadCompressedRelation(const std::string& directory,
                              const std::string& table_name,
                              CompressedRelation* out);

// Where each block payload of one column sits in its column file, and the
// CRC32C it must match. The one reader of block positions: file reads,
// Scanner's ranged GETs and Fsck all locate and verify blocks through it.
struct BlockTable {
  // block_count + 1 entries: payload b spans [offsets[b], offsets[b + 1]).
  std::vector<u64> block_offsets{0};
  std::vector<u32> block_crcs;

  size_t block_count() const { return block_crcs.size(); }
  u64 block_size(size_t b) const {
    return block_offsets[b + 1] - block_offsets[b];
  }
  // Bytes of the whole column file.
  u64 object_size() const { return block_offsets.back(); }
  // Appends the next block: its size and its CRC32C.
  void Add(const u8* payload, u32 size);
  // True when `payload` is exactly block b: the size and CRC32C the
  // metadata promised.
  bool Intact(size_t b, const u8* payload, size_t size) const;
  // Block b of a whole column file of `object_size` bytes, checked for
  // truncation and with Intact.
  Status Locate(const u8* object, size_t object_size, size_t b,
                const u8** payload) const;
};

// Table metadata (column names/types/row counts and every column's block
// table) — the cheap read a query planner performs before deciding which
// blocks to fetch.
struct TableMeta {
  u32 row_count = 0;
  struct ColumnMeta {
    std::string name;
    ColumnType type = ColumnType::kInteger;
    u64 uncompressed_bytes = 0;
    std::vector<u32> block_value_counts;
    BlockTable blocks;
  };
  std::vector<ColumnMeta> columns;
};
Status ReadTableMeta(const std::string& directory,
                     const std::string& table_name, TableMeta* out);

// Projection read: fetches exactly one column file (OLAP queries rarely
// read entire tables — paper Section 6.7, "Loading individual columns").
Status ReadCompressedColumn(const std::string& directory,
                            const std::string& table_name,
                            const TableMeta& meta, size_t column_index,
                            CompressedColumn* out);

// --- in-memory framing -------------------------------------------------------
// The same byte layouts the files use, exposed buffer-to-buffer so tables
// can live in an object store: btr::Scanner reads the metadata and then
// ranged-GETs only the block payloads that survive zone-map pruning.
void SerializeTableMeta(const TableMeta& meta, ByteBuffer* out);
// The metadata of a compressed relation, block tables included.
void SerializeTableMeta(const CompressedRelation& relation, ByteBuffer* out);
// Every count is bounded by the bytes present, and the columns must use
// the frame exactly: a block count that leaves bytes over is Corruption.
Status ParseTableMeta(const u8* data, size_t size, TableMeta* out);

// A column file: the column's block payloads, concatenated.
void SerializeColumnFile(const CompressedColumn& column, ByteBuffer* out);

// Object keys btr::Scanner and UploadCompressedRelation agree on. The
// prefix is any object-store path prefix, e.g. "lake/".
std::string TableMetaKey(const std::string& prefix, const std::string& table);
std::string ColumnFileKey(const std::string& prefix, const std::string& table,
                          size_t column_index);
std::string ZoneMapKey(const std::string& prefix, const std::string& table);

}  // namespace btr

#endif  // BTR_BTR_FILE_FORMAT_H_
