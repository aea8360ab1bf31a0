// On-disk layout. Following the paper (Sections 2.1 and 6.7), BtrBlocks
// keeps data files free of metadata: each column is written to its own
// file of size-framed blocks, and table metadata (column names, types,
// row counts) lives in one separate metadata file.
//
//   <dir>/<table>.btrmeta            table metadata
//   <dir>/<table>.<column_idx>.btr   one file per column
//
// Every structure is integrity-checked with CRC32C (util/crc32c.h): data
// that crossed a network or disk boundary must be *detectably* corrupt,
// never silently wrong (docs/ROBUSTNESS.md).
//
// Column file: "BTRC" | u32 block_count | block_count * u32 sizes |
//              block_count * u32 payload CRC32Cs | u32 header CRC32C |
//              concatenated block payloads.
//              The header CRC covers everything before it; each payload
//              CRC covers one block's bytes, so a reader that ranged-GETs
//              a single block can verify it against the already-fetched
//              header without touching the rest of the object.
// Metadata:    "BTRM" | u32 column_count | u32 row_count | per column:
//              u16 name_len | name | u8 type | u64 uncompressed_bytes |
//              u32 block_count | block_count * u32 value_counts
//              | trailing u32 CRC32C over all preceding bytes.
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

// Table metadata only (column names/types/row counts) — the cheap read a
// query planner performs before deciding which column files to fetch.
struct TableMeta {
  u32 row_count = 0;
  struct ColumnMeta {
    std::string name;
    ColumnType type;
    u64 uncompressed_bytes;
    std::vector<u32> block_value_counts;
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
// can live in an object store: btr::Scanner uploads column files as
// objects and reads them back with ranged GETs (header first, then only
// the block payloads that survive zone-map pruning).
void SerializeTableMeta(const CompressedRelation& relation, ByteBuffer* out);
Status ParseTableMeta(const u8* data, size_t size, TableMeta* out);

void SerializeColumnFile(const CompressedColumn& column, ByteBuffer* out);
// Just the "BTRC" header for the given per-block payload sizes and CRCs —
// what a *streaming* writer emits once all blocks are known, while the
// payloads themselves already live in the object store as multipart parts
// (src/write/streaming_writer.h). SerializeColumnFile == this header +
// concatenated payloads, byte for byte.
void SerializeColumnFileHeader(const std::vector<u32>& block_sizes,
                               const std::vector<u32>& block_crcs,
                               ByteBuffer* out);
// Bytes before the first block payload in a column file: magic + count,
// the size and CRC arrays, and the header CRC.
inline u64 ColumnFileHeaderBytes(u64 block_count) {
  return 8 + 8 * block_count + 4;
}

// A parsed "BTRC" header: where each block payload sits in the column
// object and the CRC32C it must match. The one reader of the framing —
// file reads, Scanner's ranged GETs and Fsck all locate and verify blocks
// through it.
struct ColumnFileHeader {
  // block_count + 1 entries: payload b spans [offsets[b], offsets[b + 1]).
  std::vector<u64> block_offsets;
  std::vector<u32> block_crcs;

  size_t block_count() const { return block_crcs.size(); }
  u64 block_size(size_t b) const {
    return block_offsets[b + 1] - block_offsets[b];
  }
  // True when `payload` is exactly block b: the size and CRC32C the
  // header promised.
  bool Intact(size_t b, const u8* payload, size_t size) const;
  // Block b of a whole column object of `object_size` bytes, checked for
  // truncation and with Intact.
  Status Locate(const u8* object, size_t object_size, size_t b,
                const u8** payload) const;
};

// Parses a column file's "BTRC" header prefix and verifies the header's
// own CRC. `size` is the bytes available; the header prefix suffices. The
// block count must fit `size` and the CRC must match before anything is
// sized by the count.
Status ParseColumnFileHeader(const u8* data, size_t size,
                             ColumnFileHeader* out);

// Object keys btr::Scanner and UploadCompressedRelation agree on. The
// prefix is any object-store path prefix, e.g. "lake/".
std::string TableMetaKey(const std::string& prefix, const std::string& table);
std::string ColumnFileKey(const std::string& prefix, const std::string& table,
                          size_t column_index);
std::string ZoneMapKey(const std::string& prefix, const std::string& table);

}  // namespace btr

#endif  // BTR_BTR_FILE_FORMAT_H_
