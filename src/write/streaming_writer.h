// StreamingWriter — the crash-safe, bounded-memory ingestion path.
//
// The seed repo wrote tables with one-shot UploadCompressedRelation: the
// whole relation compressed in memory, then Put object-by-object with no
// failure handling and no commit point. This module replaces that with a
// production-shaped writer:
//
//   bounded memory   Append() takes row chunks of any size and buffers at
//                    most one kBlockCapacity accumulator plus one pending
//                    multipart part per column; everything else streams
//                    into the object store as it is produced.
//   scheme per block The cascade scheme picker (btr/datablock.h) runs on
//                    every 64k-value block exactly as CompressColumn
//                    would, so a streamed table is bit-identical to the
//                    one-shot compressed form — same blocks, same bytes.
//   header last      A column object's "BTRC" header depends on all block
//                    sizes/CRCs, so part number 1 is *reserved* and
//                    uploaded at Commit after the payload parts (2..N);
//                    multipart parts assemble in part-number order, which
//                    keeps the on-disk format byte-identical to
//                    SerializeColumnFile. The whole-object CRC recorded in
//                    the intent is stitched with Crc32cCombine.
//   atomic commit    All objects stage under the next version's keys
//                    (write/manifest.h); Commit verifies what actually
//                    landed, then publishes with a single manifest Put. A
//                    concurrent Scanner::Open sees the previous version or
//                    the new one, never a mix.
//   crash safety     Every step is journaled in a write-ahead intent
//                    record (write/intent.h). On *any* failure the writer
//                    stops dead and cleans up nothing — by design: a
//                    failed writer is indistinguishable from a killed one,
//                    so the recovery pass (write/recovery.h) is the single
//                    code path that ever repairs a table, and the crash
//                    matrix in tests/writer_test.cc can kill the writer at
//                    every step and prove recovery converges.
//   hostile store    Every PUT-class request runs under exec::RunWithRetries
//                    with the configured budget/deadline policy, so
//                    injected throttles, unavailabilities and partial
//                    parts (s3sim/fault.h) are retried; torn-but-acked
//                    writes are caught by the verify-before-commit pass.
//
// Usage:
//   StreamingWriter writer(&store, "events", "lake/");
//   writer.Begin({{"ts", ColumnType::kInteger}, {"msg", ColumnType::kString}});
//   while (more) writer.Append(next_chunk);   // any chunk sizes
//   writer.Commit();                          // or writer.Abort()
//
// See docs/WRITE_PATH.md for the full protocol walk-through.
#ifndef BTR_WRITE_STREAMING_WRITER_H_
#define BTR_WRITE_STREAMING_WRITER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "btr/config.h"
#include "btr/relation.h"
#include "btr/zonemap.h"
#include "exec/retry.h"
#include "s3sim/object_store.h"
#include "util/status.h"
#include "write/intent.h"

namespace btr::write {

struct WriterConfig {
  // How blocks are compressed (same knobs as CompressRelation).
  CompressionConfig compression;
  // A column's pending part uploads once it reaches this many bytes.
  // Small values exercise many parts; production-shaped values amortize
  // per-request cost. Parts may exceed this by one block's size.
  u64 part_target_bytes = 256 * 1024;
  // Retry discipline for every PUT-class request the writer issues.
  exec::RetryPolicy retry;
  // Test-only failpoint. When set, the writer invokes it at every step
  // boundary with a stable label ("commit:after-staged-intent", ...);
  // returning true simulates the process dying right there: the writer
  // returns Status::IoError immediately and — like a real crash — cleans
  // up nothing. The crash-matrix harness first counts the points, then
  // kills each one in turn (tests/writer_test.cc).
  std::function<bool(const char* label)> failpoint;
};

class StreamingWriter {
 public:
  struct ColumnSpec {
    std::string name;
    ColumnType type = ColumnType::kInteger;
  };

  StreamingWriter(s3sim::ObjectStore* store, std::string table,
                  std::string prefix = "", WriterConfig config = WriterConfig());
  ~StreamingWriter();

  StreamingWriter(const StreamingWriter&) = delete;
  StreamingWriter& operator=(const StreamingWriter&) = delete;

  // Allocates the next version (strictly above both the committed version
  // and any crashed predecessor's staged version), creates one multipart
  // upload per column and journals the kStaging intent. Must be called
  // exactly once, before Append/Commit.
  Status Begin(const std::vector<ColumnSpec>& schema);

  // Appends a chunk of rows. The chunk's columns must match the schema in
  // order, name and type; chunks may be any size (blocks are cut at exactly
  // kBlockCapacity rows regardless of chunk boundaries).
  Status Append(const Relation& chunk);

  // Flushes trailing blocks, uploads headers, journals kStaged, completes
  // the uploads, verifies, and performs the manifest pointer-swap. After
  // Ok the version is durable and visible to new Scanner::Opens.
  Status Commit();

  // Abandons the write. Per the writer-never-cleans-up rule this only
  // marks the writer dead; the staged objects/intent are left for
  // recovery to garbage-collect — exactly like a crash.
  Status Abort();

  // Version this writer is staging (valid after Begin).
  u64 version() const { return version_; }
  u64 rows_appended() const { return rows_appended_; }
  // Blocks cut and staged so far (across all columns).
  u64 blocks_flushed() const { return blocks_flushed_; }

 private:
  enum class State : u8 { kIdle, kOpen, kCommitted, kDead };

  struct ColumnState {
    ColumnSpec spec;
    std::unique_ptr<Column> accumulator;  // < kBlockCapacity buffered rows
    std::string upload_id;
    std::string key;           // final versioned object key
    u32 next_part = 2;         // part 1 is reserved for the header
    ByteBuffer pending;        // serialized payloads awaiting UploadPart
    std::vector<u32> block_sizes;
    std::vector<u32> block_crcs;
    std::vector<u32> block_value_counts;
    std::vector<u8> block_root_schemes;
    std::vector<BlockZone> zones;
    u64 uncompressed_bytes = 0;
    u64 payload_bytes = 0;  // staged payload bytes (excludes the header)
    u32 payload_crc = 0;    // running CRC32C over the concatenated payloads
  };

  // True => simulated crash: the writer is dead, caller must return
  // `failed_status_`. Checked at every step boundary.
  bool CrashAt(const char* label);
  Status Fail(Status status);  // marks kDead and returns the status
  Status PutWithRetries(const std::string& key, const u8* data, size_t size);
  Status WriteIntent(const IntentRecord& intent);
  // Records one serialized block (size/CRC/count/scheme bookkeeping) and
  // appends its bytes to column `c`'s pending part buffer.
  void StageBlockBytes(size_t c, const u8* data, u32 size, u32 value_count,
                       u8 root_scheme);
  // Compresses the accumulator of column `c` into one block and appends
  // the payload to `pending` (cuts zones too). Accumulator must be
  // non-empty.
  Status FlushBlock(size_t c);
  // Uploads the pending payload bytes of column `c` as the next part.
  Status UploadPending(size_t c);

  s3sim::ObjectStore* store_;
  std::string table_;
  std::string prefix_;
  WriterConfig config_;
  std::unique_ptr<exec::RetryState> retry_;
  // Write the <table>.v<N>.zones pruning sidecar (zones are computed from
  // the uncompressed accumulator as each block flushes). Always, except
  // when CommitCompressedRelation is given no zone map.
  bool write_zone_map_ = true;

  State state_ = State::kIdle;
  Status failed_status_;  // first failure, sticky
  u64 version_ = 0;
  u64 rows_appended_ = 0;
  u64 blocks_flushed_ = 0;
  std::vector<ColumnState> columns_;

  friend Status CommitCompressedRelation(const CompressedRelation&,
                                         const TableZoneMap*,
                                         const std::string&,
                                         s3sim::ObjectStore*,
                                         const WriterConfig&);
};

// Commits an already-compressed relation through the same staging/commit
// protocol (same intent journaling, multipart staging, verification and
// manifest swap) — the compressed blocks are fed straight into the part
// stream instead of through the accumulator. UploadCompressedRelation
// (btr/scanner.h) is a thin wrapper over this.
Status CommitCompressedRelation(const CompressedRelation& relation,
                                const TableZoneMap* zones,
                                const std::string& prefix,
                                s3sim::ObjectStore* store,
                                const WriterConfig& config = WriterConfig());

}  // namespace btr::write

#endif  // BTR_WRITE_STREAMING_WRITER_H_
