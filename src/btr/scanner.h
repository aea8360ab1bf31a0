// btr::Scanner — the unified public API for scanning a table that lives as
// one compressed file per column in an object store (the paper's data-lake
// deployment, Sections 2.1 and 6.7).
//
// The engine is a real pipeline, not the analytic core-count model of
// s3sim::SimulateScan. Every scan runs on a service::ScanService — a
// standalone Scanner's private one or a shared multi-tenant one — in four
// stages:
//
//   plan ────► zone maps prune row blocks that cannot match (never
//              fetched); each needed column's other blocks are cut into
//              runs of adjacent blocks up to one size in bytes, located
//              by the block tables Open read with the metadata — no GET
//   fetch ───► items on the service's fetch executors: each block is
//              looked up in the block cache, and every stretch of a run's
//              uncached blocks is one exec::HedgedGet under
//              exec::RunWithRetries; each arrived block is checked (size +
//              CRC32C, one optional re-fetch) and only then cached; the
//              fetch window, in bytes, runs one run per fetch executor
//              ahead of the decode window, each part counted until emitted
//   decode ──► items on the service's decode executors for the row blocks
//              of the decode window (prefetch_depth + one bundle per
//              decode thread, in whole row blocks past the next emit; a
//              row block past it waits compressed): structural
//              validation, predicates on the *compressed* form (selection
//              vectors), decompression only where the selection is
//              non-empty
//   emit ────► chunks surface on the calling thread in block order
//
// API contract (this is the Status-carrying redesign):
//   - Scan() never throws; failures on executor threads, including
//     exceptions thrown while decoding, surface as a Status.
//   - Transient object-store failures (Status::Throttled/Unavailable) are
//     retried per ScanConfig::retry with interruptible backoff;
//     a permanently unreadable block either fails the scan with a typed
//     Status or, with skip_unreadable_blocks, degrades it (the block is
//     emitted as kUnreadable and reported in ScanStats).
//   - Every fetched block payload is verified against the CRC32C its
//     block table (CRC-checked table metadata) records, once, by the fetch
//     item that received it; a cache hit is a verified copy keyed by that
//     CRC32C (docs/ROBUSTNESS.md). A bit-flipped or truncated block, or a
//     structurally corrupt ("poisoned") one, yields Status::Corruption,
//     not a crash and never silently wrong data.
//   - Chunks arrive in ascending (block, column) order regardless of how
//     fetch and decode interleave.
//
// See docs/SCAN_PIPELINE.md for stages and tuning knobs, and
// docs/ROBUSTNESS.md for the fault model, retry policy and metric names.
#ifndef BTR_BTR_SCANNER_H_
#define BTR_BTR_SCANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/roaring.h"
#include "btr/file_format.h"
#include "btr/predicate.h"
#include "btr/relation.h"
#include "btr/zonemap.h"
#include "obs/profile.h"
#include "s3sim/object_store.h"
#include "util/status.h"

namespace btr::service {
class ScanService;  // service/scan_service.h
}  // namespace btr::service

namespace btr {

// First table row of row block `block`. 64-bit on purpose: a table's row
// count is u64, so past 2^32 / kBlockCapacity ≈ 67k blocks the product no
// longer fits in u32 — computing it in u32 silently wraps row positions.
inline u64 BlockRowBegin(u32 block) {
  return static_cast<u64>(block) * kBlockCapacity;
}

// What to scan. Embeds the "how" (ScanConfig, btr/config.h).
struct ScanSpec {
  // Projection, in output order. Empty = every column of the table.
  std::vector<std::string> columns;
  // Filter expression (btr/predicate.h): arbitrary AND/OR/NOT over typed
  // leaf comparisons. A leaf may reference a column outside the
  // projection; that column is then fetched for filtering but not decoded
  // into the output. Integer literals against double columns are coerced.
  // Empty = no filtering.
  PredicateExpr filter;
  ScanConfig config;
};

// Why a row block produced no decoded values.
enum class BlockOutcome : u8 {
  kDecoded = 0,     // fetched, filtered, decompressed
  kPruned = 1,      // zone maps proved no match: never fetched
  kSkipped = 2,     // compressed-form predicate evaluation found an empty
                    // selection: fetched but not decompressed
  kUnreadable = 3,  // degraded mode only: fetch failed permanently or the
                    // bytes arrived corrupt; no values were produced
};

// One (column, row-block) result. Emitted for every projected column of
// every row block, in ascending (block, column) order.
struct ColumnChunk {
  u32 column = 0;     // index into the resolved projection
  u32 block = 0;      // row-block index within the table
  u64 row_begin = 0;  // first table row this block covers (u64: table row
                      // counts are u64, so u32 wraps past 2^32 rows)
  u32 row_count = 0;  // rows this block covers
  BlockOutcome outcome = BlockOutcome::kDecoded;
  // Decoded values; empty unless outcome == kDecoded.
  DecodedBlock values;
  // Block-local matching rows. Only meaningful when the spec had
  // predicates and outcome == kDecoded; without predicates every row in
  // [0, row_count) passes and `selection` is left empty.
  RoaringBitmap selection;
};

// Per-leaf planning/evaluation telemetry, one entry per depth-first leaf
// of the resolved filter expression (ScanStats::predicate_leaves).
struct PredicateLeafStats {
  std::string description;  // leaf.ToString() after type coercion
  u64 blocks_pruned = 0;    // row blocks this leaf alone proved empty
  u64 fast_path = 0;        // block evaluations on the compressed form
  u64 materialized = 0;     // block evaluations that decoded values
};

struct ScanStats {
  u32 row_blocks = 0;          // row blocks in the table
  u32 blocks_pruned = 0;       // zone-map pruned row blocks
  u32 blocks_skipped = 0;      // empty-selection row blocks
  u32 blocks_decoded = 0;      // row blocks that reached decompression
  u32 blocks_unreadable = 0;   // degraded mode: blocks skipped as unreadable
  u64 rows_matched = 0;        // rows passing every predicate
  u64 bytes_fetched = 0;       // compressed block bytes GET'd
  u64 requests = 0;            // GETs issued: block runs, CRC re-fetches,
                               // retries and hedges
  u64 retries = 0;             // transient-failure retries granted
  u64 cache_hits = 0;          // blocks served from the block cache
  u64 cache_misses = 0;        // blocks a cache lookup missed
  u64 hedges = 0;              // duplicate GETs issued against tail latency
  u64 hedge_wins = 0;          // hedges whose duplicate response won
  u64 breaker_trips = 0;       // circuit-breaker open transitions
  u64 breaker_fast_failures = 0;  // GETs rejected while the breaker was open
  u64 crc_refetches = 0;       // CRC-failed blocks re-fetched once
  u64 crc_rescues = 0;         // re-fetches that produced verified bytes
  u64 admission_wait_ns = 0;   // serviced scans: time queued for admission
  double seconds = 0;          // wall clock of Scan()
  u64 bytes_decoded = 0;       // logical uncompressed bytes produced
  // One entry per depth-first leaf of the resolved filter: where did each
  // comparison spend its time (zone pruning, compressed-form fast path, or
  // decode-and-compare)? Empty when the spec had no filter.
  std::vector<PredicateLeafStats> predicate_leaves;
  // Degraded mode: indices of the kUnreadable row blocks, with the Status
  // that made each unreadable (same order).
  std::vector<u32> unreadable_blocks;
  std::vector<Status> unreadable_reasons;
  // Per-scan profile snapshot (stage breakdown, GET latency histogram,
  // per-scheme decode cost, slow-op exemplars). Null unless the scan ran
  // with ScanConfig::collect_profile. Shared so copies of ScanStats stay
  // cheap; the profile itself is immutable once the scan returns.
  std::shared_ptr<const obs::ScanProfile> profile;
};

// Materialized scan result (the convenience overload).
struct ScanOutput {
  struct ColumnResult {
    std::string name;
    ColumnType type = ColumnType::kInteger;
    // One entry per row block, block-ordered. Pruned/skipped blocks hold
    // an empty DecodedBlock (count == 0).
    std::vector<DecodedBlock> blocks;
  };
  std::vector<ColumnResult> columns;
  std::vector<BlockOutcome> block_outcomes;     // per row block
  std::vector<RoaringBitmap> block_selections;  // per row block (predicates)
  ScanStats stats;
};

// Uploads a compressed relation into the object store using the
// file_format framing, one object per column plus metadata and the
// optional zone-map sidecar. Since the crash-safe write path landed this
// is a thin wrapper over write::CommitCompressedRelation: the objects
// stage under the next version's keys
//   <prefix><table>.v<N>.btrmeta  <prefix><table>.v<N>.<idx>.btr
//   <prefix><table>.v<N>.zones
// and become visible atomically when <prefix><table>.manifest swaps —
// readers see the previous version or the new one, never a mix
// (docs/WRITE_PATH.md).
Status UploadCompressedRelation(const CompressedRelation& relation,
                                const TableZoneMap* zones,
                                const std::string& prefix,
                                s3sim::ObjectStore* store);

class Scanner {
 public:
  // Standalone scanner: runs on a private single-tenant ScanService built
  // at Open() from its ScanConfig — fetch_threads GET executors,
  // scan_threads decode executors, and the config's block cache and
  // circuit breaker — and rebuilt only when a later scan asks for other
  // values. The cache and the breaker therefore live as long as the
  // Scanner (or until a rebuild), not per scan. `prefix` is the object
  // key prefix the table was uploaded under.
  Scanner(s3sim::ObjectStore* store, std::string table_name,
          std::string prefix = "",
          const CompressionConfig& config = CompressionConfig());
  // Serviced scanner: the same stages run on `service`'s shared executors
  // under `tenant_id`'s fair-queue lanes, the block cache and per-backend
  // circuit breaker are the service's shared ones, and admission control
  // can reject — a saturated service surfaces as typed Status::Throttled
  // (transient, so callers can wrap Scan in exec::RunWithRetries). Open's
  // GETs ride the tenant's lane too. The ScanConfig thread, cache and
  // breaker knobs are ignored in this mode; retry and hedging policy stay
  // per call. `service` must outlive the Scanner.
  Scanner(service::ScanService& service, const std::string& tenant_id,
          s3sim::ObjectStore* store, std::string table_name,
          std::string prefix = "",
          const CompressionConfig& config = CompressionConfig());
  ~Scanner();

  // Reads the table's manifest (NotFound without one), then its metadata
  // and zone-map sidecar (when present) concurrently. Every GET is a
  // fetch item on the scanner's service under the config's retry,
  // hedging and breaker policy, and every parsed structure is
  // CRC-verified. The metadata holds every column's block table (block
  // byte offsets and payload CRCs), so a Scan() issues block GETs only;
  // a column object whose size does not match its block table is
  // Corruption. A failed Open leaves the scanner as it was: on the
  // version it had pinned, or unopened.
  Status Open(const ScanConfig& config = ScanConfig());

  const TableMeta& meta() const { return meta_; }
  bool has_zone_map() const { return has_zones_; }
  // Physical table name this scanner resolved at Open: "<table>.v<N>",
  // the version the table's manifest names. Pinned for the scanner's
  // lifetime — a concurrently committing writer never changes what an
  // open scanner reads.
  const std::string& resolved_name() const { return resolved_name_; }

  // Streams chunks to `emit` on the calling thread, in ascending
  // (block, column) order. On error, emission stops early and the first
  // failure is returned; chunks already emitted remain valid. Scan()
  // calls on one Scanner must not overlap.
  using ChunkCallback = std::function<void(ColumnChunk&&)>;
  Status Scan(const ScanSpec& spec, const ChunkCallback& emit,
              ScanStats* stats = nullptr);

  // Materializing convenience overload.
  Status Scan(const ScanSpec& spec, ScanOutput* out);

 private:
  struct ResolvedSpec;
  class Job;  // one Scan() call's plan/fetch/decode/emit stages

  Status ResolveSpec(const ScanSpec& spec, ResolvedSpec* resolved) const;
  // The service this scan runs on: the shared one, or the private one
  // (re)built for `config`.
  service::ScanService& ServiceFor(const ScanConfig& config);

  s3sim::ObjectStore* store_;
  std::string table_name_;
  std::string prefix_;
  CompressionConfig config_;
  // Version-resolved physical name (see resolved_name()); set by Open.
  std::string resolved_name_;

  bool opened_ = false;
  TableMeta meta_;
  bool has_zones_ = false;
  TableZoneMap zones_;
  // Wall nanoseconds the last successful Open() spent fetching/parsing
  // metadata — stamped into ScanProfile::open_ns when profiling.
  u64 open_ns_ = 0;
  // The service scans run on: the shared one a serviced Scanner was built
  // with, or own_service_ (null until a standalone Scanner's Open).
  service::ScanService* service_ = nullptr;
  std::unique_ptr<service::ScanService> own_service_;
  u32 tenant_slot_ = 0;
};

}  // namespace btr

#endif  // BTR_BTR_SCANNER_H_
