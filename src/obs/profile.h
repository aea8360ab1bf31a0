// Per-scan profiling: where did *this* scan spend its time?
//
// The metrics registry (obs/metrics.h) aggregates process-wide counters —
// good for trend lines, useless for answering "why was scan #3 slow".
// A ScanProfileCollector rides along one btr::Scanner::Scan() call and
// records:
//
//   - the calling thread's stage breakdown (plan, emit-wait, emit,
//     teardown) — contiguous wall-clock stages that sum to the scan's
//     wall time by construction, each with its thread-CPU time;
//   - parallel worker activities (fair-queue wait, validation — the
//     size + CRC32C check of each block where a fetch item receives it
//     and the structural check in the decode item — predicate
//     evaluation, decode) — these overlap each other and the stages, so
//     they are reported as aggregate nanoseconds with sample counts, not
//     as a partition of wall time;
//   - an obs::Histogram of the latency of every ranged GET that reached
//     the store (block runs and CRC re-fetches), plus the per-request
//     counts only it can take (requests, retried, breaker-rejected,
//     failed);
//   - per-(type, scheme) decode time and decoded bytes, keyed by each
//     block's root scheme code;
//   - a bounded ring of slow-op exemplars: the N slowest GETs and
//     decodes with key, offset, attempt count, and hedge/breaker state —
//     the rows you grep for when one block dragged the scan.
//
// Everything else the profile reports — cache hits and misses, retries,
// hedges, block outcomes, CRC re-fetches, bytes — is a ScanStats total:
// the collector does not count it a second time, and Scanner::Scan copies
// it into the snapshot when the scan finishes.
//
// Cost model: everything funnels through a ScanProfileCollector pointer
// that is null when ScanConfig::collect_profile is off — the disabled
// path is a single pointer test, no locks, no allocation. When enabled,
// recording takes a short mutex; scans touch thousands of blocks, not
// millions, so contention is negligible next to a GET.
//
// Snapshot() produces a value-type ScanProfile exposed on
// ScanStats::profile and exported as aligned text (ToText) or stable
// schema-versioned JSON (ToJson) — `btrtool scan --profile[=path]`.
#ifndef BTR_OBS_PROFILE_H_
#define BTR_OBS_PROFILE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/types.h"

namespace btr::obs {

// Contiguous stages of the scan's calling thread. kPlan covers spec
// resolution, zone-map pruning, the fetch plan, and pipeline startup;
// kEmitWait is the in-order emit stall (blocked on the reorder buffer);
// kEmit is time inside the consumer's chunk callback plus chunk
// assembly; kTeardown is unwind, pool drain, and stats finalization.
enum class ScanStage : u32 {
  kPlan = 0,
  kEmitWait = 1,
  kEmit = 2,
  kTeardown = 3,
};
inline constexpr u32 kScanStageCount = 4;
const char* ScanStageName(ScanStage stage);

// Worker-side activities. These run on fetch/decode threads in parallel
// with each other and with the calling thread's stages.
enum class ScanActivity : u32 {
  kGet = 0,           // ranged GETs (retries and hedges included)
  kPrefetchWait = 1,  // fetch/decode items queued in the service's fair
                      // queues between submit and run
  kValidate = 2,      // size + CRC32C of arrived blocks (fetch items) and
                      // structural validation (decode items)
  kPredicate = 3,     // compressed-form predicate evaluation
  kDecode = 4,        // block decompression
};
inline constexpr u32 kScanActivityCount = 5;
const char* ScanActivityName(ScanActivity activity);

// One slow-op exemplar: a GET or a decode that made the top-N ring.
struct SlowOp {
  enum class Kind : u8 { kGet = 0, kDecode = 1 };
  Kind kind = Kind::kGet;
  std::string key;      // object key (GET) or column name (decode)
  u64 offset = 0;
  u64 length = 0;       // request length (GET) / compressed bytes (decode)
  u64 duration_ns = 0;
  u32 attempts = 1;     // GET tries including the first (GET only)
  u32 block = 0;        // row block (decode only)
  u8 scheme = 0;        // root scheme code (decode only)
  u8 type = 0;          // ColumnType as u8 (decode only)
  bool hedged = false;
  bool hedge_won = false;
  bool breaker_rejected = false;  // breaker fast-failed at least one attempt
};

// Sparse snapshot of an obs::Histogram (log2 buckets: lower bounds 0, 1,
// 2, 4, 8, ...).
struct HistogramSnapshot {
  u64 count = 0;
  u64 sum = 0;
  u64 min = 0;
  u64 max = 0;
  std::vector<std::pair<u64, u64>> buckets;  // [lower_bound, count]
};

// Aggregate decode cost of one (column type, root scheme) pair.
struct SchemeDecodeStats {
  u8 type = 0;    // ColumnType as u8
  u8 scheme = 0;  // root scheme code
  u64 blocks = 0;
  u64 ns = 0;
  u64 bytes_decoded = 0;  // logical uncompressed value bytes produced
};

struct StageTime {
  u64 wall_ns = 0;
  u64 cpu_ns = 0;  // calling-thread CPU time inside the stage
};

struct ActivityTime {
  u64 ns = 0;
  u64 count = 0;
};

// Value-type snapshot of one scan's profile. Field layout is the JSON
// schema; bump kSchemaVersion when it changes shape.
struct ScanProfile {
  static constexpr u32 kSchemaVersion = 2;

  double wall_seconds = 0;  // Scan() wall clock (ScanStats::seconds)
  u64 open_ns = 0;          // Scanner::Open metadata fetch/parse time
  u64 zone_prune_ns = 0;    // zone-map pruning (inside the kPlan stage)

  StageTime stages[kScanStageCount];
  ActivityTime activities[kScanActivityCount];

  // Nanoseconds of each request that reached the store, log2 buckets. A
  // request the breaker rejected before its first attempt is no sample.
  HistogramSnapshot get_latency;

  // Per-request counts: one unit per GET request (a run of blocks or a CRC
  // re-fetch, whatever its attempts and hedges) or per block served from
  // the cache.
  u64 requests = 0;          // GET requests, plus cache_hits
  u64 retried_requests = 0;  // requests that needed more than one attempt
  u64 breaker_rejected_requests = 0;
  u64 failed_requests = 0;   // resolved with a non-OK status

  // The scan's totals, copied from ScanStats when the scan finishes.
  u64 cache_hits = 0;        // blocks served from the cache
  u64 cache_misses = 0;      // blocks a cache lookup missed (fetched by GET)
  u64 retries = 0;           // total extra attempts across the scan
  u64 hedged_requests = 0;   // duplicate GETs issued (ScanStats::hedges)
  u64 hedge_wins = 0;
  u64 blocks_pruned = 0;     // block outcomes: one row block = one unit
  u64 blocks_skipped = 0;
  u64 blocks_decoded = 0;
  u64 blocks_unreadable = 0;
  u64 crc_refetched_blocks = 0;
  u64 crc_rescued_blocks = 0;
  u64 bytes_fetched = 0;     // compressed bytes that crossed the wire
  u64 bytes_decoded = 0;     // logical uncompressed bytes produced

  std::vector<SchemeDecodeStats> decode_by_scheme;  // sorted by (type, scheme)
  std::vector<SlowOp> slow_ops;                     // slowest first

  // Aligned human-readable report.
  std::string ToText() const;
  // Stable JSON: {"schema_version":2,"wall_seconds":...,...}.
  std::string ToJson() const;
};

// What a fetch worker reports for one resolved GET request.
struct FetchRecord {
  const std::string* key = nullptr;  // not owned; copied if it makes the ring
  u64 offset = 0;
  u64 length = 0;
  u64 duration_ns = 0;
  u32 attempts = 1;  // 0: the breaker rejected it before any attempt
  u32 retries = 0;  // committed retries (may differ from attempts - 1
                    // when the breaker rejected the call mid-retry)
  bool hedged = false;
  bool hedge_won = false;
  bool breaker_rejected = false;
  bool ok = true;
};

// What a decode worker reports for one decompressed block part.
struct DecodeRecord {
  const std::string* column = nullptr;  // column name; copied for the ring
  u64 offset = 0;       // block payload offset in the column object
  u64 length = 0;       // compressed payload bytes
  u64 duration_ns = 0;
  u64 bytes_decoded = 0;
  u32 block = 0;
  u8 scheme = 0;
  u8 type = 0;
};

// Thread-safe accumulator one Scan() owns. Call sites hold a pointer
// that is null when profiling is disabled — test it before recording.
class ScanProfileCollector {
 public:
  // `slow_op_capacity` bounds the exemplar ring (0 disables exemplars).
  explicit ScanProfileCollector(u32 slow_op_capacity = 8);

  void RecordFetch(const FetchRecord& record);
  void RecordDecode(const DecodeRecord& record);
  void AddActivity(ScanActivity activity, u64 ns, u64 count = 1);
  void SetStage(ScanStage stage, u64 wall_ns, u64 cpu_ns);

  // Finalization inputs recorded once by the scanner.
  void SetOpenNanos(u64 ns) { open_ns_ = ns; }
  void SetZonePruneNanos(u64 ns) { zone_prune_ns_ = ns; }

  // What the collector measured; the ScanStats totals are left zero.
  ScanProfile Snapshot() const;

 private:
  void MaybeKeepSlowOp(SlowOp&& op);  // caller holds mutex_

  mutable std::mutex mutex_;
  const u32 slow_op_capacity_;

  u64 open_ns_ = 0;
  u64 zone_prune_ns_ = 0;

  StageTime stages_[kScanStageCount] = {};
  ActivityTime activities_[kScanActivityCount] = {};

  Histogram get_latency_;  // nanoseconds of every GET that reached the store

  u64 requests_ = 0;  // GET requests
  u64 retried_requests_ = 0;
  u64 breaker_rejected_requests_ = 0;
  u64 failed_requests_ = 0;

  std::vector<SchemeDecodeStats> decode_by_scheme_;  // small, linear scan
  std::vector<SlowOp> slow_ops_;  // kept sorted, slowest first
};

// Stage timer for the scan's calling thread: accumulates wall and
// thread-CPU nanoseconds per stage, then flushes them into a collector.
// Works (cheaply) even with a null collector so call sites stay branchless.
class StageTimer {
 public:
  StageTimer();

  // Ends the current stage, attributing elapsed time to it, and enters
  // `next`. Stages may be re-entered; time accumulates.
  void Enter(ScanStage next);

  // Attributes time since the last boundary to the current stage, then
  // writes every stage into `collector` (no-op when null).
  void Finish(ScanProfileCollector* collector);

 private:
  u64 NowWall() const;
  u64 NowCpu() const;

  ScanStage current_ = ScanStage::kPlan;
  u64 wall_mark_ = 0;
  u64 cpu_mark_ = 0;
  StageTime totals_[kScanStageCount] = {};
};

}  // namespace btr::obs

#endif  // BTR_OBS_PROFILE_H_
