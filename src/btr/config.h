// Compression configuration, scheme codes and telemetry.
//
// The scheme pool is configurable per type (a bitmask) because the paper's
// Figure 4 experiment grows the pool one scheme at a time and measures the
// effect on ratio and decompression speed.
//
// --- configuration story ----------------------------------------------------
// The library has three tunable surfaces, each owning one concern:
//
//   CompressionConfig (this header)    how blocks are compressed: cascade
//                                      depth, sampling, enabled schemes,
//                                      instrumentation sinks.
//   ScanConfig        (this header)    how btr::Scanner executes a scan:
//                                      decode and fetch threads, the
//                                      window of block parts in flight,
//                                      cache, and the retry, hedge and
//                                      breaker policies (exec/policy.h).
//   s3sim::S3Config   (s3sim/object_store.h)
//                                      the modeled cloud: NIC bandwidth,
//                                      GET billing, chunk size, and the
//                                      optional wall-clock simulation the
//                                      pipelined engine measures against.
//
// btr::ScanSpec (btr/scanner.h) describes *what* to scan — projection
// columns and a filter expression (btr/predicate.h) — and embeds a ScanConfig
// for the *how*. `btrtool scan` sets it with --scan-threads,
// --prefetch-depth, --max-retries (retry.max_attempts), --no-pushdown,
// --skip-corrupt, --block-cache, --hedge, --breaker, --crc-refetch and
// --profile. Each default is written once: the scan's own knobs here, the
// retry, hedge and breaker knobs in their exec/policy.h structs, so every
// entry point agrees.
#ifndef BTR_BTR_CONFIG_H_
#define BTR_BTR_CONFIG_H_

#include "exec/policy.h"
#include "util/types.h"

namespace btr::obs {
struct CascadeNode;  // obs/cascade_trace.h
}  // namespace btr::obs

namespace btr {

enum class ColumnType : u8;  // btr/column.h

// Persisted in compressed payloads: values must never change meaning.
enum class IntSchemeCode : u8 {
  kUncompressed = 0,
  kOneValue = 1,
  kRle = 2,
  kDict = 3,
  kFrequency = 4,
  kBp128 = 5,
  kPfor = 6,
};
inline constexpr u32 kIntSchemeCount = 7;

enum class DoubleSchemeCode : u8 {
  kUncompressed = 0,
  kOneValue = 1,
  kRle = 2,
  kDict = 3,
  kFrequency = 4,
  kPseudodecimal = 5,
};
inline constexpr u32 kDoubleSchemeCount = 6;

enum class StringSchemeCode : u8 {
  kUncompressed = 0,
  kOneValue = 1,
  kDict = 2,
  kFsst = 3,
  kDictFsst = 4,
};
inline constexpr u32 kStringSchemeCount = 5;

const char* IntSchemeName(IntSchemeCode code);
const char* DoubleSchemeName(DoubleSchemeCode code);
const char* StringSchemeName(StringSchemeCode code);
// Name of scheme `code` in the pool of column type `type`.
const char* SchemeNameFor(ColumnType type, u8 code);

// Depth slots tracked by Telemetry::scheme_uses_by_depth. Cascade depth is
// bounded by max_cascade_depth (default 3, so depths 0..3 including forced
// uncompressed leaves); deeper configurations clamp into the last slot.
inline constexpr u32 kTelemetryDepthSlots = 8;

// Aggregated over one compression request when attached to the config.
// Not synchronized: one Telemetry must not be shared by concurrent
// compressions. CompressRelation with a pool gives each column task its
// own and adds them into the attached one afterwards.
struct Telemetry {
  u64 stats_ns = 0;          // statistics collection (min/max/unique/runs)
  u64 estimate_ns = 0;       // sampling + per-scheme ratio estimation
  u64 compress_ns = 0;       // total compression time (includes the above)
  // [depth][type][scheme code] at every cascade level: depth 0 counts the
  // block roots, deeper rows the nested choices (e.g. the Bp128
  // compressing RLE run lengths).
  u64 scheme_uses_by_depth[kTelemetryDepthSlots][3][16] = {{{0}}};

  void Reset() { *this = Telemetry(); }

  void Add(const Telemetry& other) {
    stats_ns += other.stats_ns;
    estimate_ns += other.estimate_ns;
    compress_ns += other.compress_ns;
    for (u32 d = 0; d < kTelemetryDepthSlots; d++) {
      for (u32 t = 0; t < 3; t++) {
        for (u32 s = 0; s < 16; s++) {
          scheme_uses_by_depth[d][t][s] += other.scheme_uses_by_depth[d][t][s];
        }
      }
    }
  }
};

struct CompressionConfig {
  // Cascading recursion budget (paper Section 3.2, default 3).
  u8 max_cascade_depth = 3;

  // Sampling strategy (paper Section 3.1: 10 runs of 64 values = 1%).
  u32 sample_runs = 10;
  u32 sample_run_length = 64;

  // When true, schemes are estimated by compressing the entire block
  // instead of a sample ("optimal scheme" oracle for Figures 5/6).
  bool exhaustive_estimation = false;

  // Enabled schemes per type (bit i = scheme code i). Default: everything.
  u32 int_schemes = (1u << kIntSchemeCount) - 1;
  u32 double_schemes = (1u << kDoubleSchemeCount) - 1;
  u32 string_schemes = (1u << kStringSchemeCount) - 1;

  // Fuse RLE-compressed dictionary codes directly into (offset, length)
  // slot runs when decompressing strings (paper Section 5). A pure
  // decompression-side optimization; kept in the config so benches can
  // toggle it.
  bool fused_rle_dict = true;

  // Optional instrumentation sink; not owned.
  Telemetry* telemetry = nullptr;

  // When true, block compression returns a full cascade decision tree
  // (scheme, bytes in/out, estimated vs. actual ratio, and timings at
  // every depth) through BlockCompressionInfo::trace and
  // CompressedColumn::block_traces. See obs/cascade_trace.h.
  bool collect_cascade_trace = false;

  bool SchemeEnabled(IntSchemeCode c) const {
    return (int_schemes >> static_cast<u32>(c)) & 1;
  }
  bool SchemeEnabled(DoubleSchemeCode c) const {
    return (double_schemes >> static_cast<u32>(c)) & 1;
  }
  bool SchemeEnabled(StringSchemeCode c) const {
    return (string_schemes >> static_cast<u32>(c)) & 1;
  }
};

// How btr::Scanner runs a scan (see the configuration story above).
// Every scan runs on a service::ScanService (docs/SCAN_PIPELINE.md). The
// thread, block-cache and breaker knobs size a standalone Scanner's
// private service — built at Open() and rebuilt only when a later scan
// asks for different values, so its cache and breaker live as long as
// the Scanner — and are ignored by a serviced Scanner, which uses the
// shared service's. Defaults favor a laptop-class box: enough fetch
// concurrency to hide object-store latency, a window deep enough to keep
// decoders busy.
struct ScanConfig {
  u32 scan_threads = 0;    // decode executors; 0 = hardware concurrency
  u32 fetch_threads = 4;   // fetch executors: concurrent ranged GETs
  // Block parts in flight beyond one row-block bundle per decode thread:
  // the window is prefetch_depth + needed columns x decode threads, and a
  // part counts until its row block is emitted. The window and the fetch
  // executors also set how many adjacent blocks one GET reads.
  u32 prefetch_depth = 8;

  // --- predicate pushdown (btr/predicate.h, docs/PREDICATES.md) ------------
  // When true (default), the scan prunes row blocks against zone maps and
  // evaluates PredicateExprs on the compressed form (EvaluateExpr), only
  // decoding surviving blocks. When false the scan decodes every block and
  // filters afterwards (EvaluateExprDecoded) — the decode-then-filter
  // baseline bench_predicate_scan measures pushdown against.
  bool enable_predicate_pushdown = true;

  // --- retry/backoff (docs/ROBUSTNESS.md) ----------------------------------
  // Transient GET failures (Status::Throttled/Unavailable) retry with
  // capped exponential backoff and deterministic jitter, up to
  // retry.max_attempts tries per request (1 = fail fast) and
  // retry.retry_budget retries per scan.
  exec::RetryPolicy retry;

  // --- degraded mode -------------------------------------------------------
  // When true, a row block whose fetch failed permanently or whose bytes
  // arrived corrupt (CRC / structural validation) does not fail the scan:
  // it is emitted as BlockOutcome::kUnreadable and counted in
  // ScanStats::blocks_unreadable. When false (default), the first such
  // block fails the whole scan with a typed Status.
  bool skip_unreadable_blocks = false;

  // --- block cache (exec/block_cache.h) ------------------------------------
  // In-memory cache of verified compressed block payloads, keyed by block
  // identity (key, offset, length, header CRC32C). A warm repeat scan
  // through the same Scanner issues zero GETs for cached blocks. Only
  // blocks that passed their size + CRC32C check on arrival are cached.
  // Serviced scanners (service/scan_service.h) ignore these knobs and the
  // breaker ones below: the service's shared cache and per-backend
  // breakers are used instead (docs/SCAN_SERVICE.md).
  bool enable_block_cache = false;
  u64 block_cache_bytes = 64ull << 20;  // total capacity, in 8 LRU shards

  // --- hedged GETs ("The Tail at Scale") -----------------------------------
  // The only hedging switch: when set, a GET that outlives the running
  // hedge.quantile of recent GET latencies gets one duplicate request and
  // the first response wins, within hedge.hedge_budget duplicates per scan.
  bool enable_hedged_gets = false;
  exec::HedgePolicy hedge;

  // --- circuit breaker -----------------------------------------------------
  // Past breaker.failure_threshold transient failures over a sliding
  // window of breaker.window outcomes the breaker trips: GETs fail fast
  // as Status::Unavailable (no retry budget burned) until
  // breaker.cooldown_ns elapses, then two half-open probes decide whether
  // to close again. One breaker per standalone Scanner, shared by its scans.
  bool enable_circuit_breaker = false;
  exec::CircuitBreakerPolicy breaker;

  // --- CRC refetch ---------------------------------------------------------
  // When a fetched block fails its size or header CRC32C check, GET it
  // once more (an ordinary GET of the scan: retried, hedged, counted in
  // `requests`) before declaring Status::Corruption — distinguishes
  // transient wire corruption from at-rest damage.
  bool refetch_on_crc_failure = false;

  // --- per-scan profile (obs/profile.h) ------------------------------------
  // When true, the scan records a ScanProfile — per-stage wall/CPU
  // breakdown, GET latency histogram, per-scheme decode cost, the
  // ScanStats totals, and the `profile_slow_ops` slowest GETs/decodes —
  // exposed on ScanStats::profile and via `btrtool scan --profile`. When
  // false (default) the instrumentation path is a null-pointer test: no
  // locks, no allocation.
  bool collect_profile = false;
  u32 profile_slow_ops = 8;  // exemplar ring capacity (0 = no exemplars)
};

// Per-call compression state threaded through cascade recursion.
struct CompressionContext {
  const CompressionConfig* config;
  u8 remaining_cascades;
  // True while compressing a *sample* for ratio estimation. In this mode
  // cascade children are chosen by cheap statistics-based rules instead of
  // recursive sample compression — otherwise estimation fans out
  // exponentially and stops being the paper's ~1.2% of compression time.
  bool estimating = false;
  // Cascade trace node the *current* compression call should attach its
  // children to; null unless CompressionConfig::collect_cascade_trace.
  // Owned by the caller that created the root (see datablock.cc).
  obs::CascadeNode* trace = nullptr;

  u8 Depth() const {
    return static_cast<u8>(config->max_cascade_depth - remaining_cascades);
  }

  CompressionContext Descend() const {
    BTR_DCHECK(remaining_cascades > 0);
    return CompressionContext{config, static_cast<u8>(remaining_cascades - 1),
                              estimating, trace};
  }
};

}  // namespace btr

#endif  // BTR_BTR_CONFIG_H_
