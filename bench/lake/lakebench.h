// lakebench: end-to-end data-lake benchmark over the public btrblocks API.
//
// One process, at most four client threads, four fetch connections. Every
// input — the table, the query lists, the fault plan — is generated from
// the workload seed before any clock starts; the library only ever sees
// the generated inputs. README.md defines the workloads and metrics.
#ifndef BTR_BENCH_LAKE_LAKEBENCH_H_
#define BTR_BENCH_LAKE_LAKEBENCH_H_

#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "spans.h"

namespace btr::lakebench {

// 16 row blocks of 64,000 rows.
inline constexpr u32 kTableRows = 16 * kBlockCapacity;
inline constexpr u32 kClientThreads = 4;
inline constexpr u32 kFetchConnections = 4;
// Ops of the traced phase whose library events (obs::Tracer) and bench
// spans go into the Chrome trace; later ops count toward the self-time
// table only, which keeps the trace file small.
inline constexpr u64 kChromeTraceOps = 16;

// --- table, queries and the result oracle (oracle.cc) ------------------------

// Public-BI-like table: the MakePublicBiTable column mix (8 string, 3
// double, 3 integer columns) with a *fixed* archetype per column, so every
// seed yields the same kind of table and only the values change. Seeds
// therefore move compression ratio and latency by noise, not by schema.
Relation MakeLakeTable(u32 rows, u64 seed);

// Rows [begin, begin + count) of `table` as a new relation.
Relation SliceRows(const Relation& table, u32 begin, u32 count);

struct Query {
  std::vector<std::string> columns;  // projection; empty = every column
  PredicateExpr filter;              // Empty() = no filter
  // Every query except a full-width unfiltered scan is "light".
  bool light = true;
  u64 covered_bytes = 0;     // raw bytes of every column the query reads
  u64 expected_matches = 0;  // oracle: rows passing the filter
};

// Projections of 1-4 columns, one query in four reads every column, no
// filters. Column usage is balanced across the list.
std::vector<Query> MakeProjectionQueries(const Relation& table, u64 seed,
                                         u32 count);
// `full_share` of the list are full-width unfiltered scans; the rest are
// BETWEEN / IN / range filters over int, double and string columns, alone
// and in AND/OR pairs, at 0.1-50% target selectivity, on clustered and
// unclustered columns. Shapes and selectivities are balanced across the
// list; the seed picks the literals, projections and order.
std::vector<Query> MakeFilterQueries(const Relation& table, u64 seed,
                                     u32 count, double full_share);
// Full-width unfiltered scans only.
std::vector<Query> MakeFullScanQueries(u32 count);

// Fills covered_bytes and expected_matches by evaluating every filter row
// by row on the source relation (SQL three-valued logic), independently
// of the library's predicate engine.
void ComputeExpected(const Relation& table, std::vector<Query>* queries);

// Value-for-value comparison of a scan's chunks with the source rows (NULL
// flags, integers, double bit patterns, string bytes) and of every block's
// selection with the oracle's row mask, as the chunks arrive.
class ValueChecker {
 public:
  ValueChecker(const Relation& table, const Query& query);
  void Check(const ColumnChunk& chunk);
  // Empty while every chunk matched, else the first mismatch.
  const std::string& error() const { return error_; }

 private:
  const Relation& table_;
  std::vector<u32> projection_;  // table column of each projected column
  bool filtered_;
  std::vector<u8> mask_;  // oracle row mask (filtered queries)
  std::string error_;
};

// Consumes one scan's chunks: counts rows and shapes, and hands each chunk
// to `checker` when the op is a verification op.
struct ScanSink {
  bool filtered = false;             // the query has a filter
  ValueChecker* checker = nullptr;   // not owned; null when not verifying
  std::vector<u64> rows_per_column;  // decoded rows per projection column
  u64 selected_rows = 0;             // selection rows of projection column 0
  u64 chunks = 0;
  bool shape_ok = true;  // every decoded chunk has row_count values

  ScanSink(const Query& query, ValueChecker* value_checker)
      : filtered(!query.filter.Empty()), checker(value_checker) {}
  void Consume(const ColumnChunk& chunk);
};

// Scan status, ScanStats::rows_matched and the sink's counts against the
// oracle, then the checker's verdict. Empty when all agree, else what
// differed.
std::string CheckScan(const Relation& table, const Query& query,
                      const Status& status, const ScanStats& stats,
                      const ScanSink& sink);

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one timed phase measured.
struct PhaseResult {
  std::vector<double> latency_ms;  // every correct op but verification ops
  std::vector<double> light_ms;    // those of light queries / light tenants
  std::vector<double> light_admission_ms;  // their admission waits (serviced)
  u64 attempted = 0;
  u64 failed = 0;       // failed, throttled or wrong-result ops
  u64 verified = 0;     // correct verification ops (not in latency_ms)
  double wall_s = 0;    // timed-phase wall clock
  double verify_s = 0;  // time of verification ops, per client
  u64 gets = 0;         // store GETs during the phase, all ops
  u64 get_bytes = 0;
  u64 puts = 0;
  u64 covered_bytes = 0;  // raw bytes the completed ops read or wrote
  std::vector<std::string> errors;  // first few failure descriptions
};

// Everything a workload reports.
struct WorkloadReport {
  std::vector<double> setup_s;     // one entry per set-up repetition
  PhaseResult untraced;
  PhaseResult traced;              // trace mode only
  double compression_ratio = 0;
  u64 verify_failures = 0;         // oracle failures outside the ops
  std::vector<std::string> verify_errors;
  std::vector<Metric> layer;       // per-layer metrics (trace mode)
  std::vector<Metric> extra;       // printed, not part of the contract set
};

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

// --- workloads (workloads.cc) --------------------------------------------------

const std::vector<std::string>& WorkloadNames();
// Runs set-up, the timed phase(s), verification and — in trace mode — the
// layer probes. `spans` records only while enabled.
WorkloadReport RunWorkload(const RunOptions& options, SpanRecorder* spans);

// --- layer probes (probes.cc) ----------------------------------------------------

// Single-threaded probes of the kernel layers on the workload's own table,
// each the median of 5 repeats: DecompressBlock by (type, root scheme),
// SelectMatches vs EvaluateExprDecoded, CompressColumn with Telemetry,
// Crc32c, and one StreamingWriter partition commit + Fsck. Returns how
// many probe results disagreed with their reference (0 when correct).
u64 RunLayerProbes(const Relation& table, u64 seed, SpanRecorder* spans,
                   std::vector<Metric>* out);

// Median and nearest-rank percentile of a sample (0 when empty).
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double p);

}  // namespace btr::lakebench

#endif  // BTR_BENCH_LAKE_LAKEBENCH_H_
