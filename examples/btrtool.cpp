// btrtool: command-line utility around the BtrBlocks format.
//
//   btrtool compress  <table.csv> <out-dir> <table-name>   CSV -> .btr files
//   btrtool decompress <dir> <table-name> <out.csv>        .btr -> CSV
//   btrtool stats     <dir> <table-name>                   per-column report
//   btrtool inspect   <table.csv>                          cascade decision report
//   btrtool scan      <table.csv> [col=value ...]          pipelined scan demo
//   btrtool ingest    <table.csv> [table-name]             crash-safe streaming
//                                                          write demo (below)
//   btrtool demo                                           self-contained demo
//
// Global flags (any command):
//   --metrics-json=<path>   write the metrics registry as JSON on exit
//   --trace-json=<path>     record spans and write a Chrome/Perfetto trace
//   --scan-threads=<n>      decode threads for `scan` (0 = hardware)
//   --prefetch-depth=<n>    `scan`: block parts in flight beyond one
//                           bundle per decode thread
//   --fault-seed=<n>        `scan`: inject a seeded chaos fault schedule
//                           into the object store (docs/ROBUSTNESS.md)
//   --fault-rate=<f>        per-GET fault probability for --fault-seed
//                           (default 0.05)
//   --where=<expr>          `scan`: SQL-ish filter expression, e.g.
//                           --where="id >= 5 AND city IN ('a', 'b')"
//                           (=, <, <=, >, >=, BETWEEN, IN, AND/OR/NOT;
//                           see docs/PREDICATES.md). The positional
//                           col=value filters are deprecated aliases for
//                           --where equality conjuncts.
//   --no-pushdown           `scan`: decode every block, then filter
//                           (disables zone pruning + compressed-form
//                           evaluation; the baseline the pushdown engine
//                           is benched against)
//   --max-retries=<n>       `scan`: retries per GET on transient failures
//   --skip-corrupt          `scan`: degrade instead of failing — skip
//                           unreadable row blocks and report them
//   --profile[=<path.json>] `scan`: collect a per-scan ScanProfile (stage
//                           breakdown, GET latency histogram, per-scheme
//                           decode cost, slow-op exemplars); prints the
//                           text report and, with =<path>, writes the
//                           stable-schema JSON form (docs/OBSERVABILITY.md)
//   --tenant=<id[,id...]>   `scan`: run through a shared btr::ScanService,
//                           round-robining scans across these tenant ids
//                           (shared cache, fair scheduling, admission
//                           control; docs/SCAN_SERVICE.md)
//   --concurrent=<n>        `scan`: with --tenant, run n concurrent scans
//                           (default: one per tenant)
//   --chunk-rows=<n>        `ingest`: rows per Append() chunk (default 10000)
//   --crash-at=<k>          `ingest`: kill the writer at its k-th crash
//                           point, then run fsck (read-only, then --repair)
//                           and verify the table reads back as either the
//                           old or the new version (docs/WRITE_PATH.md)
//   --crash-matrix          `ingest`: enumerate every crash point, killing
//                           the writer at each one in turn and proving
//                           fsck --repair converges to either-old-or-new
//                           every time. --fault-seed adds a PUT-side chaos
//                           schedule on top (writes retry transients).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "btr/btrblocks.h"
#include "btr/predicate_parser.h"
#include "datagen/csv.h"
#include "datagen/public_bi.h"
#include "obs/cascade_trace.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "s3sim/object_store.h"
#include "service/scan_service.h"
#include "util/timer.h"
#include "write/manifest.h"
#include "write/recovery.h"
#include "write/streaming_writer.h"

namespace {

using namespace btr;

const char* RootSchemeName(ColumnType type, u8 code) {
  switch (type) {
    case ColumnType::kInteger:
      return IntSchemeName(static_cast<IntSchemeCode>(code));
    case ColumnType::kDouble:
      return DoubleSchemeName(static_cast<DoubleSchemeCode>(code));
    case ColumnType::kString:
      return StringSchemeName(static_cast<StringSchemeCode>(code));
  }
  return "?";
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdCompress(const std::string& csv_path, const std::string& dir,
                const std::string& name) {
  Relation relation(name);
  Status status = datagen::ReadCsvFile(csv_path, name, &relation);
  if (!status.ok()) return Fail(status);
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(relation, config);
  status = WriteCompressedRelation(compressed, dir);
  if (!status.ok()) return Fail(status);
  std::printf("%u rows, %zu columns: %.2f MiB -> %.2f MiB (%.2fx)\n",
              relation.row_count(), relation.columns().size(),
              relation.UncompressedBytes() / 1048576.0,
              compressed.CompressedBytes() / 1048576.0,
              compressed.CompressionRatio());
  return 0;
}

int CmdDecompress(const std::string& dir, const std::string& name,
                  const std::string& csv_path) {
  CompressedRelation compressed;
  Status status = ReadCompressedRelation(dir, name, &compressed);
  if (!status.ok()) return Fail(status);
  CompressionConfig config;
  Relation relation = MaterializeRelation(compressed, config);
  status = datagen::WriteCsvFile(relation, csv_path);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %u rows to %s\n", relation.row_count(), csv_path.c_str());
  return 0;
}

int CmdStats(const std::string& dir, const std::string& name) {
  TableMeta meta;
  Status status = ReadTableMeta(dir, name, &meta);
  if (!status.ok()) return Fail(status);
  std::printf("table %s: %u rows, %zu columns\n", name.c_str(), meta.row_count,
              meta.columns.size());
  std::printf("%-24s %-8s %10s %12s %8s  %s\n", "column", "type", "blocks",
              "compressed", "ratio", "scheme of block 0");
  for (size_t c = 0; c < meta.columns.size(); c++) {
    CompressedColumn column;
    status = ReadCompressedColumn(dir, name, meta, c, &column);
    if (!status.ok()) return Fail(status);
    double ratio = column.CompressedBytes() == 0
                       ? 0
                       : static_cast<double>(column.uncompressed_bytes) /
                             column.CompressedBytes();
    std::printf("%-24s %-8s %10zu %10.1f K %7.1fx  %s\n", column.name.c_str(),
                ColumnTypeName(column.type), column.blocks.size(),
                column.CompressedBytes() / 1024.0, ratio,
                RootSchemeName(column.type, column.block_root_schemes[0]));
  }
  return 0;
}

// Compresses a CSV with cascade tracing enabled and prints, per column,
// the full scheme decision tree: scheme at every depth, bytes in/out,
// actual vs sample-estimated ratio, and the estimate error.
int CmdInspect(const std::string& csv_path) {
  std::string name = csv_path;
  size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);

  Relation relation(name);
  Status status = datagen::ReadCsvFile(csv_path, name, &relation);
  if (!status.ok()) return Fail(status);

  Telemetry telemetry;
  CompressionConfig config;
  config.collect_cascade_trace = true;
  config.telemetry = &telemetry;
  CompressedRelation compressed = CompressRelation(relation, config);

  std::printf("table %s: %u rows, %zu columns, %.2f MiB -> %.2f MiB (%.2fx)\n",
              name.c_str(), relation.row_count(), relation.columns().size(),
              compressed.UncompressedBytes() / 1048576.0,
              compressed.CompressedBytes() / 1048576.0,
              compressed.CompressionRatio());
  std::printf(
      "compression %.1f ms (stats %.1f ms, scheme estimation %.1f ms)\n\n",
      telemetry.compress_ns / 1e6, telemetry.stats_ns / 1e6,
      telemetry.estimate_ns / 1e6);

  for (const CompressedColumn& column : compressed.columns) {
    double ratio = column.CompressedBytes() == 0
                       ? 0
                       : static_cast<double>(column.uncompressed_bytes) /
                             column.CompressedBytes();
    std::printf("column %s (%s): %.1f KiB -> %.1f KiB (%.2fx), %zu block%s\n",
                column.name.c_str(), ColumnTypeName(column.type),
                column.uncompressed_bytes / 1024.0,
                column.CompressedBytes() / 1024.0, ratio,
                column.blocks.size(), column.blocks.size() == 1 ? "" : "s");
    for (size_t b = 0; b < column.block_traces.size(); b++) {
      std::printf("  block %zu:\n", b);
      std::printf("%s",
                  obs::CascadeTreeToString(column.block_traces[b], 2).c_str());
    }
    std::printf("\n");
  }

  // Process-wide data-volume counters (obs/metrics.h). Zero unless this
  // process also ran scans/caching, but always reported so the names and
  // units are discoverable from the tool.
  {
    obs::Registry& registry = obs::Registry::Get();
    std::printf("data-volume counters (this process):\n");
    std::printf("  scan.bytes_fetched        %llu\n",
                static_cast<unsigned long long>(
                    registry.GetCounter("scan.bytes_fetched").Value()));
    std::printf("  scan.bytes_decoded        %llu\n",
                static_cast<unsigned long long>(
                    registry.GetCounter("scan.bytes_decoded").Value()));
    std::printf("  cache.block.bytes_evicted %llu\n\n",
                static_cast<unsigned long long>(
                    registry.GetCounter("cache.block.bytes_evicted").Value()));
  }

  // Depth-indexed scheme usage across the whole table (satellite view of
  // the cascade: which schemes appear at which recursion level).
  std::printf("scheme uses by cascade depth (count x type/scheme):\n");
  static const char* kTypeTags[3] = {"int", "double", "string"};
  for (u32 depth = 0; depth < kTelemetryDepthSlots; depth++) {
    bool any = false;
    for (u32 t = 0; t < 3 && !any; t++) {
      for (u32 s = 0; s < 16 && !any; s++) {
        any = telemetry.scheme_uses_by_depth[depth][t][s] != 0;
      }
    }
    if (!any) continue;
    std::printf("  depth %u:", depth);
    for (u32 t = 0; t < 3; t++) {
      for (u32 s = 0; s < 16; s++) {
        u64 n = telemetry.scheme_uses_by_depth[depth][t][s];
        if (n == 0) continue;
        std::printf("  %llux %s/%s", static_cast<unsigned long long>(n),
                    kTypeTags[t],
                    RootSchemeName(static_cast<ColumnType>(t),
                                   static_cast<u8>(s)));
      }
    }
    std::printf("\n");
  }
  return 0;
}

// Compresses a CSV, uploads it into an in-memory object store (one object
// per column + metadata + zone maps) and runs a pipelined Scanner scan
// with optional `col=value` equality predicates, reporting what the zone
// maps pruned, what predicate pushdown skipped, and the pipeline timing.
// With --tenant, scans run through one shared ScanService instead of a
// standalone Scanner: `concurrent` scans (default: one per tenant) are
// round-robined across the tenant ids and the per-tenant service stats
// are reported at the end (docs/SCAN_SERVICE.md).
int CmdScan(const std::string& csv_path,
            const std::vector<std::string>& filters,
            const std::string& where_clause, const ScanConfig& scan_config,
            u64 fault_seed, double fault_rate,
            const std::string& profile_json_path,
            const std::vector<std::string>& tenants, u32 concurrent) {
  std::string name = csv_path;
  size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);

  Relation relation(name);
  Status status = datagen::ReadCsvFile(csv_path, name, &relation);
  if (!status.ok()) return Fail(status);

  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(relation, config);
  TableZoneMap zones;
  for (const Column& column : relation.columns()) {
    zones.columns.push_back(ComputeColumnZoneMap(column));
  }
  s3sim::ObjectStore store;
  status = UploadCompressedRelation(compressed, &zones, "", &store);
  if (!status.ok()) return Fail(status);
  if (fault_seed != 0) {
    store.InstallFaultPlan(
        s3sim::MakeChaosPlan(fault_seed, fault_rate, /*include_corruption=*/true));
    std::printf("fault injection: seed %llu, rate %.3f (transients, latency "
                "spikes, truncations, bit flips)\n",
                static_cast<unsigned long long>(fault_seed), fault_rate);
  }

  ScanSpec spec;
  spec.config = scan_config;
  if (!where_clause.empty()) {
    status = ParsePredicate(where_clause, &spec.filter);
    if (!status.ok()) return Fail(status);
    std::printf("where: %s\n", spec.filter.ToString().c_str());
  }
  if (!filters.empty()) {
    std::fprintf(stderr,
                 "note: col=value filters are deprecated; prefer "
                 "--where=\"col = value AND ...\"\n");
  }
  for (const std::string& filter : filters) {
    size_t eq = filter.find('=');
    if (eq == std::string::npos) {
      return Fail(Status::InvalidArgument("filter must be col=value: " + filter));
    }
    std::string column_name = filter.substr(0, eq);
    std::string value = filter.substr(eq + 1);
    const Column* column = nullptr;
    for (const Column& candidate : relation.columns()) {
      if (candidate.name() == column_name) column = &candidate;
    }
    if (column == nullptr) {
      return Fail(Status::NotFound("no such column: " + column_name));
    }
    switch (column->type()) {
      case ColumnType::kInteger:
        spec.predicates.push_back(
            Predicate::EqualsInt(column_name, std::atoi(value.c_str())));
        break;
      case ColumnType::kDouble:
        spec.predicates.push_back(
            Predicate::EqualsDouble(column_name, std::atof(value.c_str())));
        break;
      case ColumnType::kString:
        spec.predicates.push_back(Predicate::EqualsString(column_name, value));
        break;
    }
  }

  if (!tenants.empty()) {
    u32 jobs = concurrent == 0 ? static_cast<u32>(tenants.size()) : concurrent;
    service::ScanService service;
    std::atomic<u64> total_rows{0};
    std::atomic<u64> throttled_jobs{0};
    std::atomic<int> rc{0};
    std::mutex print_mutex;
    Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (u32 j = 0; j < jobs; j++) {
      const std::string tenant = tenants[j % tenants.size()];
      threads.emplace_back([&, tenant, j] {
        Scanner scanner(service, tenant, &store, name);
        Status job_status = scanner.Open(spec.config);
        ScanStats job_stats;
        u64 job_rows = 0;
        if (job_status.ok()) {
          job_status = scanner.Scan(
              spec,
              [&](ColumnChunk&& chunk) {
                if (chunk.column == 0) job_rows += chunk.row_count;
              },
              &job_stats);
        }
        if (job_status.IsThrottled()) {
          // Admission control said no — expected under deliberate
          // overload, reported but not fatal.
          throttled_jobs.fetch_add(1);
          return;
        }
        if (!job_status.ok()) {
          std::lock_guard<std::mutex> lock(print_mutex);
          std::fprintf(stderr, "scan %u (tenant %s) failed: %s\n", j,
                       tenant.c_str(), job_status.ToString().c_str());
          rc.store(1);
          return;
        }
        total_rows.fetch_add(job_rows);
      });
    }
    for (std::thread& thread : threads) thread.join();
    double seconds = wall.ElapsedSeconds();
    std::printf("scan service: %u scans across %zu tenant%s in %.3f s "
                "(%llu rows emitted, %llu throttled)\n",
                jobs, tenants.size(), tenants.size() == 1 ? "" : "s", seconds,
                static_cast<unsigned long long>(total_rows.load()),
                static_cast<unsigned long long>(throttled_jobs.load()));
    std::printf("%-16s %8s %8s %8s %10s %12s %8s %12s\n", "tenant", "scans",
                "queued", "rejects", "gets", "hits", "hedges", "p95 wait");
    for (const auto& [id, tenant_stats] : service.AllTenantStats()) {
      std::printf("%-16s %8llu %8llu %8llu %10llu %12llu %8llu %9.3f ms\n",
                  id.c_str(),
                  static_cast<unsigned long long>(tenant_stats.scans_completed),
                  static_cast<unsigned long long>(tenant_stats.scans_queued),
                  static_cast<unsigned long long>(tenant_stats.scans_rejected),
                  static_cast<unsigned long long>(tenant_stats.gets),
                  static_cast<unsigned long long>(tenant_stats.cache_hits),
                  static_cast<unsigned long long>(tenant_stats.hedges),
                  tenant_stats.queue_wait_p95_ns / 1e6);
    }
    return rc.load();
  }

  Scanner scanner(&store, name);
  status = scanner.Open();
  if (!status.ok()) return Fail(status);
  ScanStats stats;
  u64 rows_emitted = 0;
  status = scanner.Scan(
      spec,
      [&](ColumnChunk&& chunk) {
        if (chunk.column == 0) rows_emitted += chunk.row_count;
      },
      &stats);
  if (!status.ok()) return Fail(status);

  size_t leaf_count = stats.predicate_leaves.size();
  std::printf("scanned %s: %u rows, %zu columns, %zu predicate lea%s\n",
              name.c_str(), relation.row_count(), relation.columns().size(),
              leaf_count, leaf_count == 1 ? "f" : "ves");
  std::printf("row blocks: %u total, %u zone-map pruned, %u skipped by "
              "compressed-form predicates, %u decoded\n",
              stats.row_blocks, stats.blocks_pruned, stats.blocks_skipped,
              stats.blocks_decoded);
  if (leaf_count != 0) {
    std::printf("rows matching the filter: %llu\n",
                static_cast<unsigned long long>(stats.rows_matched));
    for (const PredicateLeafStats& leaf : stats.predicate_leaves) {
      std::printf("  leaf %-32s  pruned %u blocks, %llu fast-path, "
                  "%llu materialized\n",
                  leaf.description.c_str(),
                  static_cast<unsigned>(leaf.blocks_pruned),
                  static_cast<unsigned long long>(leaf.fast_path),
                  static_cast<unsigned long long>(leaf.materialized));
    }
  }
  std::printf("fetched %.1f KiB in %llu GETs, decoded %.1f KiB logical; "
              "%.3f s with %u scan threads, "
              "%u fetch threads, prefetch depth %u\n",
              stats.bytes_fetched / 1024.0,
              static_cast<unsigned long long>(stats.requests),
              stats.bytes_decoded / 1024.0, stats.seconds,
              spec.config.scan_threads, spec.config.fetch_threads,
              spec.config.prefetch_depth);
  if (fault_seed != 0 || stats.retries != 0 || stats.blocks_unreadable != 0) {
    std::printf("robustness: %llu faults injected, %llu retries granted, "
                "%u unreadable block%s%s\n",
                static_cast<unsigned long long>(store.faults_injected()),
                static_cast<unsigned long long>(stats.retries),
                stats.blocks_unreadable,
                stats.blocks_unreadable == 1 ? "" : "s",
                spec.config.skip_unreadable_blocks ? " (degraded mode)" : "");
    for (size_t i = 0; i < stats.unreadable_blocks.size(); i++) {
      std::printf("  block %u unreadable: %s\n", stats.unreadable_blocks[i],
                  stats.unreadable_reasons[i].ToString().c_str());
    }
  }
  if (scan_config.enable_block_cache) {
    std::printf("block cache: %llu hits, %llu misses, %llu bytes evicted "
                "(%.0f MiB capacity)\n",
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses),
                static_cast<unsigned long long>(
                    obs::Registry::Get()
                        .GetCounter("cache.block.bytes_evicted")
                        .Value()),
                scan_config.block_cache_bytes / (1024.0 * 1024.0));
  }
  if (scan_config.enable_hedged_gets) {
    std::printf("hedged GETs: %llu issued, %llu won by the duplicate\n",
                static_cast<unsigned long long>(stats.hedges),
                static_cast<unsigned long long>(stats.hedge_wins));
  }
  if (scan_config.enable_circuit_breaker) {
    std::printf("circuit breaker: %llu trips, %llu fast failures\n",
                static_cast<unsigned long long>(stats.breaker_trips),
                static_cast<unsigned long long>(stats.breaker_fast_failures));
  }
  if (scan_config.refetch_on_crc_failure &&
      (stats.crc_refetches != 0 || stats.crc_rescues != 0)) {
    std::printf("CRC re-fetch: %llu re-fetched, %llu rescued\n",
                static_cast<unsigned long long>(stats.crc_refetches),
                static_cast<unsigned long long>(stats.crc_rescues));
  }
  if (scan_config.collect_profile && stats.profile != nullptr) {
    std::printf("\n%s", stats.profile->ToText().c_str());
    if (!profile_json_path.empty()) {
      std::ofstream out(profile_json_path,
                        std::ios::binary | std::ios::trunc);
      if (out) out << stats.profile->ToJson() << "\n";
      if (out.good()) {
        std::fprintf(stderr, "profile written to %s\n",
                     profile_json_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n",
                     profile_json_path.c_str());
        return 1;
      }
    }
  }
  return 0;
}

// --- ingest: the crash-safe streaming write path ---------------------------

Relation SliceRows(const Relation& table, u32 begin, u32 count) {
  Relation chunk(table.name());
  for (const Column& src : table.columns()) {
    Column& dst = chunk.AddColumn(src.name(), src.type());
    for (u32 r = begin; r < begin + count; r++) {
      if (src.IsNull(r)) {
        dst.AppendNull();
        continue;
      }
      switch (src.type()) {
        case ColumnType::kInteger: dst.AppendInt(src.ints()[r]); break;
        case ColumnType::kDouble: dst.AppendDouble(src.doubles()[r]); break;
        case ColumnType::kString: dst.AppendString(src.GetString(r)); break;
      }
    }
  }
  return chunk;
}

struct IngestOutcome {
  Status status;
  btr::u32 points = 0;  // crash points the writer passed through
  btr::u64 version = 0;
};

// One streaming ingest of `table`. crash_at > 0 kills the writer at that
// crash point (simulated process death: no cleanup happens).
IngestOutcome RunIngest(s3sim::ObjectStore* store, const Relation& table,
                        u32 chunk_rows, int crash_at) {
  IngestOutcome outcome;
  write::WriterConfig config;
  config.failpoint = [&](const char*) {
    outcome.points++;
    return crash_at > 0 && outcome.points == static_cast<u32>(crash_at);
  };
  write::StreamingWriter writer(store, table.name(), "lake/",
                                std::move(config));
  std::vector<write::StreamingWriter::ColumnSpec> schema;
  for (const Column& column : table.columns()) {
    schema.push_back({column.name(), column.type()});
  }
  Status status = writer.Begin(schema);
  for (u32 begin = 0; status.ok() && begin < table.row_count();
       begin += chunk_rows) {
    u32 n = std::min(chunk_rows, table.row_count() - begin);
    status = writer.Append(SliceRows(table, begin, n));
  }
  if (status.ok()) status = writer.Commit();
  outcome.status = status;
  outcome.version = writer.version();
  return outcome;
}

void PrintFsckReport(const write::FsckReport& report, bool repaired) {
  std::printf("fsck%s: committed v%llu -> v%llu, %u intent%s; "
              "%u rolled forward, %u rolled back, %u uploads completed, "
              "%u aborted, %u objects deleted, %u orphans GC'd, "
              "%u verify failure%s%s\n",
              repaired ? " --repair" : "",
              static_cast<unsigned long long>(report.committed_version_before),
              static_cast<unsigned long long>(report.committed_version_after),
              report.intents_seen, report.intents_seen == 1 ? "" : "s",
              report.rolled_forward, report.rolled_back,
              report.uploads_completed, report.uploads_aborted,
              report.objects_deleted, report.orphans_deleted,
              report.verify_failures, report.verify_failures == 1 ? "" : "s",
              report.clean ? " (store clean)" : "");
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
}

// Opens + fully scans the table; returns the row count it reads back.
Status VerifyReadable(s3sim::ObjectStore* store, const std::string& name,
                      u64* rows_out) {
  Scanner scanner(store, name, "lake/");
  Status status = scanner.Open();
  if (!status.ok()) return status;
  u64 rows = 0;
  ScanSpec spec;
  status = scanner.Scan(spec, [&](ColumnChunk&& chunk) {
    if (chunk.column == 0) rows += chunk.row_count;
  });
  if (status.ok()) *rows_out = rows;
  return status;
}

int CmdIngest(const std::string& csv_path, std::string name, u32 chunk_rows,
              int crash_at, bool crash_matrix, u64 fault_seed,
              double fault_rate) {
  if (name.empty()) {
    name = csv_path;
    size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    size_t dot = name.find_last_of('.');
    if (dot != std::string::npos) name = name.substr(0, dot);
  }
  Relation relation(name);
  Status status = datagen::ReadCsvFile(csv_path, name, &relation);
  if (!status.ok()) return Fail(status);
  if (chunk_rows == 0) chunk_rows = 10000;

  if (crash_matrix) {
    // Commit a first version of the front half, then re-ingest the whole
    // table killing the writer at every crash point in turn: after
    // `fsck --repair` the table must read back as exactly the old half or
    // the new whole — never a mix, never unreadable.
    const u32 half = relation.row_count() / 2;
    s3sim::ObjectStore counting_store;
    IngestOutcome probe = RunIngest(&counting_store, relation, chunk_rows, 0);
    if (!probe.status.ok()) return Fail(probe.status);
    std::printf("crash matrix: %u crash points, old version %u rows, "
                "new version %u rows\n",
                probe.points, half, relation.row_count());
    u32 failures = 0;
    for (u32 k = 1; k <= probe.points; k++) {
      s3sim::ObjectStore store;
      Relation old_half = SliceRows(relation, 0, half);
      IngestOutcome first = RunIngest(&store, old_half, chunk_rows, 0);
      if (!first.status.ok()) return Fail(first.status);
      if (fault_seed != 0) {
        store.InstallFaultPlan(s3sim::MakePutChaosPlan(fault_seed + k,
                                                       fault_rate));
      }
      IngestOutcome crashed = RunIngest(&store, relation, chunk_rows,
                                        static_cast<int>(k));
      store.ClearFaultPlan();
      write::FsckOptions repair;
      repair.repair = true;
      write::FsckReport report;
      status = write::Fsck(&store, "lake/", name, repair, &report);
      if (!status.ok()) return Fail(status);
      // fsck must be idempotent: an immediate re-run finds a clean store.
      write::FsckReport again;
      status = write::Fsck(&store, "lake/", name, repair, &again);
      if (!status.ok()) return Fail(status);
      u64 rows = 0;
      Status read = VerifyReadable(&store, name, &rows);
      bool ok = read.ok() && again.clean &&
                (rows == half || rows == relation.row_count());
      if (!ok) failures++;
      std::printf("  crash point %3u: writer %s, fsck %s v%llu, "
                  "read back %llu rows -> %s\n",
                  k, crashed.status.ok() ? "survived" : "killed",
                  report.rolled_forward != 0 ? "rolled forward"
                                             : "kept committed",
                  static_cast<unsigned long long>(
                      report.committed_version_after),
                  static_cast<unsigned long long>(rows),
                  ok ? "OK" : read.ToString().c_str());
    }
    std::printf("crash matrix: %u/%u points converged\n",
                probe.points - failures, probe.points);
    return failures == 0 ? 0 : 1;
  }

  s3sim::ObjectStore store;
  if (fault_seed != 0) {
    store.InstallFaultPlan(s3sim::MakePutChaosPlan(fault_seed, fault_rate));
    std::printf("PUT fault injection: seed %llu, rate %.3f (throttles, "
                "unavailabilities, latency spikes, partial parts)\n",
                static_cast<unsigned long long>(fault_seed), fault_rate);
  }
  Timer wall;
  IngestOutcome outcome = RunIngest(&store, relation, chunk_rows, crash_at);
  double seconds = wall.ElapsedSeconds();
  store.ClearFaultPlan();
  if (outcome.status.ok()) {
    std::printf("committed v%llu: %u rows in %u-row chunks, %.3f s, "
                "%llu PUT requests, %llu bytes staged\n",
                static_cast<unsigned long long>(outcome.version),
                relation.row_count(), chunk_rows, seconds,
                static_cast<unsigned long long>(store.total_put_requests()),
                static_cast<unsigned long long>(store.total_bytes_put()));
  } else {
    std::printf("writer died: %s\n", outcome.status.ToString().c_str());
    write::FsckOptions analyze;
    write::FsckReport report;
    status = write::Fsck(&store, "lake/", name, analyze, &report);
    if (!status.ok()) return Fail(status);
    PrintFsckReport(report, false);
    write::FsckOptions repair;
    repair.repair = true;
    status = write::Fsck(&store, "lake/", name, repair, &report);
    if (!status.ok()) return Fail(status);
    PrintFsckReport(report, true);
  }
  u64 rows = 0;
  status = VerifyReadable(&store, name, &rows);
  if (status.IsNotFound()) {
    std::printf("table not committed (rolled back); store holds no version "
                "— either-old-or-new holds\n");
    return 0;
  }
  if (!status.ok()) return Fail(status);
  std::printf("verification scan: %llu rows read back\n",
              static_cast<unsigned long long>(rows));
  return rows == relation.row_count() || !outcome.status.ok() ? 0 : 1;
}

int CmdDemo() {
  std::printf("generating a Public-BI-like demo table...\n");
  Relation table = datagen::MakePublicBiTable("demo", 64000, 1);
  std::string dir = "/tmp";
  std::string csv = "/tmp/demo.csv";
  Status status = datagen::WriteCsvFile(table, csv);
  if (!status.ok()) return Fail(status);
  if (int rc = CmdCompress(csv, dir, "demo"); rc != 0) return rc;
  if (int rc = CmdStats(dir, "demo"); rc != 0) return rc;
  if (int rc = CmdDecompress(dir, "demo", "/tmp/demo_out.csv"); rc != 0) {
    return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global flags, stripped before command dispatch.
  std::string metrics_path;
  std::string trace_path;
  std::string profile_json_path;
  std::string where_clause;
  btr::ScanConfig scan_config;
  btr::u64 fault_seed = 0;
  double fault_rate = 0.05;
  std::vector<std::string> tenants;
  btr::u32 concurrent = 0;
  btr::u32 chunk_rows = 10000;
  int crash_at = 0;
  bool crash_matrix = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics-json="));
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace-json="));
    } else if (arg.rfind("--scan-threads=", 0) == 0) {
      scan_config.scan_threads = static_cast<btr::u32>(
          std::atoi(arg.c_str() + std::strlen("--scan-threads=")));
    } else if (arg.rfind("--prefetch-depth=", 0) == 0) {
      int depth = std::atoi(arg.c_str() + std::strlen("--prefetch-depth="));
      scan_config.prefetch_depth = depth < 1 ? 1 : static_cast<btr::u32>(depth);
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      fault_seed = static_cast<btr::u64>(
          std::atoll(arg.c_str() + std::strlen("--fault-seed=")));
    } else if (arg.rfind("--fault-rate=", 0) == 0) {
      fault_rate = std::atof(arg.c_str() + std::strlen("--fault-rate="));
    } else if (arg.rfind("--max-retries=", 0) == 0) {
      int retries = std::atoi(arg.c_str() + std::strlen("--max-retries="));
      // N retries = N+1 attempts; --max-retries=0 means fail fast.
      scan_config.max_attempts =
          retries < 0 ? 1 : static_cast<btr::u32>(retries) + 1;
    } else if (arg.rfind("--where=", 0) == 0) {
      where_clause = arg.substr(std::strlen("--where="));
    } else if (arg == "--no-pushdown") {
      scan_config.enable_predicate_pushdown = false;
    } else if (arg == "--skip-corrupt") {
      scan_config.skip_unreadable_blocks = true;
    } else if (arg.rfind("--block-cache=", 0) == 0) {
      int mib = std::atoi(arg.c_str() + std::strlen("--block-cache="));
      scan_config.enable_block_cache = mib > 0;
      if (mib > 0) {
        scan_config.block_cache_bytes = static_cast<btr::u64>(mib) << 20;
      }
    } else if (arg == "--hedge") {
      scan_config.enable_hedged_gets = true;
    } else if (arg == "--breaker") {
      scan_config.enable_circuit_breaker = true;
    } else if (arg == "--crc-refetch") {
      scan_config.refetch_on_crc_failure = true;
    } else if (arg.rfind("--tenant=", 0) == 0) {
      std::string list = arg.substr(std::strlen("--tenant="));
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) tenants.push_back(list.substr(start, comma - start));
        start = comma + 1;
      }
    } else if (arg.rfind("--concurrent=", 0) == 0) {
      int n = std::atoi(arg.c_str() + std::strlen("--concurrent="));
      concurrent = n < 0 ? 0 : static_cast<btr::u32>(n);
    } else if (arg.rfind("--chunk-rows=", 0) == 0) {
      int n = std::atoi(arg.c_str() + std::strlen("--chunk-rows="));
      chunk_rows = n < 1 ? 1 : static_cast<btr::u32>(n);
    } else if (arg.rfind("--crash-at=", 0) == 0) {
      crash_at = std::atoi(arg.c_str() + std::strlen("--crash-at="));
    } else if (arg == "--crash-matrix") {
      crash_matrix = true;
    } else if (arg == "--profile") {
      scan_config.collect_profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      scan_config.collect_profile = true;
      profile_json_path = arg.substr(std::strlen("--profile="));
    } else {
      args.push_back(std::move(arg));
    }
  }
  if (!trace_path.empty()) btr::obs::Tracer::Get().Enable();

  auto finish = [&](int rc) {
    if (!metrics_path.empty()) {
      if (btr::obs::WriteMetricsJsonFile(metrics_path)) {
        std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
        if (rc == 0) rc = 1;
      }
    }
    if (!trace_path.empty()) {
      if (btr::obs::WriteChromeTraceFile(trace_path)) {
        std::fprintf(stderr, "trace written to %s (open in chrome://tracing "
                             "or https://ui.perfetto.dev)\n",
                     trace_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
        if (rc == 0) rc = 1;
      }
    }
    return rc;
  };

  std::string command = args.empty() ? "" : args[0];
  if (command == "compress" && args.size() == 4) {
    return finish(CmdCompress(args[1], args[2], args[3]));
  }
  if (command == "decompress" && args.size() == 4) {
    return finish(CmdDecompress(args[1], args[2], args[3]));
  }
  if (command == "stats" && args.size() == 3) {
    return finish(CmdStats(args[1], args[2]));
  }
  if (command == "inspect" && args.size() == 2) {
    return finish(CmdInspect(args[1]));
  }
  if (command == "scan" && args.size() >= 2) {
    std::vector<std::string> filters(args.begin() + 2, args.end());
    return finish(CmdScan(args[1], filters, where_clause, scan_config,
                          fault_seed, fault_rate,
                          profile_json_path, tenants, concurrent));
  }
  if (command == "ingest" && (args.size() == 2 || args.size() == 3)) {
    return finish(CmdIngest(args[1], args.size() == 3 ? args[2] : "",
                            chunk_rows, crash_at, crash_matrix, fault_seed,
                            fault_rate));
  }
  if (command == "demo") {
    return finish(CmdDemo());
  }
  std::fprintf(stderr,
               "usage:\n"
               "  btrtool compress   <table.csv> <out-dir> <table-name>\n"
               "  btrtool decompress <dir> <table-name> <out.csv>\n"
               "  btrtool stats      <dir> <table-name>\n"
               "  btrtool inspect    <table.csv>\n"
               "  btrtool scan       <table.csv> [col=value ...]\n"
               "  btrtool ingest     <table.csv> [table-name]\n"
               "  btrtool demo\n"
               "flags: --metrics-json=<path>  --trace-json=<path>\n"
               "       --scan-threads=<n>  --prefetch-depth=<n>  (scan)\n"
               "       --fault-seed=<n>  --fault-rate=<f>  --max-retries=<n>\n"
               "       --skip-corrupt  (scan robustness, docs/ROBUSTNESS.md)\n"
               "       --block-cache=<MiB>  --hedge  --breaker  --crc-refetch\n"
               "         (resilient read path: checksum-verified cache,\n"
               "          hedged GETs, circuit breaker, CRC re-fetch)\n"
               "       --profile[=<path.json>]  (scan: per-scan profile —\n"
               "          stage breakdown, GET latency histogram, slow ops)\n"
               "       --tenant=<id[,id...]>  --concurrent=<n>  (scan: run\n"
               "          through a shared ScanService, one scan per job\n"
               "          round-robined over the tenants; docs/SCAN_SERVICE.md)\n"
               "       --chunk-rows=<n>  --crash-at=<k>  --crash-matrix\n"
               "          (ingest: crash-safe streaming write demo — kill the\n"
               "          writer, fsck --repair, verify either-old-or-new;\n"
               "          docs/WRITE_PATH.md)\n");
  return 2;
}
