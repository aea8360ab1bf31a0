// Reproduces Figure 1 and Table 5: end-to-end S3 scan cost and throughput
// on the five largest Public-BI-like datasets.
//
// Per DESIGN.md, AWS is simulated: the network (100 Gbit/s), GET request
// billing ($0.0004 / 1000) and instance rate ($3.89/h for c5n.18xlarge)
// are modeled, decompression time is measured on this machine
// single-threaded and divided across the modeled 36 cores (decompression
// parallelizes over columns and blocks).
#include <atomic>
#include <cstdio>
#include <thread>

#include "common.h"
#include "s3sim/object_store.h"
#include "service/scan_service.h"
#include "util/random.h"
#include "write/manifest.h"

namespace btr::bench {
namespace {

struct FormatScan {
  const char* name;
  FormatResult measured;
};

void Run() {
  std::vector<Relation> corpus = PbiCorpus();
  s3sim::S3Config s3;

  std::vector<FormatScan> formats;
  {
    CompressionConfig config;
    formats.push_back({"BtrBlocks", MeasureBtr(corpus, config)});
  }
  for (auto [label, codec] :
       {std::pair{"Parquet", gpc::CodecKind::kNone},
        std::pair{"Parquet+Snappy-class", gpc::CodecKind::kLz77},
        std::pair{"Parquet+Zstd-class", gpc::CodecKind::kEntropyLz}}) {
    lakeformat::ParquetOptions options;
    options.codec = codec;
    formats.push_back({label, MeasureParquetLike(corpus, options)});
  }

  // Exercise the simulated object store end to end for the BtrBlocks
  // files: upload, chunked GETs, request accounting.
  {
    CompressionConfig config;
    s3sim::ObjectStore store(s3);
    u32 object_count = 0;
    for (const Relation& table : corpus) {
      CompressedRelation compressed = CompressRelation(table, config);
      for (const CompressedColumn& column : compressed.columns) {
        // One file per column (paper Section 6.7's metadata layout).
        ByteBuffer file;
        for (const ByteBuffer& block : column.blocks) {
          file.Append(block.data(), block.size());
        }
        Status put_status =
            store.Put(table.name() + "/" + column.name, file.data(),
                      file.size());
        BTR_CHECK_MSG(put_status.ok(), "object store exercise PUT failed");
        object_count++;
      }
    }
    std::vector<u8> blob;
    for (const Relation& table : corpus) {
      for (const Column& column : table.columns()) {
        Status status = store.GetObject(table.name() + "/" + column.name(), &blob);
        BTR_CHECK_MSG(status.ok(), "object store exercise GET failed");
      }
    }
    std::printf("\nObject store exercise: %u column objects, %llu GETs, "
                "%.2f MiB fetched, %.3f s of modeled network time\n",
                object_count,
                static_cast<unsigned long long>(store.total_requests()),
                store.total_bytes_fetched() / 1048576.0,
                store.network_seconds());
  }

  // -- Measured pipelined scan (btr::Scanner) vs sequential baseline ------
  // Unlike the analytic model below (kept as the comparison column), this
  // section *executes* a scan twice against an object store whose GETs
  // cost real wall-clock time (first-byte latency + transfer at a single
  // flow's bandwidth):
  //   baseline:  the same per-block ranged GETs, issued one at a time,
  //              each block decoded on the calling thread before the next
  //              GET goes out — no overlap anywhere.
  //   pipelined: btr::Scanner with 8 scan threads and 8 fetch threads;
  //              GET latencies overlap each other and decoding.
  {
    CompressionConfig config;
    Relation table = datagen::MakePublicBiTable("pipeline_bench",
                                                8 * kBlockCapacity, 21);
    CompressedRelation compressed = CompressRelation(table, config);

    s3sim::S3Config wall = s3;
    wall.simulate_wall_clock = true;
    wall.wall_clock_request_latency_s = 0.01;  // 10 ms to first byte per GET
    wall.wall_clock_gbps = 2.0;                // one network flow
    s3sim::ObjectStore store(wall);
    Status status =
        UploadCompressedRelation(compressed, nullptr, "bench/", &store);
    BTR_CHECK_MSG(status.ok(), "pipeline bench upload failed");

    Timer seq_timer;
    std::vector<u8> chunk;
    DecodedBlock block;
    u64 sequential_rows = 0;
    for (size_t c = 0; c < compressed.columns.size(); c++) {
      const CompressedColumn& column = compressed.columns[c];
      // The upload committed through the versioned write path; resolve the
      // physical ".v<N>" name the way Scanner::Open does.
      std::string resolved;
      status = write::ResolveCommittedName(&store, "bench/", "pipeline_bench",
                                           &resolved);
      BTR_CHECK_MSG(status.ok(), "pipeline bench manifest resolve failed");
      std::string key = ColumnFileKey("bench/", resolved, c);
      u64 offset = ColumnFileHeaderBytes(column.blocks.size());
      for (const ByteBuffer& b : column.blocks) {
        status = store.GetChunk(key, offset, b.size(), &chunk);
        BTR_CHECK_MSG(status.ok(), "sequential baseline GET failed");
        offset += b.size();
        ByteBuffer padded;
        padded.Append(chunk.data(), chunk.size());
        DecompressBlock(padded.data(), &block, config);
        sequential_rows += block.count;
      }
    }
    double sequential_seconds = seq_timer.ElapsedSeconds();

    Scanner scanner(&store, "pipeline_bench", "bench/");
    BTR_CHECK_MSG(scanner.Open().ok(), "pipeline bench open failed");
    ScanSpec spec;
    spec.config.scan_threads = 8;
    spec.config.fetch_threads = 8;
    spec.config.prefetch_depth = 16;
    // Collect the per-scan profile (obs/profile.h): the printed report is
    // the worked example docs/OBSERVABILITY.md walks through.
    spec.config.collect_profile = true;
    ScanStats stats;
    u64 pipelined_rows = 0;
    status = scanner.Scan(
        spec,
        [&](ColumnChunk&& emitted) { pipelined_rows += emitted.values.count; },
        &stats);
    BTR_CHECK_MSG(status.ok(), "pipelined scan failed");
    BTR_CHECK_MSG(pipelined_rows == sequential_rows,
                  "pipelined scan decoded a different row count");

    std::printf("\n-- Measured scan: pipelined Scanner vs sequential "
                "GET-then-decompress --\n");
    std::printf("   (%zu columns x %zu blocks, 10 ms first-byte latency, "
                "2 Gbit/s per flow)\n",
                compressed.columns.size(),
                compressed.columns[0].blocks.size());
    std::printf("%-42s  %8.3f s\n", "sequential (1 GET in flight, 1 thread)",
                sequential_seconds);
    std::printf("%-42s  %8.3f s\n",
                "pipelined (8 scan threads, 8 fetch threads)", stats.seconds);
    std::printf("%-42s  %7.1fx\n", "speedup", sequential_seconds / stats.seconds);
    Report("scan.sequential_seconds", sequential_seconds, "s",
           MetricKind::kTime);
    Report("scan.pipelined_seconds", stats.seconds, "s", MetricKind::kTime);
    Report("scan.pipeline_speedup", sequential_seconds / stats.seconds, "x",
           MetricKind::kThroughput);
    Report("scan.bytes_fetched", static_cast<double>(stats.bytes_fetched),
           "bytes", MetricKind::kBytes);
    if (stats.profile != nullptr) {
      std::printf("\n-- Per-scan profile of the pipelined scan "
                  "(docs/OBSERVABILITY.md) --\n%s",
                  stats.profile->ToText().c_str());
    }

    // -- Warm block cache: repeat scan without touching the store ----------
    // Same Scanner with the checksum-verified block cache on: the cold
    // scan pays the GETs and admits every verified payload, the warm scan
    // is served entirely from memory — zero GETs, so the 10 ms first-byte
    // latency and the 2 Gbit/s flow disappear from the critical path.
    ScanSpec cached = spec;
    cached.config.enable_block_cache = true;
    Scanner cached_scanner(&store, "pipeline_bench", "bench/");
    BTR_CHECK_MSG(cached_scanner.Open().ok(), "cache bench open failed");
    ScanStats cold_stats;
    u64 cold_rows = 0;
    status = cached_scanner.Scan(
        cached,
        [&](ColumnChunk&& emitted) { cold_rows += emitted.values.count; },
        &cold_stats);
    BTR_CHECK_MSG(status.ok(), "cold cached scan failed");
    ScanStats warm_stats;
    u64 warm_rows = 0;
    status = cached_scanner.Scan(
        cached,
        [&](ColumnChunk&& emitted) { warm_rows += emitted.values.count; },
        &warm_stats);
    BTR_CHECK_MSG(status.ok(), "warm cached scan failed");
    BTR_CHECK_MSG(warm_rows == sequential_rows,
                  "warm scan decoded a different row count");
    BTR_CHECK_MSG(warm_stats.requests == 0,
                  "warm scan must issue zero GETs for cached blocks");

    std::printf("\n-- Warm block cache: repeat scan, zero GETs --\n");
    std::printf("%-42s  %8.3f s  (%llu GETs)\n", "cold (populates the cache)",
                cold_stats.seconds,
                static_cast<unsigned long long>(cold_stats.requests));
    std::printf("%-42s  %8.3f s  (%llu GETs, %llu cache hits)\n",
                "warm (checksum-verified cache)", warm_stats.seconds,
                static_cast<unsigned long long>(warm_stats.requests),
                static_cast<unsigned long long>(warm_stats.cache_hits));
    std::printf("%-42s  %7.1fx\n", "speedup vs cold",
                cold_stats.seconds / warm_stats.seconds);
    Report("scan.warm_cache_seconds", warm_stats.seconds, "s",
           MetricKind::kTime);
    Report("scan.warm_cache_hits", static_cast<double>(warm_stats.cache_hits),
           "hits", MetricKind::kCount);
    Report("scan.warm_cache_requests",
           static_cast<double>(warm_stats.requests), "GETs",
           MetricKind::kCount);
  }

  // -- Multi-tenant ScanService: one shared cache, fair scheduling --------
  // 104 concurrent scans from 4 tenants through one btr::service::
  // ScanService (docs/SCAN_SERVICE.md): the shared checksum-verified cache
  // serves every block of the storm from memory once any tenant has paid
  // the block GETs, and the deficit-round-robin queues keep a hog tenant
  // from starving a light one. The isolated baseline runs the same 104 scans as
  // standalone Scanners — private caches, so all 104 pay their own GETs.
  {
    CompressionConfig config;
    Relation table =
        datagen::MakePublicBiTable("svc_bench", 4 * kBlockCapacity, 33);
    CompressedRelation compressed = CompressRelation(table, config);
    s3sim::S3Config wall = s3;
    wall.simulate_wall_clock = true;
    wall.wall_clock_request_latency_s = 0.002;  // 2 ms to first byte per GET
    wall.wall_clock_gbps = 4.0;
    s3sim::ObjectStore store(wall);
    Status status =
        UploadCompressedRelation(compressed, nullptr, "svc/", &store);
    BTR_CHECK_MSG(status.ok(), "service bench upload failed");

    const char* kTenants[4] = {"alpha", "beta", "gamma", "delta"};
    const u32 kScans = 104;
    ScanSpec spec;
    spec.config.scan_threads = 2;
    spec.config.fetch_threads = 2;
    spec.config.prefetch_depth = 8;

    service::ScanServiceConfig service_config;
    service_config.fetch_threads = 8;
    service_config.max_concurrent_scans = 32;
    service_config.max_queued_scans = kScans;
    service_config.admission_timeout_ns = 60ull * 1000 * 1000 * 1000;
    service::ScanService service(service_config);

    auto serviced_scan = [&](const std::string& tenant,
                             std::atomic<u64>* rows) {
      Scanner scanner(service, tenant, &store, "svc_bench", "svc/");
      BTR_CHECK_MSG(scanner.Open(spec.config).ok(), "service bench open failed");
      u64 mine = 0;
      Status scan_status = scanner.Scan(
          spec,
          [&](ColumnChunk&& emitted) {
            if (emitted.column == 0) mine += emitted.row_count;
          },
          nullptr);
      BTR_CHECK_MSG(scan_status.ok(), "serviced scan failed");
      rows->fetch_add(mine);
    };

    // One scan under a dedicated tenant pays the cold block GETs; every
    // block is then in the shared cache, so the 104-scan storm across the
    // four real tenants issues no block GET. Each storm scan's Open still
    // reads the manifest and the metadata, and its Scan the column
    // headers: those GETs, and nothing else, are scan.service.storm_gets.
    std::atomic<u64> warm_rows{0};
    serviced_scan("warmup", &warm_rows);

    std::atomic<u64> storm_rows{0};
    Timer storm_timer;
    std::vector<std::thread> storm;
    storm.reserve(kScans);
    for (u32 i = 0; i < kScans; i++) {
      storm.emplace_back(
          [&, i] { serviced_scan(kTenants[i % 4], &storm_rows); });
    }
    for (std::thread& t : storm) t.join();
    double storm_seconds = storm_timer.ElapsedSeconds();
    BTR_CHECK_MSG(storm_rows.load() == kScans * warm_rows.load(),
                  "serviced storm decoded a different row count");
    u64 storm_gets = 0;
    for (const char* tenant : kTenants) {
      storm_gets += service.GetTenantStats(tenant).gets;
    }

    // Isolated baseline: the same 104 scans, each a standalone Scanner
    // with a private cache — no sharing, every scan pays its own GETs.
    std::atomic<u64> isolated_rows{0};
    Timer isolated_timer;
    std::vector<std::thread> isolated;
    isolated.reserve(kScans);
    for (u32 i = 0; i < kScans; i++) {
      isolated.emplace_back([&] {
        Scanner scanner(&store, "svc_bench", "svc/");
        BTR_CHECK_MSG(scanner.Open(spec.config).ok(),
                      "isolated bench open failed");
        ScanSpec private_spec = spec;
        private_spec.config.enable_block_cache = true;
        u64 mine = 0;
        Status scan_status = scanner.Scan(
            private_spec,
            [&](ColumnChunk&& emitted) {
              if (emitted.column == 0) mine += emitted.row_count;
            },
            nullptr);
        BTR_CHECK_MSG(scan_status.ok(), "isolated scan failed");
        isolated_rows.fetch_add(mine);
      });
    }
    for (std::thread& t : isolated) t.join();
    double isolated_seconds = isolated_timer.ElapsedSeconds();
    BTR_CHECK_MSG(isolated_rows.load() == storm_rows.load(),
                  "isolated storm decoded a different row count");

    // Fairness under a hog: tenant "hog" floods the (still warm) service
    // while tenant "light" runs a handful of scans; DRR lanes must keep
    // the light tenant's queue waits bounded.
    std::atomic<u64> fair_rows{0};
    std::vector<std::thread> fair;
    for (u32 i = 0; i < 24; i++) {
      fair.emplace_back([&] { serviced_scan("hog", &fair_rows); });
    }
    for (u32 i = 0; i < 4; i++) {
      fair.emplace_back([&] { serviced_scan("light", &fair_rows); });
    }
    for (std::thread& t : fair) t.join();
    u64 light_p95_ns = service.GetTenantStats("light").queue_wait_p95_ns;

    std::printf("\n-- Multi-tenant ScanService: %u scans, 4 tenants, one "
                "shared cache --\n", kScans);
    std::printf("%-42s  %8.3f s  (%llu tenant GETs)\n",
                "serviced storm (shared warm cache)", storm_seconds,
                static_cast<unsigned long long>(storm_gets));
    std::printf("%-42s  %8.3f s\n", "isolated baseline (private caches)",
                isolated_seconds);
    std::printf("%-42s  %7.1fx\n", "aggregate speedup",
                isolated_seconds / storm_seconds);
    std::printf("%-42s  %8.3f ms\n", "light tenant p95 queue wait under hog",
                light_p95_ns / 1e6);
    Report("scan.service.storm_seconds", storm_seconds, "s", MetricKind::kTime);
    Report("scan.service.storm_gets", static_cast<double>(storm_gets), "GETs",
           MetricKind::kCount);
    Report("scan.service.isolated_seconds", isolated_seconds, "s",
           MetricKind::kTime);
    Report("scan.service.aggregate_speedup", isolated_seconds / storm_seconds,
           "x", MetricKind::kThroughput);
    Report("scan.service.light_p95_queue_wait_seconds", light_p95_ns / 1e9,
           "s", MetricKind::kTime);
  }

  // Scale the measured corpus to the paper's dataset size (119.5 GB in
  // memory) so the fixed first-byte latency does not dominate: ratios and
  // per-byte decompression cost are intensive quantities and scale
  // exactly; only the modeled transfer grows.
  const double kTargetBytes = 119.5e9;
  auto scaled = [&](const FormatResult& f) {
    double factor = kTargetBytes / static_cast<double>(f.uncompressed_bytes);
    s3sim::ScanMeasurement m;
    m.compressed_bytes = static_cast<u64>(f.compressed_bytes * factor);
    m.uncompressed_bytes = static_cast<u64>(kTargetBytes);
    m.single_thread_decompress_seconds = f.decompress_seconds * factor;
    return m;
  };

  double base_cost = 0;
  std::printf("\n-- Table 5: S3 scan (scaled to 119.5 GB of table data) --\n");
  std::printf("%-24s  %10s  %10s  %12s  %12s\n", "format", "T_r GB/s",
              "T_c Gbit/s", "cost/scan $", "normalized");
  for (const FormatScan& f : formats) {
    s3sim::ScanResult r = s3sim::SimulateScan(scaled(f.measured), s3);
    if (base_cost == 0) {
      base_cost = r.cost_usd;
      Report("table5.btrblocks.tc_gbit", r.tc_gbit, "Gbit/s",
             MetricKind::kThroughput);
      Report("table5.btrblocks.cost_usd", r.cost_usd, "$", MetricKind::kTime);
    }
    std::printf("%-24s  %10.1f  %10.1f  %12.4f  %11.2fx\n", f.name, r.tr_gbps,
                r.tc_gbit, r.cost_usd, r.cost_usd / base_cost);
  }

  // -- Section 6.7, "Loading individual columns" ---------------------------
  // OLAP queries fetch a few columns. BtrBlocks stores one file per column
  // plus a separate table-metadata file, so a K-column query fetches only
  // those objects. Parquet bundles all columns per file with a footer at
  // the end; per the paper, loading the whole file is usually faster than
  // the three dependent ranged GETs, so that is what we model.
  {
    CompressionConfig config;
    Random rng(99);
    double btr_cost = 0, parquet_cost[3] = {0, 0, 0};
    u32 query_count = 0;
    for (const Relation& table : corpus) {
      // Scale each table to the paper's dataset size (119.5 GB over five
      // datasets) so the fixed first-byte latency does not flatten the
      // comparison.
      double factor = (kTargetBytes / corpus.size()) /
                      static_cast<double>(table.UncompressedBytes());
      CompressedRelation compressed = CompressRelation(table, config);
      std::vector<u64> column_bytes;
      for (const CompressedColumn& column : compressed.columns) {
        column_bytes.push_back(
            static_cast<u64>(column.CompressedBytes() * factor));
      }
      lakeformat::ParquetOptions popts[3];
      popts[1].codec = gpc::CodecKind::kLz77;
      popts[2].codec = gpc::CodecKind::kEntropyLz;
      u64 parquet_bytes[3];
      for (int v = 0; v < 3; v++) {
        parquet_bytes[v] = static_cast<u64>(
            lakeformat::WriteParquetLike(table, popts[v]).size() * factor);
      }
      // Ten random 3-column queries per table.
      for (int q = 0; q < 10; q++) {
        query_count++;
        u64 fetched = 0;
        for (int k = 0; k < 3; k++) {
          fetched += column_bytes[rng.NextBounded(column_bytes.size())];
        }
        auto cost_of = [&](u64 bytes, u32 extra_requests) {
          double seconds = static_cast<double>(bytes) * 8.0 /
                               (s3.network_gbps * 1e9) +
                           s3.first_byte_latency_s;
          u64 requests = extra_requests + (bytes + s3.chunk_bytes - 1) /
                                              s3.chunk_bytes;
          return seconds / 3600.0 * s3.instance_cost_per_hour +
                 requests * s3.request_cost_usd;
        };
        btr_cost += cost_of(fetched, /*metadata GET=*/1);
        for (int v = 0; v < 3; v++) {
          parquet_cost[v] += cost_of(parquet_bytes[v], 0);
        }
      }
    }
    std::printf("\n-- Section 6.7: loading 3 random columns per query "
                "(%u queries) --\n", query_count);
    std::printf("%-24s  %16s  %10s\n", "format", "avg cost/query $",
                "vs BtrBlocks");
    std::printf("%-24s  %16.7f  %9.1fx\n", "BtrBlocks (per-column)",
                btr_cost / query_count, 1.0);
    const char* names[3] = {"Parquet (whole file)", "Parquet+Snappy-class",
                            "Parquet+Zstd-class"};
    for (int v = 0; v < 3; v++) {
      std::printf("%-24s  %16.7f  %9.1fx\n", names[v],
                  parquet_cost[v] / query_count, parquet_cost[v] / btr_cost);
    }
  }

  std::printf("\n-- Figure 1: scan cost vs throughput --\n");
  std::printf("%-24s  %14s  %16s\n", "format", "$ / TB scanned",
              "S3 scan Gbit/s (T_c)");
  for (const FormatScan& f : formats) {
    s3sim::ScanMeasurement m = scaled(f.measured);
    s3sim::ScanResult r = s3sim::SimulateScan(m, s3);
    double dollars_per_tb =
        r.cost_usd / (static_cast<double>(m.uncompressed_bytes) / 1e12);
    std::printf("%-24s  %14.3f  %16.1f\n", f.name, dollars_per_tb, r.tc_gbit);
  }
}

}  // namespace
}  // namespace btr::bench

int main() {
  btr::bench::InitBench("s3_scan");
  btr::bench::PrintHeader("Figure 1 + Table 5: simulated S3 scan cost");
  btr::bench::Run();
  return 0;
}
