// Data-lake scan scenario (the paper's introduction): a table lives as
// one compressed file per column in an S3-like object store; an analytics
// engine fetches only the columns a query touches, decompresses them, and
// aggregates. Everything below goes through btr::Scanner — the pipelined
// scan engine described in docs/SCAN_PIPELINE.md — instead of hand-rolled
// GET loops: zone-map pruning, ranged GETs, compressed-form predicate
// evaluation and multi-threaded decoding all happen behind Scan().
//
//   ./datalake_scan
#include <cstdio>
#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "datagen/public_bi.h"
#include "s3sim/object_store.h"

int main() {
  using namespace btr;

  // 1. Produce a Public-BI-like table and upload it: one object per
  //    column plus the table metadata and the zone-map sidecar.
  Relation table = datagen::MakePublicBiTable("sales", 256000, 7);
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(table, config);
  TableZoneMap zones;
  for (const Column& column : table.columns()) {
    zones.columns.push_back(ComputeColumnZoneMap(column));
  }

  s3sim::ObjectStore store;
  Status status = UploadCompressedRelation(compressed, &zones, "lake/", &store);
  if (!status.ok()) {
    std::printf("upload failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("uploaded %zu column objects, %.2f MiB compressed "
              "(%.2f MiB in memory, ratio %.1fx)\n",
              compressed.columns.size(),
              compressed.CompressedBytes() / 1048576.0,
              table.UncompressedBytes() / 1048576.0,
              compressed.CompressionRatio());

  Scanner scanner(&store, "sales", "lake/");
  status = scanner.Open();
  if (!status.ok()) {
    std::printf("open failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // 2. "SELECT sum(d_*), count(*) FROM sales" touching two columns: the
  //    projection makes the scanner fetch only those objects. Chunks are
  //    aggregated as they stream out of the pipeline.
  ScanSpec spec;
  for (const CompressedColumn& column : compressed.columns) {
    if (column.type == ColumnType::kDouble && spec.columns.size() < 2) {
      spec.columns.push_back(column.name);
    }
  }
  spec.config.scan_threads = 4;

  double sum = 0;
  u64 rows = 0;
  ScanStats stats;
  status = scanner.Scan(
      spec,
      [&](ColumnChunk&& chunk) {
        for (u32 i = 0; i < chunk.values.count; i++) {
          if (!chunk.values.IsNull(i)) sum += chunk.values.doubles[i];
        }
        if (chunk.column == 0) rows += chunk.row_count;
      },
      &stats);
  if (!status.ok()) {
    std::printf("scan failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("query touched %zu columns, %llu values, sum=%.2f\n",
              spec.columns.size(), static_cast<unsigned long long>(rows), sum);
  std::printf("fetched %.2f MiB in %llu GET requests, %.3f s pipelined\n",
              stats.bytes_fetched / 1048576.0,
              static_cast<unsigned long long>(stats.requests), stats.seconds);

  // 3. Cost of this scan under the paper's cloud model.
  s3sim::ScanMeasurement m;
  m.compressed_bytes = stats.bytes_fetched;
  m.uncompressed_bytes = rows * sizeof(double);
  m.single_thread_decompress_seconds = stats.seconds;
  s3sim::ScanResult r = s3sim::SimulateScan(m, store.config());
  std::printf("modeled scan: %.4f s, $%.8f (%s-bound), T_r %.1f GB/s\n",
              r.seconds, r.cost_usd, r.network_bound ? "network" : "CPU",
              r.tr_gbps);

  // 4. Point query with zone-map pruning: "count(*) WHERE i_col = probe".
  //    The predicate is evaluated on the *compressed* form (Section 7);
  //    zone maps (Section 2.1) prune blocks before any GET is issued.
  {
    // Choose the integer column (and probe) where zone pruning skips the
    // most blocks — clustered columns (e.g. sequential ids) prune best.
    const Column* int_column = nullptr;
    i32 probe = 0;
    size_t best_pruned = 0;
    for (const Column& candidate : table.columns()) {
      if (candidate.type() != ColumnType::kInteger) continue;
      ColumnZoneMap candidate_zones = ComputeColumnZoneMap(candidate);
      i32 candidate_probe = candidate.ints()[candidate.size() - 1];
      size_t pruned = 0;
      for (const BlockZone& zone : candidate_zones.zones) {
        pruned +=
            !ZoneMayOverlapIntRange(zone, candidate_probe, candidate_probe);
      }
      if (int_column == nullptr || pruned > best_pruned) {
        int_column = &candidate;
        probe = candidate_probe;
        best_pruned = pruned;
      }
    }

    ScanSpec point;
    point.columns = {int_column->name()};
    point.filter = Predicate::EqualsInt(int_column->name(), probe);
    ScanOutput output;
    status = scanner.Scan(point, &output);
    if (!status.ok()) {
      std::printf("point query failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf(
        "\npoint query on '%s' = %d: zone maps pruned %u of %u blocks, "
        "%llu ranged GETs (%.1f KiB), %llu matches found on compressed "
        "blocks\n",
        int_column->name().c_str(), probe, output.stats.blocks_pruned,
        output.stats.row_blocks,
        static_cast<unsigned long long>(output.stats.requests),
        output.stats.bytes_fetched / 1024.0,
        static_cast<unsigned long long>(output.stats.rows_matched));
  }
  return 0;
}
