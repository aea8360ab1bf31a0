// Reproduces the Section 6.4 compression-speed table: single-threaded
// compression throughput starting from CSV text and from the in-memory
// binary format, plus the achieved compression factor.
#include <cstdio>

#include "common.h"
#include "datagen/csv.h"

namespace btr::bench {
namespace {

struct SpeedRow {
  const char* name;
  const char* metric;  // sidecar prefix
  double from_csv_mbps;
  double from_binary_mbps;
  double factor;
};

void Run() {
  std::vector<Relation> corpus = PbiCorpus(/*rows_per_table=*/64000,
                                           /*tables=*/3);
  // CSV forms of the corpus.
  std::vector<std::string> csvs;
  u64 csv_bytes = 0;
  u64 binary_bytes = 0;
  for (const Relation& table : corpus) {
    csvs.push_back(datagen::WriteCsv(table));
    csv_bytes += csvs.back().size();
    binary_bytes += table.UncompressedBytes();
  }

  auto measure = [&](const char* name, const char* metric, auto compress_fn) {
    // From binary: compress the already-parsed relations.
    Timer binary_timer;
    u64 compressed_bytes = 0;
    for (const Relation& table : corpus) compressed_bytes += compress_fn(table);
    double binary_seconds = binary_timer.ElapsedSeconds();
    // From CSV: parse + compress.
    Timer csv_timer;
    for (size_t t = 0; t < csvs.size(); t++) {
      Relation parsed("t");
      Status status = datagen::ReadCsv(csvs[t], &parsed);
      BTR_CHECK(status.ok());
      compress_fn(parsed);
    }
    double csv_seconds = csv_timer.ElapsedSeconds();
    return SpeedRow{name, metric, csv_bytes / csv_seconds / 1e6,
                    binary_bytes / binary_seconds / 1e6,
                    static_cast<double>(binary_bytes) / compressed_bytes};
  };

  SpeedRow rows[3] = {
      measure("BtrBlocks", "btrblocks",
              [](const Relation& r) {
                CompressionConfig config;
                return CompressRelation(r, config).CompressedBytes();
              }),
      measure("Parquet+Snappy-class", "parquet_snappy",
              [](const Relation& r) {
                lakeformat::ParquetOptions options;
                options.codec = gpc::CodecKind::kLz77;
                return static_cast<u64>(
                    lakeformat::WriteParquetLike(r, options).size());
              }),
      measure("Parquet+Zstd-class", "parquet_zstd",
              [](const Relation& r) {
                lakeformat::ParquetOptions options;
                options.codec = gpc::CodecKind::kEntropyLz;
                return static_cast<u64>(
                    lakeformat::WriteParquetLike(r, options).size());
              }),
  };
  std::printf("\n%-22s  %14s  %16s  %14s\n", "format", "from CSV MB/s",
              "from binary MB/s", "compr. factor");
  for (const SpeedRow& row : rows) {
    std::printf("%-22s  %14.1f  %16.1f  %13.2fx\n", row.name, row.from_csv_mbps,
                row.from_binary_mbps, row.factor);
    std::string metric = row.metric;
    Report(metric + ".from_csv_mbps", row.from_csv_mbps, "MB/s",
           MetricKind::kThroughput);
    Report(metric + ".from_binary_mbps", row.from_binary_mbps, "MB/s",
           MetricKind::kThroughput);
    Report(metric + ".compression_factor", row.factor, "x", MetricKind::kRatio);
  }
}

}  // namespace
}  // namespace btr::bench

int main() {
  btr::bench::InitBench("compression_speed");
  btr::bench::PrintHeader(
      "Section 6.4: single-threaded compression speed (CSV / binary)");
  btr::bench::Run();
  return 0;
}
