// Reproduces Figure 8: compression ratio vs in-memory decompression
// bandwidth for BtrBlocks, Parquet-like and ORC-like (each with no codec,
// the Snappy-class codec and the Zstd-class codec), on the Public-BI-like
// and TPC-H-like corpora. Also covers the Section 6.8 ablation: BtrBlocks
// with all SIMD kernels disabled (scalar decompression).
//
// Throughput here is single-threaded (the paper's figure is on 36 cores;
// relative ordering is the reproduced result).
#include <cstdio>
#include <tuple>

#include "common.h"
#include "util/simd.h"

namespace btr::bench {
namespace {

void RunCorpus(const char* name, const char* tag,
               const std::vector<Relation>& corpus) {
  std::printf("\n--- %s ---\n", name);
  std::printf("%-26s  %8s  %18s\n", "format", "ratio", "decompression GB/s");

  auto print = [&](const char* format, const FormatResult& r) {
    std::printf("%-26s  %7.2fx  %18.2f\n", format, r.Ratio(), r.DecompressGBps());
  };

  {
    CompressionConfig config;
    FormatResult btr = MeasureBtr(corpus, config);
    print("BtrBlocks", btr);
    Reporter::Get().ReportFormatResult(std::string(tag) + ".btrblocks", btr);
    ScopedSimd scalar(false);
    FormatResult scalar_btr = MeasureBtr(corpus, config);
    print("BtrBlocks (scalar, 6.8)", scalar_btr);
    Report(std::string(tag) + ".btrblocks_scalar.decompress_gbps",
           scalar_btr.DecompressGBps(), "GB/s", MetricKind::kThroughput,
           kDecompressRepeats);
  }
  for (auto [label, metric, codec] :
       {std::tuple{"Parquet", "parquet", gpc::CodecKind::kNone},
        std::tuple{"Parquet+Snappy-class", "parquet_snappy",
                   gpc::CodecKind::kLz77},
        std::tuple{"Parquet+Zstd-class", "parquet_zstd",
                   gpc::CodecKind::kEntropyLz}}) {
    lakeformat::ParquetOptions options;
    options.codec = codec;
    FormatResult r = MeasureParquetLike(corpus, options);
    print(label, r);
    Reporter::Get().ReportFormatResult(std::string(tag) + "." + metric, r);
  }
  for (auto [label, metric, codec] :
       {std::tuple{"ORC", "orc", gpc::CodecKind::kNone},
        std::tuple{"ORC+Snappy-class", "orc_snappy", gpc::CodecKind::kLz77},
        std::tuple{"ORC+Zstd-class", "orc_zstd", gpc::CodecKind::kEntropyLz}}) {
    lakeformat::OrcOptions options;
    options.codec = codec;
    FormatResult r = MeasureOrcLike(corpus, options);
    print(label, r);
    Reporter::Get().ReportFormatResult(std::string(tag) + "." + metric, r);
  }
}

}  // namespace
}  // namespace btr::bench

int main() {
  using namespace btr::bench;
  InitBench("fig8_decompression");
  PrintHeader(
      "Figure 8: ratio vs in-memory decompression bandwidth (single thread)");
  RunCorpus("Public BI (synthetic archetypes)", "pbi", PbiCorpus());
  RunCorpus("TPC-H (synthetic dbgen-like)", "tpch", TpchCorpus());
  return 0;
}
