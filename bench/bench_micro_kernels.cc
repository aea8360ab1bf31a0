// google-benchmark microbenchmarks for the Section 5 decompression
// kernels: vectorized vs scalar RLE expansion, dictionary gather, fused
// RLE+Dict, Pseudodecimal decode, FSST block decode, and Unpack128.
// These back the per-kernel speedup claims; run with --benchmark_filter=
// to narrow.
#include <benchmark/benchmark.h>

#include <vector>

#include "bitpack/bitpack.h"
#include "btr/btrblocks.h"
#include "btr/schemes/double_schemes.h"
#include "common.h"
#include "datagen/archetypes.h"
#include "fsst/fsst.h"
#include "util/random.h"
#include "util/simd.h"

namespace btr {
namespace {

constexpr u32 kRows = 64000;

void BM_RleDecodeInts(benchmark::State& state) {
  std::vector<i32> data =
      datagen::MakeInts(datagen::IntArchetype::kForeignKeyRuns, kRows, 1);
  CompressionConfig config;
  config.int_schemes = (1u << static_cast<u32>(IntSchemeCode::kUncompressed)) |
                       (1u << static_cast<u32>(IntSchemeCode::kRle)) |
                       (1u << static_cast<u32>(IntSchemeCode::kBp128));
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  CompressValues(data.data(), kRows, &compressed, ctx);
  std::vector<i32> out(kRows + kDecodeSlack);
  ScopedSimd simd(state.range(0) != 0);
  for (auto _ : state) {
    DecompressInts(compressed.data(), kRows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kRows * sizeof(i32));
}
BENCHMARK(BM_RleDecodeInts)->Arg(0)->Arg(1)->ArgName("simd");

void BM_DictGatherInts(benchmark::State& state) {
  std::vector<i32> data =
      datagen::MakeInts(datagen::IntArchetype::kSevenDigitCodes, kRows, 2);
  CompressionConfig config;
  config.int_schemes = (1u << static_cast<u32>(IntSchemeCode::kUncompressed)) |
                       (1u << static_cast<u32>(IntSchemeCode::kDict)) |
                       (1u << static_cast<u32>(IntSchemeCode::kBp128));
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  CompressValues(data.data(), kRows, &compressed, ctx);
  std::vector<i32> out(kRows + kDecodeSlack);
  ScopedSimd simd(state.range(0) != 0);
  for (auto _ : state) {
    DecompressInts(compressed.data(), kRows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kRows * sizeof(i32));
}
BENCHMARK(BM_DictGatherInts)->Arg(0)->Arg(1)->ArgName("simd");

void BM_Unpack128(benchmark::State& state) {
  u32 bits = static_cast<u32>(state.range(1));
  Random rng(bits);
  std::vector<u32> values(bitpack::kBlockSize);
  for (u32& v : values) {
    v = static_cast<u32>(rng.Next()) &
        (bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1));
  }
  std::vector<u8> packed(bitpack::Packed128Bytes(32) + 32, 0);
  bitpack::Pack128(values.data(), bits, packed.data());
  std::vector<u32> out(bitpack::kBlockSize + 16);
  ScopedSimd simd(state.range(0) != 0);
  for (auto _ : state) {
    bitpack::Unpack128(packed.data(), bits, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * bitpack::kBlockSize * 4);
}
BENCHMARK(BM_Unpack128)
    ->Args({0, 7})
    ->Args({1, 7})
    ->Args({0, 13})
    ->Args({1, 13})
    ->ArgNames({"simd", "bits"});

void BM_PseudodecimalDecode(benchmark::State& state) {
  std::vector<double> data =
      datagen::MakeDoubles(datagen::DoubleArchetype::kPrice2Decimals, kRows, 3);
  CompressionConfig config;
  CompressionContext ctx{&config, config.max_cascade_depth};
  const DoubleScheme& pde = GetScheme(DoubleSchemeCode::kPseudodecimal);
  ByteBuffer compressed;
  pde.Compress(data.data(), kRows, &compressed, ctx);
  std::vector<double> out(kRows + kDecodeSlack);
  ScopedSimd simd(state.range(0) != 0);
  for (auto _ : state) {
    pde.Decompress(compressed.data(), kRows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kRows * sizeof(double));
}
BENCHMARK(BM_PseudodecimalDecode)->Arg(0)->Arg(1)->ArgName("simd");

void BM_FsstBlockDecode(benchmark::State& state) {
  Random rng(4);
  std::string text;
  for (int i = 0; i < 20000; i++) {
    text += "https://public.tableau.com/workbooks/";
    text += std::to_string(rng.NextBounded(99999));
  }
  fsst::SymbolTable table = fsst::SymbolTable::Build(
      reinterpret_cast<const u8*>(text.data()), text.size());
  ByteBuffer compressed;
  fsst::CompressBlock(table, reinterpret_cast<const u8*>(text.data()),
                      text.size(), &compressed);
  std::vector<u8> out(text.size() + 16);
  for (auto _ : state) {
    table.Decompress(compressed.data(), compressed.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_FsstBlockDecode);

void BM_FusedRleDictStrings(benchmark::State& state) {
  Relation r("t");
  Column& c = r.AddColumn("s", ColumnType::kString);
  datagen::FillString(&c, datagen::StringArchetype::kCategoryRuns, kRows, 5);
  CompressionConfig config;
  config.fused_rle_dict = state.range(0) != 0;
  std::vector<u32> scratch;
  StringsView view = c.StringBlock(0, kRows, &scratch);
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  CompressValues(view, &compressed, ctx);
  for (auto _ : state) {
    DecodedStrings decoded;
    DecompressStrings(compressed.data(), kRows, &decoded, config);
    benchmark::DoNotOptimize(decoded.slots.data());
  }
  state.SetBytesProcessed(state.iterations() * view.TotalBytes());
}
BENCHMARK(BM_FusedRleDictStrings)->Arg(0)->Arg(1)->ArgName("fused");

// Prints the normal console table AND captures every run into the shared
// bench reporter, so this binary emits the same BENCH_<name>.json sidecar
// as the harness benches (one throughput metric per kernel variant).
class SidecarReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string metric = run.benchmark_name();
      for (char& c : metric) {
        if (c == '/' || c == ':' || c == '=') c = '.';
      }
      auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) {
        bench::Report(metric + ".gbps", it->second.value / 1e9, "GB/s",
                      bench::MetricKind::kThroughput,
                      static_cast<u64>(run.iterations));
      } else {
        bench::Report(metric + ".real_time_ns", run.GetAdjustedRealTime(),
                      "ns", bench::MetricKind::kTime,
                      static_cast<u64>(run.iterations));
      }
    }
  }
};

}  // namespace
}  // namespace btr

// Hand-rolled BENCHMARK_MAIN() so the capturing reporter sees every run.
int main(int argc, char** argv) {
  btr::bench::InitBench("micro_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  btr::SidecarReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
