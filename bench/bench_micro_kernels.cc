// google-benchmark microbenchmarks for the Section 5 decompression
// kernels: vectorized vs scalar RLE expansion, dictionary gather, fused
// RLE+Dict, Pseudodecimal decode, FSST block decode, and Unpack128; and
// for the compression kernels every cascade level runs: block statistics,
// FSST table builds and FSST encoding. These back the per-kernel speedup
// claims; run with --benchmark_filter= to narrow.
#include <benchmark/benchmark.h>

#include <vector>

#include "bitpack/bitpack.h"
#include "btr/btrblocks.h"
#include "btr/schemes/double_schemes.h"
#include "btr/stats.h"
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

// 20,000 URL-like strings with a common prefix, concatenated.
std::string UrlText() {
  Random rng(4);
  std::string text;
  for (int i = 0; i < 20000; i++) {
    text += "https://public.tableau.com/workbooks/";
    text += std::to_string(rng.NextBounded(99999));
  }
  return text;
}

void BM_FsstBlockDecode(benchmark::State& state) {
  std::string text = UrlText();
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

void BM_FsstEncode(benchmark::State& state) {
  std::string text = UrlText();
  const u8* in = reinterpret_cast<const u8*>(text.data());
  fsst::SymbolTable table = fsst::SymbolTable::Build(in, text.size());
  std::vector<u8> out(2 * text.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Compress(in, text.size(), out.data()));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_FsstEncode);

// Table builds on a sample of `sample_bytes` lakebench-shaped street
// addresses: 2 KB is an estimation build, 16 KB a block's (the cap).
void BM_FsstBuild(benchmark::State& state) {
  Relation r("t");
  Column& c = r.AddColumn("s", ColumnType::kString);
  datagen::FillString(&c, datagen::StringArchetype::kStreetAddresses, 4000, 6);
  std::vector<u32> scratch;
  StringsView view = c.StringBlock(0, c.size(), &scratch);
  const size_t sample_bytes = static_cast<size_t>(state.range(0));
  BTR_CHECK(view.TotalBytes() >= sample_bytes);
  for (auto _ : state) {
    fsst::SymbolTable table = fsst::SymbolTable::Build(view.data, sample_bytes);
    benchmark::DoNotOptimize(table.symbol_count());
  }
  state.SetBytesProcessed(state.iterations() * sample_bytes);
}
BENCHMARK(BM_FsstBuild)->Arg(2048)->Arg(16384)->ArgName("bytes");

// Block statistics over one 32,000-value ingest block: lakebench's column
// shapes, plus doubles in 0.25 steps.
constexpr u32 kStatsRows = 32000;

template <typename T>
void ComputeStatsLoop(benchmark::State& state, const std::vector<T>& data) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeStats(data.data(), static_cast<u32>(data.size())));
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(T));
}

void BM_ComputeStatsInt(benchmark::State& state, datagen::IntArchetype shape) {
  ComputeStatsLoop(state, datagen::MakeInts(shape, kStatsRows, 7));
}
BENCHMARK_CAPTURE(BM_ComputeStatsInt, sequential,
                  datagen::IntArchetype::kSequential);
BENCHMARK_CAPTURE(BM_ComputeStatsInt, fk_runs,
                  datagen::IntArchetype::kForeignKeyRuns);
BENCHMARK_CAPTURE(BM_ComputeStatsInt, skewed_category,
                  datagen::IntArchetype::kSkewedCategory);

void BM_ComputeStatsDouble(benchmark::State& state,
                           datagen::DoubleArchetype shape) {
  ComputeStatsLoop(state, datagen::MakeDoubles(shape, kStatsRows, 8));
}
BENCHMARK_CAPTURE(BM_ComputeStatsDouble, price_2dec,
                  datagen::DoubleArchetype::kPrice2Decimals);
BENCHMARK_CAPTURE(BM_ComputeStatsDouble, price_runs,
                  datagen::DoubleArchetype::kPriceRuns);
BENCHMARK_CAPTURE(BM_ComputeStatsDouble, mixed_nulls,
                  datagen::DoubleArchetype::kMixedWithNulls);

void BM_ComputeStatsQuarterSteps(benchmark::State& state) {
  Random rng(9);
  std::vector<double> data(kStatsRows);
  for (double& v : data) v = 0.25 * static_cast<double>(rng.NextBounded(40000));
  ComputeStatsLoop(state, data);
}
BENCHMARK(BM_ComputeStatsQuarterSteps);

void BM_ComputeStatsString(benchmark::State& state,
                           datagen::StringArchetype shape) {
  Relation r("t");
  Column& c = r.AddColumn("s", ColumnType::kString);
  datagen::FillString(&c, shape, kStatsRows, 10);
  std::vector<u32> scratch;
  StringsView view = c.StringBlock(0, kStatsRows, &scratch);
  for (auto _ : state) benchmark::DoNotOptimize(ComputeStats(view));
  state.SetBytesProcessed(state.iterations() * view.TotalBytes());
}
BENCHMARK_CAPTURE(BM_ComputeStatsString, street_addresses,
                  datagen::StringArchetype::kStreetAddresses);
BENCHMARK_CAPTURE(BM_ComputeStatsString, urls, datagen::StringArchetype::kUrls);
BENCHMARK_CAPTURE(BM_ComputeStatsString, low_cardinality,
                  datagen::StringArchetype::kLowCardinality);

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
