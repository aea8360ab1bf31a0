// Ablation (DESIGN.md / paper Section 7): equality predicates evaluated
// directly on compressed blocks by the PredicateExpr engine (CountMatches
// over EvaluateExpr) vs decompress-then-filter. The fast paths exploit the
// same scheme structure the paper says "can, in principle, support
// processing compressed data".
#include <cstdio>

#include "btr/predicate.h"
#include "common.h"
#include "datagen/archetypes.h"

namespace btr::bench {
namespace {

constexpr u32 kRows = 64000;
constexpr int kRepeats = 200;

// Times CountMatches(block, probe) against `reference`, a
// decompress-then-filter count of the same predicate.
template <typename RefFn>
void Measure(const char* name, const char* metric, const ByteBuffer& block,
             const PredicateExpr& probe, const CompressionConfig& config,
             const RefFn& reference) {
  u32 scan_result = 0;
  Timer scan_timer;
  for (int r = 0; r < kRepeats; r++) {
    scan_result = CountMatches(block.data(), probe, config);
  }
  double scan_seconds = scan_timer.ElapsedSeconds();
  u32 ref_result = 0;
  Timer ref_timer;
  for (int r = 0; r < kRepeats; r++) ref_result = reference();
  double ref_seconds = ref_timer.ElapsedSeconds();
  BTR_CHECK(scan_result == ref_result);
  std::printf("%-28s  %-5s  matches %6u  %9.1f M rows/s  %9.1f M rows/s  %6.1fx\n",
              name, HasFastPath(block.data(), probe) ? "yes" : "no", scan_result,
              kRows * kRepeats / scan_seconds / 1e6,
              kRows * kRepeats / ref_seconds / 1e6, ref_seconds / scan_seconds);
  Report(std::string(metric) + ".mrows_per_s",
         kRows * kRepeats / scan_seconds / 1e6, "M rows/s",
         MetricKind::kThroughput, kRepeats);
}

void Run() {
  CompressionConfig config;
  std::printf("%-28s  %-5s  %14s  %15s  %15s  %7s\n", "column", "fast",
              "", "compressed scan", "materialize", "speedup");

  {
    std::vector<i32> data =
        datagen::MakeInts(datagen::IntArchetype::kSkewedCategory, kRows, 1);
    ByteBuffer block;
    CompressIntBlock(data.data(), nullptr, kRows, &block, config);
    DecodedBlock scratch;
    Measure("int skewed (= dominant)", "int_skewed", block,
            Predicate::EqualsInt("c", 1), config,
            [&] {
              DecompressBlock(block.data(), &scratch, config);
              u32 m = 0;
              for (u32 i = 0; i < scratch.count; i++) m += scratch.ints[i] == 1;
              return m;
            });
  }
  {
    std::vector<i32> data =
        datagen::MakeInts(datagen::IntArchetype::kForeignKeyRuns, kRows, 2);
    ByteBuffer block;
    CompressIntBlock(data.data(), nullptr, kRows, &block, config);
    DecodedBlock scratch;
    i32 probe = data[kRows / 2];
    Measure("int fk runs (= key)", "int_fk_runs", block,
            Predicate::EqualsInt("c", probe), config,
            [&] {
              DecompressBlock(block.data(), &scratch, config);
              u32 m = 0;
              for (u32 i = 0; i < scratch.count; i++) {
                m += scratch.ints[i] == probe;
              }
              return m;
            });
  }
  {
    Relation r("t");
    Column& c = r.AddColumn("s", ColumnType::kString);
    datagen::FillString(&c, datagen::StringArchetype::kCityNames, kRows, 3);
    std::vector<u32> offsets;
    StringsView view = c.StringBlock(0, kRows, &offsets);
    ByteBuffer block;
    CompressStringBlock(view, nullptr, &block, config);
    DecodedBlock scratch;
    Measure("string cities (= PHOENIX)", "string_cities", block,
            Predicate::EqualsString("c", "PHOENIX"), config,
            [&] {
              DecompressBlock(block.data(), &scratch, config);
              u32 m = 0;
              for (u32 i = 0; i < scratch.count; i++) {
                m += scratch.strings.Get(i) == "PHOENIX";
              }
              return m;
            });
  }
  {
    std::vector<double> data =
        datagen::MakeDoubles(datagen::DoubleArchetype::kZeroDominant, kRows, 4);
    ByteBuffer block;
    CompressDoubleBlock(data.data(), nullptr, kRows, &block, config);
    DecodedBlock scratch;
    Measure("double zero-dom (= 0.0)", "double_zero_dom", block,
            Predicate::EqualsDouble("c", 0.0), config,
            [&] {
              DecompressBlock(block.data(), &scratch, config);
              u32 m = 0;
              for (u32 i = 0; i < scratch.count; i++) {
                m += scratch.doubles[i] == 0.0;
              }
              return m;
            });
  }
  {
    // Bit-packed sequential ints: the FastBP128 miniblock envelopes skip
    // every 128-value frame but the one that can hold the probe.
    std::vector<i32> data =
        datagen::MakeInts(datagen::IntArchetype::kSequential, kRows, 5);
    ByteBuffer block;
    CompressIntBlock(data.data(), nullptr, kRows, &block, config);
    DecodedBlock scratch;
    Measure("int sequential (bp128)", "int_sequential", block,
            Predicate::EqualsInt("c", 777), config,
            [&] {
              DecompressBlock(block.data(), &scratch, config);
              u32 m = 0;
              for (u32 i = 0; i < scratch.count; i++) m += scratch.ints[i] == 777;
              return m;
            });
  }
}

}  // namespace
}  // namespace btr::bench

int main() {
  btr::bench::InitBench("compressed_scan");
  btr::bench::PrintHeader(
      "Ablation: predicate evaluation on compressed blocks (paper Section 7)");
  btr::bench::Run();
  return 0;
}
