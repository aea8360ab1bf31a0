// Reproduces Table 3 (Pseudodecimal Encoding vs FPC / Gorilla / Chimp /
// Chimp128 on large double columns) and the Section 6.5 inline table
// (BP vs Dict vs RLE vs PDE, each followed by a fixed FastBP128 cascade).
//
// The twelve Public BI columns are substituted by archetype columns that
// replicate the families the paper names (pricing data, coordinates,
// zero-dominated telco counters, high-precision values).
#include <cstdio>
#include <vector>

#include "bitpack/bitpack.h"
#include "btr/schemes/double_schemes.h"
#include "common.h"
#include "datagen/archetypes.h"
#include "floatcomp/chimp.h"
#include "floatcomp/fpc.h"
#include "floatcomp/gorilla.h"

namespace btr::bench {
namespace {

constexpr u32 kRows = 64000;

struct NamedColumn {
  const char* name;
  std::vector<double> values;
};

std::vector<NamedColumn> MakeColumns() {
  using datagen::DoubleArchetype;
  using datagen::MakeDoubles;
  return {
      {"CommonGov./10 (mixed)", MakeDoubles(DoubleArchetype::kMixedWithNulls, kRows, 10)},
      {"CommonGov./26 (runs)", MakeDoubles(DoubleArchetype::kPriceRuns, kRows, 26)},
      {"CommonGov./30 (price)", MakeDoubles(DoubleArchetype::kPrice2Decimals, kRows, 30)},
      {"CommonGov./31 (price)", MakeDoubles(DoubleArchetype::kPrice2Decimals, kRows, 31)},
      {"CommonGov./40 (zero-dom)", MakeDoubles(DoubleArchetype::kZeroDominant, kRows, 40)},
      {"Arade/4 (mixed)", MakeDoubles(DoubleArchetype::kMixedWithNulls, kRows, 4)},
      {"NYC/29 (coordinates)", MakeDoubles(DoubleArchetype::kCoordinates, kRows, 29)},
      {"CMSProvider/1 (freq)", MakeDoubles(DoubleArchetype::kFrequencyTail, kRows, 1)},
      {"CMSProvider/9 (price)", MakeDoubles(DoubleArchetype::kPrice2Decimals, kRows, 9)},
      {"CMSProvider/25 (coords)", MakeDoubles(DoubleArchetype::kCoordinates, kRows, 25)},
      {"Medicare/1 (freq)", MakeDoubles(DoubleArchetype::kFrequencyTail, kRows, 101)},
      {"Medicare/9 (price)", MakeDoubles(DoubleArchetype::kPrice2Decimals, kRows, 109)},
  };
}

double Ratio(u64 compressed_bytes) {
  return static_cast<double>(kRows) * sizeof(double) / compressed_bytes;
}

// PDE with the paper's fixed two-level cascade: encode (digits, exponents)
// and always compress both integer vectors with FastBP128.
u64 PdeFixedCascadeBytes(const std::vector<double>& values) {
  std::vector<i32> digits(values.size());
  std::vector<i32> exps(values.size());
  std::vector<double> patches;
  for (size_t i = 0; i < values.size(); i++) {
    auto d = pseudodecimal::EncodeSingle(values[i]);
    digits[i] = d.digits;
    exps[i] = static_cast<i32>(d.exp);
    if (d.exp == pseudodecimal::kExponentException) patches.push_back(d.patch);
  }
  ByteBuffer out;
  bitpack::Bp128Compress(digits.data(), static_cast<u32>(digits.size()), &out);
  bitpack::Bp128Compress(exps.data(), static_cast<u32>(exps.size()), &out);
  return out.size() + patches.size() * sizeof(double);
}

// A double scheme with all integer cascades fixed to FastBP128.
u64 SchemeFixedCascadeBytes(DoubleSchemeCode code,
                            const std::vector<double>& values) {
  CompressionConfig config;
  config.double_schemes = (1u << static_cast<u32>(DoubleSchemeCode::kUncompressed)) |
                          (1u << static_cast<u32>(code));
  config.int_schemes = (1u << static_cast<u32>(IntSchemeCode::kUncompressed)) |
                       (1u << static_cast<u32>(IntSchemeCode::kBp128));
  CompressionContext ctx{&config, config.max_cascade_depth};
  const DoubleScheme& scheme = GetScheme(code);
  ByteBuffer out;
  return scheme.Compress(values.data(), static_cast<u32>(values.size()), &out,
                         ctx);
}

// Plain FastBP128 over the raw IEEE 754 words (the paper's sanity check
// that bit-packing is ineffective on doubles).
u64 RawBitpackBytes(const std::vector<double>& values) {
  ByteBuffer out;
  bitpack::Bp128Compress(reinterpret_cast<const i32*>(values.data()),
                         static_cast<u32>(values.size() * 2), &out);
  return out.size();
}

void Run() {
  std::vector<NamedColumn> columns = MakeColumns();

  std::printf("\n-- Table 3: PDE vs dedicated double compressors --\n");
  std::printf("%-26s  %7s %8s %7s %9s %7s\n", "column", "FPC", "Gorilla",
              "Chimp", "Chimp128", "PDE");
  u64 pde_total = 0, chimp128_total = 0;
  for (const NamedColumn& column : columns) {
    ByteBuffer fpc, gorilla, chimp, chimp128;
    floatcomp::FpcCompress(column.values.data(), kRows, &fpc);
    floatcomp::GorillaCompress(column.values.data(), kRows, &gorilla);
    floatcomp::ChimpCompress(column.values.data(), kRows, &chimp);
    floatcomp::Chimp128Compress(column.values.data(), kRows, &chimp128);
    pde_total += PdeFixedCascadeBytes(column.values);
    chimp128_total += chimp128.size();
    std::printf("%-26s  %6.2f %8.2f %7.2f %9.2f %7.2f\n", column.name,
                Ratio(fpc.size()), Ratio(gorilla.size()), Ratio(chimp.size()),
                Ratio(chimp128.size()), Ratio(PdeFixedCascadeBytes(column.values)));
  }
  double raw_bytes =
      static_cast<double>(columns.size()) * kRows * sizeof(double);
  Report("pde.aggregate_ratio", raw_bytes / pde_total, "x",
         MetricKind::kRatio);
  Report("chimp128.aggregate_ratio", raw_bytes / chimp128_total, "x",
         MetricKind::kRatio);

  std::printf(
      "\n-- Section 6.5: general schemes vs PDE (each -> FastBP128) --\n");
  std::printf("%-26s  %7s %7s %7s %7s\n", "column", "BP", "Dict", "RLE", "PDE");
  for (const NamedColumn& column : columns) {
    std::printf("%-26s  %6.2f %6.2f %6.2f %6.2f\n", column.name,
                Ratio(RawBitpackBytes(column.values)),
                Ratio(SchemeFixedCascadeBytes(DoubleSchemeCode::kDict,
                                              column.values)),
                Ratio(SchemeFixedCascadeBytes(DoubleSchemeCode::kRle,
                                              column.values)),
                Ratio(PdeFixedCascadeBytes(column.values)));
  }
}

}  // namespace
}  // namespace btr::bench

int main() {
  btr::bench::InitBench("table3_doubles");
  btr::bench::PrintHeader(
      "Table 3 + Section 6.5: Pseudodecimal Encoding vs other schemes");
  btr::bench::Run();
  return 0;
}
