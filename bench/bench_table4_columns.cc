// Reproduces Table 4: per-column compression ratio and decompression
// throughput, BtrBlocks vs Parquet+Zstd-class, with the root scheme
// BtrBlocks chose for the first block. Columns are archetype stand-ins
// for the paper's random Public BI sample.
#include <cstdio>
#include <vector>

#include "common.h"
#include "datagen/archetypes.h"

namespace btr::bench {
namespace {

constexpr u32 kRows = 128000;

// Aggregated across every column for the sidecar headline metrics.
u64 g_btr_uncompressed = 0;
u64 g_btr_compressed = 0;
double g_btr_decompress_seconds = 0;

void RunColumn(const char* paper_name, const Relation& single) {
  CompressionConfig config;
  const Column& column = single.columns()[0];
  std::vector<Relation> corpus = SingleColumnRelation(column);
  FormatResult btr = MeasureBtr(corpus, config);
  g_btr_uncompressed += btr.uncompressed_bytes;
  g_btr_compressed += btr.compressed_bytes;
  g_btr_decompress_seconds += btr.decompress_seconds;
  lakeformat::ParquetOptions zstd_options;
  zstd_options.codec = gpc::CodecKind::kEntropyLz;
  FormatResult zstd = MeasureParquetLike(corpus, zstd_options);

  CompressedColumn compressed = CompressColumn(column, config);
  std::printf("%-34s %-7s %8.1f %8.1f %9.1f %9.1f  %s\n", paper_name,
              ColumnTypeName(column.type()), btr.DecompressGBps(),
              zstd.DecompressGBps(), btr.Ratio(), zstd.Ratio(),
              SchemeNameFor(column.type(), compressed.block_root_schemes[0]));
}

Relation OneString(const char* name, datagen::StringArchetype a, u64 seed) {
  Relation r(name);
  datagen::FillString(&r.AddColumn(name, ColumnType::kString), a, kRows, seed);
  return r;
}
Relation OneInt(const char* name, datagen::IntArchetype a, u64 seed) {
  Relation r(name);
  datagen::FillInt(&r.AddColumn(name, ColumnType::kInteger), a, kRows, seed);
  return r;
}
Relation OneDouble(const char* name, datagen::DoubleArchetype a, u64 seed) {
  Relation r(name);
  datagen::FillDouble(&r.AddColumn(name, ColumnType::kDouble), a, kRows, seed);
  return r;
}

void Run() {
  using datagen::DoubleArchetype;
  using datagen::IntArchetype;
  using datagen::StringArchetype;
  std::printf("%-34s %-7s %8s %8s %9s %9s  %s\n", "column (paper analogue)",
              "type", "BTR GB/s", "Zst GB/s", "BTR cr", "Zstd cr",
              "scheme (root)");

  RunColumn("SalariesFrance/LIBDOM1",
            OneString("c", StringArchetype::kNullHeavy, 1));
  RunColumn("Redfin2/property_type",
            OneString("c", StringArchetype::kLowCardinality, 2));
  RunColumn("Motos/Medio", OneString("c", StringArchetype::kOneValue, 3));
  RunColumn("NYC/Community Board",
            OneString("c", StringArchetype::kCityNames, 4));
  RunColumn("PanCreactomy1/N[...]STREET1",
            OneString("c", StringArchetype::kStreetAddresses, 5));
  RunColumn("Uberlandia/municipio_da_ue",
            OneString("c", StringArchetype::kCategoryRuns, 6));
  RunColumn("RealEstate1/New Build?", OneInt("c", IntArchetype::kAllZero, 7));
  RunColumn("Medicare1/TOTAL_DAY_SUPPLY",
            OneInt("c", IntArchetype::kSupplyAmounts, 8));
  RunColumn("Uberlandia/cod_ibge_da_ue",
            OneInt("c", IntArchetype::kSevenDigitCodes, 9));
  RunColumn("Telco/CHARGD_SMS_P3",
            OneDouble("c", DoubleArchetype::kZeroDominant, 10));
  RunColumn("Telco/RECHRG[...]USED_P1",
            OneDouble("c", DoubleArchetype::kFrequencyTail, 11));
  RunColumn("Telco/TOTAL_MINS_P1",
            OneDouble("c", DoubleArchetype::kPrice2Decimals, 12));
  RunColumn("Redfin4/median_sale_price_mom",
            OneDouble("c", DoubleArchetype::kMixedWithNulls, 13));

  Report("btrblocks.aggregate_ratio",
         static_cast<double>(g_btr_uncompressed) / g_btr_compressed, "x",
         MetricKind::kRatio);
  Report("btrblocks.aggregate_decompress_gbps",
         static_cast<double>(g_btr_uncompressed) / g_btr_decompress_seconds /
             1e9,
         "GB/s", MetricKind::kThroughput, kDecompressRepeats);
}

}  // namespace
}  // namespace btr::bench

int main() {
  btr::bench::InitBench("table4_columns");
  btr::bench::PrintHeader(
      "Table 4: per-column ratio & decompression speed, BtrBlocks vs "
      "Parquet+Zstd-class");
  btr::bench::Run();
  return 0;
}
