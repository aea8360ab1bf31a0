// btr::Scanner: the pipelined scan must be bit-identical to sequential
// decompress-then-filter across all three column types, honor zone-map
// pruning and compressed-form predicate pushdown, handle the short final
// block, and surface poisoned blocks as a Status instead of crashing.
#include "btr/scanner.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "btr/btrblocks.h"
#include "btr/predicate.h"
#include "write/manifest.h"

namespace btr {
namespace {

// 2 full blocks + a short final block. The int column is clustered per
// block (block b holds values in [b*1000, b*1000+999]) so zone maps can
// prune point queries; strings repeat a small dictionary; every column
// gets some NULLs.
constexpr u32 kRows = 2 * kBlockCapacity + 22000;

Relation MakeTable() {
  Relation table("scan_table");
  Column& ints = table.AddColumn("id", ColumnType::kInteger);
  Column& doubles = table.AddColumn("price", ColumnType::kDouble);
  Column& strings = table.AddColumn("city", ColumnType::kString);
  const char* cities[4] = {"berlin", "munich", "bonn", "hamburg"};
  for (u32 i = 0; i < kRows; i++) {
    u32 block = i / kBlockCapacity;
    if (i % 97 == 13) {
      ints.AppendNull();
    } else {
      ints.AppendInt(static_cast<i32>(block * 1000 + i % 1000));
    }
    if (i % 101 == 7) {
      doubles.AppendNull();
    } else {
      doubles.AppendDouble(static_cast<double>(i % 4096) * 0.25);
    }
    if (i % 89 == 3) {
      strings.AppendNull();
    } else {
      strings.AppendString(cities[i % 4]);
    }
  }
  return table;
}

struct Fixture {
  CompressionConfig config;
  Relation table = MakeTable();
  CompressedRelation compressed;
  TableZoneMap zones;
  s3sim::ObjectStore store;

  Fixture() {
    compressed = CompressRelation(table, config);
    for (const Column& column : table.columns()) {
      zones.columns.push_back(ComputeColumnZoneMap(column));
    }
    Status status =
        UploadCompressedRelation(compressed, &zones, "lake/", &store);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
};

ScanSpec PipelinedSpec() {
  ScanSpec spec;
  spec.config.scan_threads = 4;
  spec.config.fetch_threads = 3;
  spec.config.prefetch_depth = 4;
  return spec;
}

void ExpectBlocksBitIdentical(const DecodedBlock& expected,
                              const DecodedBlock& actual) {
  ASSERT_EQ(expected.type, actual.type);
  ASSERT_EQ(expected.count, actual.count);
  EXPECT_EQ(expected.null_flags, actual.null_flags);
  switch (expected.type) {
    case ColumnType::kInteger:
      EXPECT_EQ(expected.ints, actual.ints);
      break;
    case ColumnType::kDouble:
      ASSERT_EQ(expected.doubles.size(), actual.doubles.size());
      // memcmp: bit-identical, including any NaN payloads.
      EXPECT_EQ(0, std::memcmp(expected.doubles.data(), actual.doubles.data(),
                               expected.doubles.size() * sizeof(double)));
      break;
    case ColumnType::kString:
      ASSERT_EQ(expected.strings.slots.size(), actual.strings.slots.size());
      for (u32 i = 0; i < expected.count; i++) {
        EXPECT_EQ(expected.strings.Get(i), actual.strings.Get(i)) << "row " << i;
      }
      break;
  }
}

TEST(ScannerTest, FullScanBitIdenticalToSequential) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanOutput output;
  Status status = scanner.Scan(PipelinedSpec(), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();

  ASSERT_EQ(output.columns.size(), 3u);
  u32 block_count = static_cast<u32>(f.compressed.columns[0].blocks.size());
  ASSERT_EQ(block_count, 3u);  // 2 full + 1 short
  EXPECT_EQ(output.stats.row_blocks, block_count);
  EXPECT_EQ(output.stats.blocks_decoded, block_count);
  EXPECT_EQ(output.stats.blocks_pruned, 0u);
  EXPECT_EQ(output.stats.rows_matched, kRows);

  // Sequential reference: decompress every block of every column directly.
  for (size_t c = 0; c < f.compressed.columns.size(); c++) {
    const CompressedColumn& column = f.compressed.columns[c];
    ASSERT_EQ(output.columns[c].blocks.size(), column.blocks.size());
    DecodedBlock reference;
    for (size_t b = 0; b < column.blocks.size(); b++) {
      DecompressBlock(column.blocks[b].data(), &reference, f.config);
      ExpectBlocksBitIdentical(reference, output.columns[c].blocks[b]);
    }
  }
  // Short final block.
  EXPECT_EQ(output.columns[0].blocks.back().count, kRows % kBlockCapacity);
}

TEST(ScannerTest, PredicateScanPrunesAndMatchesSequentialFilter) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ASSERT_TRUE(scanner.has_zone_map());

  // Only block 1 holds ids in [1000, 1999]; blocks 0 and 2 must be pruned
  // by zone maps, never fetched.
  const i32 probe = 1500;
  ScanSpec spec = PipelinedSpec();
  spec.columns = {"id", "price"};
  spec.filter = Predicate::EqualsInt("id", probe);

  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(output.stats.blocks_pruned, 2u);
  EXPECT_EQ(output.stats.blocks_decoded, 1u);
  EXPECT_EQ(output.block_outcomes[0], BlockOutcome::kPruned);
  EXPECT_EQ(output.block_outcomes[1], BlockOutcome::kDecoded);
  EXPECT_EQ(output.block_outcomes[2], BlockOutcome::kPruned);

  // Selection must equal the compressed-scan kernel run sequentially.
  RoaringBitmap expected =
      SelectMatches(f.compressed.columns[0].blocks[1].data(),
                    Predicate::EqualsInt("c", probe), f.config);
  EXPECT_EQ(expected.ToVector(), output.block_selections[1].ToVector());
  EXPECT_EQ(output.stats.rows_matched, expected.Cardinality());
  ASSERT_GT(output.stats.rows_matched, 0u);

  // Decoded values of the surviving block are bit-identical to sequential.
  DecodedBlock reference;
  for (size_t c = 0; c < 2; c++) {
    DecompressBlock(f.compressed.columns[c].blocks[1].data(), &reference,
                    f.config);
    ExpectBlocksBitIdentical(reference, output.columns[c].blocks[1]);
  }
  // Pruned blocks stay empty.
  EXPECT_EQ(output.columns[0].blocks[0].count, 0u);
  EXPECT_EQ(output.columns[1].blocks[2].count, 0u);
}

TEST(ScannerTest, PredicateOnNonProjectedColumnFiltersProjection) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = PipelinedSpec();
  spec.columns = {"price"};  // predicate column not projected
  spec.filter = Predicate::EqualsString("city", "bonn");

  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(output.columns.size(), 1u);
  EXPECT_EQ(output.columns[0].name, "price");

  u64 expected_matches = 0;
  for (size_t b = 0; b < f.compressed.columns[2].blocks.size(); b++) {
    RoaringBitmap sel =
        SelectMatches(f.compressed.columns[2].blocks[b].data(),
                      Predicate::EqualsString("c", "bonn"), f.config);
    if (output.block_outcomes[b] == BlockOutcome::kDecoded) {
      EXPECT_EQ(sel.ToVector(), output.block_selections[b].ToVector());
    } else {
      EXPECT_TRUE(sel.Empty());
    }
    expected_matches += sel.Cardinality();
  }
  EXPECT_EQ(output.stats.rows_matched, expected_matches);
  ASSERT_GT(expected_matches, 0u);
}

TEST(ScannerTest, EmptySelectionSkipsDecompression) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  // 431 is inside every block's int zone range [b*1000, b*1000+999] only
  // for block 0; for blocks 1/2 zones prune. Instead probe a value inside
  // block 0's range that never occurs: ids hit every value in [0, 999]
  // except... they don't skip any, so use the double column: 0.125 lies
  // within [0, 1023.75] but i%4096*0.25 only produces multiples of 0.25.
  ScanSpec spec = PipelinedSpec();
  spec.columns = {"id"};
  spec.filter = Predicate::EqualsDouble("price", 0.125);

  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.stats.rows_matched, 0u);
  EXPECT_EQ(output.stats.blocks_decoded, 0u);
  // Every non-pruned block must be skipped by the compressed-form
  // predicate evaluation, not decompressed.
  EXPECT_EQ(output.stats.blocks_skipped + output.stats.blocks_pruned,
            output.stats.row_blocks);
}

TEST(ScannerTest, PoisonedBlockSurfacesStatusNotCrash) {
  Fixture f;
  // Corrupt the type byte of block 1 of the "id" column object. The
  // upload committed through the versioned write path, so resolve the
  // physical ".v<N>" name the way Scanner::Open does.
  std::string resolved;
  ASSERT_TRUE(write::ResolveCommittedName(&f.store, "lake/", "scan_table",
                                          &resolved)
                  .ok());
  std::string key = ColumnFileKey("lake/", resolved, 0);
  std::vector<u8> object;
  ASSERT_TRUE(f.store.GetObject(key, &object).ok());
  const CompressedColumn& column = f.compressed.columns[0];
  u64 offset = ColumnFileHeaderBytes(column.blocks.size());
  offset += column.blocks[0].size();  // start of block 1
  object[offset] = 0x7F;              // invalid column type byte
  ASSERT_TRUE(f.store.Put(key, object.data(), object.size()).ok());

  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ScanOutput output;
  Status status = scanner.Scan(PipelinedSpec(), &output);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
}

TEST(ScannerTest, SpecErrorsAreStatuses) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec unknown = PipelinedSpec();
  unknown.columns = {"nope"};
  ScanOutput output;
  EXPECT_EQ(scanner.Scan(unknown, &output).code(), Status::Code::kNotFound);

  // Integer literals against double columns are coerced, not rejected.
  ScanSpec coerced = PipelinedSpec();
  coerced.filter = Predicate::EqualsInt("price", 3);
  EXPECT_TRUE(scanner.Scan(coerced, &output).ok());

  ScanSpec mismatch = PipelinedSpec();
  mismatch.filter = Predicate::EqualsString("id", "nope");
  EXPECT_EQ(scanner.Scan(mismatch, &output).code(),
            Status::Code::kInvalidArgument);

  Scanner unopened(&f.store, "scan_table", "lake/");
  EXPECT_EQ(unopened.Scan(PipelinedSpec(), &output).code(),
            Status::Code::kInvalidArgument);

  Scanner missing(&f.store, "no_such_table", "lake/");
  EXPECT_EQ(missing.Open().code(), Status::Code::kNotFound);
}

TEST(ScannerTest, StreamingChunksArriveInOrder) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = PipelinedSpec();
  spec.columns = {"id", "city"};
  std::vector<std::pair<u32, u32>> order;  // (block, column)
  ScanStats stats;
  Status status = scanner.Scan(
      spec,
      [&](ColumnChunk&& chunk) { order.emplace_back(chunk.block, chunk.column); },
      &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(order.size(), 3u * 2u);
  for (size_t i = 1; i < order.size(); i++) {
    EXPECT_LT(order[i - 1], order[i]);
  }
  EXPECT_GT(stats.bytes_fetched, 0u);
  EXPECT_GT(stats.requests, 0u);
}

// Regression: ColumnChunk::row_begin used to be computed as
// u32 * kBlockCapacity, which wraps past 2^32 rows (block ≈ 67k). The
// field is u64 now and BlockRowBegin widens before multiplying.
TEST(ScannerTest, RowBeginIs64BitAndDoesNotWrap) {
  static_assert(std::is_same_v<decltype(ColumnChunk::row_begin), u64>,
                "row_begin must hold u64 row positions");

  EXPECT_EQ(BlockRowBegin(0), 0u);
  EXPECT_EQ(BlockRowBegin(1), static_cast<u64>(kBlockCapacity));
  // Block counts past 2^32 / kBlockCapacity ≈ 67109: the product no longer
  // fits in 32 bits. The u32 arithmetic would have produced the wrapped
  // value on the right.
  EXPECT_EQ(BlockRowBegin(70000), 70000ull * kBlockCapacity);
  EXPECT_GT(BlockRowBegin(70000), u64{1} << 32);
  EXPECT_NE(BlockRowBegin(70000),
            static_cast<u64>(static_cast<u32>(70000u * kBlockCapacity)));
  // The largest representable block index must not overflow u64.
  EXPECT_EQ(BlockRowBegin(0xFFFFFFFFu) / kBlockCapacity, 0xFFFFFFFFull);
}

// The emitted chunks carry BlockRowBegin-consistent row positions for
// every outcome (decoded here; pruned/skipped share the same code path).
TEST(ScannerTest, EmittedRowBeginMatchesBlockTimesCapacity) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  u32 chunks = 0;
  Status status = scanner.Scan(
      PipelinedSpec(),
      [&](ColumnChunk&& chunk) {
        EXPECT_EQ(chunk.row_begin, BlockRowBegin(chunk.block));
        EXPECT_EQ(chunk.row_begin,
                  static_cast<u64>(chunk.block) * kBlockCapacity);
        chunks++;
      },
      nullptr);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(chunks, 3u * 3u);  // 3 blocks x 3 columns
}

// Per-scan GET and byte counts are the scan's own, not deltas of the
// shared store's counters: four standalone Scanners scanning one store
// at once must each report exactly their own fetch plan — one run GET
// per column (all 3 row blocks fit one run), plus the 3 column headers on
// a Scanner's first scan.
TEST(ScannerTest, ConcurrentScannersCountOnlyTheirOwnTraffic) {
  Fixture f;
  u64 plan_requests = 0;
  u64 plan_bytes = 0;
  u64 header_requests = 0;
  u64 header_bytes = 0;
  for (const CompressedColumn& column : f.compressed.columns) {
    plan_requests++;
    header_requests++;
    header_bytes += ColumnFileHeaderBytes(column.blocks.size());
    for (const ByteBuffer& block : column.blocks) plan_bytes += block.size();
  }
  constexpr int kScanners = 4;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::atomic<int> miscounts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kScanners; t++) {
    threads.emplace_back([&] {
      Scanner scanner(&f.store, "scan_table", "lake/");
      if (!scanner.Open().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; round++) {
        ScanStats stats;
        Status status = scanner.Scan(
            PipelinedSpec(), [](ColumnChunk&&) {}, &stats);
        if (!status.ok()) {
          failures.fetch_add(1);
          return;
        }
        const bool first = round == 0;
        if (stats.requests != plan_requests + (first ? header_requests : 0) ||
            stats.bytes_fetched != plan_bytes + (first ? header_bytes : 0)) {
          miscounts.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(miscounts.load(), 0)
      << "scans counted GETs or bytes of their neighbours";
}

// A run is a GET of adjacent needed blocks of one column that the cache
// does not hold: a zone-pruned block and a cache hit each split it. Both
// scans return the sequential decode bit for bit with an exact GET count.
TEST(ScannerTest, PrunedBlocksAndCacheHitsSplitRuns) {
  Fixture f;
  auto expect_block = [&](const ScanOutput& output, u32 b) {
    DecodedBlock reference;
    for (size_t c = 0; c < output.columns.size(); c++) {
      DecompressBlock(f.compressed.columns[c].blocks[b].data(), &reference,
                      f.config);
      ExpectBlocksBitIdentical(reference, output.columns[c].blocks[b]);
    }
  };
  u64 header_bytes = 0;
  for (size_t c = 0; c < 2; c++) {
    header_bytes +=
        ColumnFileHeaderBytes(f.compressed.columns[c].blocks.size());
  }

  // Zone maps prune block 1 (ids 1000..1999), so blocks 0 and 2 are two
  // runs per column: 2 headers + 4 runs.
  {
    Scanner scanner(&f.store, "scan_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    ScanSpec spec = PipelinedSpec();
    spec.columns = {"id", "price"};
    spec.filter = PredicateExpr::Or(Predicate::BetweenInt("id", 0, 999),
                                    Predicate::BetweenInt("id", 2000, 2999));
    ScanOutput output;
    Status status = scanner.Scan(spec, &output);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(output.block_outcomes[1], BlockOutcome::kPruned);
    EXPECT_EQ(output.stats.requests, 6u);
    u64 block_bytes = 0;
    for (size_t c = 0; c < 2; c++) {
      for (u32 b : {0u, 2u}) {
        block_bytes += f.compressed.columns[c].blocks[b].size();
      }
    }
    EXPECT_EQ(output.stats.bytes_fetched, header_bytes + block_bytes);
    expect_block(output, 0);
    expect_block(output, 2);
  }

  // A partly warm cache: block 1 of both columns is cached, so the full
  // scan GETs blocks 0 and 2 as two runs per column.
  {
    Scanner scanner(&f.store, "scan_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    ScanSpec warm = PipelinedSpec();
    warm.config.enable_block_cache = true;
    warm.columns = {"id", "price"};
    warm.filter = Predicate::BetweenInt("id", 1000, 1999);
    ScanOutput output;
    ASSERT_TRUE(scanner.Scan(warm, &output).ok());
    EXPECT_EQ(output.stats.requests, 4u) << "2 headers + block 1 of each";

    ScanSpec full = warm;
    full.filter = PredicateExpr();
    Status status = scanner.Scan(full, &output);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(output.stats.requests, 4u);
    EXPECT_EQ(output.stats.cache_hits, 2u);
    EXPECT_EQ(output.stats.cache_misses, 4u);
    for (u32 b = 0; b < 3; b++) expect_block(output, b);
  }
}

// Each column's 3 blocks arrive in one run GET, so the short final block
// ends exactly at the run buffer's last byte. Decoders over-read their
// compressed input; the buffer's kSimdPadding slack must absorb that,
// which the ASan job checks on this scan.
TEST(ScannerTest, LastBlockOfARunDecodesInsideTheSlack) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ScanOutput output;
  Status status = scanner.Scan(PipelinedSpec(), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.stats.requests, 6u) << "3 headers + one run per column";
  DecodedBlock reference;
  for (size_t c = 0; c < output.columns.size(); c++) {
    DecompressBlock(f.compressed.columns[c].blocks[2].data(), &reference,
                    f.config);
    ExpectBlocksBitIdentical(reference, output.columns[c].blocks[2]);
  }
}

}  // namespace
}  // namespace btr
