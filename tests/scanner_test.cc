// btr::Scanner: the pipelined scan must be bit-identical to sequential
// decompress-then-filter across all three column types, honor zone-map
// pruning and compressed-form predicate pushdown, handle the short final
// block, and surface poisoned blocks as a Status instead of crashing.
#include "btr/scanner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "btr/btrblocks.h"
#include "btr/predicate.h"
#include "hostile_bytes.h"
#include "obs/metrics.h"
#include "util/random.h"
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
  const u64 offset = f.compressed.columns[0].blocks[0].size();  // block 1
  object[offset] = 0x7F;  // invalid column type byte
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

// An integer leaf on a double column is rebuilt as the same leaf with
// double literals: every operator selects the same rows either way.
TEST(ScannerTest, IntegerLiteralsOnDoubleColumnsMatchDoubleLiterals) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  const std::pair<PredicateExpr, PredicateExpr> cases[] = {
      {Predicate::EqualsInt("price", 3), Predicate::EqualsDouble("price", 3)},
      {Predicate::CompareInt("price", CompareOp::kLt, 10),
       Predicate::CompareDouble("price", CompareOp::kLt, 10)},
      {Predicate::BetweenInt("price", 5, 7),
       Predicate::BetweenDouble("price", 5, 7)},
      {Predicate::InInt("price", {1000, 2, 1}),
       Predicate::InDouble("price", {1000, 2, 1})},
  };
  for (const auto& [int_leaf, double_leaf] : cases) {
    ScanSpec int_spec = PipelinedSpec();
    int_spec.filter = int_leaf;
    ScanSpec double_spec = PipelinedSpec();
    double_spec.filter = double_leaf;
    ScanOutput int_out, double_out;
    ASSERT_TRUE(scanner.Scan(int_spec, &int_out).ok()) << int_leaf.ToString();
    ASSERT_TRUE(scanner.Scan(double_spec, &double_out).ok());
    EXPECT_GT(int_out.stats.rows_matched, 0u) << int_leaf.ToString();
    EXPECT_EQ(int_out.stats.rows_matched, double_out.stats.rows_matched)
        << int_leaf.ToString();
    ASSERT_EQ(int_out.block_selections.size(),
              double_out.block_selections.size());
    for (size_t b = 0; b < int_out.block_selections.size(); b++) {
      EXPECT_EQ(int_out.block_selections[b].ToVector(),
                double_out.block_selections[b].ToVector())
          << int_leaf.ToString() << ", block " << b;
    }
  }
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
// per column (all 3 row blocks fit one run), the first scan included.
TEST(ScannerTest, ConcurrentScannersCountOnlyTheirOwnTraffic) {
  Fixture f;
  u64 plan_requests = 0;
  u64 plan_bytes = 0;
  for (const CompressedColumn& column : f.compressed.columns) {
    plan_requests++;
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
        if (stats.requests != plan_requests ||
            stats.bytes_fetched != plan_bytes) {
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

  // Zone maps prune block 1 (ids 1000..1999), so blocks 0 and 2 are two
  // runs per column: 4 runs.
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
    EXPECT_EQ(output.stats.requests, 4u);
    u64 block_bytes = 0;
    for (size_t c = 0; c < 2; c++) {
      for (u32 b : {0u, 2u}) {
        block_bytes += f.compressed.columns[c].blocks[b].size();
      }
    }
    EXPECT_EQ(output.stats.bytes_fetched, block_bytes);
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
    EXPECT_EQ(output.stats.requests, 2u) << "block 1 of each";

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
// which the ASan job checks on this scan. Open read every block table
// with the metadata, so the fresh Scanner's first scan issues the 3 runs
// and no other GET.
TEST(ScannerTest, LastBlockOfARunDecodesInsideTheSlack) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  const u64 requests_after_open = f.store.total_requests();
  ScanOutput output;
  Status status = scanner.Scan(PipelinedSpec(), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.stats.requests, 3u) << "one run per column";
  EXPECT_EQ(f.store.total_requests() - requests_after_open, 3u)
      << "a GET between Open and the block runs";
  DecodedBlock reference;
  for (size_t c = 0; c < output.columns.size(); c++) {
    DecompressBlock(f.compressed.columns[c].blocks[2].data(), &reference,
                    f.config);
    ExpectBlocksBitIdentical(reference, output.columns[c].blocks[2]);
  }
}

// One wide string column, whose row block b holds random strings of
// lengths[b] letters, and `narrow` small int columns.
Relation MakeMixedWidthTable(const std::string& name,
                             const std::vector<u32>& lengths, u32 narrow) {
  Relation table(name);
  Column& wide = table.AddColumn("text", ColumnType::kString);
  std::vector<Column*> ints;
  for (u32 k = 0; k < narrow; k++) {
    ints.push_back(&table.AddColumn(std::string(1, 'n') + std::to_string(k),
                                    ColumnType::kInteger));
  }
  Random rng(21);
  for (u32 i = 0; i < lengths.size() * kBlockCapacity; i++) {
    std::string text(lengths[i / kBlockCapacity], 'a');
    for (char& c : text) c = static_cast<char>('a' + rng.NextBounded(26));
    wide.AppendString(text);
    for (u32 k = 0; k < narrow; k++) {
      ints[k]->AppendInt(static_cast<i32>(i % (k + 2)));
    }
  }
  return table;
}

// The fetch plan docs/SCAN_PIPELINE.md ("Runs") predicts for an unfiltered
// scan of every column of `compressed` by a standalone Scanner: R is the
// largest stretch of run_blocks adjacent blocks of any column, and each
// column is cut into runs of adjacent blocks of at most R bytes (a larger
// block alone). The fetch window is one run of every column, at most
// min(column bytes, R), plus R per fetch executor.
struct RunPlan {
  std::vector<u64> column_gets;
  u64 gets = 0;
  u64 fetch_window = 0;
};

RunPlan PlanRuns(const CompressedRelation& compressed,
                 const ScanConfig& config) {
  const u64 needed = compressed.columns.size();
  const u64 window = config.prefetch_depth + needed * config.scan_threads;
  const u64 run_blocks = std::max<u64>(
      1, window / std::max<u64>(needed, config.fetch_threads));
  u64 run_bytes = 0;  // R
  for (const CompressedColumn& column : compressed.columns) {
    for (size_t b = 0; b < column.blocks.size(); b += run_blocks) {
      u64 bytes = 0;
      for (size_t i = b; i < std::min(b + run_blocks, column.blocks.size());
           i++) {
        bytes += column.blocks[i].size();
      }
      run_bytes = std::max(run_bytes, bytes);
    }
  }
  RunPlan plan;
  for (const CompressedColumn& column : compressed.columns) {
    u64 gets = 0, run = 0, total = 0;
    for (const ByteBuffer& block : column.blocks) {
      if (gets == 0 || run + block.size() > run_bytes) {
        gets++;
        run = 0;
      }
      run += block.size();
      total += block.size();
    }
    plan.column_gets.push_back(gets);
    plan.gets += gets;
    plan.fetch_window += std::min(total, run_bytes);
  }
  plan.fetch_window += config.fetch_threads * run_bytes;
  return plan;
}

// Fetch runs are cut by bytes, not block counts. One decode thread, two
// fetch executors and a prefetch depth of 2 make run_blocks 1 over these
// four columns, so R is the largest block, a 32-letter row block of the
// wide column. Each narrow column is smaller than R and is one GET; the
// wide column's 8-letter blocks 1-3 share GETs. The scan returns the
// sequential decode bit for bit.
TEST(ScannerTest, RunsAreCutByBytes) {
  const std::vector<u32> lengths = {32, 8, 8, 8, 32, 8};
  const Relation table = MakeMixedWidthTable("mixed_width", lengths, 3);
  CompressionConfig config;
  const CompressedRelation compressed = CompressRelation(table, config);
  s3sim::ObjectStore store;
  ASSERT_TRUE(
      UploadCompressedRelation(compressed, nullptr, "lake/", &store).ok());

  ScanSpec spec;
  spec.config.scan_threads = 1;
  spec.config.fetch_threads = 2;
  spec.config.prefetch_depth = 2;
  const RunPlan plan = PlanRuns(compressed, spec.config);
  EXPECT_GT(plan.column_gets[0], 1u);
  EXPECT_LT(plan.column_gets[0], lengths.size())
      << "the short blocks of the wide column share no GET";
  for (u32 k = 1; k <= 3; k++) {
    EXPECT_EQ(plan.column_gets[k], 1u) << "narrow column " << k;
  }

  Scanner scanner(&store, "mixed_width", "lake/");
  ASSERT_TRUE(scanner.Open(spec.config).ok());
  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.stats.requests, plan.gets);
  DecodedBlock reference;
  for (size_t c = 0; c < compressed.columns.size(); c++) {
    ASSERT_EQ(output.columns[c].blocks.size(), lengths.size());
    for (size_t b = 0; b < lengths.size(); b++) {
      DecompressBlock(compressed.columns[c].blocks[b].data(), &reference,
                      config);
      ExpectBlocksBitIdentical(reference, output.columns[c].blocks[b]);
    }
  }
}

// What a scan of `table` had fetched and decoded while its consumer held
// row block 0's first chunk: the consumer waits until `wait_requests`
// GETs were issued after Open, then 50 ms more for a decode of block 1 to
// run, were one submitted. Every emitted block is checked against the
// sequential decode.
struct HeldScan {
  u64 requests = 0;
  u64 bytes = 0;
  u64 decompressed = 0;
};

void ScanHoldingBlockZero(const CompressedRelation& compressed,
                          const ScanConfig& config, u64 wait_requests,
                          HeldScan* held) {
  s3sim::ObjectStore store;
  ASSERT_TRUE(
      UploadCompressedRelation(compressed, nullptr, "lake/", &store).ok());
  ScanSpec spec;
  spec.config = config;
  Scanner scanner(&store, compressed.name, "lake/");
  ASSERT_TRUE(scanner.Open(spec.config).ok());
  const u64 requests_after_open = store.total_requests();
  const u64 bytes_after_open = store.total_bytes_fetched();
  obs::Counter& decompressed =
      obs::Registry::Get().GetCounter("btr.decompress.blocks");
  const u64 decompressed_before = decompressed.Value();

  const size_t columns = compressed.columns.size();
  const size_t blocks = compressed.columns[0].blocks.size();
  std::vector<std::vector<DecodedBlock>> values(columns);
  for (std::vector<DecodedBlock>& column : values) column.resize(blocks);
  Status status = scanner.Scan(spec, [&](ColumnChunk&& chunk) {
    if (chunk.block == 0 && chunk.column == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (store.total_requests() - requests_after_open < wait_requests &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      held->requests = store.total_requests() - requests_after_open;
      held->bytes = store.total_bytes_fetched() - bytes_after_open;
      held->decompressed = decompressed.Value() - decompressed_before;
    }
    values[chunk.column][chunk.block] = std::move(chunk.values);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();

  DecodedBlock reference;
  for (size_t c = 0; c < columns; c++) {
    for (size_t b = 0; b < blocks; b++) {
      DecompressBlock(compressed.columns[c].blocks[b].data(), &reference,
                      CompressionConfig());
      ExpectBlocksBitIdentical(reference, values[c][b]);
    }
  }
}

// One decode thread, two fetch executors and no prefetch depth: the decode
// window is one row block and R is the largest block. While the consumer
// holds row block 0's first chunk, the fetch window GETs row block 1 (one
// run per fetch executor ahead), but block 1 waits compressed: only block
// 0's two column blocks are decoded.
TEST(ScannerTest, FetchRunsAheadWhileDecodeStaysBounded) {
  constexpr u32 kBlocks = 6;
  ScanConfig config;
  config.scan_threads = 1;
  config.fetch_threads = 2;
  config.prefetch_depth = 0;

  // Two int columns of about equal blocks: every run is one block.
  {
    Relation table("run_ahead");
    Column& ids = table.AddColumn("id", ColumnType::kInteger);
    Column& groups = table.AddColumn("group", ColumnType::kInteger);
    for (u32 i = 0; i < kBlocks * kBlockCapacity; i++) {
      ids.AppendInt(static_cast<i32>(i));
      groups.AppendInt(static_cast<i32>(i % 1000));
    }
    const CompressedRelation compressed =
        CompressRelation(table, CompressionConfig());
    const u64 block1_fetched = 4;  // block 0's and block 1's runs
    HeldScan held;
    ScanHoldingBlockZero(compressed, config, block1_fetched, &held);
    EXPECT_GE(held.requests, block1_fetched)
        << "no GET of row block 1 while block 0 was held";
    EXPECT_LE(held.decompressed, 2u)
        << "decoded past the one-block decode window";
  }

  // A wide string column and a narrow int column, which is one GET: while
  // block 0 is held, the fetch window has run ahead by whole wide blocks,
  // and the bytes fetched stay inside the window the block table sets.
  {
    const CompressedRelation compressed = CompressRelation(
        MakeMixedWidthTable("mixed_ahead",
                            std::vector<u32>(kBlocks, 16), 1),
        CompressionConfig());
    const RunPlan plan = PlanRuns(compressed, config);
    ASSERT_EQ(plan.column_gets[1], 1u);
    const u64 block1_fetched = 3;  // the wide blocks 0 and 1, the narrow run
    HeldScan held;
    ScanHoldingBlockZero(compressed, config, block1_fetched, &held);
    EXPECT_GE(held.requests, block1_fetched)
        << "no GET of row block 1 while block 0 was held";
    EXPECT_LE(held.bytes, plan.fetch_window)
        << "fetched past the fetch window";
    EXPECT_LE(held.decompressed, 2u)
        << "decoded past the one-block decode window";
  }
}

// A block table that does not fit its column object is Corruption from
// Open: block 0 of "id" claims 0xFFFFFFF0 bytes in a .btrmeta whose CRC
// was re-stamped, so no block GET ever asks for bytes the object lacks.
TEST(ScannerTest, BlockTableThatDoesNotFitItsObjectIsCorruption) {
  Fixture f;
  const std::string key = TableMetaKey("lake/", "scan_table.v1");
  std::vector<u8> meta;
  ASSERT_TRUE(f.store.GetObject(key, &meta).ok());
  // "BTRT" | u32 column_count | u32 row_count | u16 name_len | "id" |
  // u8 type | u64 uncompressed_bytes | u32 block_count | value counts |
  // sizes ...
  const size_t first_size =
      12 + 2 + 2 + 1 + 8 + 4 + 4 * f.compressed.columns[0].blocks.size();
  const Bytes inflated = Restamped<u32>(meta, first_size, 0xFFFFFFF0u);
  ASSERT_TRUE(f.store.Put(key, inflated.data(), inflated.size()).ok());

  const u64 requests_before = f.store.total_requests();
  Scanner scanner(&f.store, "scan_table", "lake/");
  Status status = scanner.Open();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(f.store.total_requests() - requests_before, 3u)
      << "manifest, metadata and zone map; no block GET";
  ScanOutput output;
  EXPECT_TRUE(scanner.Scan(PipelinedSpec(), &output).IsInvalidArgument())
      << "a scanner whose only Open failed stays unopened";
}

// v2 of scan_table: new ids, and a fourth column.
Relation MakeWiderTable() {
  Relation table("scan_table");
  Column& ints = table.AddColumn("id", ColumnType::kInteger);
  Column& doubles = table.AddColumn("price", ColumnType::kDouble);
  Column& strings = table.AddColumn("city", ColumnType::kString);
  Column& quantities = table.AddColumn("qty", ColumnType::kInteger);
  for (u32 i = 0; i < kRows; i++) {
    ints.AppendInt(static_cast<i32>(i * 7));
    doubles.AppendDouble(static_cast<double>(i % 9));
    strings.AppendString("v2");
    quantities.AppendInt(static_cast<i32>(i % 13));
  }
  return table;
}

// A re-Open that fails keeps the scanner on the version it had pinned:
// v2 (a fourth column) commits with a flipped byte in its zone map, so
// re-Open fails, and the scanner still reads v1's names, block tables and
// objects — its {id} scan is bit-identical to before, and v2's column
// does not exist for it.
TEST(ScannerTest, FailedReopenKeepsThePinnedVersion) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ASSERT_EQ(scanner.resolved_name(), "scan_table.v1");
  ScanSpec ids = PipelinedSpec();
  ids.columns = {"id"};
  ScanOutput before;
  ASSERT_TRUE(scanner.Scan(ids, &before).ok());

  const Relation wider = MakeWiderTable();
  TableZoneMap zones;
  for (const Column& column : wider.columns()) {
    zones.columns.push_back(ComputeColumnZoneMap(column));
  }
  ASSERT_TRUE(UploadCompressedRelation(CompressRelation(wider, f.config),
                                       &zones, "lake/", &f.store)
                  .ok());
  const std::string zone_key = ZoneMapKey("lake/", "scan_table.v2");
  std::vector<u8> object;
  ASSERT_TRUE(f.store.GetObject(zone_key, &object).ok());
  object[object.size() / 2] ^= 0x10;
  ASSERT_TRUE(f.store.Put(zone_key, object.data(), object.size()).ok());

  Status status = scanner.Open();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(scanner.resolved_name(), "scan_table.v1");
  EXPECT_EQ(scanner.meta().columns.size(), 3u);

  ScanOutput after;
  status = scanner.Scan(ids, &after);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(after.columns.size(), 1u);
  ASSERT_EQ(after.columns[0].blocks.size(), before.columns[0].blocks.size());
  for (size_t b = 0; b < before.columns[0].blocks.size(); b++) {
    ExpectBlocksBitIdentical(before.columns[0].blocks[b],
                             after.columns[0].blocks[b]);
  }
  ScanSpec added = PipelinedSpec();
  added.columns = {"qty"};
  EXPECT_TRUE(scanner.Scan(added, &after).IsNotFound());
}

}  // namespace
}  // namespace btr
