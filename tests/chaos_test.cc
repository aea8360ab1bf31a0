// Chaos harness for the scan path (docs/ROBUSTNESS.md).
//
// Hundreds of seeded fault schedules are thrown at btr::Scanner and every
// single scan must end in exactly one of two ways:
//   1. Status::Ok with output bit-identical to the fault-free scan, or
//   2. a well-typed non-OK Status (Corruption / Unavailable / Throttled).
// Never a crash, never a hang (ctest timeout), never a silently wrong
// answer — that last one is what the per-block CRC32C exists for.
//
// Schedules are deterministic per seed (s3sim/fault.h), so any failure
// here reproduces bit-for-bit from the seed in the assertion message.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "btr/btrblocks.h"
#include "btr/scanner.h"
#include "obs/metrics.h"
#include "s3sim/fault.h"
#include "s3sim/object_store.h"

namespace btr {
namespace {

// 1 full block + a short one: enough for per-block faults to matter while
// keeping a few hundred scans fast.
constexpr u32 kRows = kBlockCapacity + 500;
// Where block 0 starts in every column object: a fault rule with this
// offset_min hits block GETs, never the column header GET at offset 0.
const u64 kFirstBlockOffset = ColumnFileHeaderBytes(2);

Relation MakeTable() {
  Relation table("chaos_table");
  Column& ints = table.AddColumn("id", ColumnType::kInteger);
  Column& doubles = table.AddColumn("price", ColumnType::kDouble);
  Column& strings = table.AddColumn("city", ColumnType::kString);
  const char* cities[4] = {"berlin", "munich", "bonn", "hamburg"};
  for (u32 i = 0; i < kRows; i++) {
    if (i % 97 == 13) {
      ints.AppendNull();
    } else {
      ints.AppendInt(static_cast<i32>(i % 1000));
    }
    doubles.AppendDouble(static_cast<double>(i % 512) * 0.5);
    strings.AppendString(cities[i % 4]);
  }
  return table;
}

// Retry knobs tuned for test speed: microsecond backoffs, generous
// attempt count so a ≤15% fault rate essentially never exhausts them.
ScanSpec ChaosSpec() {
  ScanSpec spec;
  spec.config.scan_threads = 4;
  spec.config.fetch_threads = 3;
  spec.config.prefetch_depth = 4;
  spec.config.retry.max_attempts = 8;
  spec.config.retry.initial_backoff_ns = 1000;  // 1 us
  spec.config.retry.max_backoff_ns = 8000;      // 8 us
  spec.config.retry.retry_budget = 1024;
  return spec;
}

void ExpectBlocksBitIdentical(const DecodedBlock& expected,
                              const DecodedBlock& actual, u64 seed) {
  ASSERT_EQ(expected.type, actual.type) << "seed " << seed;
  ASSERT_EQ(expected.count, actual.count) << "seed " << seed;
  EXPECT_EQ(expected.null_flags, actual.null_flags) << "seed " << seed;
  switch (expected.type) {
    case ColumnType::kInteger:
      EXPECT_EQ(expected.ints, actual.ints) << "seed " << seed;
      break;
    case ColumnType::kDouble:
      ASSERT_EQ(expected.doubles.size(), actual.doubles.size());
      EXPECT_EQ(0, std::memcmp(expected.doubles.data(), actual.doubles.data(),
                               expected.doubles.size() * sizeof(double)))
          << "seed " << seed;
      break;
    case ColumnType::kString:
      ASSERT_EQ(expected.strings.slots.size(), actual.strings.slots.size());
      for (u32 i = 0; i < expected.count; i++) {
        ASSERT_EQ(expected.strings.Get(i), actual.strings.Get(i))
            << "seed " << seed << " row " << i;
      }
      break;
  }
}

void ExpectOutputsBitIdentical(const ScanOutput& expected,
                               const ScanOutput& actual, u64 seed) {
  ASSERT_EQ(expected.columns.size(), actual.columns.size()) << "seed " << seed;
  for (size_t c = 0; c < expected.columns.size(); c++) {
    ASSERT_EQ(expected.columns[c].blocks.size(),
              actual.columns[c].blocks.size());
    for (size_t b = 0; b < expected.columns[c].blocks.size(); b++) {
      ExpectBlocksBitIdentical(expected.columns[c].blocks[b],
                               actual.columns[c].blocks[b], seed);
    }
  }
}

struct Fixture {
  CompressionConfig config;
  Relation table = MakeTable();
  CompressedRelation compressed;
  TableZoneMap zones;
  s3sim::ObjectStore store;
  ScanOutput reference;  // fault-free scan of the full projection

  Fixture() {
    compressed = CompressRelation(table, config);
    for (const Column& column : table.columns()) {
      zones.columns.push_back(ComputeColumnZoneMap(column));
    }
    Status status =
        UploadCompressedRelation(compressed, &zones, "lake/", &store);
    EXPECT_TRUE(status.ok()) << status.ToString();

    Scanner scanner(&store, "chaos_table", "lake/");
    EXPECT_TRUE(scanner.Open().ok());
    status = scanner.Scan(ChaosSpec(), &reference);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
};

// Transient-only chaos (throttles, unavailabilities, latency spikes):
// every scan must succeed and be bit-identical — retries make the faults
// invisible except in the stats.
TEST(ChaosTest, TransientFaultsRetryToBitIdenticalResults) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  u64 total_faults = 0;
  for (u64 seed = 1; seed <= 60; seed++) {
    f.store.InstallFaultPlan(s3sim::MakeTransientPlan(seed, 0.10));
    ScanOutput output;
    Status status = scanner.Scan(ChaosSpec(), &output);
    ASSERT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
    ExpectOutputsBitIdentical(f.reference, output, seed);
    // Failed GETs were retried; latency faults needed no retry.
    EXPECT_LE(output.stats.retries, f.store.faults_injected())
        << "seed " << seed;
    total_faults += f.store.faults_injected();
  }
  f.store.ClearFaultPlan();
  EXPECT_GT(total_faults, 0u) << "a 10% plan over 60 scans must inject";
}

// Full chaos including truncation and bit flips, strict (fail-fast) mode:
// each scan is either bit-identical or a well-typed error — corruption is
// *detected* (CRC), transients that outlive the retry budget surface as
// their transient code. Nothing else is acceptable.
TEST(ChaosTest, FullChaosEitherBitIdenticalOrTypedStatus) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  u32 ok_scans = 0, failed_scans = 0;
  for (u64 seed = 1; seed <= 100; seed++) {
    f.store.InstallFaultPlan(s3sim::MakeChaosPlan(seed, 0.15, true));
    ScanOutput output;
    Status status = scanner.Scan(ChaosSpec(), &output);
    if (status.ok()) {
      ok_scans++;
      ExpectOutputsBitIdentical(f.reference, output, seed);
    } else {
      failed_scans++;
      EXPECT_TRUE(status.IsCorruption() || status.IsTransient())
          << "seed " << seed << " produced an untyped failure: "
          << status.ToString();
    }
  }
  f.store.ClearFaultPlan();
  // A 15% rate with corruption must exercise both endings.
  EXPECT_GT(ok_scans, 0u);
  EXPECT_GT(failed_scans, 0u);
}

// Degraded mode: the scan itself succeeds, unreadable blocks are skipped
// and reported, and every block that *was* decoded is bit-identical.
TEST(ChaosTest, DegradedModeSkipsAndReportsUnreadableBlocks) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  u32 unreadable_total = 0;
  for (u64 seed = 1; seed <= 40; seed++) {
    f.store.InstallFaultPlan(s3sim::MakeChaosPlan(seed, 0.25, true));
    ScanSpec spec = ChaosSpec();
    spec.config.skip_unreadable_blocks = true;
    spec.config.retry.max_attempts = 2;  // force some permanent failures
    ScanOutput output;
    Status status = scanner.Scan(spec, &output);
    ASSERT_TRUE(status.ok())
        << "degraded scan must not fail, seed " << seed << ": "
        << status.ToString();
    EXPECT_EQ(output.stats.blocks_decoded + output.stats.blocks_unreadable,
              output.stats.row_blocks)
        << "seed " << seed;
    ASSERT_EQ(output.stats.unreadable_blocks.size(),
              output.stats.blocks_unreadable);
    ASSERT_EQ(output.stats.unreadable_reasons.size(),
              output.stats.blocks_unreadable);
    for (size_t i = 0; i < output.stats.unreadable_blocks.size(); i++) {
      u32 b = output.stats.unreadable_blocks[i];
      EXPECT_EQ(output.block_outcomes[b], BlockOutcome::kUnreadable);
      EXPECT_FALSE(output.stats.unreadable_reasons[i].ok());
      unreadable_total++;
    }
    for (u32 b = 0; b < output.stats.row_blocks; b++) {
      if (output.block_outcomes[b] != BlockOutcome::kDecoded) continue;
      for (size_t c = 0; c < output.columns.size(); c++) {
        ExpectBlocksBitIdentical(f.reference.columns[c].blocks[b],
                                 output.columns[c].blocks[b], seed);
      }
    }
  }
  f.store.ClearFaultPlan();
  EXPECT_GT(unreadable_total, 0u)
      << "25% chaos at 2 attempts must make some blocks unreadable";
}

// Chaos under a predicate scan: pruned blocks are never fetched (zone
// maps), and the surviving blocks still come back right or typed.
TEST(ChaosTest, PredicateScansSurviveTransientChaos) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = ChaosSpec();
  spec.columns = {"id", "city"};
  spec.filter = Predicate::EqualsString("city", "bonn");
  ScanOutput expected;
  ASSERT_TRUE(scanner.Scan(spec, &expected).ok());

  for (u64 seed = 1; seed <= 20; seed++) {
    f.store.InstallFaultPlan(s3sim::MakeTransientPlan(seed, 0.10));
    ScanOutput output;
    Status status = scanner.Scan(spec, &output);
    ASSERT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
    EXPECT_EQ(output.stats.rows_matched, expected.stats.rows_matched);
    ExpectOutputsBitIdentical(expected, output, seed);
  }
  f.store.ClearFaultPlan();
}

// Chaos under a composable range predicate: a BETWEEN + IN expression
// evaluated on the compressed form must reach the same rows as the
// fault-free scan and as the decode-then-filter engine, fault plan or not.
TEST(ChaosTest, RangePredicateScansSurviveTransientChaos) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = ChaosSpec();
  spec.columns = {"id", "price"};
  spec.filter = PredicateExpr::And(
      Predicate::BetweenInt("id", 100, 299),
      PredicateExpr::Or(Predicate::InString("city", {"bonn", "munich"}),
                        Predicate::CompareDouble("price", CompareOp::kLt,
                                                 10.0)));
  ScanOutput expected;
  ASSERT_TRUE(scanner.Scan(spec, &expected).ok());
  EXPECT_GT(expected.stats.rows_matched, 0u);

  // The decode-then-filter baseline agrees on the matched row count.
  ScanSpec baseline = spec;
  baseline.config.enable_predicate_pushdown = false;
  ScanOutput unpushed;
  ASSERT_TRUE(scanner.Scan(baseline, &unpushed).ok());
  EXPECT_EQ(unpushed.stats.rows_matched, expected.stats.rows_matched);

  for (u64 seed = 1; seed <= 20; seed++) {
    f.store.InstallFaultPlan(s3sim::MakeTransientPlan(seed, 0.10));
    ScanOutput output;
    Status status = scanner.Scan(spec, &output);
    ASSERT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
    EXPECT_EQ(output.stats.rows_matched, expected.stats.rows_matched)
        << "seed " << seed;
    ExpectOutputsBitIdentical(expected, output, seed);
  }
  f.store.ClearFaultPlan();
}

// Open() under chaos: metadata, header and zone-map GETs retry transients
// and detect corruption exactly like block GETs.
TEST(ChaosTest, OpenUnderChaosIsTypedOrSucceeds) {
  Fixture f;
  for (u64 seed = 1; seed <= 20; seed++) {
    f.store.InstallFaultPlan(s3sim::MakeChaosPlan(seed, 0.20, true));
    Scanner scanner(&f.store, "chaos_table", "lake/");
    ScanConfig config = ChaosSpec().config;
    Status status = scanner.Open(config);
    if (!status.ok()) {
      EXPECT_TRUE(status.IsCorruption() || status.IsTransient())
          << "seed " << seed << ": " << status.ToString();
      continue;
    }
    // An Open that succeeded parsed CRC-clean headers; the scan must work
    // once faults stop.
    f.store.ClearFaultPlan();
    ScanOutput output;
    ASSERT_TRUE(scanner.Scan(ChaosSpec(), &output).ok()) << "seed " << seed;
    ExpectOutputsBitIdentical(f.reference, output, seed);
  }
  f.store.ClearFaultPlan();
}

// Targeted schedule: the GET that carries block 1 of column 0 — the run
// of both its blocks, the first GET of column 0 past its header — throttles
// once. Fail-fast config turns that into Status::Throttled; the default
// retrying config absorbs it. Single fetch thread keeps the GET order
// deterministic.
TEST(ChaosTest, TargetedThrottleFailsFastOrRetries) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  s3sim::FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back(s3sim::FaultRule::Throttle(".0.btr", 1));
  plan.rules.back().offset_min = kFirstBlockOffset;

  ScanSpec fail_fast = ChaosSpec();
  fail_fast.config.fetch_threads = 1;
  fail_fast.config.retry.max_attempts = 1;
  f.store.InstallFaultPlan(plan);
  ScanOutput output;
  Status status = scanner.Scan(fail_fast, &output);
  EXPECT_TRUE(status.IsThrottled()) << status.ToString();

  ScanSpec retrying = fail_fast;
  retrying.config.retry.max_attempts = 4;
  f.store.InstallFaultPlan(plan);
  status = scanner.Scan(retrying, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectOutputsBitIdentical(f.reference, output, 5);
  EXPECT_EQ(output.stats.retries, 1u);
  EXPECT_EQ(f.store.faults_injected(), 1u);
  f.store.ClearFaultPlan();
}

// The driver-level agreement check: under a purely transient plan every
// injected fault is one failed GET, and every failed GET costs exactly one
// granted retry — so scan.retries must equal s3.get.faults_injected (both
// the obs counters and the per-scan stats).
TEST(ChaosTest, RetryMetricsAgreeWithInjectedFaults) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  obs::Registry& registry = obs::Registry::Get();
  registry.ResetAll();
  u64 expected_retries = 0;
  for (u64 seed = 1; seed <= 12; seed++) {
    // Throttle/unavailable only — no latency rule, so "fault" and "failed
    // GET needing a retry" coincide exactly.
    s3sim::FaultPlan plan;
    plan.seed = seed;
    s3sim::FaultRule throttle;
    throttle.kind = s3sim::FaultKind::kThrottle;
    throttle.probability = 0.05;
    plan.rules.push_back(throttle);
    s3sim::FaultRule unavailable;
    unavailable.kind = s3sim::FaultKind::kUnavailable;
    unavailable.probability = 0.05;
    plan.rules.push_back(unavailable);
    f.store.InstallFaultPlan(plan);

    ScanOutput output;
    Status status = scanner.Scan(ChaosSpec(), &output);
    ASSERT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
    ExpectOutputsBitIdentical(f.reference, output, seed);
    EXPECT_EQ(output.stats.retries, f.store.faults_injected())
        << "seed " << seed;
    expected_retries += f.store.faults_injected();
  }
  f.store.ClearFaultPlan();
  EXPECT_GT(expected_retries, 0u);
  EXPECT_EQ(registry.GetCounter("scan.retries").Value(), expected_retries);
  EXPECT_EQ(registry.GetCounter("s3.get.faults_injected").Value(),
            expected_retries);
}

// A warm block cache makes repeat scans immune to chaos: the cold scan
// (fault-free) admits every CRC-verified block, after which warm scans
// issue zero GETs — no GETs, no faults, bit-identical output every time.
TEST(ChaosTest, WarmCacheScanIsBitIdenticalAndGetFreeUnderChaos) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = ChaosSpec();
  spec.config.enable_block_cache = true;

  // Cold scan, fault-free: populates the Scanner-owned cache.
  ScanOutput cold;
  ASSERT_TRUE(scanner.Scan(spec, &cold).ok());
  ExpectOutputsBitIdentical(f.reference, cold, 0);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(cold.stats.cache_misses, 6u) << "2 blocks x 3 columns";
  EXPECT_EQ(cold.stats.requests, 6u)
      << "3 column headers, then one run of both blocks per column";

  for (u64 seed = 1; seed <= 25; seed++) {
    f.store.InstallFaultPlan(s3sim::MakeChaosPlan(seed, 0.25, true));
    ScanOutput warm;
    Status status = scanner.Scan(spec, &warm);
    ASSERT_TRUE(status.ok()) << "a warm scan issues no GETs and cannot be "
                                "faulted, seed " << seed << ": "
                             << status.ToString();
    ExpectOutputsBitIdentical(f.reference, warm, seed);
    EXPECT_EQ(warm.stats.requests, 0u)
        << "every block must come from the cache, seed " << seed;
    EXPECT_EQ(warm.stats.cache_hits, 6u) << "seed " << seed;
    EXPECT_EQ(warm.stats.cache_misses, 0u) << "seed " << seed;
    EXPECT_EQ(f.store.faults_injected(), 0u) << "seed " << seed;
  }
  f.store.ClearFaultPlan();
}

// The chaos contract must survive with every resilience feature enabled at
// once: cache + hedging + breaker + CRC re-fetch. Fresh Scanner per seed
// so each scan starts cache-cold and actually exercises the fault plan.
TEST(ChaosTest, FullChaosWithCacheHedgingBreakerKeepsContract) {
  Fixture f;
  u32 ok_scans = 0;
  for (u64 seed = 1; seed <= 60; seed++) {
    Scanner scanner(&f.store, "chaos_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    f.store.InstallFaultPlan(s3sim::MakeChaosPlan(seed, 0.15, true));

    ScanSpec spec = ChaosSpec();
    spec.config.enable_block_cache = true;
    spec.config.enable_hedged_gets = true;
    spec.config.hedge.quantile = 0.9;
    spec.config.hedge.min_samples = 4;
    spec.config.hedge.min_threshold_ns = 1000;  // 1 us
    spec.config.hedge.hedge_budget = 8;
    spec.config.enable_circuit_breaker = true;
    spec.config.breaker.window = 16;
    spec.config.breaker.min_samples = 8;
    spec.config.breaker.failure_threshold = 0.8;
    spec.config.breaker.cooldown_ns = 100 * 1000;  // 100 us
    spec.config.refetch_on_crc_failure = true;

    ScanOutput output;
    Status status = scanner.Scan(spec, &output);
    if (status.ok()) {
      ok_scans++;
      ExpectOutputsBitIdentical(f.reference, output, seed);
    } else {
      EXPECT_TRUE(status.IsCorruption() || status.IsTransient())
          << "seed " << seed << " produced an untyped failure: "
          << status.ToString();
    }
    EXPECT_LE(output.stats.hedge_wins, output.stats.hedges) << "seed " << seed;
    EXPECT_LE(output.stats.hedges, spec.config.hedge.hedge_budget)
        << "seed " << seed;
    EXPECT_LE(output.stats.crc_rescues, output.stats.crc_refetches)
        << "seed " << seed;
    f.store.ClearFaultPlan();
  }
  // Re-fetch rescues wire corruption and retries absorb transients, so a
  // healthy majority must succeed bit-identically.
  EXPECT_GT(ok_scans, 30u);
}

// A single bit flipped on the wire is transient: the CRC check catches it
// and one cache-bypassing re-fetch returns the true bytes — the scan
// completes bit-identically instead of failing with Corruption.
TEST(ChaosTest, SingleFlipWireCorruptionRescuedByRefetch) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  // Targeted: the first block GET of column 0 — the run of both its
  // blocks — arrives with block 0's first byte flipped, exactly once
  // (targeted rules disarm after firing), so the re-fetch of that block
  // gets clean bytes.
  s3sim::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(s3sim::FaultRule::Corrupt(".0.btr", 1, 0));
  plan.rules.back().offset_min = kFirstBlockOffset;

  ScanSpec rescue = ChaosSpec();
  rescue.config.fetch_threads = 1;  // deterministic GET order
  rescue.config.refetch_on_crc_failure = true;
  f.store.InstallFaultPlan(plan);
  ScanOutput output;
  Status status = scanner.Scan(rescue, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectOutputsBitIdentical(f.reference, output, 7);
  EXPECT_EQ(output.stats.crc_refetches, 1u);
  EXPECT_EQ(output.stats.crc_rescues, 1u);
  EXPECT_EQ(f.store.faults_injected(), 1u);

  // Same schedule without the re-fetch: the flip is a typed Corruption.
  ScanSpec strict = rescue;
  strict.config.refetch_on_crc_failure = false;
  f.store.InstallFaultPlan(plan);
  status = scanner.Scan(strict, &output);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  f.store.ClearFaultPlan();
}

// The CRC re-fetch is an ordinary GET of the scan: a throttled re-fetch
// is retried like any GET, so the block is still rescued. The run GET of
// column 0 arrives with block 0 flipped, and its re-fetch (the next GET
// of column 0's blocks) is throttled once.
TEST(ChaosTest, ThrottledRefetchIsRetriedAndRescues) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  s3sim::FaultPlan plan;
  plan.seed = 17;
  plan.rules.push_back(s3sim::FaultRule::Corrupt(".0.btr", 1, 0));
  plan.rules.push_back(s3sim::FaultRule::Throttle(".0.btr", 2));
  for (s3sim::FaultRule& rule : plan.rules) rule.offset_min = kFirstBlockOffset;

  ScanSpec rescue = ChaosSpec();
  rescue.config.refetch_on_crc_failure = true;
  f.store.InstallFaultPlan(plan);
  ScanOutput output;
  Status status = scanner.Scan(rescue, &output);
  EXPECT_EQ(f.store.faults_injected(), 2u);
  f.store.ClearFaultPlan();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectOutputsBitIdentical(f.reference, output, 17);
  EXPECT_EQ(output.stats.crc_refetches, 1u);
  EXPECT_EQ(output.stats.crc_rescues, 1u);
  EXPECT_GE(output.stats.retries, 1u);
}

// A block that fails its arrival check is never cached. A strict scan
// through a cached Scanner fails on block 0 of column 0, then a
// fault-free scan through the same Scanner misses that block in the cache
// (a corrupt entry would be served unchecked) and is bit-identical.
TEST(ChaosTest, CorruptBlockIsNotCached) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  s3sim::FaultPlan plan;
  plan.seed = 19;
  plan.rules.push_back(s3sim::FaultRule::Corrupt(".0.btr", 1, 0));
  plan.rules.back().offset_min = kFirstBlockOffset;

  ScanSpec spec = ChaosSpec();
  spec.config.enable_block_cache = true;
  f.store.InstallFaultPlan(plan);
  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(f.store.faults_injected(), 1u);
  f.store.ClearFaultPlan();

  status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectOutputsBitIdentical(f.reference, output, 19);
  EXPECT_GE(output.stats.cache_misses, 1u) << "block 0 of column 0";

  // Every block is cached now, each a verified copy.
  status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectOutputsBitIdentical(f.reference, output, 19);
  EXPECT_EQ(output.stats.cache_misses, 0u);
  EXPECT_EQ(output.stats.requests, 0u);
}

// A backend that is fully down trips the breaker: later GETs fail fast
// (Status::Unavailable, no retry budget burned waiting out backoffs). In
// degraded mode the scan itself completes with every block reported
// unreadable; in strict mode it fails with a transient typed Status.
TEST(ChaosTest, BreakerTripsAndFailsFastWhenBackendIsDown) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  s3sim::FaultPlan down;
  down.seed = 11;
  s3sim::FaultRule unavailable;
  unavailable.kind = s3sim::FaultKind::kUnavailable;
  unavailable.probability = 1.0;  // every GET fails
  down.rules.push_back(unavailable);

  ScanSpec spec = ChaosSpec();
  spec.config.skip_unreadable_blocks = true;
  spec.config.retry.max_attempts = 2;
  spec.config.enable_circuit_breaker = true;
  spec.config.breaker.window = 8;
  spec.config.breaker.min_samples = 4;
  spec.config.breaker.failure_threshold = 0.5;
  spec.config.breaker.cooldown_ns = 50ull * 1000 * 1000;  // outlives the scan

  f.store.InstallFaultPlan(down);
  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << "degraded scan must complete: "
                           << status.ToString();
  EXPECT_EQ(output.stats.blocks_unreadable, output.stats.row_blocks);
  EXPECT_GE(output.stats.breaker_trips, 1u)
      << "4+ consecutive failures must trip the breaker";
  EXPECT_GE(output.stats.breaker_fast_failures, 1u)
      << "requests after the trip must fail fast";
  for (const Status& reason : output.stats.unreadable_reasons) {
    EXPECT_TRUE(reason.IsTransient()) << reason.ToString();
  }

  // Strict mode: the scan fails, and the failure keeps its transient type
  // whether it came from the backend or from a breaker fast-fail.
  ScanSpec strict = spec;
  strict.config.skip_unreadable_blocks = false;
  f.store.InstallFaultPlan(down);
  status = scanner.Scan(strict, &output);
  EXPECT_TRUE(status.IsTransient()) << status.ToString();
  f.store.ClearFaultPlan();
}

// Hedged GETs absorb latency spikes: with a spiky (but never failing)
// plan, scans stay bit-identical and the duplicate requests show up in the
// stats once the latency quantile arms.
TEST(ChaosTest, HedgedGetsAbsorbLatencySpikes) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  u64 total_hedges = 0, total_wins = 0;
  for (u64 seed = 1; seed <= 20; seed++) {
    s3sim::FaultPlan spiky;
    spiky.seed = seed;
    s3sim::FaultRule spike;
    spike.kind = s3sim::FaultKind::kLatency;
    spike.probability = 0.3;
    spike.latency_ns = 3 * 1000 * 1000;  // 3 ms against ~us base latency
    spiky.rules.push_back(spike);
    f.store.InstallFaultPlan(spiky);

    ScanSpec spec = ChaosSpec();
    spec.config.enable_hedged_gets = true;
    spec.config.hedge.quantile = 0.5;
    spec.config.hedge.min_samples = 2;
    spec.config.hedge.min_threshold_ns = 1000;  // 1 us
    spec.config.hedge.hedge_budget = 16;

    ScanOutput output;
    Status status = scanner.Scan(spec, &output);
    ASSERT_TRUE(status.ok())
        << "latency never fails a GET, seed " << seed << ": "
        << status.ToString();
    ExpectOutputsBitIdentical(f.reference, output, seed);
    EXPECT_LE(output.stats.hedges, spec.config.hedge.hedge_budget)
        << "seed " << seed;
    EXPECT_LE(output.stats.hedge_wins, output.stats.hedges) << "seed " << seed;
    total_hedges += output.stats.hedges;
    total_wins += output.stats.hedge_wins;
  }
  f.store.ClearFaultPlan();
  EXPECT_GT(total_hedges, 0u)
      << "3 ms spikes at 30% over 20 scans must trigger hedges";
  EXPECT_GT(total_wins, 0u)
      << "an instant duplicate should beat a 3 ms straggler sometimes";
}

// A truncated or bit-flipped run GET damages only the blocks whose bytes
// it spoiled. Both rules spoil block 1 of column 0 inside the run that
// carries blocks 0 and 1: the response is cut 10 bytes into block 1, or
// one of block 1's bytes is flipped. Strict mode fails with Corruption,
// the CRC re-fetch rescues block 1 on its own, and degraded mode reports
// only block 1 unreadable.
TEST(ChaosTest, RunGetFaultsDamageOnlyTheirBlocks) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  const u64 into_block1 = f.compressed.columns[0].blocks[0].size() + 10;
  for (s3sim::FaultRule rule :
       {s3sim::FaultRule::Truncate(".0.btr", 1, into_block1),
        s3sim::FaultRule::Corrupt(".0.btr", 1, into_block1)}) {
    const std::string kind = s3sim::FaultKindName(rule.kind);
    rule.offset_min = kFirstBlockOffset;
    s3sim::FaultPlan plan;
    plan.seed = 9;
    plan.rules.push_back(rule);

    ScanSpec strict = ChaosSpec();
    f.store.InstallFaultPlan(plan);
    ScanOutput output;
    Status status = scanner.Scan(strict, &output);
    EXPECT_TRUE(status.IsCorruption()) << kind << ": " << status.ToString();

    ScanSpec rescue = ChaosSpec();
    rescue.config.refetch_on_crc_failure = true;
    f.store.InstallFaultPlan(plan);
    status = scanner.Scan(rescue, &output);
    ASSERT_TRUE(status.ok()) << kind << ": " << status.ToString();
    ExpectOutputsBitIdentical(f.reference, output, 9);
    EXPECT_EQ(output.stats.crc_refetches, 1u) << kind;
    EXPECT_EQ(output.stats.crc_rescues, 1u) << kind;
    EXPECT_EQ(output.stats.requests, 4u) << kind << ": 3 runs + 1 re-fetch";
    EXPECT_EQ(f.store.faults_injected(), 1u) << kind;

    ScanSpec degraded = ChaosSpec();
    degraded.config.skip_unreadable_blocks = true;
    f.store.InstallFaultPlan(plan);
    status = scanner.Scan(degraded, &output);
    ASSERT_TRUE(status.ok()) << kind << ": " << status.ToString();
    EXPECT_EQ(output.stats.unreadable_blocks, std::vector<u32>{1}) << kind;
    ASSERT_EQ(output.stats.unreadable_reasons.size(), 1u) << kind;
    EXPECT_TRUE(output.stats.unreadable_reasons[0].IsCorruption()) << kind;
    EXPECT_EQ(output.block_outcomes[0], BlockOutcome::kDecoded) << kind;
    for (size_t c = 0; c < output.columns.size(); c++) {
      ExpectBlocksBitIdentical(f.reference.columns[c].blocks[0],
                               output.columns[c].blocks[0], 9);
    }
  }
  f.store.ClearFaultPlan();
}

// Column headers are read by the first scan that needs them, as fetch
// items of that scan with the block GETs' retry and failure path. A rule
// with offset_max = 0 hits only header GETs.
TEST(ChaosTest, HeaderGetFaultsRetryOrFailTyped) {
  Fixture f;
  auto header_rule = [](s3sim::FaultRule rule) {
    rule.offset_max = 0;
    s3sim::FaultPlan plan;
    plan.seed = 13;
    plan.rules.push_back(rule);
    return plan;
  };

  // A throttled header GET retries; without retries it fails typed.
  {
    const s3sim::FaultPlan throttle =
        header_rule(s3sim::FaultRule::Throttle(".0.btr", 1));
    Scanner scanner(&f.store, "chaos_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    ScanSpec fail_fast = ChaosSpec();
    fail_fast.config.retry.max_attempts = 1;
    f.store.InstallFaultPlan(throttle);
    ScanOutput output;
    Status status = scanner.Scan(fail_fast, &output);
    EXPECT_TRUE(status.IsThrottled()) << status.ToString();

    Scanner fresh(&f.store, "chaos_table", "lake/");
    ASSERT_TRUE(fresh.Open().ok());
    f.store.InstallFaultPlan(throttle);
    status = fresh.Scan(ChaosSpec(), &output);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectOutputsBitIdentical(f.reference, output, 13);
    EXPECT_EQ(output.stats.retries, 1u);
    EXPECT_EQ(output.stats.requests, 7u) << "3 headers + 1 retry + 3 runs";
    EXPECT_EQ(f.store.faults_injected(), 1u);
  }

  // A corrupt header is a typed Corruption — in degraded mode each row
  // block tries it again and is unreadable for that reason — and is not
  // kept: the next scan reads it again.
  {
    Scanner scanner(&f.store, "chaos_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    s3sim::FaultRule corrupt;  // every GET of the price header
    corrupt.kind = s3sim::FaultKind::kCorrupt;
    corrupt.key_substring = ".1.btr";
    f.store.InstallFaultPlan(header_rule(corrupt));
    ScanOutput output;
    Status status = scanner.Scan(ChaosSpec(), &output);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();

    ScanSpec degraded = ChaosSpec();
    degraded.config.skip_unreadable_blocks = true;
    status = scanner.Scan(degraded, &output);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(output.stats.blocks_unreadable, output.stats.row_blocks);
    for (const Status& reason : output.stats.unreadable_reasons) {
      EXPECT_TRUE(reason.IsCorruption()) << reason.ToString();
    }
    EXPECT_EQ(output.stats.requests, 2u)
        << "the unread price header, once per row block";

    f.store.ClearFaultPlan();
    status = scanner.Scan(ChaosSpec(), &output);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectOutputsBitIdentical(f.reference, output, 13);
    EXPECT_EQ(output.stats.requests, 4u) << "the price header + 3 runs";
  }
  f.store.ClearFaultPlan();
}

// The backend goes down between Open and the first scan, so the header
// GETs fail: a degraded scan tries them once per row block and completes
// with every row block unreadable, a strict one fails with a transient
// Status.
TEST(ChaosTest, HeaderGetsAgainstADownBackendDegradeEveryBlock) {
  Fixture f;
  Scanner scanner(&f.store, "chaos_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  s3sim::FaultPlan down;
  down.seed = 17;
  s3sim::FaultRule unavailable;
  unavailable.kind = s3sim::FaultKind::kUnavailable;
  unavailable.probability = 1.0;
  down.rules.push_back(unavailable);

  ScanSpec spec = ChaosSpec();
  spec.config.skip_unreadable_blocks = true;
  spec.config.retry.max_attempts = 2;
  f.store.InstallFaultPlan(down);
  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << "degraded scan must complete: "
                           << status.ToString();
  EXPECT_EQ(output.stats.blocks_unreadable, output.stats.row_blocks);
  EXPECT_EQ(output.stats.unreadable_blocks, (std::vector<u32>{0, 1}));
  for (const Status& reason : output.stats.unreadable_reasons) {
    EXPECT_TRUE(reason.IsTransient()) << reason.ToString();
  }
  EXPECT_EQ(output.stats.requests, 12u)
      << "3 headers x 2 attempts, once per row block";
  EXPECT_EQ(f.store.faults_injected(), 12u);

  ScanSpec strict = spec;
  strict.config.skip_unreadable_blocks = false;
  f.store.InstallFaultPlan(down);
  status = scanner.Scan(strict, &output);
  EXPECT_TRUE(status.IsTransient()) << status.ToString();
  f.store.ClearFaultPlan();
}

}  // namespace
}  // namespace btr
