// Per-scan profile (obs/profile.h) end-to-end tests.
//
// The acceptance bar: a ScanProfile attached by collect_profile must (a)
// partition the calling thread's wall time into stages that sum to the
// scan wall clock, (b) report request/cache/retry/hedge tallies that
// agree *exactly* with ScanStats and with the chaos harness's injected
// fault counts, (c) export stable schema-versioned JSON, and (d) cost
// nothing — not even an allocation — when profiling is off.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "btr/btrblocks.h"
#include "btr/scanner.h"
#include "obs/profile.h"
#include "s3sim/fault.h"
#include "s3sim/object_store.h"
#include "service/scan_service.h"

// Global allocation counter for the zero-cost-when-disabled test. This
// test binary replaces global new/delete (malloc-backed, so new/free
// pairs are fine here despite what the compiler can prove); the counter
// only matters for deltas measured around single-threaded regions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<btr::u64> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace btr {
namespace {

// Same shape as tests/chaos_test.cc: one full block plus a short one.
constexpr u32 kRows = kBlockCapacity + 500;

Relation MakeTable() {
  Relation table("profile_table");
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

ScanSpec ProfileSpec() {
  ScanSpec spec;
  spec.config.scan_threads = 4;
  spec.config.fetch_threads = 3;
  spec.config.prefetch_depth = 4;
  spec.config.retry.max_attempts = 8;
  spec.config.retry.initial_backoff_ns = 1000;  // 1 us
  spec.config.retry.max_backoff_ns = 8000;      // 8 us
  spec.config.retry.retry_budget = 1024;
  spec.config.collect_profile = true;
  return spec;
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

u64 StageWallSum(const obs::ScanProfile& profile) {
  u64 sum = 0;
  for (u32 s = 0; s < obs::kScanStageCount; s++) {
    sum += profile.stages[s].wall_ns;
  }
  return sum;
}

// The calling thread's stages are contiguous by construction, so their
// wall-time sum must land within 10% of the scan's wall clock (the
// acceptance bound; in practice they differ by the few timer reads
// between Scan()'s own clock and the StageTimer's).
TEST(ProfileTest, StageWallTimesSumToScanWallClock) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(ProfileSpec(), &output).ok());
  ASSERT_NE(output.stats.profile, nullptr);
  const obs::ScanProfile& profile = *output.stats.profile;

  const double wall_ns = output.stats.seconds * 1e9;
  const double sum_ns = static_cast<double>(StageWallSum(profile));
  ASSERT_GT(wall_ns, 0.0);
  EXPECT_NEAR(sum_ns, wall_ns, 0.10 * wall_ns)
      << "stage sum " << sum_ns << " vs wall " << wall_ns;
  EXPECT_DOUBLE_EQ(profile.wall_seconds, output.stats.seconds);
}

// A fault-free scan: every profile tally must agree with ScanStats, the
// GET latency histogram must have one sample per store request, and the
// per-scheme decode table must cover every decoded block part.
TEST(ProfileTest, FaultFreeTalliesMatchScanStats) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(ProfileSpec(), &output).ok());
  ASSERT_NE(output.stats.profile, nullptr);
  const obs::ScanProfile& profile = *output.stats.profile;
  const ScanStats& stats = output.stats;

  // One run of both row blocks per column, nothing cached, nothing
  // retried.
  EXPECT_EQ(profile.requests, 3u);
  EXPECT_EQ(profile.requests, stats.requests);
  EXPECT_EQ(profile.get_latency.count, 3u);
  EXPECT_EQ(profile.cache_hits, stats.cache_hits);
  EXPECT_EQ(profile.cache_misses, stats.cache_misses);
  EXPECT_EQ(profile.retries, stats.retries);
  EXPECT_EQ(profile.retried_requests, 0u);
  EXPECT_EQ(profile.hedged_requests, stats.hedges);
  EXPECT_EQ(profile.failed_requests, 0u);

  EXPECT_EQ(profile.blocks_pruned, stats.blocks_pruned);
  EXPECT_EQ(profile.blocks_skipped, stats.blocks_skipped);
  EXPECT_EQ(profile.blocks_decoded, stats.blocks_decoded);
  EXPECT_EQ(profile.blocks_unreadable, stats.blocks_unreadable);
  EXPECT_EQ(profile.bytes_fetched, stats.bytes_fetched);
  EXPECT_EQ(profile.bytes_decoded, stats.bytes_decoded);
  EXPECT_GT(profile.bytes_decoded, 0u);

  // Every decoded part lands in exactly one (type, scheme) bucket.
  u64 scheme_blocks = 0, scheme_bytes = 0;
  for (const obs::SchemeDecodeStats& s : profile.decode_by_scheme) {
    scheme_blocks += s.blocks;
    scheme_bytes += s.bytes_decoded;
  }
  EXPECT_EQ(scheme_blocks, 6u) << "2 row blocks x 3 columns";
  EXPECT_EQ(scheme_bytes, stats.bytes_decoded);
  const u32 decode_idx = static_cast<u32>(obs::ScanActivity::kDecode);
  EXPECT_EQ(profile.activities[decode_idx].count, 6u);
}

// prefetch_wait is the time this scan's work items waited in the
// service's fair queues between submit and run: one sample per item, here
// 3 fetch items (one run of both row blocks per column) plus 2 decode
// items.
TEST(ProfileTest, PrefetchWaitRecordsEveryQueuedItem) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(ProfileSpec(), &output).ok());
  ASSERT_NE(output.stats.profile, nullptr);
  const obs::ActivityTime& wait =
      output.stats.profile->activities[static_cast<u32>(
          obs::ScanActivity::kPrefetchWait)];
  EXPECT_GT(wait.count, 0u);
  EXPECT_EQ(wait.count, 5u);
}

// Throttle/unavailable-only chaos: every injected fault is one failed GET
// and every failed GET costs exactly one granted retry, so the profile's
// retry tallies must equal both ScanStats and the store's injected-fault
// count — the driver-level agreement check, now per scan.
TEST(ProfileTest, ChaosRetryTalliesMatchInjectedFaults) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  u64 total_faults = 0;
  for (u64 seed = 1; seed <= 12; seed++) {
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
    ASSERT_TRUE(scanner.Scan(ProfileSpec(), &output).ok()) << "seed " << seed;
    ASSERT_NE(output.stats.profile, nullptr);
    const obs::ScanProfile& profile = *output.stats.profile;

    EXPECT_EQ(profile.retries, output.stats.retries) << "seed " << seed;
    EXPECT_EQ(profile.retries, f.store.faults_injected()) << "seed " << seed;
    // Retried requests are bounded by total retries; and with retries
    // granted, at least one request needed a second attempt.
    EXPECT_LE(profile.retried_requests, profile.retries);
    if (f.store.faults_injected() > 0) {
      EXPECT_GE(profile.retried_requests, 1u) << "seed " << seed;
    }
    // Logical requests: every scan GETs one run of both blocks per column;
    // store attempts = requests + retries.
    EXPECT_EQ(profile.requests, 3u) << "seed " << seed;
    EXPECT_EQ(output.stats.requests, profile.requests + profile.retries);
    total_faults += f.store.faults_injected();
  }
  f.store.ClearFaultPlan();
  EXPECT_GT(total_faults, 0u) << "a 10% plan over 12 scans must inject";
}

// Warm block cache: the second scan resolves every fetch from the cache,
// and the profile must say so — all hits, no misses, an empty GET
// latency histogram.
TEST(ProfileTest, WarmCacheTalliesMatchScanStats) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = ProfileSpec();
  spec.config.enable_block_cache = true;

  ScanOutput cold;
  ASSERT_TRUE(scanner.Scan(spec, &cold).ok());
  ASSERT_NE(cold.stats.profile, nullptr);
  EXPECT_EQ(cold.stats.profile->cache_misses, 6u);
  EXPECT_EQ(cold.stats.profile->cache_misses, cold.stats.cache_misses);
  EXPECT_EQ(cold.stats.profile->cache_hits, 0u);

  ScanOutput warm;
  ASSERT_TRUE(scanner.Scan(spec, &warm).ok());
  ASSERT_NE(warm.stats.profile, nullptr);
  const obs::ScanProfile& profile = *warm.stats.profile;
  EXPECT_EQ(profile.cache_hits, 6u);
  EXPECT_EQ(profile.cache_hits, warm.stats.cache_hits);
  EXPECT_EQ(profile.cache_misses, 0u);
  EXPECT_EQ(profile.requests, 6u);
  EXPECT_EQ(profile.get_latency.count, 0u) << "no GET left the cache";
  EXPECT_EQ(warm.stats.requests, 0u);
}

// Hedged GETs: one targeted latency spike with an aggressive hedge
// threshold forces a hedge; the profile's hedge tallies must equal the
// prefetcher's ScanStats counters.
TEST(ProfileTest, HedgeTalliesMatchScanStats) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = ProfileSpec();
  spec.config.enable_hedged_gets = true;
  spec.config.hedge.min_samples = 1;
  spec.config.hedge.min_threshold_ns = 100 * 1000;  // 100 us floor
  // Sequential GETs so the first one seeds the latency quantile before
  // the spiked request arrives.
  spec.config.fetch_threads = 1;

  // Column objects are keyed <prefix><table>.<idx>.btr; ".1.btr" is the
  // "price" column. Spike its first GET (the run of both its blocks, after
  // the id column's run) by 20 ms.
  s3sim::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(
      s3sim::FaultRule::Latency(".1.btr", 1, 20 * 1000 * 1000));
  f.store.InstallFaultPlan(plan);

  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(spec, &output).ok());
  f.store.ClearFaultPlan();
  ASSERT_NE(output.stats.profile, nullptr);
  const obs::ScanProfile& profile = *output.stats.profile;

  EXPECT_GE(output.stats.hedges, 1u) << "the 20 ms spike must arm a hedge";
  EXPECT_EQ(profile.hedged_requests, output.stats.hedges);
  EXPECT_EQ(profile.hedge_wins, output.stats.hedge_wins);
}

// CRC refetch: a targeted single-byte corruption fails the block's
// arrival check; with refetch_on_crc_failure the re-GET rescues the block,
// and both the refetch and the rescue must appear in the profile. The
// re-fetch is an ordinary GET: one request and one latency sample, like
// the 3 run GETs.
TEST(ProfileTest, CrcRefetchTalliesMatchScanStats) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = ProfileSpec();
  spec.config.refetch_on_crc_failure = true;

  // Flip one byte in the first block GET of the "price" column object (the
  // run of both its blocks).
  s3sim::FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back(s3sim::FaultRule::Corrupt(".1.btr", 1));
  f.store.InstallFaultPlan(plan);

  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(spec, &output).ok());
  f.store.ClearFaultPlan();
  ASSERT_NE(output.stats.profile, nullptr);
  const obs::ScanProfile& profile = *output.stats.profile;

  EXPECT_EQ(output.stats.crc_refetches, 1u);
  EXPECT_EQ(output.stats.crc_rescues, 1u);
  EXPECT_EQ(profile.crc_refetched_blocks, output.stats.crc_refetches);
  EXPECT_EQ(profile.crc_rescued_blocks, output.stats.crc_rescues);
  EXPECT_EQ(output.stats.requests, 4u);
  EXPECT_EQ(profile.requests, output.stats.requests);
  EXPECT_EQ(profile.get_latency.count, output.stats.requests);
}

// A request the breaker rejects before its first attempt never reaches the
// store, so it is no GET sample. Every .btr GET fails, one attempt each,
// one at a time, and a one-block window (scan_threads = 1, prefetch_depth
// = 0) makes the run size the largest block, which no two adjacent blocks
// of a column fit, so each block is its own run: the first 2 run GETs
// trip the breaker, which then rejects the other 6 (degraded mode reads
// every row block left).
TEST(ProfileTest, BreakerRejectedRequestsAreNotGetSamples) {
  Relation table("breaker_table");
  Column& ints = table.AddColumn("id", ColumnType::kInteger);
  Column& doubles = table.AddColumn("price", ColumnType::kDouble);
  for (u32 i = 0; i < 4 * kBlockCapacity; i++) {
    ints.AppendInt(static_cast<i32>(i % 1000));
    doubles.AppendDouble(static_cast<double>(i % 512) * 0.5);
  }
  s3sim::ObjectStore store;
  ASSERT_TRUE(UploadCompressedRelation(CompressRelation(table, {}), nullptr,
                                       "lake/", &store)
                  .ok());

  ScanSpec spec = ProfileSpec();
  spec.config.scan_threads = 1;
  spec.config.fetch_threads = 1;
  spec.config.prefetch_depth = 0;
  spec.config.retry.max_attempts = 1;
  spec.config.skip_unreadable_blocks = true;
  spec.config.enable_circuit_breaker = true;
  spec.config.breaker.window = 4;
  spec.config.breaker.min_samples = 2;
  spec.config.breaker.cooldown_ns = 10ull * 1000 * 1000 * 1000;  // 10 s
  Scanner scanner(&store, "breaker_table", "lake/");
  ASSERT_TRUE(scanner.Open(spec.config).ok());

  s3sim::FaultPlan down;
  s3sim::FaultRule unavailable;
  unavailable.kind = s3sim::FaultKind::kUnavailable;
  unavailable.key_substring = ".btr";
  down.rules.push_back(unavailable);
  store.InstallFaultPlan(down);
  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  store.ClearFaultPlan();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_NE(output.stats.profile, nullptr);
  const obs::ScanProfile& profile = *output.stats.profile;

  EXPECT_EQ(output.stats.blocks_unreadable, 4u);
  EXPECT_EQ(output.stats.requests, 2u);
  EXPECT_EQ(profile.breaker_rejected_requests, 6u);
  EXPECT_EQ(profile.get_latency.count, output.stats.requests);
  EXPECT_EQ(
      profile.activities[static_cast<u32>(obs::ScanActivity::kGet)].count,
      output.stats.requests);
}

// A scan on a shared ScanService takes the same totals from ScanStats.
// Tenant A warms the shared cache with the id column; tenant B's profiled
// scan of {id, price} then hits both id blocks and misses both price
// blocks.
TEST(ProfileTest, ServicedScanProfileMatchesScanStats) {
  Fixture f;
  service::ScanServiceConfig config;
  config.fetch_threads = 2;
  config.decode_threads = 2;
  service::ScanService service(config);
  {
    Scanner warm(service, "tenant-a", &f.store, "profile_table", "lake/");
    ASSERT_TRUE(warm.Open().ok());
    ScanSpec ids = ProfileSpec();
    ids.columns = {"id"};
    ScanOutput output;
    ASSERT_TRUE(warm.Scan(ids, &output).ok());
    ASSERT_EQ(output.stats.cache_misses, 2u);
  }

  Scanner scanner(service, "tenant-b", &f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  const service::TenantStats before = service.GetTenantStats("tenant-b");
  ScanSpec spec = ProfileSpec();
  spec.columns = {"id", "price"};
  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(spec, &output).ok());
  const service::TenantStats after = service.GetTenantStats("tenant-b");
  ASSERT_NE(output.stats.profile, nullptr);
  const obs::ScanProfile& profile = *output.stats.profile;
  const ScanStats& stats = output.stats;

  EXPECT_EQ(stats.cache_hits, 2u) << "both id blocks";
  EXPECT_EQ(stats.cache_misses, 2u) << "both price blocks";
  EXPECT_EQ(profile.cache_hits, stats.cache_hits);
  EXPECT_EQ(profile.cache_misses, stats.cache_misses);
  // One run of both price blocks, not retried or hedged: one GET per GET
  // request, and a cache hit is a request too.
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(profile.requests, stats.requests + stats.cache_hits);
  EXPECT_EQ(profile.get_latency.count, stats.requests);
  EXPECT_EQ(profile.bytes_fetched, stats.bytes_fetched);
  EXPECT_EQ(after.cache_hits - before.cache_hits, stats.cache_hits);
  EXPECT_EQ(after.cache_misses - before.cache_misses, stats.cache_misses);
}

// The slow-op exemplar ring is bounded by ScanConfig::profile_slow_ops
// and sorted slowest-first.
TEST(ProfileTest, SlowOpRingIsBoundedAndSorted) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = ProfileSpec();
  spec.config.profile_slow_ops = 2;

  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(spec, &output).ok());
  ASSERT_NE(output.stats.profile, nullptr);
  const obs::ScanProfile& profile = *output.stats.profile;

  // 3 run GETs + 6 decodes competed for 2 slots.
  ASSERT_EQ(profile.slow_ops.size(), 2u);
  EXPECT_GE(profile.slow_ops[0].duration_ns, profile.slow_ops[1].duration_ns);
  for (const obs::SlowOp& op : profile.slow_ops) {
    EXPECT_FALSE(op.key.empty());
  }
}

// JSON schema stability: every documented top-level key is present, the
// schema version is pinned, and the document is structurally sound
// (balanced braces/brackets outside strings). bench_compare.py and any
// dashboards key on these names — renames must bump kSchemaVersion.
TEST(ProfileTest, JsonSchemaIsStable) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(ProfileSpec(), &output).ok());
  ASSERT_NE(output.stats.profile, nullptr);
  const std::string json = output.stats.profile->ToJson();

  EXPECT_EQ(obs::ScanProfile::kSchemaVersion, 2u);
  const char* required[] = {
      "\"schema_version\":2", "\"wall_seconds\":",     "\"open_ns\":",
      "\"zone_prune_ns\":",   "\"stages\":",           "\"activities\":",
      "\"get_latency\":",     "\"tallies\":",          "\"requests\":",
      "\"cache_hits\":",      "\"retries\":",          "\"hedged_requests\":",
      "\"blocks_decoded\":",  "\"bytes_fetched\":",    "\"bytes_decoded\":",
      "\"decode_by_scheme\":", "\"slow_ops\":",
  };
  for (const char* key : required) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  // Structural soundness without a JSON library: brace/bracket balance
  // ignoring string contents and escapes.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      depth++;
    } else if (c == '}' || c == ']') {
      depth--;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// Profiling off: no profile object materializes, and the instrumentation
// primitives the hot path touches (stage timer with a null collector)
// perform zero heap allocations.
TEST(ProfileTest, DisabledProfilingIsFreeAndNull) {
  Fixture f;
  Scanner scanner(&f.store, "profile_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = ProfileSpec();
  spec.config.collect_profile = false;
  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(spec, &output).ok());
  EXPECT_EQ(output.stats.profile, nullptr);

  obs::StageTimer timer;
  const u64 before = g_alloc_count.load(std::memory_order_relaxed);
  timer.Enter(obs::ScanStage::kEmitWait);
  timer.Enter(obs::ScanStage::kEmit);
  timer.Enter(obs::ScanStage::kEmitWait);
  timer.Enter(obs::ScanStage::kTeardown);
  timer.Finish(nullptr);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "disabled-path instrumentation must not allocate";
}

}  // namespace
}  // namespace btr
