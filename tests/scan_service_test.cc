// btr::service::ScanService — the multi-tenant scan layer
// (docs/SCAN_SERVICE.md).
//
// What must hold:
//   - serviced scans are bit-identical to standalone scans, alone and
//     under heavy cross-tenant concurrency;
//   - admission control rejects with *typed* Status::Throttled (transient,
//     so RunWithRetries can wrap a serviced Scan), and the bounded waiting
//     room admits FIFO when capacity frees;
//   - per-tenant quotas bite: concurrent scans, hedge budget, cache bytes;
//   - the shared cache is warm across tenants (tenant B pays zero GETs for
//     a table tenant A already scanned);
//   - deficit-round-robin keeps a light tenant's queue waits bounded while
//     a hog floods the service;
//   - chaos: under seeded fault schedules every serviced scan is either
//     bit-identical or a well-typed error — never wrong, never hung.
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "btr/btrblocks.h"
#include "btr/scanner.h"
#include "exec/retry.h"
#include "s3sim/fault.h"
#include "s3sim/object_store.h"
#include "service/fair_queue.h"
#include "service/scan_service.h"

namespace btr {
namespace {

// --- FairQueue --------------------------------------------------------------

TEST(FairQueueTest, SingleLanePopsInFifoOrder) {
  service::FairQueue queue;
  u32 lane = queue.AddLane();
  std::vector<int> order;
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(queue.Push(lane, 100, [&order, i] { order.push_back(i); }));
  }
  EXPECT_EQ(queue.Depth(), 4u);
  for (int i = 0; i < 4; i++) {
    std::function<void()> run;
    u64 queued_ns = 0;
    u32 lane_out = 0;
    ASSERT_TRUE(queue.Pop(&run, &queued_ns, &lane_out));
    EXPECT_EQ(lane_out, lane);
    run();
    queue.OnComplete(lane_out);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  service::FairQueue::LaneStats stats = queue.GetLaneStats(lane);
  EXPECT_EQ(stats.pushed, 4u);
  EXPECT_EQ(stats.popped, 4u);
  queue.Close();
  std::function<void()> run;
  u64 queued_ns = 0;
  u32 lane_out = 0;
  EXPECT_FALSE(queue.Pop(&run, &queued_ns, &lane_out));
}

// Two lanes pushing quantum-sized items: DRR must interleave them so no
// prefix of the pop sequence is more than one item apart between lanes.
TEST(FairQueueTest, DeficitRoundRobinInterleavesEqualCostLanes) {
  service::FairQueueConfig config;
  config.quantum_bytes = 1 << 20;
  service::FairQueue queue(config);
  u32 lane_a = queue.AddLane();
  u32 lane_b = queue.AddLane();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(queue.Push(lane_a, config.quantum_bytes, [] {}));
    ASSERT_TRUE(queue.Push(lane_b, config.quantum_bytes, [] {}));
  }
  int served_a = 0;
  int served_b = 0;
  for (int i = 0; i < 8; i++) {
    std::function<void()> run;
    u64 queued_ns = 0;
    u32 lane_out = 0;
    ASSERT_TRUE(queue.Pop(&run, &queued_ns, &lane_out));
    queue.OnComplete(lane_out);
    (lane_out == lane_a ? served_a : served_b)++;
    EXPECT_LE(std::abs(served_a - served_b), 1)
        << "pop " << i << " skewed: " << served_a << " vs " << served_b;
  }
}

// A lane over its outstanding cap is not servable until OnComplete.
TEST(FairQueueTest, OutstandingCapGatesALane) {
  service::FairQueue queue;
  u32 capped = queue.AddLane(/*max_outstanding=*/1);
  u32 open = queue.AddLane();
  ASSERT_TRUE(queue.Push(capped, 1, [] {}));
  ASSERT_TRUE(queue.Push(capped, 1, [] {}));
  ASSERT_TRUE(queue.Push(open, 1, [] {}));

  std::function<void()> run;
  u64 queued_ns = 0;
  u32 lane_out = 0;
  ASSERT_TRUE(queue.Pop(&run, &queued_ns, &lane_out));
  EXPECT_EQ(lane_out, capped);  // first push, lane under its cap
  // The capped lane now has 1 outstanding: only `open` may be served.
  ASSERT_TRUE(queue.Pop(&run, &queued_ns, &lane_out));
  EXPECT_EQ(lane_out, open);
  queue.OnComplete(open);
  // Completing the capped item re-opens the lane.
  queue.OnComplete(capped);
  ASSERT_TRUE(queue.Pop(&run, &queued_ns, &lane_out));
  EXPECT_EQ(lane_out, capped);
  queue.OnComplete(capped);
}

// --- scan fixtures ----------------------------------------------------------

constexpr u32 kRows = kBlockCapacity + 500;  // 2 row blocks, 3 columns

// `id_mask` is XORed into every id: 1 rewrites the id column's values
// without changing any block's size.
Relation MakeTable(i32 id_mask = 0) {
  Relation table("svc_table");
  Column& ints = table.AddColumn("id", ColumnType::kInteger);
  Column& doubles = table.AddColumn("price", ColumnType::kDouble);
  Column& strings = table.AddColumn("city", ColumnType::kString);
  const char* cities[4] = {"berlin", "munich", "bonn", "hamburg"};
  for (u32 i = 0; i < kRows; i++) {
    if (i % 97 == 13) {
      ints.AppendNull();
    } else {
      ints.AppendInt(static_cast<i32>(i % 1000) ^ id_mask);
    }
    doubles.AppendDouble(static_cast<double>(i % 512) * 0.5);
    strings.AppendString(cities[i % 4]);
  }
  return table;
}

ScanSpec FastSpec() {
  ScanSpec spec;
  spec.config.scan_threads = 2;
  spec.config.fetch_threads = 2;
  spec.config.prefetch_depth = 4;
  spec.config.retry.max_attempts = 8;
  spec.config.retry.initial_backoff_ns = 1000;  // 1 us
  spec.config.retry.max_backoff_ns = 8000;      // 8 us
  spec.config.retry.retry_budget = 1024;
  return spec;
}

service::ScanServiceConfig SmallServiceConfig() {
  service::ScanServiceConfig config;
  config.fetch_threads = 4;
  config.decode_threads = 4;
  return config;
}

void ExpectBlocksBitIdentical(const DecodedBlock& expected,
                              const DecodedBlock& actual, u64 tag) {
  ASSERT_EQ(expected.type, actual.type) << "tag " << tag;
  ASSERT_EQ(expected.count, actual.count) << "tag " << tag;
  EXPECT_EQ(expected.null_flags, actual.null_flags) << "tag " << tag;
  switch (expected.type) {
    case ColumnType::kInteger:
      EXPECT_EQ(expected.ints, actual.ints) << "tag " << tag;
      break;
    case ColumnType::kDouble:
      ASSERT_EQ(expected.doubles.size(), actual.doubles.size());
      EXPECT_EQ(0, std::memcmp(expected.doubles.data(), actual.doubles.data(),
                               expected.doubles.size() * sizeof(double)))
          << "tag " << tag;
      break;
    case ColumnType::kString:
      ASSERT_EQ(expected.strings.slots.size(), actual.strings.slots.size());
      for (u32 i = 0; i < expected.count; i++) {
        ASSERT_EQ(expected.strings.Get(i), actual.strings.Get(i))
            << "tag " << tag << " row " << i;
      }
      break;
  }
}

void ExpectOutputsBitIdentical(const ScanOutput& expected,
                               const ScanOutput& actual, u64 tag) {
  ASSERT_EQ(expected.columns.size(), actual.columns.size()) << "tag " << tag;
  for (size_t c = 0; c < expected.columns.size(); c++) {
    ASSERT_EQ(expected.columns[c].blocks.size(),
              actual.columns[c].blocks.size());
    for (size_t b = 0; b < expected.columns[c].blocks.size(); b++) {
      ExpectBlocksBitIdentical(expected.columns[c].blocks[b],
                               actual.columns[c].blocks[b], tag);
    }
  }
}

struct Fixture {
  CompressionConfig config;
  Relation table = MakeTable();
  CompressedRelation compressed;
  TableZoneMap zones;
  s3sim::ObjectStore store;
  ScanOutput reference;  // standalone fault-free scan, full projection

  Fixture() {
    compressed = CompressRelation(table, config);
    for (const Column& column : table.columns()) {
      zones.columns.push_back(ComputeColumnZoneMap(column));
    }
    Status status =
        UploadCompressedRelation(compressed, &zones, "lake/", &store);
    EXPECT_TRUE(status.ok()) << status.ToString();
    Scanner scanner(&store, "svc_table", "lake/");
    EXPECT_TRUE(scanner.Open().ok());
    status = scanner.Scan(FastSpec(), &reference);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
};

// --- serviced scans ---------------------------------------------------------

TEST(ScanServiceTest, ServicedScanIsBitIdenticalToStandalone) {
  Fixture f;
  service::ScanService service(SmallServiceConfig());
  Scanner scanner(service, "tenant-a", &f.store, "svc_table", "lake/");
  const u64 gets_before_open = f.store.total_requests();
  const u64 bytes_before_open = f.store.total_bytes_fetched();
  ASSERT_TRUE(scanner.Open().ok());
  const u64 open_gets = f.store.total_requests() - gets_before_open;
  const u64 open_bytes = f.store.total_bytes_fetched() - bytes_before_open;
  EXPECT_EQ(open_gets, 3u) << "the manifest, then metadata and zone map";
  ScanOutput output;
  Status status = scanner.Scan(FastSpec(), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectOutputsBitIdentical(f.reference, output, 0);
  EXPECT_GT(output.stats.requests, 0u);
  EXPECT_GT(output.stats.bytes_fetched, 0u);

  service::TenantStats stats = service.GetTenantStats("tenant-a");
  EXPECT_EQ(stats.scans_admitted, 1u);
  EXPECT_EQ(stats.scans_completed, 1u);
  EXPECT_EQ(stats.gets, open_gets + output.stats.requests);
  EXPECT_EQ(stats.bytes_fetched, open_bytes + output.stats.bytes_fetched);
  EXPECT_GT(stats.queue_items, 0u);  // work flowed through both lanes
}

TEST(ScanServiceTest, ConcurrentTenantsAllBitIdentical) {
  Fixture f;
  service::ScanService service(SmallServiceConfig());
  constexpr int kTenants = 4;
  constexpr int kScansPerTenant = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kTenants; t++) {
    threads.emplace_back([&, t] {
      Scanner scanner(service, "tenant-" + std::to_string(t), &f.store,
                      "svc_table", "lake/");
      if (!scanner.Open().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int s = 0; s < kScansPerTenant; s++) {
        ScanOutput output;
        Status status = scanner.Scan(FastSpec(), &output);
        if (!status.ok()) {
          failures.fetch_add(1);
          return;
        }
        ExpectOutputsBitIdentical(f.reference, output,
                                  static_cast<u64>(t) * 100 + s);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.running_scans(), 0u);
  for (int t = 0; t < kTenants; t++) {
    service::TenantStats stats =
        service.GetTenantStats("tenant-" + std::to_string(t));
    EXPECT_EQ(stats.scans_completed, static_cast<u64>(kScansPerTenant));
  }
}

// Tenant B scanning a table tenant A already scanned pays zero GETs: every
// block fetch is a shared-cache hit.
TEST(ScanServiceTest, SharedCacheIsWarmAcrossTenants) {
  Fixture f;
  service::ScanService service(SmallServiceConfig());
  {
    Scanner scanner(service, "cold-tenant", &f.store, "svc_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    ScanOutput output;
    ASSERT_TRUE(scanner.Scan(FastSpec(), &output).ok());
    EXPECT_GT(output.stats.requests, 0u);
  }
  {
    Scanner scanner(service, "warm-tenant", &f.store, "svc_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    ScanOutput output;
    ASSERT_TRUE(scanner.Scan(FastSpec(), &output).ok());
    ExpectOutputsBitIdentical(f.reference, output, 1);
    // Only the 3 column headers: every block part from the shared cache.
    EXPECT_EQ(output.stats.requests, 3u);
    EXPECT_GT(output.stats.cache_hits, 0u);
    service::TenantStats stats = service.GetTenantStats("warm-tenant");
    EXPECT_EQ(stats.gets, 6u) << "Open's 3 GETs + the 3 column headers";
    EXPECT_GT(stats.cache_hits, 0u);
  }
}

// A fetch the breaker rejects before its first attempt never reaches the
// store, so it must not count as a GET: against a fully-down backend the
// scan's request count and the tenant's GETs equal the store's own count.
TEST(ScanServiceTest, BreakerRejectedFetchesCountNoGets) {
  Fixture f;
  service::ScanServiceConfig config = SmallServiceConfig();
  config.fetch_threads = 1;  // sequential GETs: the trip precedes later ones
  config.breaker.window = 4;
  config.breaker.min_samples = 2;
  config.breaker.cooldown_ns = 10ull * 1000 * 1000 * 1000;  // outlives the scan
  service::ScanService service(config);
  Scanner scanner(service, "down", &f.store, "svc_table", "lake/");
  const u64 before_open = f.store.total_requests();
  ASSERT_TRUE(scanner.Open().ok());
  const u64 open_gets = f.store.total_requests() - before_open;

  s3sim::FaultPlan down;
  down.seed = 11;
  s3sim::FaultRule unavailable;
  unavailable.kind = s3sim::FaultKind::kUnavailable;
  unavailable.probability = 1.0;  // every GET fails
  down.rules.push_back(unavailable);
  f.store.InstallFaultPlan(down);

  ScanSpec spec = FastSpec();
  spec.config.skip_unreadable_blocks = true;
  const u64 before = f.store.total_requests();
  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  const u64 issued = f.store.total_requests() - before;
  f.store.ClearFaultPlan();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.stats.blocks_unreadable, output.stats.row_blocks);
  EXPECT_GE(output.stats.breaker_fast_failures, 1u);
  EXPECT_EQ(output.stats.requests, issued);
  EXPECT_EQ(service.GetTenantStats("down").gets, open_gets + issued);
}

// Every GET a serviced Scanner issues rides its tenant's lane and counts in
// its tenant: Open's manifest, metadata and zone map, the first scan's
// column headers and its block runs.
TEST(ScanServiceTest, TenantCountsEveryGetOfOpenAndScan) {
  Fixture f;
  service::ScanService service(SmallServiceConfig());
  Scanner scanner(service, "counted", &f.store, "svc_table", "lake/");
  const u64 before = f.store.total_requests();
  const u64 bytes_before = f.store.total_bytes_fetched();
  ASSERT_TRUE(scanner.Open().ok());
  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(FastSpec(), &output).ok());
  ExpectOutputsBitIdentical(f.reference, output, 4);
  service::TenantStats stats = service.GetTenantStats("counted");
  EXPECT_EQ(stats.gets, f.store.total_requests() - before);
  EXPECT_EQ(stats.bytes_fetched, f.store.total_bytes_fetched() - bytes_before);
  EXPECT_EQ(output.stats.requests, 6u) << "3 headers + one run per column";
}

// --- admission control ------------------------------------------------------

TEST(ScanServiceTest, TenantConcurrencyQuotaRejectsTyped) {
  service::ScanService service(SmallServiceConfig());
  service::TenantQuota quota;
  quota.max_concurrent_scans = 1;
  u32 slot = service.RegisterTenant("capped", quota);

  service::ScanService::Ticket first;
  ASSERT_TRUE(service.Admit(slot, &first).ok());
  service::ScanService::Ticket second;
  Status status = service.Admit(slot, &second);
  EXPECT_TRUE(status.IsThrottled()) << status.ToString();
  EXPECT_TRUE(status.IsTransient());  // retryable via exec::RunWithRetries
  EXPECT_FALSE(second.admitted);
  service.Release(&first);

  service::TenantStats stats = service.GetTenantStats("capped");
  EXPECT_EQ(stats.scans_rejected, 1u);
  EXPECT_EQ(stats.scans_admitted, 1u);
  EXPECT_EQ(stats.scans_completed, 1u);
}

TEST(ScanServiceTest, SaturatedServiceRejectsWhenRoomIsFull) {
  service::ScanServiceConfig config = SmallServiceConfig();
  config.max_concurrent_scans = 1;
  config.max_queued_scans = 0;  // no waiting room at all
  service::ScanService service(config);
  u32 slot = service.EnsureTenant("t");

  service::ScanService::Ticket first;
  ASSERT_TRUE(service.Admit(slot, &first).ok());
  service::ScanService::Ticket second;
  Status status = service.Admit(slot, &second);
  EXPECT_TRUE(status.IsThrottled()) << status.ToString();
  service.Release(&first);
}

TEST(ScanServiceTest, WaitingRoomAdmitsWhenCapacityFrees) {
  service::ScanServiceConfig config = SmallServiceConfig();
  config.max_concurrent_scans = 1;
  config.max_queued_scans = 4;
  config.admission_timeout_ns = 5ull * 1000 * 1000 * 1000;  // 5 s
  service::ScanService service(config);
  u32 slot = service.EnsureTenant("t");

  service::ScanService::Ticket first;
  ASSERT_TRUE(service.Admit(slot, &first).ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.Release(&first);
  });
  service::ScanService::Ticket second;
  u64 wait_ns = 0;
  Status status = service.Admit(slot, &second, &wait_ns);
  releaser.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(second.admitted);
  EXPECT_GT(wait_ns, 0u);
  service.Release(&second);

  service::TenantStats stats = service.GetTenantStats("t");
  EXPECT_EQ(stats.scans_queued, 1u);
  EXPECT_GT(stats.admission_wait_ns, 0u);
}

TEST(ScanServiceTest, AdmissionTimeoutRejectsTyped) {
  service::ScanServiceConfig config = SmallServiceConfig();
  config.max_concurrent_scans = 1;
  config.max_queued_scans = 4;
  config.admission_timeout_ns = 2ull * 1000 * 1000;  // 2 ms
  service::ScanService service(config);
  u32 slot = service.EnsureTenant("t");

  service::ScanService::Ticket first;
  ASSERT_TRUE(service.Admit(slot, &first).ok());
  service::ScanService::Ticket second;
  Status status = service.Admit(slot, &second);
  EXPECT_TRUE(status.IsThrottled()) << status.ToString();
  EXPECT_FALSE(second.admitted);
  service.Release(&first);
}

// A throttled serviced Scan() is transient, so the standard retry loop
// rides out the saturation once capacity frees.
TEST(ScanServiceTest, ThrottledScanSucceedsUnderRunWithRetries) {
  Fixture f;
  service::ScanServiceConfig config = SmallServiceConfig();
  config.max_concurrent_scans = 1;
  config.max_queued_scans = 0;
  service::ScanService service(config);
  u32 hold_slot = service.EnsureTenant("holder");

  service::ScanService::Ticket hold;
  ASSERT_TRUE(service.Admit(hold_slot, &hold).ok());

  Scanner scanner(service, "retrier", &f.store, "svc_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ScanOutput output;
  // First attempt must throttle while the slot is held.
  Status direct = scanner.Scan(FastSpec(), &output);
  EXPECT_TRUE(direct.IsThrottled()) << direct.ToString();

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    service.Release(&hold);
  });
  exec::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_ns = 1000 * 1000;  // 1 ms
  policy.max_backoff_ns = 4 * 1000 * 1000;
  policy.retry_budget = 64;
  exec::RetryState retry(policy);
  Status status = exec::RunWithRetries(
      &retry, [&] { return scanner.Scan(FastSpec(), &output); });
  releaser.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectOutputsBitIdentical(f.reference, output, 2);
}

// --- per-tenant quotas ------------------------------------------------------

TEST(ScanServiceTest, HedgeBudgetDeniesOnceSpent) {
  service::ScanService service(SmallServiceConfig());
  service::TenantQuota quota;
  quota.hedge_budget = 2;
  u32 slot = service.RegisterTenant("hedger", quota);
  EXPECT_TRUE(service.TryAcquireTenantHedge(slot));
  EXPECT_TRUE(service.TryAcquireTenantHedge(slot));
  EXPECT_FALSE(service.TryAcquireTenantHedge(slot));
  service::TenantStats stats = service.GetTenantStats("hedger");
  EXPECT_EQ(stats.hedges_denied, 1u);
}

TEST(ScanServiceTest, CacheByteQuotaSkipsInsertsButScanStaysCorrect) {
  Fixture f;
  service::ScanService service(SmallServiceConfig());
  service::TenantQuota quota;
  quota.max_cache_bytes = 64;  // far below one block payload
  service.RegisterTenant("tiny-cache", quota);

  Scanner scanner(service, "tiny-cache", &f.store, "svc_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ScanOutput output;
  ASSERT_TRUE(scanner.Scan(FastSpec(), &output).ok());
  ExpectOutputsBitIdentical(f.reference, output, 3);

  service::TenantStats stats = service.GetTenantStats("tiny-cache");
  EXPECT_GT(stats.cache_quota_skips, 0u);
  EXPECT_LE(stats.cache_bytes, quota.max_cache_bytes);
  // Nothing was cached, so a second scan still pays its GETs.
  ScanOutput again;
  ASSERT_TRUE(scanner.Scan(FastSpec(), &again).ok());
  EXPECT_GT(again.stats.requests, 0u);
}

// Two writers of one version can rewrite a column object in place: same
// key and block sizes, new bytes and a re-stamped header. The shared cache
// keys blocks by their header CRC32C, so a scanner that reads the new
// header misses the old entries and returns the new rows, in strict mode
// without a re-fetch.
TEST(ScanServiceTest, RewrittenObjectMissesTheSharedCache) {
  Fixture f;
  service::ScanService service(SmallServiceConfig());
  std::string resolved;
  {
    Scanner scanner(service, "reader-a", &f.store, "svc_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    ScanOutput output;
    ASSERT_TRUE(scanner.Scan(FastSpec(), &output).ok());
    resolved = scanner.resolved_name();
  }
  ASSERT_EQ(service.cache()->GetStats().entries, 6u) << "3 columns x 2 blocks";

  // The rewritten table, and its rows from a store of its own.
  const Relation rewritten_table = MakeTable(/*id_mask=*/1);
  const CompressedRelation rewritten =
      CompressRelation(rewritten_table, f.config);
  ASSERT_EQ(rewritten.columns[0].blocks.size(), 2u);
  for (size_t b = 0; b < 2; b++) {
    ASSERT_EQ(rewritten.columns[0].blocks[b].size(),
              f.compressed.columns[0].blocks[b].size());
    ASSERT_NE(0, std::memcmp(rewritten.columns[0].blocks[b].data(),
                             f.compressed.columns[0].blocks[b].data(),
                             rewritten.columns[0].blocks[b].size()));
  }
  ScanOutput expected;
  {
    s3sim::ObjectStore store;
    ASSERT_TRUE(
        UploadCompressedRelation(rewritten, nullptr, "lake/", &store).ok());
    Scanner scanner(&store, "svc_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    ASSERT_TRUE(scanner.Scan(FastSpec(), &expected).ok());
  }

  ByteBuffer object;
  SerializeColumnFile(rewritten.columns[0], &object);
  ASSERT_TRUE(f.store
                  .Put(ColumnFileKey("lake/", resolved, 0), object.data(),
                       object.size())
                  .ok());

  Scanner scanner(service, "reader-b", &f.store, "svc_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ScanOutput output;
  Status status = scanner.Scan(FastSpec(), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectOutputsBitIdentical(expected, output, 4);
  EXPECT_EQ(output.stats.cache_misses, 2u) << "the rewritten id blocks";
  EXPECT_EQ(output.stats.cache_hits, 4u);
}

// --- fairness ---------------------------------------------------------------

// A hog floods the service from several threads while a light tenant runs
// a handful of scans. DRR lanes must keep the light tenant's fair-queue
// waits bounded: its p95 stays under a generous absolute bound that holds
// even at TSan's ~10x slowdown, and far under the hog's total backlog.
TEST(ScanServiceTest, LightTenantQueueWaitBoundedUnderHog) {
  Fixture f;
  service::ScanServiceConfig config = SmallServiceConfig();
  config.fetch_threads = 2;  // scarce executors so the hog really queues
  config.decode_threads = 2;
  service::ScanService service(config);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> hogs;
  for (int t = 0; t < 3; t++) {
    hogs.emplace_back([&] {
      Scanner scanner(service, "hog", &f.store, "svc_table", "lake/");
      if (!scanner.Open().ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        ScanOutput output;
        if (!scanner.Scan(FastSpec(), &output).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  Scanner light(service, "light", &f.store, "svc_table", "lake/");
  ASSERT_TRUE(light.Open().ok());
  for (int s = 0; s < 5; s++) {
    ScanOutput output;
    Status status = light.Scan(FastSpec(), &output);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectOutputsBitIdentical(f.reference, output, 100 + s);
  }
  stop.store(true);
  for (std::thread& hog : hogs) hog.join();
  EXPECT_EQ(failures.load(), 0);

  service::TenantStats stats = service.GetTenantStats("light");
  EXPECT_GT(stats.queue_items, 0u);
  // Generous absolute bound: a starved lane would wait out the hog's whole
  // backlog (seconds); a fair lane waits at most a few executor slots.
  EXPECT_LT(stats.queue_wait_p95_ns, 2ull * 1000 * 1000 * 1000)
      << "light tenant p95 queue wait "
      << stats.queue_wait_p95_ns / 1000000.0 << " ms";
}

// --- chaos ------------------------------------------------------------------

// Seeded fault schedules against the shared store while four tenants scan
// through one service: every scan either matches the reference
// bit-for-bit or fails with a typed Status. Cross-tenant sharing must not
// weaken the standalone chaos guarantees.
TEST(ScanServiceTest, MultiTenantChaosBitIdenticalOrTypedStatus) {
  Fixture f;
  service::ScanService service(SmallServiceConfig());
  u32 ok_scans = 0;
  u32 failed_scans = 0;
  for (u64 seed = 1; seed <= 12; seed++) {
    f.store.InstallFaultPlan(s3sim::MakeChaosPlan(seed, 0.15, true));
    std::vector<std::thread> threads;
    std::mutex tally_mutex;
    for (int t = 0; t < 4; t++) {
      threads.emplace_back([&, t, seed] {
        Scanner scanner(service, "chaos-" + std::to_string(t), &f.store,
                        "svc_table", "lake/");
        ScanSpec spec = FastSpec();
        Status status = scanner.Open(spec.config);
        ScanOutput output;
        if (status.ok()) status = scanner.Scan(spec, &output);
        std::lock_guard<std::mutex> lock(tally_mutex);
        if (status.ok()) {
          ExpectOutputsBitIdentical(f.reference, output, seed * 10 + t);
          ok_scans++;
        } else {
          EXPECT_TRUE(status.IsCorruption() || status.IsTransient() ||
                      status.IsNotFound() || status.IsIoError())
              << "seed " << seed << ": untyped failure "
              << status.ToString();
          failed_scans++;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  f.store.InstallFaultPlan(s3sim::FaultPlan());
  EXPECT_GT(ok_scans, 0u);
  EXPECT_EQ(service.running_scans(), 0u);
}

}  // namespace
}  // namespace btr
