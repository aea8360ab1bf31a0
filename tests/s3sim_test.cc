// Tests for the simulated object store, its fault injection, and the scan
// cost model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "s3sim/fault.h"
#include "s3sim/object_store.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace btr::s3sim {
namespace {

TEST(ObjectStoreTest, PutGetRoundTrip) {
  ObjectStore store;
  Random rng(1);
  std::vector<u8> data(40 << 20);  // 40 MiB: three 16 MiB chunks
  for (u8& b : data) b = static_cast<u8>(rng.Next());
  ASSERT_TRUE(store.Put("bucket/key", data.data(), data.size()).ok());
  EXPECT_TRUE(store.Contains("bucket/key"));
  u64 size = 0;
  ASSERT_TRUE(store.ObjectSize("bucket/key", &size).ok());
  EXPECT_EQ(size, data.size());

  std::vector<u8> fetched;
  ASSERT_TRUE(store.GetObject("bucket/key", &fetched).ok());
  EXPECT_EQ(fetched, data);
  EXPECT_EQ(store.total_requests(), 3u);  // ceil(40 MiB / 16 MiB)
  EXPECT_EQ(store.total_bytes_fetched(), data.size());
  EXPECT_GT(store.network_seconds(), 0.0);
}

TEST(ObjectStoreTest, RangedGet) {
  ObjectStore store;
  std::vector<u8> data(1000);
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<u8>(i);
  ASSERT_TRUE(store.Put("k", data.data(), data.size()).ok());
  std::vector<u8> chunk;
  ASSERT_TRUE(store.GetChunk("k", 100, 50, &chunk).ok());
  ASSERT_EQ(chunk.size(), 50u);
  for (size_t i = 0; i < 50; i++) EXPECT_EQ(chunk[i], static_cast<u8>(100 + i));
  // Past-end range is clipped.
  ASSERT_TRUE(store.GetChunk("k", 990, 50, &chunk).ok());
  EXPECT_EQ(chunk.size(), 10u);
}

TEST(ObjectStoreTest, MissingObjectIsNotFoundNotAbort) {
  ObjectStore store;
  u64 size = 0;
  EXPECT_TRUE(store.ObjectSize("nope", &size).IsNotFound());
  std::vector<u8> out;
  EXPECT_TRUE(store.GetChunk("nope", 0, 10, &out).IsNotFound());
  EXPECT_TRUE(store.GetObject("nope", &out).IsNotFound());
}

TEST(ObjectStoreTest, OffsetPastEndIsInvalidArgument) {
  ObjectStore store;
  std::vector<u8> data(100, 7);
  ASSERT_TRUE(store.Put("k", data.data(), data.size()).ok());
  std::vector<u8> out;
  EXPECT_TRUE(store.GetChunk("k", 200, 10, &out).IsInvalidArgument());
}

TEST(ObjectStoreTest, ResetAccounting) {
  ObjectStore store;
  std::vector<u8> data(100, 1);
  ASSERT_TRUE(store.Put("k", data.data(), data.size()).ok());
  std::vector<u8> out;
  ASSERT_TRUE(store.GetObject("k", &out).ok());
  EXPECT_GT(store.total_requests(), 0u);
  store.ResetAccounting();
  EXPECT_EQ(store.total_requests(), 0u);
  EXPECT_EQ(store.total_bytes_fetched(), 0u);
  EXPECT_EQ(store.network_seconds(), 0.0);
}

// Put racing readers of the same key must never tear: a reader sees either
// the old blob or the new one, in full. Run with TSan in CI.
TEST(ObjectStoreTest, ConcurrentPutAndGetAreSafe) {
  ObjectStore store;
  constexpr size_t kSize = 64 << 10;
  std::vector<u8> zeros(kSize, 0x00), ones(kSize, 0xFF);
  ASSERT_TRUE(store.Put("k", zeros.data(), zeros.size()).ok());

  std::atomic<bool> stop{false};
  std::atomic<u64> torn_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&] {
      std::vector<u8> out;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(store.GetChunk("k", 0, kSize, &out).ok());
        ASSERT_EQ(out.size(), kSize);
        // Every byte must match the first: a mix means a torn blob.
        for (u8 b : out) {
          if (b != out[0]) {
            torn_reads.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        store.Put("k", (i & 1) != 0 ? ones.data() : zeros.data(), kSize).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn_reads.load(), 0u);
  // Accounting stayed coherent under concurrency.
  EXPECT_EQ(store.total_bytes_fetched(), store.total_requests() * kSize);
}

// On a wall-clock store a GET is a completion: IssueGet does the store's
// work and returns at once with the time its response lands, which
// GetChunk waits for. s3.get.serve_ns is the in-memory serve time only.
TEST(ObjectStoreTest, IssueGetReturnsBeforeItsArrival) {
  using Clock = std::chrono::steady_clock;
  using std::chrono::milliseconds;
  obs::Registry::Get().ResetAll();
  S3Config config;
  config.simulate_wall_clock = true;
  config.wall_clock_request_latency_s = 0.050;
  ObjectStore store(config);
  const std::vector<u8> object(1 << 20, 3);
  ASSERT_TRUE(store.Put("obj", object.data(), object.size()).ok());
  // 1 MiB at 2 Gbit/s, rounded down to whole microseconds.
  const std::chrono::microseconds transfer(static_cast<i64>(
      static_cast<double>(object.size()) * 8.0 / (config.wall_clock_gbps * 1e3)));

  std::vector<u8> out;
  Clock::time_point arrival;
  Clock::time_point issued = Clock::now();
  ASSERT_TRUE(store.IssueGet("obj", 0, object.size(), &out, &arrival).ok());
  EXPECT_LT(Clock::now(), arrival);
  EXPECT_GE(arrival, issued + milliseconds(50) + transfer);
  EXPECT_EQ(out, object);

  FaultPlan plan;
  plan.rules.push_back(FaultRule::Latency("obj", 1, 100 * 1000 * 1000));
  store.InstallFaultPlan(plan);
  issued = Clock::now();
  ASSERT_TRUE(store.IssueGet("obj", 0, object.size(), &out, &arrival).ok());
  EXPECT_GE(arrival, issued + milliseconds(150) + transfer)
      << "the 100 ms spike must add to the arrival";
  store.ClearFaultPlan();

  issued = Clock::now();
  ASSERT_TRUE(store.GetChunk("obj", 0, object.size(), &out).ok());
  EXPECT_GE(Clock::now(), issued + milliseconds(50) + transfer);
  EXPECT_EQ(out, object);

  const obs::Histogram& serve_ns =
      obs::Registry::Get().GetHistogram("s3.get.serve_ns");
  EXPECT_EQ(serve_ns.Count(), 3u);
  EXPECT_LT(serve_ns.Max(), 50u * 1000 * 1000)
      << "serve time must not include the modeled network wait";
}

TEST(FaultInjectionTest, TargetedOrdinalRuleFiresExactlyOnce) {
  ObjectStore store;
  std::vector<u8> data(1000, 3);
  ASSERT_TRUE(store.Put("table.2.btr", data.data(), data.size()).ok());
  ASSERT_TRUE(store.Put("table.0.btr", data.data(), data.size()).ok());

  FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(FaultRule::Throttle(".2.btr", 3));  // 3rd GET of col 2
  store.InstallFaultPlan(plan);

  std::vector<u8> out;
  for (int i = 1; i <= 5; i++) {
    Status other = store.GetChunk("table.0.btr", 0, 10, &out);
    EXPECT_TRUE(other.ok()) << "non-matching key must never fault";
    Status s = store.GetChunk("table.2.btr", 0, 10, &out);
    if (i == 3) {
      EXPECT_TRUE(s.IsThrottled()) << "ordinal 3 must throttle";
    } else {
      EXPECT_TRUE(s.ok()) << "GET " << i << " should pass";
    }
  }
  EXPECT_EQ(store.faults_injected(), 1u);  // max_fires=1 disarms the rule
}

TEST(FaultInjectionTest, TruncateAndCorruptAreDetectableDataFaults) {
  ObjectStore store;
  std::vector<u8> data(100);
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<u8>(i);
  ASSERT_TRUE(store.Put("k", data.data(), data.size()).ok());

  FaultPlan plan;
  plan.seed = 11;
  plan.rules.push_back(FaultRule::Truncate("k", 1, 5));
  plan.rules.push_back(FaultRule::Corrupt("k", 2, 10));
  store.InstallFaultPlan(plan);

  std::vector<u8> out;
  // 1st GET: truncated to 5 bytes but "successful" — like a short read.
  ASSERT_TRUE(store.GetChunk("k", 0, 50, &out).ok());
  EXPECT_EQ(out.size(), 5u);
  // 2nd GET: full length, one flipped byte at offset 10.
  ASSERT_TRUE(store.GetChunk("k", 0, 50, &out).ok());
  ASSERT_EQ(out.size(), 50u);
  EXPECT_NE(out[10], data[10]);
  out[10] = data[10];
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
  // 3rd GET: plan exhausted, clean bytes again.
  ASSERT_TRUE(store.GetChunk("k", 0, 50, &out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
  EXPECT_EQ(store.faults_injected(), 2u);
}

TEST(FaultInjectionTest, ChaosPlanIsDeterministicPerSeed) {
  auto run = [](u64 seed) {
    ObjectStore store;
    std::vector<u8> data(100, 9);
    EXPECT_TRUE(store.Put("k", data.data(), data.size()).ok());
    store.InstallFaultPlan(MakeChaosPlan(seed, 0.5, true));
    std::string outcomes;
    std::vector<u8> out;
    for (int i = 0; i < 64; i++) {
      Status s = store.GetChunk("k", 0, 100, &out);
      outcomes += s.ok() ? (out.size() == 100 ? 'o' : 't') : 'f';
    }
    return outcomes;
  };
  EXPECT_EQ(run(42), run(42)) << "same seed must replay identically";
  EXPECT_NE(run(42), run(43)) << "different seeds should differ";
  // At 50% fault rate, 64 GETs should see both outcomes.
  std::string outcomes = run(42);
  EXPECT_NE(outcomes.find('f'), std::string::npos);
  EXPECT_NE(outcomes.find('o'), std::string::npos);
}

TEST(FaultInjectionTest, ClearFaultPlanStopsInjection) {
  ObjectStore store;
  std::vector<u8> data(10, 1);
  ASSERT_TRUE(store.Put("k", data.data(), data.size()).ok());
  store.InstallFaultPlan(MakeTransientPlan(3, 1.0));
  std::vector<u8> out;
  // rate 1.0 splits across independent probability gates (~72% per GET);
  // a handful of GETs must trip at least one. Latency faults still
  // succeed, so only the counter is asserted.
  for (int i = 0; i < 16; i++) {
    (void)store.GetChunk("k", 0, 10, &out);
  }
  EXPECT_GE(store.faults_injected(), 1u);
  store.ClearFaultPlan();
  u64 before = store.faults_injected();
  for (int i = 0; i < 16; i++) {
    EXPECT_TRUE(store.GetChunk("k", 0, 10, &out).ok());
  }
  EXPECT_EQ(store.faults_injected(), before);
}

TEST(FaultInjectionTest, TransientPlanNeverCorruptsData) {
  ObjectStore store;
  std::vector<u8> data(256);
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<u8>(i * 7);
  ASSERT_TRUE(store.Put("k", data.data(), data.size()).ok());
  store.InstallFaultPlan(MakeTransientPlan(99, 0.4));
  std::vector<u8> out;
  for (int i = 0; i < 200; i++) {
    Status s = store.GetChunk("k", 0, 256, &out);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsTransient()) << s.ToString();
      continue;
    }
    ASSERT_EQ(out.size(), 256u) << "transient plan must not truncate";
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()))
        << "transient plan must not corrupt";
  }
}

TEST(MultipartUploadTest, AssemblesPartsInPartNumberOrder) {
  ObjectStore store;
  std::string id;
  ASSERT_TRUE(store.CreateMultipartUpload("mp/object", &id).ok());
  // Upload out of order; the assembled object must follow part numbers.
  const std::string p3 = "-tail", p1 = "head-", p2 = "middle";
  ASSERT_TRUE(store.UploadPart(id, 3, reinterpret_cast<const u8*>(p3.data()),
                               p3.size())
                  .ok());
  ASSERT_TRUE(store.UploadPart(id, 1, reinterpret_cast<const u8*>(p1.data()),
                               p1.size())
                  .ok());
  ASSERT_TRUE(store.UploadPart(id, 2, reinterpret_cast<const u8*>(p2.data()),
                               p2.size())
                  .ok());
  // Nothing visible until completion.
  EXPECT_FALSE(store.Contains("mp/object"));
  std::vector<PartInfo> parts;
  std::string key;
  ASSERT_TRUE(store.ListParts(id, &key, &parts).ok());
  EXPECT_EQ(key, "mp/object");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].part_number, 1u);
  EXPECT_EQ(parts[0].size, p1.size());
  EXPECT_EQ(parts[0].crc32c, Crc32c(p1.data(), p1.size()));
  ASSERT_TRUE(store.CompleteMultipartUpload(id).ok());
  std::vector<u8> blob;
  ASSERT_TRUE(store.GetObject("mp/object", &blob).ok());
  EXPECT_EQ(std::string(blob.begin(), blob.end()), "head-middle-tail");
  // The upload is gone once completed.
  EXPECT_TRUE(store.ListMultipartUploads("").empty());
  EXPECT_FALSE(store.ListParts(id, &key, &parts).ok());
}

TEST(MultipartUploadTest, ReuploadedPartReplacesDamagedBytes) {
  ObjectStore store;
  std::string id;
  ASSERT_TRUE(store.CreateMultipartUpload("mp/object", &id).ok());
  const std::string bad = "XXXX", good = "good";
  ASSERT_TRUE(store.UploadPart(id, 1, reinterpret_cast<const u8*>(bad.data()),
                               bad.size())
                  .ok());
  ASSERT_TRUE(store.UploadPart(id, 1, reinterpret_cast<const u8*>(good.data()),
                               good.size())
                  .ok());
  ASSERT_TRUE(store.CompleteMultipartUpload(id).ok());
  std::vector<u8> blob;
  ASSERT_TRUE(store.GetObject("mp/object", &blob).ok());
  EXPECT_EQ(std::string(blob.begin(), blob.end()), "good");
}

TEST(MultipartUploadTest, AbortIsIdempotentAndDropsParts) {
  ObjectStore store;
  std::string id;
  ASSERT_TRUE(store.CreateMultipartUpload("mp/object", &id).ok());
  const std::string p = "bytes";
  ASSERT_TRUE(
      store.UploadPart(id, 1, reinterpret_cast<const u8*>(p.data()), p.size())
          .ok());
  ASSERT_EQ(store.ListMultipartUploads("mp/").size(), 1u);
  ASSERT_TRUE(store.AbortMultipartUpload(id).ok());
  EXPECT_TRUE(store.ListMultipartUploads("mp/").empty());
  EXPECT_FALSE(store.Contains("mp/object"));
  // Second abort (and abort of a never-created id) is Ok — recovery may
  // race a writer's own cleanup.
  EXPECT_TRUE(store.AbortMultipartUpload(id).ok());
  EXPECT_TRUE(store.AbortMultipartUpload("no-such-upload").ok());
  // Completing an aborted upload must fail.
  EXPECT_FALSE(store.CompleteMultipartUpload(id).ok());
}

TEST(PutFaultTest, TornWriteStoresPrefixButReportsSuccess) {
  ObjectStore store;
  FaultPlan plan;
  plan.seed = 21;
  plan.rules.push_back(FaultRule::PutTornWrite("victim", 1, 3));
  store.InstallFaultPlan(plan);
  const std::string data = "0123456789";
  ASSERT_TRUE(
      store.Put("victim", reinterpret_cast<const u8*>(data.data()), data.size())
          .ok());  // silent: the ack lies
  std::vector<u8> blob;
  ASSERT_TRUE(store.GetObject("victim", &blob).ok());
  EXPECT_EQ(std::string(blob.begin(), blob.end()), "012") << "3-byte prefix";
  EXPECT_EQ(store.faults_injected(), 1u);
}

TEST(PutFaultTest, PartialPartKeepsPrefixAndReportsUnavailable) {
  ObjectStore store;
  FaultPlan plan;
  plan.seed = 22;
  plan.rules.push_back(FaultRule::PutPartialPart("mp/object", 1, 2));
  store.InstallFaultPlan(plan);
  std::string id;
  ASSERT_TRUE(store.CreateMultipartUpload("mp/object", &id).ok());
  const std::string p = "abcdef";
  Status status =
      store.UploadPart(id, 1, reinterpret_cast<const u8*>(p.data()), p.size());
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  // The damaged prefix is visible to ListParts — exactly what a resuming
  // writer must detect (size/CRC mismatch) and re-upload.
  std::vector<PartInfo> parts;
  ASSERT_TRUE(store.ListParts(id, nullptr, &parts).ok());
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size, 2u);
  // Retry replaces the part; the object assembles clean.
  ASSERT_TRUE(
      store.UploadPart(id, 1, reinterpret_cast<const u8*>(p.data()), p.size())
          .ok());
  ASSERT_TRUE(store.CompleteMultipartUpload(id).ok());
  std::vector<u8> blob;
  ASSERT_TRUE(store.GetObject("mp/object", &blob).ok());
  EXPECT_EQ(std::string(blob.begin(), blob.end()), p);
}

TEST(PutFaultTest, CrashBeforeAndAfterWriteDifferInApplication) {
  const std::string data = "payload";
  {
    ObjectStore store;
    FaultPlan plan;
    plan.seed = 23;
    plan.rules.push_back(FaultRule::PutCrashBefore("k", 1));
    store.InstallFaultPlan(plan);
    EXPECT_TRUE(store
                    .Put("k", reinterpret_cast<const u8*>(data.data()),
                         data.size())
                    .IsIoError());
    EXPECT_FALSE(store.Contains("k")) << "crash-before must not apply";
  }
  {
    ObjectStore store;
    FaultPlan plan;
    plan.seed = 24;
    plan.rules.push_back(FaultRule::PutCrashAfter("k", 1));
    store.InstallFaultPlan(plan);
    EXPECT_TRUE(store
                    .Put("k", reinterpret_cast<const u8*>(data.data()),
                         data.size())
                    .IsIoError());
    EXPECT_TRUE(store.Contains("k")) << "crash-after applied then failed";
  }
}

TEST(PutFaultTest, PutChaosPlanIsDeterministicPerSeed) {
  auto run = [](u64 seed) {
    ObjectStore store;
    store.InstallFaultPlan(MakePutChaosPlan(seed, 0.5));
    std::string trace;
    std::vector<u8> data(1024, 0xAB);
    for (int i = 0; i < 40; i++) {
      Status status =
          store.Put("chaos/" + std::to_string(i), data.data(), data.size());
      trace += status.ok() ? 'o' : 'x';
    }
    return trace;
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78)) << "different seeds, different schedules";
}

TEST(ScanModelTest, NetworkBoundWhenCpuIsFast) {
  // Uncompressed data: lots of bytes, trivial decompression.
  S3Config config;
  ScanMeasurement m;
  m.compressed_bytes = 100ull << 30;  // 100 GiB on the wire
  m.uncompressed_bytes = m.compressed_bytes;
  m.single_thread_decompress_seconds = 1.0;  // trivially cheap
  ScanResult r = SimulateScan(m, config);
  EXPECT_TRUE(r.network_bound);
  // T_c approaches the NIC rate.
  EXPECT_GT(r.tc_gbit, 90.0);
  EXPECT_LT(r.tc_gbit, 100.0);
}

TEST(ScanModelTest, CpuBoundWhenDecompressionIsSlow) {
  // Heavy codec: few bytes on the wire but expensive decompression.
  S3Config config;
  ScanMeasurement m;
  m.compressed_bytes = 10ull << 30;
  m.uncompressed_bytes = 60ull << 30;
  m.single_thread_decompress_seconds = 2000.0;  // / 36 cores = 55 s
  ScanResult r = SimulateScan(m, config);
  EXPECT_FALSE(r.network_bound);
  EXPECT_LT(r.tc_gbit, 20.0);  // network underutilized (paper Section 6.7)
}

TEST(ScanModelTest, BetterRatioAndFastCpuIsCheaper) {
  // The paper's core claim: better compression with fast decompression
  // lowers scan cost.
  S3Config config;
  ScanMeasurement parquet;  // ratio ~3.4, moderate decompression
  parquet.uncompressed_bytes = 120ull << 30;
  parquet.compressed_bytes = parquet.uncompressed_bytes / 3;
  parquet.single_thread_decompress_seconds = 4000;
  ScanMeasurement btrblocks;  // ratio ~5.3, fast decompression
  btrblocks.uncompressed_bytes = parquet.uncompressed_bytes;
  btrblocks.compressed_bytes = btrblocks.uncompressed_bytes / 5;
  btrblocks.single_thread_decompress_seconds = 800;
  ScanResult pr = SimulateScan(parquet, config);
  ScanResult br = SimulateScan(btrblocks, config);
  EXPECT_LT(br.cost_usd, pr.cost_usd);
  EXPECT_GT(br.tr_gbps, pr.tr_gbps);
}

TEST(ScanModelTest, RequestCostCountsGets) {
  S3Config config;
  config.instance_cost_per_hour = 0.0;  // isolate request cost
  ScanMeasurement m;
  m.compressed_bytes = 32ull << 20;  // 2 chunks
  m.uncompressed_bytes = 64ull << 20;
  m.single_thread_decompress_seconds = 0.01;
  ScanResult r = SimulateScan(m, config);
  EXPECT_EQ(r.requests, 2u);
  EXPECT_DOUBLE_EQ(r.cost_usd, 2 * config.request_cost_usd);
}

}  // namespace
}  // namespace btr::s3sim
