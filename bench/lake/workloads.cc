// The four lakebench workloads: set-up, closed-loop timed phases, result
// checks and the traced run's per-layer numbers.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "btr/zonemap.h"
#include "exec/thread_pool.h"
#include "lakebench.h"
#include "obs/trace.h"
#include "s3sim/object_store.h"
#include "service/scan_service.h"
#include "util/timer.h"
#include "write/recovery.h"
#include "write/streaming_writer.h"

namespace btr::lakebench {
namespace {

const char* const kPrefix = "lake/";
const char* const kTable = "lake";

// Every untraced phase completes at least this many ops, so at least ten
// latency samples lie beyond p95.
constexpr u64 kMinOps = 200;
// Every 10th op of a client is a verification op: its chunks are compared
// value for value as they arrive, so its latency is not sampled and its
// time is taken out of the phase's wall time.
constexpr u64 kVerifyEvery = 10;

// Modeled network: 2 ms to first byte and 2 Gbit/s per GET.
constexpr double kFirstByteS = 0.002;
constexpr double kGetGbps = 2.0;

s3sim::S3Config ModeledNetwork(bool wall_clock) {
  s3sim::S3Config config;
  config.simulate_wall_clock = wall_clock;
  config.wall_clock_request_latency_s = kFirstByteS;
  config.wall_clock_gbps = kGetGbps;
  return config;
}

ScanConfig BaseScanConfig() {
  ScanConfig config;
  config.scan_threads = kClientThreads;
  config.fetch_threads = kFetchConnections;
  return config;
}

struct OpOutcome {
  double latency_ms = 0;
  bool light = true;
  u64 covered_bytes = 0;
  bool verified = false;       // a verification op (see kVerifyEvery)
  double admission_ms = 0;     // serviced scans: time queued for admission
  std::string error;           // empty when the op succeeded and was right
};

// Sums of per-scan profiles (obs::ScanProfile).
struct ProfileTotals {
  u64 scans = 0;
  double stage_ms[obs::kScanStageCount] = {};
  double activity_ms[obs::kScanActivityCount] = {};
  u64 activity_count[obs::kScanActivityCount] = {};
  u64 requests = 0;
  u64 cache_hits = 0;
  u64 retries = 0;
  u64 hedged = 0;
  u64 hedge_wins = 0;
  u64 blocks_decoded = 0;
  u64 bytes_fetched = 0;
  double scan_ms = 0;  // Scan() wall time

  void Add(const obs::ScanProfile& p) {
    scans++;
    scan_ms += p.wall_seconds * 1e3;
    for (u32 s = 0; s < obs::kScanStageCount; s++) {
      stage_ms[s] += p.stages[s].wall_ns / 1e6;
    }
    for (u32 a = 0; a < obs::kScanActivityCount; a++) {
      activity_ms[a] += p.activities[a].ns / 1e6;
      activity_count[a] += p.activities[a].count;
    }
    requests += p.requests;
    cache_hits += p.cache_hits;
    retries += p.retries;
    hedged += p.hedged_requests;
    hedge_wins += p.hedge_wins;
    blocks_decoded += p.blocks_decoded;
    bytes_fetched += p.bytes_fetched;
  }
  double Stage(obs::ScanStage s) const {
    return scans == 0 ? 0 : stage_ms[static_cast<u32>(s)] / scans;
  }
  double ActivityPerScan(obs::ScanActivity a) const {
    return scans == 0 ? 0 : activity_ms[static_cast<u32>(a)] / scans;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// State shared by a workload's phases. `profiling` turns on
// ScanConfig::collect_profile; profiles of the traced phase also land in
// `traced_profiles`.
struct Context {
  RunOptions options;
  SpanRecorder* spans = nullptr;
  bool profiling = false;
  bool traced_phase = false;
  std::mutex mutex;
  ProfileTotals all_profiles;     // every profiled scan of the run
  ProfileTotals traced_profiles;  // profiled scans of the traced phase
  u64 open_gets = 0;              // GETs one Scanner::Open issued

  void Record(const ScanStats& stats) {
    if (stats.profile == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex);
    all_profiles.Add(*stats.profile);
    if (traced_phase) traced_profiles.Add(*stats.profile);
  }
};

// Opens `scanner` inside a span; the first Open of a run, made while no
// other client runs, also counts its GETs.
Status OpenScanner(Context* ctx, Scanner* scanner, s3sim::ObjectStore* store,
                   const ScanConfig& config, u64 op) {
  SpanRecorder::Scope span(ctx->spans, "scanner.open", op);
  u64 before = store->total_requests();
  Status status = scanner->Open(config);
  if (ctx->open_gets == 0) ctx->open_gets = store->total_requests() - before;
  return status;
}

// Scans one query into `sink`, with spans around Scan and each emit. A
// scan whose sink compares values spends bench time inside the scan, so it
// gets its own span names and its profile is left out of the layer numbers.
Status ScanQuery(Context* ctx, Scanner* scanner, const Query& query,
                 ScanConfig config, ScanSink* sink, ScanStats* stats, u64 op) {
  const bool verify = sink->checker != nullptr;
  ScanSpec spec;
  spec.columns = query.columns;
  spec.filter = query.filter;
  config.collect_profile = ctx->profiling && !verify;
  spec.config = config;
  Status status;
  {
    SpanRecorder::Scope span(ctx->spans,
                             verify ? "scanner.verify_scan" : "scanner.scan", op);
    status = scanner->Scan(
        spec,
        [&](ColumnChunk&& chunk) {
          SpanRecorder::Scope emit(ctx->spans,
                                   verify ? "bench.verify" : "bench.emit", op);
          sink->Consume(chunk);
        },
        stats);
  }
  ctx->Record(*stats);
  return status;
}

u64 StoredBytes(const s3sim::ObjectStore& store, const std::string& prefix) {
  u64 total = 0;
  for (const std::string& key : store.ListKeys(prefix)) {
    u64 size = 0;
    if (store.ObjectSize(key, &size).ok()) total += size;
  }
  return total;
}

class Workload {
 public:
  explicit Workload(Context* ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;

  // Builds the generated inputs; not part of set-up time.
  virtual void Prepare(const Relation& table) = 0;
  // One set-up repetition, replacing the previous one.
  virtual void SetUp() = 0;
  virtual u32 clients() const { return 1; }
  // Runs op `k` of `client`; `op` is the run-wide op id for spans.
  virtual OpOutcome RunOp(u32 client, u64 k, u64 op) = 0;
  // Oracle checks that need the whole run; appends failures to `report`.
  virtual void Verify(WorkloadReport* report) { (void)report; }
  virtual s3sim::ObjectStore* store() = 0;
  virtual double compression_ratio() const = 0;
  // Workload-specific per-layer numbers of the traced run, into
  // report->layer (and report->extra for printed-only values). Only
  // tenant_storm runs through a ScanService.
  virtual void LayerMetrics(WorkloadReport* report) {
    report->layer.push_back({"service.admission_wait_p95_share", 0, "frac"});
    report->layer.push_back({"service.queue_wait_p95_share", 0, "frac"});
  }

 protected:
  Context* ctx_;
};

// --- scan workloads -------------------------------------------------------------

// Compressed on a 4-thread pool with zone maps, uploaded through the
// versioned write path into a store that models the network.
class ScanWorkload : public Workload {
 public:
  using Workload::Workload;

  void Prepare(const Relation& table) override { table_ = &table; }
  s3sim::ObjectStore* store() override { return store_.get(); }
  double compression_ratio() const override { return ratio_; }

  void Verify(WorkloadReport* report) override {
    // The stored table itself must be intact after the run.
    SpanRecorder::Scope span(ctx_->spans, "write.fsck", SpanRecorder::kNoOp);
    store_->ClearFaultPlan();
    write::FsckOptions options;
    options.verify_committed = true;
    write::FsckReport fsck;
    Status status = write::Fsck(store_.get(), kPrefix, kTable, options, &fsck);
    if (!status.ok() || !fsck.clean || fsck.verify_failures != 0) {
      report->verify_failures++;
      report->verify_errors.push_back("fsck of the scanned table failed: " +
                                      status.ToString());
    }
  }

 protected:
  void UploadTable() {
    store_.reset();
    CompressedRelation compressed;
    {
      SpanRecorder::Scope span(ctx_->spans, "setup.compress",
                               SpanRecorder::kNoOp);
      exec::ThreadPool pool(kClientThreads);
      compressed = CompressRelation(*table_, CompressionConfig(), &pool);
    }
    TableZoneMap zones;
    for (const Column& column : table_->columns()) {
      zones.columns.push_back(ComputeColumnZoneMap(column));
    }
    store_ = std::make_unique<s3sim::ObjectStore>(ModeledNetwork(true));
    {
      SpanRecorder::Scope span(ctx_->spans, "write.commit",
                               SpanRecorder::kNoOp);
      Status status =
          UploadCompressedRelation(compressed, &zones, kPrefix, store_.get());
      BTR_CHECK_MSG(status.ok(), "lakebench: table upload failed");
    }
    ratio_ = static_cast<double>(table_->UncompressedBytes()) /
             StoredBytes(*store_, kPrefix);
  }

  // Scanner construction + Open + Scan + consuming the chunks.
  OpOutcome RunFreshScanner(const Query& query, const ScanConfig& config,
                            service::ScanService* service,
                            const std::string& tenant, bool verify, u64 op) {
    OpOutcome out;
    out.light = query.light;
    out.covered_bytes = query.covered_bytes;
    out.verified = verify;
    std::unique_ptr<ValueChecker> checker;
    if (verify) checker = std::make_unique<ValueChecker>(*table_, query);
    ScanSink sink(query, checker.get());
    ScanStats stats;
    Timer timer;
    std::unique_ptr<Scanner> scanner =
        service != nullptr
            ? std::make_unique<Scanner>(*service, tenant, store_.get(), kTable,
                                        kPrefix)
            : std::make_unique<Scanner>(store_.get(), kTable, kPrefix);
    Status status = OpenScanner(ctx_, scanner.get(), store_.get(), config, op);
    if (status.ok()) {
      status = ScanQuery(ctx_, scanner.get(), query, config, &sink, &stats, op);
    }
    out.latency_ms = timer.ElapsedSeconds() * 1e3;
    out.admission_ms = stats.admission_wait_ns / 1e6;
    out.error = CheckScan(*table_, query, status, stats, sink);
    return out;
  }

  const Relation* table_ = nullptr;
  std::unique_ptr<s3sim::ObjectStore> store_;
  double ratio_ = 0;
};

// cold_scan: a fresh standalone Scanner per query, no cache, hedged GETs,
// and a seeded fault plan (+20 ms on 1% of GETs, 0.5% throttled).
class ColdScan : public ScanWorkload {
 public:
  using ScanWorkload::ScanWorkload;

  void Prepare(const Relation& table) override {
    ScanWorkload::Prepare(table);
    queries_ = MakeProjectionQueries(table, ctx_->options.seed, 200);
    ComputeExpected(table, &queries_);
    config_ = BaseScanConfig();
    config_.enable_hedged_gets = true;
  }

  void SetUp() override {
    UploadTable();
    Scanner scanner(store_.get(), kTable, kPrefix);
    Status status = OpenScanner(ctx_, &scanner, store_.get(), config_,
                                SpanRecorder::kNoOp);
    BTR_CHECK_MSG(status.ok(), "lakebench: cold_scan open failed");
    s3sim::FaultPlan plan;
    plan.seed = ctx_->options.seed;
    s3sim::FaultRule spike;
    spike.kind = s3sim::FaultKind::kLatency;
    spike.probability = 0.01;
    spike.latency_ns = 20ull * 1000 * 1000;
    s3sim::FaultRule throttle;
    throttle.kind = s3sim::FaultKind::kThrottle;
    throttle.probability = 0.005;
    plan.rules = {spike, throttle};
    store_->InstallFaultPlan(plan);
  }

  OpOutcome RunOp(u32, u64 k, u64 op) override {
    return RunFreshScanner(queries_[k % queries_.size()], config_, nullptr, "",
                           k % kVerifyEvery == 0, op);
  }

 private:
  std::vector<Query> queries_;
  ScanConfig config_;
};

// warm_scan: one Scanner whose 64 MiB block cache holds the whole table,
// so the timed phase issues no GETs: zone maps, compressed-form
// predicates, cascade decode and emit, with the network idle.
class WarmScan : public ScanWorkload {
 public:
  using ScanWorkload::ScanWorkload;

  void Prepare(const Relation& table) override {
    ScanWorkload::Prepare(table);
    queries_ = MakeFilterQueries(table, ctx_->options.seed, 180, 0.25);
    ComputeExpected(table, &queries_);
    config_ = BaseScanConfig();
    config_.enable_block_cache = true;
    config_.block_cache_bytes = 64ull << 20;
  }

  void SetUp() override {
    scanner_.reset();
    UploadTable();
    scanner_ = std::make_unique<Scanner>(store_.get(), kTable, kPrefix);
    Status status = OpenScanner(ctx_, scanner_.get(), store_.get(), config_,
                                SpanRecorder::kNoOp);
    Query all;
    all.expected_matches = table_->row_count();
    ScanSink sink(all, nullptr);
    ScanStats stats;
    if (status.ok()) {
      status = ScanQuery(ctx_, scanner_.get(), all, config_, &sink, &stats,
                         SpanRecorder::kNoOp);
    }
    BTR_CHECK_MSG(CheckScan(*table_, all, status, stats, sink).empty(),
                  "lakebench: warm_scan cache warm-up failed");
  }

  OpOutcome RunOp(u32, u64 k, u64 op) override {
    const Query& query = queries_[k % queries_.size()];
    OpOutcome out;
    out.light = query.light;
    out.covered_bytes = query.covered_bytes;
    out.verified = k % kVerifyEvery == 0;
    std::unique_ptr<ValueChecker> checker;
    if (out.verified) checker = std::make_unique<ValueChecker>(*table_, query);
    ScanSink sink(query, checker.get());
    ScanStats stats;
    Timer timer;
    Status status =
        ScanQuery(ctx_, scanner_.get(), query, config_, &sink, &stats, op);
    out.latency_ms = timer.ElapsedSeconds() * 1e3;
    out.error = CheckScan(*table_, query, status, stats, sink);
    return out;
  }

 private:
  std::vector<Query> queries_;
  ScanConfig config_;
  std::unique_ptr<Scanner> scanner_;
};

// tenant_storm: four clients, one tenant each, sharing one ScanService
// whose 16 MiB cache is smaller than the table. Tenant "hog" runs
// full-width scans; three light tenants run warm_scan-style queries.
class TenantStorm : public ScanWorkload {
 public:
  using ScanWorkload::ScanWorkload;

  void Prepare(const Relation& table) override {
    ScanWorkload::Prepare(table);
    tenant_queries_.push_back(MakeFullScanQueries(100));
    for (u32 c = 1; c < kClientThreads; c++) {
      tenant_queries_.push_back(
          MakeFilterQueries(table, ctx_->options.seed * 7 + c, 100, 0.0));
    }
    for (std::vector<Query>& queries : tenant_queries_) {
      ComputeExpected(table, &queries);
    }
    config_ = BaseScanConfig();
  }

  void SetUp() override {
    service_.reset();
    UploadTable();
    service::ScanServiceConfig config;
    config.fetch_threads = kFetchConnections;
    config.decode_threads = kClientThreads;
    config.max_concurrent_scans = 2;
    config.admission_timeout_ns = 60ull * 1000 * 1000 * 1000;
    config.cache.capacity_bytes = 16ull << 20;
    service_ = std::make_unique<service::ScanService>(config);
    // One full scan settles the shared cache before timing.
    Query all = tenant_queries_[0][0];
    OpOutcome warm = RunFreshScanner(all, config_, service_.get(), "warmup",
                                     false, SpanRecorder::kNoOp);
    BTR_CHECK_MSG(warm.error.empty(), "lakebench: tenant_storm warm-up failed");
  }

  u32 clients() const override { return kClientThreads; }

  OpOutcome RunOp(u32 client, u64 k, u64 op) override {
    const std::vector<Query>& queries = tenant_queries_[client];
    OpOutcome out = RunFreshScanner(queries[k % queries.size()], config_,
                                    service_.get(), Tenant(client),
                                    k % kVerifyEvery == 0, op);
    out.light = client != 0;
    return out;
  }

  // Shares of the light tenants' p95 latency spent waiting for admission
  // and in the fair queues; the raw waits are printed alongside.
  void LayerMetrics(WorkloadReport* report) override {
    double light_p95 = Percentile(report->traced.light_ms, 0.95);
    double admission_p95 = Percentile(report->traced.light_admission_ms, 0.95);
    double queue_p95 = 0;
    for (u32 c = 1; c < kClientThreads; c++) {
      queue_p95 += service_->GetTenantStats(Tenant(c)).queue_wait_p95_ns / 1e6;
    }
    queue_p95 /= kClientThreads - 1;
    report->layer.push_back({"service.admission_wait_p95_share",
                             Ratio(admission_p95, light_p95), "frac"});
    report->layer.push_back({"service.queue_wait_p95_share",
                             Ratio(queue_p95, light_p95), "frac"});
    report->extra.push_back(
        {"service.admission_wait_p95_ms", admission_p95, "ms"});
    report->extra.push_back({"service.queue_wait_p95_ms", queue_p95, "ms"});
  }

 private:
  static std::string Tenant(u32 client) {
    return client == 0 ? "hog" : "light" + std::to_string(client);
  }

  std::vector<std::vector<Query>> tenant_queries_;
  ScanConfig config_;
  std::unique_ptr<service::ScanService> service_;
};

// --- ingest --------------------------------------------------------------------

constexpr u32 kPartitionRows = 32000;
constexpr u32 kChunkRows = 16000;

// ingest: one client committing partitions of 2 x 16,000 rows through
// StreamingWriter (zone maps, verify-before-commit) into a store whose
// PUTs are not wall-clock modeled.
class Ingest : public Workload {
 public:
  using Workload::Workload;

  void Prepare(const Relation& table) override {
    table_ = &table;
    for (u32 begin = 0; begin + kPartitionRows <= table.row_count();
         begin += kPartitionRows) {
      Partition p;
      p.first = SliceRows(table, begin, kChunkRows);
      p.second = SliceRows(table, begin + kChunkRows, kChunkRows);
      p.raw_bytes = p.first.UncompressedBytes() + p.second.UncompressedBytes();
      partitions_.push_back(std::move(p));
    }
    for (const Column& c : table.columns()) schema_.push_back({c.name(), c.type()});
  }

  // A fresh store plus one warm-up partition commit.
  void SetUp() override {
    store_ = std::make_unique<s3sim::ObjectStore>(ModeledNetwork(false));
    OpOutcome warm = Commit("warmup", partitions_[0], SpanRecorder::kNoOp);
    BTR_CHECK_MSG(warm.error.empty(), "lakebench: ingest warm-up failed");
    committed_ = 0;
  }

  OpOutcome RunOp(u32, u64 k, u64 op) override {
    OpOutcome out =
        Commit(PartitionName(k), partitions_[k % partitions_.size()], op);
    if (out.error.empty()) committed_ = k + 1;
    return out;
  }

  s3sim::ObjectStore* store() override { return store_.get(); }

  // Raw over stored bytes of the first pass over the source table, so the
  // ratio does not depend on how many ops the run completed.
  double compression_ratio() const override {
    u64 raw = 0, stored = 0;
    for (u64 k = 0; k < std::min<u64>(committed_, partitions_.size()); k++) {
      raw += partitions_[k].raw_bytes;
      stored += StoredBytes(*store_, kPrefix + PartitionName(k) + ".");
    }
    return Ratio(static_cast<double>(raw), static_cast<double>(stored));
  }

  // Fsck with verify_committed, then 10 seeded partitions read back and
  // compared value for value with their source rows.
  void Verify(WorkloadReport* report) override {
    Random rng(ctx_->options.seed ^ 0x1D6E57ull);
    for (u32 i = 0; i < 10 && committed_ > 0; i++) {
      u64 k = rng.NextBounded(committed_);
      std::string error = CheckPartition(k);
      if (!error.empty()) {
        report->verify_failures++;
        report->verify_errors.push_back(PartitionName(k) + ": " + error);
      }
    }
  }

 private:
  struct Partition {
    Relation first{"chunk"};
    Relation second{"chunk"};
    u64 raw_bytes = 0;
  };

  static std::string PartitionName(u64 k) { return "part_" + std::to_string(k); }

  // Begin + Append + Append + Commit of one partition.
  OpOutcome Commit(const std::string& name, const Partition& p, u64 op) {
    OpOutcome out;
    out.covered_bytes = p.raw_bytes;
    Timer timer;
    write::StreamingWriter writer(store_.get(), name, kPrefix);
    Status status;
    {
      SpanRecorder::Scope span(ctx_->spans, "write.begin", op);
      status = writer.Begin(schema_);
    }
    for (const Relation* chunk : {&p.first, &p.second}) {
      if (!status.ok()) break;
      SpanRecorder::Scope span(ctx_->spans, "write.append", op);
      status = writer.Append(*chunk);
    }
    if (status.ok()) {
      SpanRecorder::Scope span(ctx_->spans, "write.commit", op);
      status = writer.Commit();
    }
    out.latency_ms = timer.ElapsedSeconds() * 1e3;
    if (!status.ok()) {
      out.error = status.ToString();
    } else if (writer.rows_appended() != kPartitionRows) {
      out.error = "writer appended a partial partition";
    }
    return out;
  }

  std::string CheckPartition(u64 k) {
    const std::string name = PartitionName(k);
    {
      SpanRecorder::Scope span(ctx_->spans, "write.fsck", SpanRecorder::kNoOp);
      write::FsckOptions options;
      options.verify_committed = true;
      write::FsckReport fsck;
      Status status = write::Fsck(store_.get(), kPrefix, name, options, &fsck);
      if (!status.ok()) return "fsck failed: " + status.ToString();
      if (!fsck.clean || fsck.verify_failures != 0) return "fsck found damage";
    }
    const u32 begin = static_cast<u32>(k % partitions_.size()) * kPartitionRows;
    Relation source = SliceRows(*table_, begin, kPartitionRows);
    Query all;
    all.expected_matches = kPartitionRows;
    Scanner scanner(store_.get(), name, kPrefix);
    Status status = OpenScanner(ctx_, &scanner, store_.get(), BaseScanConfig(),
                                SpanRecorder::kNoOp);
    // A plain scan (counts only) gives the traced run its scanner and exec
    // numbers; a second scan compares every value.
    ScanSink plain(all, nullptr);
    ScanStats stats;
    if (status.ok()) {
      status = ScanQuery(ctx_, &scanner, all, BaseScanConfig(), &plain, &stats,
                         SpanRecorder::kNoOp);
    }
    std::string error = CheckScan(source, all, status, stats, plain);
    if (!error.empty()) return error;
    ValueChecker checker(source, all);
    ScanSink checked(all, &checker);
    status = ScanQuery(ctx_, &scanner, all, BaseScanConfig(), &checked, &stats,
                       SpanRecorder::kNoOp);
    return CheckScan(source, all, status, stats, checked);
  }

  const Relation* table_ = nullptr;
  std::vector<Partition> partitions_;
  std::vector<write::StreamingWriter::ColumnSpec> schema_;
  std::unique_ptr<s3sim::ObjectStore> store_;
  u64 committed_ = 0;  // ops 0..committed_-1 committed their partition
};

// --- phases ----------------------------------------------------------------------

// Closed loop: each client sends its next op when the previous one
// returned, until `seconds` elapsed and `min_ops` timed (non-verification)
// ops completed.
PhaseResult RunPhase(Workload* workload, Context* ctx, double seconds,
                     u64 min_ops, u64* next_op, bool chrome) {
  s3sim::ObjectStore* store = workload->store();
  const u64 gets0 = store->total_requests();
  const u64 bytes0 = store->total_bytes_fetched();
  const u64 puts0 = store->total_put_requests();
  const u64 first_op = *next_op;
  std::atomic<u64> op_ids{first_op};
  std::atomic<u64> done{0};
  std::mutex mutex;
  PhaseResult result;
  if (chrome) obs::Tracer::Get().Enable();

  Timer wall;
  auto client = [&](u32 c) {
    std::vector<OpOutcome> ops;
    double verify_s = 0;
    for (u64 k = 0;; k++) {
      if (wall.ElapsedSeconds() >= seconds && done.load() >= min_ops) break;
      u64 op = op_ids.fetch_add(1);
      OpOutcome out;
      Timer op_timer;
      {
        SpanRecorder::Scope span(ctx->spans, "op", op);
        out = workload->RunOp(c, k, op);
      }
      if (out.verified) {
        verify_s += op_timer.ElapsedSeconds();
      } else {
        done.fetch_add(1);
      }
      if (chrome && op + 1 - first_op >= kChromeTraceOps) {
        obs::Tracer::Get().Disable();
      }
      ops.push_back(std::move(out));
    }
    std::lock_guard<std::mutex> lock(mutex);
    result.verify_s += verify_s / workload->clients();
    for (OpOutcome& out : ops) {
      result.attempted++;
      if (!out.error.empty()) {
        result.failed++;
        if (result.errors.size() < 5) result.errors.push_back(out.error);
        continue;
      }
      if (out.verified) {
        result.verified++;
        continue;
      }
      result.latency_ms.push_back(out.latency_ms);
      if (out.light) {
        result.light_ms.push_back(out.latency_ms);
        result.light_admission_ms.push_back(out.admission_ms);
      }
      result.covered_bytes += out.covered_bytes;
    }
  };
  std::vector<std::thread> threads;
  for (u32 c = 0; c < workload->clients(); c++) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  result.wall_s = wall.ElapsedSeconds();
  obs::Tracer::Get().Disable();

  result.gets = store->total_requests() - gets0;
  result.get_bytes = store->total_bytes_fetched() - bytes0;
  result.puts = store->total_put_requests() - puts0;
  *next_op = op_ids.load();
  return result;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Context* ctx) {
  if (name == "cold_scan") return std::make_unique<ColdScan>(ctx);
  if (name == "warm_scan") return std::make_unique<WarmScan>(ctx);
  if (name == "tenant_storm") return std::make_unique<TenantStorm>(ctx);
  if (name == "ingest") return std::make_unique<Ingest>(ctx);
  return nullptr;
}

void PathMetrics(const Context& ctx, const PhaseResult& traced,
                 SpanRecorder* spans, std::vector<Metric>* out) {
  // Store counters cover every op of the traced phase; profiles cover its
  // scans without value checks (one per op that is not a verification op).
  const double ops = std::max<double>(1, traced.attempted);
  const ProfileTotals& path = ctx.traced_profiles;
  const ProfileTotals& all = ctx.all_profiles;
  const double scans = std::max<double>(1, path.scans);
  out->push_back({"s3sim.gets_per_op", traced.gets / ops, "count"});
  out->push_back({"s3sim.get_mb_per_op", traced.get_bytes / 1e6 / ops, "MB"});
  // Modeled network time of an average block GET of the run's profiled
  // scans (warm_scan's come from its cache warm-up).
  const double block_gets = static_cast<double>(all.requests - all.cache_hits);
  out->push_back(
      {"s3sim.modeled_ms_per_get",
       Ratio(block_gets * kFirstByteS * 1e3 +
                 all.bytes_fetched * 8 / (kGetGbps * 1e9) * 1e3,
             block_gets),
       "ms"});
  out->push_back({"s3sim.puts_per_op", traced.puts / ops, "count"});
  out->push_back({"scanner.open_ms", Median(spans->Durations("scanner.open")),
                  "ms"});
  out->push_back({"scanner.open_gets", static_cast<double>(ctx.open_gets),
                  "count"});
  out->push_back({"scanner.scan_ms", Median(spans->Durations("scanner.scan")),
                  "ms"});
  out->push_back({"scanner.plan_ms", all.Stage(obs::ScanStage::kPlan), "ms"});
  out->push_back(
      {"scanner.emit_wait_ms", all.Stage(obs::ScanStage::kEmitWait), "ms"});
  out->push_back({"scanner.emit_ms", all.Stage(obs::ScanStage::kEmit), "ms"});
  out->push_back(
      {"scanner.blocks_decoded_per_op", path.blocks_decoded / scans, "count"});
  const u32 get = static_cast<u32>(obs::ScanActivity::kGet);
  out->push_back({"exec.get_ms_per_get",
                  Ratio(all.activity_ms[get], all.activity_count[get]), "ms"});
  // Share of decode-worker time spent blocked on the prefetch queue (the
  // standalone pipeline's wait for fetched blocks; the serviced path has
  // no prefetch queue and records none).
  out->push_back(
      {"exec.prefetch_wait_share",
       Ratio(all.activity_ms[static_cast<u32>(obs::ScanActivity::kPrefetchWait)],
             all.scan_ms * kClientThreads),
       "frac"});
  out->push_back({"exec.validate_ms_per_scan",
                  all.ActivityPerScan(obs::ScanActivity::kValidate), "ms"});
  out->push_back({"exec.retries_per_op", path.retries / scans, "count"});
  out->push_back({"exec.hedges_per_op", path.hedged / scans, "count"});
  out->push_back({"exec.hedge_win_ratio", Ratio(path.hedge_wins, path.hedged),
                  "ratio"});
  out->push_back({"exec.cache_hit_ratio",
                  Ratio(path.cache_hits, path.requests), "ratio"});
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold_scan", "warm_scan",
                                                 "tenant_storm", "ingest"};
  return names;
}

WorkloadReport RunWorkload(const RunOptions& options, SpanRecorder* spans) {
  Context ctx;
  ctx.options = options;
  ctx.spans = spans;
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, &ctx);
  BTR_CHECK_MSG(workload != nullptr, "lakebench: unknown workload");
  WorkloadReport report;

  Relation table = MakeLakeTable(kTableRows, options.seed);
  workload->Prepare(table);
  report.extra.push_back({"table.raw_mb", table.UncompressedBytes() / 1e6, "MB"});

  // Set-up runs several times and reports the median; the traced run sets
  // up once, with spans and profiles on.
  const int setups = options.trace ? 1 : 3;
  ctx.profiling = options.trace;
  spans->SetEnabled(options.trace);
  for (int i = 0; i < setups; i++) {
    SpanRecorder::Scope span(spans, "setup", SpanRecorder::kNoOp);
    Timer timer;
    workload->SetUp();
    report.setup_s.push_back(timer.ElapsedSeconds());
  }

  u64 next_op = 0;
  ctx.profiling = false;
  spans->SetEnabled(false);
  if (!options.trace) {
    report.untraced = RunPhase(workload.get(), &ctx, options.seconds, kMinOps,
                               &next_op, false);
  } else {
    // Half the run untraced (the overhead baseline), half traced.
    const double half = options.seconds / 2;
    report.untraced = RunPhase(workload.get(), &ctx, half, kMinOps / 4,
                               &next_op, false);
    ctx.profiling = true;
    ctx.traced_phase = true;
    spans->SetEnabled(true);
    next_op = 0;  // traced op ids start at 0 (kChromeTraceOps selects by id)
    report.traced = RunPhase(workload.get(), &ctx, half, kMinOps / 4, &next_op,
                             true);
    ctx.traced_phase = false;
  }
  workload->Verify(&report);
  report.compression_ratio = workload->compression_ratio();

  if (options.trace) {
    PathMetrics(ctx, report.traced, spans, &report.layer);
    workload->LayerMetrics(&report);
    u64 probe_failures =
        RunLayerProbes(table, options.seed, spans, &report.layer);
    if (probe_failures != 0) {
      report.verify_failures += probe_failures;
      report.verify_errors.push_back("layer probe results disagree");
    }
    report.layer.push_back(
        {"trace_overhead_frac",
         Ratio(Median(report.traced.latency_ms),
               Median(report.untraced.latency_ms)) - 1,
         "frac"});
    spans->SetEnabled(false);
  }
  return report;
}

}  // namespace btr::lakebench
