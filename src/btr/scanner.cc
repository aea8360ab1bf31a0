#include "btr/scanner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "btr/datablock.h"
#include "exec/block_cache.h"
#include "exec/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/scan_service.h"
#include "util/timer.h"
#include "write/manifest.h"
#include "write/streaming_writer.h"

namespace btr {

namespace {

struct ScanMetrics {
  obs::Counter& row_blocks;
  obs::Counter& blocks_pruned;
  obs::Counter& blocks_skipped;
  obs::Counter& blocks_decoded;
  obs::Counter& blocks_unreadable;
  obs::Counter& rows_matched;
  obs::Counter& crc_failures;
  obs::Counter& crc_refetches;
  obs::Counter& crc_rescues;
  obs::Counter& bytes_fetched;
  obs::Counter& bytes_decoded;

  static ScanMetrics& Get() {
    static ScanMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new ScanMetrics{r.GetCounter("scan.row_blocks"),
                             r.GetCounter("scan.blocks_pruned"),
                             r.GetCounter("scan.blocks_skipped"),
                             r.GetCounter("scan.blocks_decoded"),
                             r.GetCounter("scan.blocks_unreadable"),
                             r.GetCounter("scan.rows_matched"),
                             r.GetCounter("scan.crc_failures"),
                             r.GetCounter("scan.crc_refetches"),
                             r.GetCounter("scan.crc_rescues"),
                             r.GetCounter("scan.bytes_fetched"),
                             r.GetCounter("scan.bytes_decoded")};
    }();
    return *m;
  }
};

// Tenant id of a standalone Scanner inside its private service.
const char* const kStandaloneTenant = "standalone";

// The private single-tenant service a standalone Scanner runs on:
// fetch_threads GET executors, scan_threads decode executors, and the
// ScanConfig's block cache and circuit breaker (each off unless enabled).
service::ScanServiceConfig PrivateServiceConfig(const ScanConfig& config) {
  service::ScanServiceConfig service;
  service.fetch_threads = config.fetch_threads;
  service.decode_threads = config.scan_threads;
  service.cache.capacity_bytes = 0;
  if (config.enable_block_cache) {
    service.cache.capacity_bytes = config.block_cache_bytes;
  }
  service.enable_breaker = config.enable_circuit_breaker;
  if (config.enable_circuit_breaker) service.breaker = config.breaker;
  return service;
}

// What one Open() or one Scan() runs its work through: the tenant's fetch
// and decode lanes on the scanner's service, and the one GET primitive,
// exec::HedgedGet under exec::RunWithRetries with the service's breaker
// for the store and, when the config hedges, the tenant's hedge quota.
// Every GET is booked in the lane's own counters and in the tenant's.
class ServiceLane {
 public:
  // One GET issued as its own fetch item by GetAll.
  struct Request {
    std::string key;
    u64 offset = 0;
    u64 length = 0;
    Status status;          // filled by GetAll
    std::vector<u8> bytes;  // filled by GetAll
  };

  ServiceLane(service::ScanService& service, u32 tenant,
              s3sim::ObjectStore* store, const ScanConfig& config,
              obs::ScanProfileCollector* profile, exec::SleepFn sleep)
      : service_(service),
        tenant_(tenant),
        store_(store),
        profile_(profile),
        sleep_(std::move(sleep)),
        breaker_(service.BreakerFor(store)),
        retry_(config.retry),
        hedge_(config.enable_hedged_gets
                   ? std::make_unique<exec::HedgeState>(config.hedge)
                   : nullptr) {}

  // Queues `run` on the tenant's fetch or decode lane; `cost_bytes` is its
  // fair-queue charge. With a profile, the item's wait in the queue is
  // recorded as ScanActivity::kPrefetchWait.
  void Submit(bool decode, u64 cost_bytes, std::function<void()> run) {
    if (profile_ != nullptr) {
      run = [this, queued = Timer(), run = std::move(run)] {
        profile_->AddActivity(obs::ScanActivity::kPrefetchWait,
                              static_cast<u64>(queued.ElapsedNanos()));
        run();
      };
    }
    if (decode) {
      service_.SubmitDecode(tenant_, cost_bytes, std::move(run));
    } else {
      service_.SubmitFetch(tenant_, cost_bytes, std::move(run));
    }
  }

  // One GET on the calling executor thread, booked in the lane's and the
  // tenant's counters and in the profile.
  Status Get(const std::string& key, u64 offset, u64 length,
             std::vector<u8>* out) {
    obs::FetchRecord record;
    record.key = &key;
    record.offset = offset;
    record.length = length;
    u64 gets = 0;  // GETs that reached the store (a breaker rejection is none)
    exec::RetryOutcome outcome;
    Timer get_timer;
    Status status;
    {
      BTR_TRACE_SPAN("scan.fetch");
      status = exec::RunWithRetries(
          &retry_,
          [&] {
            bool duplicate = false;
            Status attempt = exec::HedgedGet(
                store_, key, offset, length, hedge_.get(), &stragglers_, out,
                &duplicate, &record.hedge_won,
                [this] { return service_.TryAcquireTenantHedge(tenant_); });
            gets += duplicate ? 2 : 1;
            record.hedged = record.hedged || duplicate;
            return attempt;
          },
          sleep_, breaker_, &outcome);
    }
    record.duration_ns = static_cast<u64>(get_timer.ElapsedNanos());
    record.attempts = outcome.attempts;
    record.retries = outcome.retries;
    record.breaker_rejected = outcome.breaker_rejected;
    record.ok = status.ok();
    const u64 bytes = status.ok() ? out->size() : 0;
    gets_.fetch_add(gets, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    service_.RecordGets(tenant_, gets, bytes, record.hedged);
    if (profile_ != nullptr) profile_->RecordFetch(record);
    return status;
  }

  // One fetch item per request; returns once every one has finished.
  void GetAll(std::vector<Request>* requests) {
    std::mutex mutex;
    std::condition_variable done;
    size_t left = requests->size();
    for (Request& request : *requests) {
      Submit(/*decode=*/false, request.length, [&, r = &request] {
        r->status = Get(r->key, r->offset, r->length, &r->bytes);
        std::lock_guard<std::mutex> lock(mutex);
        if (--left == 0) done.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return left == 0; });
  }

  // Joins hedge stragglers; call once no item can issue a GET any more.
  void Reap() { stragglers_.Reap(); }

  exec::CircuitBreaker* breaker() const { return breaker_; }
  const exec::RetryState& retry() const { return retry_; }
  u64 hedges() const { return hedge_ ? hedge_->hedges_issued() : 0; }
  u64 hedge_wins() const { return hedge_ ? hedge_->hedge_wins() : 0; }
  u64 gets() const { return gets_.load(std::memory_order_relaxed); }
  u64 bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  service::ScanService& service_;
  const u32 tenant_;
  s3sim::ObjectStore* const store_;
  obs::ScanProfileCollector* const profile_;  // null = profiling off
  const exec::SleepFn sleep_;
  exec::CircuitBreaker* const breaker_;  // null = no breaker
  exec::RetryState retry_;
  const std::unique_ptr<exec::HedgeState> hedge_;  // null = no hedging
  exec::StragglerSink stragglers_;  // hedge losers
  std::atomic<u64> gets_{0};
  std::atomic<u64> bytes_{0};
};

}  // namespace

Status UploadCompressedRelation(const CompressedRelation& relation,
                                const TableZoneMap* zones,
                                const std::string& prefix,
                                s3sim::ObjectStore* store) {
  // Thin wrapper over the crash-safe commit protocol: the objects stage
  // under the next version's keys and one manifest Put publishes them.
  // (The old implementation Put the metadata object *first* — a reader
  // racing the upload could open a table whose column objects did not
  // exist yet. The versioned commit makes that window impossible.)
  return write::CommitCompressedRelation(relation, zones, prefix, store);
}

Scanner::Scanner(s3sim::ObjectStore* store, std::string table_name,
                 std::string prefix, const CompressionConfig& config)
    : store_(store),
      table_name_(std::move(table_name)),
      prefix_(std::move(prefix)),
      config_(config) {}

Scanner::Scanner(service::ScanService& service, const std::string& tenant_id,
                 s3sim::ObjectStore* store, std::string table_name,
                 std::string prefix, const CompressionConfig& config)
    : store_(store),
      table_name_(std::move(table_name)),
      prefix_(std::move(prefix)),
      config_(config) {
  service_ = &service;
  tenant_slot_ = service.EnsureTenant(tenant_id);
}

// Out-of-line so scanner.h can hold the private service behind a forward
// declaration.
Scanner::~Scanner() = default;

service::ScanService& Scanner::ServiceFor(const ScanConfig& config) {
  if (service_ != nullptr && service_ != own_service_.get()) return *service_;
  service::ScanServiceConfig wanted = PrivateServiceConfig(config);
  if (own_service_ == nullptr ||
      own_service_->config() != wanted) {
    own_service_.reset();  // joins the old executors first
    own_service_ = std::make_unique<service::ScanService>(wanted);
    tenant_slot_ = own_service_->EnsureTenant(kStandaloneTenant);
    service_ = own_service_.get();
  }
  return *service_;
}

Status Scanner::Open(const ScanConfig& config) {
  if (store_ == nullptr) return Status::InvalidArgument("null object store");
  // Metadata-fetch time surfaces as ScanProfile::open_ns on later scans.
  Timer open_timer;
  // Open's GETs take the block GETs' path: fetch items on the scanner's
  // service (a standalone Scanner builds its private one here), retried,
  // hedged and breaker-guarded, booked in the tenant's counters.
  service::ScanService& service = ServiceFor(config);
  ServiceLane lane(service, tenant_slot_, store_, config, /*profile=*/nullptr,
                   exec::SleepUninterruptible);
  auto whole_object = [this](const std::string& key,
                             ServiceLane::Request* request) {
    request->key = key;
    return store_->ObjectSize(key, &request->length);
  };

  // Resolve which physical table version to read. The manifest's
  // committed version pins every key this Open (and later Scans) will
  // touch, so a writer committing concurrently flips future Opens to the
  // new version while this scanner keeps reading the old one —
  // either-old-or-new, never a mix. A table without a manifest has no
  // committed version.
  const std::string manifest_key = write::ManifestKey(prefix_, table_name_);
  if (!store_->Contains(manifest_key)) {
    return Status::NotFound("table manifest missing: " + manifest_key);
  }
  std::vector<ServiceLane::Request> manifest(1);
  BTR_RETURN_IF_ERROR(whole_object(manifest_key, &manifest[0]));
  lane.GetAll(&manifest);
  BTR_RETURN_IF_ERROR(manifest[0].status);
  write::Manifest parsed;
  BTR_RETURN_IF_ERROR(write::ParseManifest(
      manifest[0].bytes.data(), manifest[0].bytes.size(), &parsed));
  resolved_name_ = write::VersionedName(table_name_, parsed.committed_version);

  // The metadata and the zone-map sidecar, read concurrently.
  const std::string meta_key = TableMetaKey(prefix_, resolved_name_);
  if (!store_->Contains(meta_key)) {
    return Status::NotFound("table metadata object missing: " + meta_key);
  }
  const std::string zone_key = ZoneMapKey(prefix_, resolved_name_);
  has_zones_ = store_->Contains(zone_key);
  std::vector<ServiceLane::Request> objects(has_zones_ ? 2 : 1);
  BTR_RETURN_IF_ERROR(whole_object(meta_key, &objects[0]));
  if (has_zones_) BTR_RETURN_IF_ERROR(whole_object(zone_key, &objects[1]));
  lane.GetAll(&objects);
  for (const ServiceLane::Request& object : objects) {
    BTR_RETURN_IF_ERROR(object.status);
  }
  BTR_RETURN_IF_ERROR(
      ParseTableMeta(objects[0].bytes.data(), objects[0].bytes.size(), &meta_));
  if (has_zones_) {
    BTR_RETURN_IF_ERROR(ParseTableZoneMap(objects[1].bytes.data(),
                                          objects[1].bytes.size(), &zones_));
    if (zones_.columns.size() != meta_.columns.size()) {
      return Status::Corruption("zone map column count mismatch");
    }
  }

  // Column headers are read by the first Scan() that needs the column;
  // only the objects' presence is checked here.
  for (size_t c = 0; c < meta_.columns.size(); c++) {
    const std::string key = ColumnFileKey(prefix_, resolved_name_, c);
    if (!store_->Contains(key)) {
      return Status::NotFound("column object missing: " + key);
    }
  }
  column_files_.assign(meta_.columns.size(), {});
  has_header_.assign(meta_.columns.size(), 0);
  opened_ = true;
  open_ns_ = static_cast<u64>(open_timer.ElapsedNanos());
  return Status::Ok();
}

struct Scanner::ResolvedSpec {
  std::vector<u32> projection;  // table column indices, output order
  std::vector<u32> needed;      // union of projection + filter columns
  // Position of each projection entry inside `needed`.
  std::vector<u32> projection_pos;
  // Resolved filter: spec.filter with integer leaves on double columns
  // coerced. Empty() = no filtering.
  PredicateExpr filter;
  // Filter column name -> position inside `needed`.
  std::unordered_map<std::string, u32> filter_pos;
  u32 leaf_count = 0;                   // depth-first leaves of `filter`
  std::vector<std::string> leaf_names;  // leaf ToString(), same order
  u32 row_blocks = 0;
  std::vector<u32> block_rows;  // values per row block
};

namespace {

// Rebuilds an integer leaf as the equivalent double leaf (the raw operands
// survive in the expression, so `x < 5` on a double column becomes
// `x < 5.0` losslessly; IN sets are re-sorted into bit-pattern order by
// the factory).
PredicateExpr CoerceIntLeafToDouble(const PredicateExpr& leaf) {
  switch (leaf.op) {
    case CompareOp::kEq:
      return PredicateExpr::EqualsDouble(leaf.column, leaf.int_lo);
    case CompareOp::kBetween:
      return PredicateExpr::BetweenDouble(leaf.column, leaf.int_lo,
                                          leaf.int_hi);
    case CompareOp::kIn: {
      std::vector<double> values(leaf.int_set.begin(), leaf.int_set.end());
      return PredicateExpr::InDouble(leaf.column, std::move(values));
    }
    default:
      return PredicateExpr::CompareDouble(leaf.column, leaf.op, leaf.int_lo);
  }
}

}  // namespace

Status Scanner::ResolveSpec(const ScanSpec& spec, ResolvedSpec* out) const {
  if (!opened_) return Status::InvalidArgument("Scanner::Open() not called");

  auto find_column = [this](const std::string& name, u32* index) {
    for (size_t c = 0; c < meta_.columns.size(); c++) {
      if (meta_.columns[c].name == name) {
        *index = static_cast<u32>(c);
        return true;
      }
    }
    return false;
  };

  if (spec.columns.empty()) {
    for (size_t c = 0; c < meta_.columns.size(); c++) {
      out->projection.push_back(static_cast<u32>(c));
    }
  } else {
    for (const std::string& name : spec.columns) {
      u32 index;
      if (!find_column(name, &index)) {
        return Status::NotFound("projection column not found: " + name);
      }
      out->projection.push_back(index);
    }
  }

  auto needed_pos = [out](u32 table_index) {
    for (size_t i = 0; i < out->needed.size(); i++) {
      if (out->needed[i] == table_index) return static_cast<u32>(i);
    }
    out->needed.push_back(table_index);
    return static_cast<u32>(out->needed.size() - 1);
  };
  for (u32 index : out->projection) {
    out->projection_pos.push_back(needed_pos(index));
  }

  out->filter = spec.filter;

  // Resolve every leaf: the column must exist, its type must match (or be
  // coercible int -> double), and its block bytes must be fetched.
  Status leaf_status = Status::Ok();
  std::function<void(PredicateExpr&)> resolve = [&](PredicateExpr& node) {
    if (!leaf_status.ok()) return;
    if (node.kind != PredicateExpr::Kind::kLeaf) {
      for (PredicateExpr& child : node.children) resolve(child);
      return;
    }
    u32 index;
    if (!find_column(node.column, &index)) {
      leaf_status = Status::NotFound("predicate column not found: " +
                                     node.column);
      return;
    }
    ColumnType column_type = meta_.columns[index].type;
    if (column_type != node.type) {
      if (node.type == ColumnType::kInteger &&
          column_type == ColumnType::kDouble) {
        node = CoerceIntLeafToDouble(node);
      } else {
        leaf_status = Status::InvalidArgument(
            "predicate type does not match column type: " + node.column);
        return;
      }
    }
    out->filter_pos.emplace(node.column, needed_pos(index));
  };
  resolve(out->filter);
  BTR_RETURN_IF_ERROR(leaf_status);
  out->filter.ForEachLeaf([&](const PredicateExpr& leaf) {
    out->leaf_count++;
    out->leaf_names.push_back(leaf.ToString());
  });

  // Every column blocks its rows identically (kBlockCapacity), so all
  // needed columns must agree on the block structure.
  if (!out->needed.empty()) {
    const std::vector<u32>& reference =
        meta_.columns[out->needed[0]].block_value_counts;
    for (u32 index : out->needed) {
      if (meta_.columns[index].block_value_counts != reference) {
        return Status::Corruption("columns disagree on block structure");
      }
    }
    out->row_blocks = static_cast<u32>(reference.size());
    out->block_rows = reference;
  }
  return Status::Ok();
}


namespace {

// Everything one row block produced, moved from the decode item to the
// emitting thread through the reorder buffer.
struct BlockResult {
  BlockOutcome outcome = BlockOutcome::kDecoded;
  RoaringBitmap selection;
  std::vector<DecodedBlock> decoded;  // by projection position (kDecoded only)
  Status error;  // why the block is kUnreadable (degraded mode only)
};

// One block payload as the decode stage reads it: a slice of a run's GET
// buffer, a cached payload, or a CRC re-fetch, each verified against its
// column header. `owner` keeps the bytes alive, and kSimdPadding readable
// bytes follow data + size.
struct BlockPart {
  std::shared_ptr<const void> owner;  // null = the part did not arrive
  const u8* data = nullptr;
  size_t size = 0;
};

// Fetched bytes as the owner of block parts: kSimdPadding zero bytes
// follow the response, because decoders over-read compressed input
// (docs/FORMAT.md). The GET reserved that slack, so this does not copy.
std::shared_ptr<const std::vector<u8>> Padded(std::vector<u8>&& bytes) {
  bytes.resize(bytes.size() + kSimdPadding);
  return std::make_shared<const std::vector<u8>>(std::move(bytes));
}

// Fetched column blocks of one row block, awaiting completion. A part
// whose fetch failed permanently still counts toward `filled` (its status
// lands in `error`) so the bundle always completes and the emitter never
// waits on a block that cannot arrive.
struct Bundle {
  std::vector<BlockPart> parts;  // by needed-column position
  u32 filled = 0;
  Status error;  // first fetch failure of this row block
};

}  // namespace

// One Scan() call, run on a ScanService in four stages: Plan (calling
// thread) prunes row blocks, reads missing column headers and groups the
// rest; Fetch items run on the service's fetch executors and Decode items
// on its decode executors, both behind the tenant's fair-queue lanes;
// Emit hands chunks to the caller in block order and pumps the next
// fetches. Every submitted item captures `this`, so the Job must Finish()
// — quiesce — before it leaves scope.
class Scanner::Job {
 public:
  Job(Scanner& scanner, service::ScanService& service,
      const ScanConfig& config, const ResolvedSpec& resolved,
      obs::ScanProfileCollector* profile)
      : scanner_(scanner),
        service_(service),
        tenant_(scanner.tenant_slot_),
        config_(config),
        resolved_(resolved),
        profile_(profile),
        needed_count_(static_cast<u32>(resolved.needed.size())),
        has_filter_(!resolved.filter.Empty()),
        cache_(service.cache()),
        lane_(service, scanner.tenant_slot_, scanner.store_, config, profile,
              [this](u64 backoff_ns) { return Sleep(backoff_ns); }),
        pruned_(resolved.row_blocks, 0),
        leaf_zone_prunes_(resolved.leaf_count, 0),
        // One bundle in flight per decode thread keeps every decoder busy;
        // prefetch_depth parts on top hide fetch latency. Never below one
        // bundle, so the first incomplete bundle can always complete.
        window_tokens_(config.prefetch_depth +
                       static_cast<u64>(needed_count_) *
                           service.decode_threads()),
        leaf_fast_(resolved.leaf_count),
        leaf_materialized_(resolved.leaf_count) {
    for (u32 column : resolved.needed) {
      keys_.push_back(
          ColumnFileKey(scanner.prefix_, scanner.resolved_name_, column));
    }
    // A breaker can be shared with other scans, so ScanStats reports the
    // deltas across this scan.
    if (lane_.breaker() != nullptr) {
      base_breaker_trips_ = lane_.breaker()->trips();
      base_breaker_fast_ = lane_.breaker()->fast_failures();
    }
  }

  void Plan();
  void Pump();
  void Emit(const ChunkCallback& emit, obs::StageTimer* stage_timer,
            ScanStats* stats);
  Status Finish(ScanStats* stats);

 private:
  // Adjacent surviving row blocks [first, first + blocks), expanded into
  // fetch items when the window reaches them.
  struct Group {
    u32 first = 0;
    u32 blocks = 0;
  };
  // Adjacent blocks [first, first + blocks) of needed column `pos`: one
  // GET, or — with `hit` set — one block the cache already holds.
  struct Item {
    u32 pos = 0;
    u32 first = 0;
    u32 blocks = 0;
    BlockPart hit;
  };

  const ColumnFileHeader& File(u32 pos) const {
    return scanner_.column_files_[resolved_.needed[pos]];
  }
  Status ReadHeaders();
  void Expand(const Group& group);
  void FetchRun(const Item& run);
  Status Arrive(u32 pos, u32 b, BlockPart* part);
  void Deliver(u32 b, u32 pos, BlockPart part, const Status& status);
  void Decode(u32 b, const Bundle& bundle);
  Status DecodeBundle(u32 b, const Bundle& bundle, BlockResult* result);
  void EmitBlock(const ChunkCallback& emit, u32 b, BlockResult* result);
  void Fail(Status status);
  bool Failed();
  bool Sleep(u64 backoff_ns);
  void ItemDone();

  Scanner& scanner_;
  service::ScanService& service_;
  const u32 tenant_;
  const ScanConfig& config_;
  const ResolvedSpec& resolved_;
  obs::ScanProfileCollector* const profile_;  // null = profiling off
  const u32 needed_count_;
  const bool has_filter_;
  exec::BlockCache* const cache_;  // null = no cache
  ServiceLane lane_;
  std::vector<std::string> keys_;  // column object key per needed position
  u64 base_breaker_trips_ = 0;
  u64 base_breaker_fast_ = 0;

  // Plan output, then the pump's state. Calling thread only.
  std::vector<u8> pruned_;
  std::vector<u64> leaf_zone_prunes_;
  std::vector<Group> groups_;
  u32 first_fetched_ = ~0u;  // row blocks before it never entered the window
  size_t next_group_ = 0;
  std::deque<Item> items_;  // the expanded groups' items not yet submitted
  u64 window_tokens_;       // block parts that may still be submitted
  u64 cache_hits_ = 0;
  u64 cache_misses_ = 0;

  // Guarded by mutex_. cv_ wakes the emitter (a block is ready or the scan
  // failed), backoff sleepers (failed) and Finish (outstanding_ == 0).
  std::mutex mutex_;
  std::condition_variable cv_;
  u64 outstanding_ = 0;  // submitted items not yet finished
  std::unordered_map<u32, Bundle> assembling_;  // incomplete bundles
  std::map<u32, BlockResult> ready_;            // reorder buffer
  bool failed_ = false;
  Status first_error_;

  // This job's own outcomes (items run on shared executors, so nothing is
  // derived from store-wide counters; the lane counts GETs and bytes).
  std::atomic<u64> crc_refetches_{0};
  std::atomic<u64> crc_rescues_{0};
  std::atomic<u64> bytes_decoded_{0};
  // Per-leaf fast-path/materialized tallies (ScanStats::predicate_leaves).
  std::vector<std::atomic<u64>> leaf_fast_;
  std::vector<std::atomic<u64>> leaf_materialized_;
};

// --- plan: zone-map pruning, column headers, then groups --------------------

void Scanner::Job::Plan() {
  // A row block is pruned when the whole filter expression proves it
  // empty: AND prunes when any conjunct does, OR only when all disjuncts
  // do (ZoneMayMatch walks the tree). Disabled together with pushdown so
  // the decode-then-filter baseline really fetches and decodes everything.
  Timer prune_timer;
  if (scanner_.has_zones_ && has_filter_ &&
      config_.enable_predicate_pushdown) {
    for (u32 b = 0; b < resolved_.row_blocks; b++) {
      auto zone_of = [&](const std::string& name) -> const BlockZone* {
        auto it = resolved_.filter_pos.find(name);
        if (it == resolved_.filter_pos.end()) return nullptr;
        const ColumnZoneMap& zones =
            scanner_.zones_.columns[resolved_.needed[it->second]];
        return b < zones.zones.size() ? &zones.zones[b] : nullptr;
      };
      if (!ZoneMayMatch(resolved_.filter, zone_of)) {
        pruned_[b] = 1;
        // Attribute the prune to every leaf that alone proves the block
        // empty (ScanStats::predicate_leaves).
        u32 leaf = 0;
        resolved_.filter.ForEachLeaf([&](const PredicateExpr& l) {
          const BlockZone* zone = zone_of(l.column);
          if (zone != nullptr && !ZoneMayMatchLeaf(*zone, l)) {
            leaf_zone_prunes_[leaf]++;
          }
          leaf++;
        });
      }
    }
  }
  if (profile_ != nullptr) {
    profile_->SetZonePruneNanos(static_cast<u64>(prune_timer.ElapsedNanos()));
  }

  // No row block can be read before every needed column's header is.
  // Strict mode fails the scan on the first failure; degraded mode reports
  // the next surviving row block unreadable and tries again for the rest,
  // so a transient failure costs only the blocks it outlasted.
  u32 first = 0;
  for (;; first++) {
    while (first < resolved_.row_blocks && pruned_[first]) first++;
    if (first == resolved_.row_blocks) return;
    Status headers = ReadHeaders();
    if (headers.ok()) break;
    if (!config_.skip_unreadable_blocks) {
      Fail(std::move(headers));
      return;
    }
    BlockResult result;
    result.outcome = BlockOutcome::kUnreadable;
    result.error = std::move(headers);
    std::lock_guard<std::mutex> lock(mutex_);
    ready_.emplace(first, std::move(result));
  }
  first_fetched_ = first;

  // Run length: as long as the window allows, since every GET pays a
  // first-byte wait, but one group of runs across all needed columns must
  // fit the window, and so must one run per fetch executor, so that a
  // narrow projection still keeps every fetch connection busy.
  const u32 fetch_threads = service_.fetch_threads();
  const u64 run_blocks = std::max<u64>(
      1, window_tokens_ / std::max({needed_count_, fetch_threads, 1u}));
  for (u32 b = first; b < resolved_.row_blocks; b++) {
    if (pruned_[b]) continue;
    if (groups_.empty() || groups_.back().first + groups_.back().blocks != b ||
        groups_.back().blocks == run_blocks) {
      groups_.push_back(Group{b, 0});
    }
    groups_.back().blocks++;
  }
}

// Reads the header of every needed column the scanner has not read yet,
// all at once, each GET a fetch item of this scan. Returns the first
// failure; the headers that did arrive are kept for later scans.
Status Scanner::Job::ReadHeaders() {
  std::vector<u32> columns;
  std::vector<ServiceLane::Request> requests;
  for (u32 pos = 0; pos < needed_count_; pos++) {
    const u32 column = resolved_.needed[pos];
    if (scanner_.has_header_[column]) continue;
    ServiceLane::Request request;
    request.key = keys_[pos];
    request.length = ColumnFileHeaderBytes(resolved_.row_blocks);
    columns.push_back(column);
    requests.push_back(std::move(request));
  }
  lane_.GetAll(&requests);
  Status first_error;
  for (size_t i = 0; i < requests.size(); i++) {
    const ServiceLane::Request& request = requests[i];
    ColumnFileHeader header;
    Status status = request.status;
    if (status.ok()) {
      status = ParseColumnFileHeader(request.bytes.data(),
                                     request.bytes.size(), &header);
    }
    if (status.ok() && header.block_count() != resolved_.row_blocks) {
      status = Status::Corruption("metadata/column block count mismatch: " +
                                  request.key);
    }
    if (status.ok()) {
      scanner_.column_files_[columns[i]] = std::move(header);
      scanner_.has_header_[columns[i]] = 1;
    } else if (first_error.ok()) {
      first_error = std::move(status);
    }
  }
  return first_error;
}

// --- fetch: window-limited items on the service's fetch executors ----------------

// Backpressure is window tokens, not a bounded queue: a block part holds
// one token from the moment its GET (or cache hit) is submitted until its
// row block is emitted, so the window bounds both the parts in flight and
// the decoded blocks waiting in the reorder buffer. Tokens are taken and
// returned on the calling thread only, never while holding an executor
// thread, so executors never block on another scan's progress (no
// cross-tenant head-of-line blocking). Groups expand in block order and a
// group fits the window, so the lowest unemitted row block can always be
// fetched.
void Scanner::Job::Pump() {
  while (!Failed()) {
    if (items_.empty()) {
      if (next_group_ == groups_.size()) return;
      Expand(groups_[next_group_++]);
      continue;
    }
    Item& next = items_.front();
    if (next.blocks > window_tokens_) return;
    window_tokens_ -= next.blocks;
    if (next.hit.owner != nullptr) {
      Deliver(next.first, next.pos, std::move(next.hit), Status::Ok());
    } else {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        outstanding_++;
      }
      const ColumnFileHeader& file = File(next.pos);
      const u64 length = file.block_offsets[next.first + next.blocks] -
                         file.block_offsets[next.first];
      lane_.Submit(/*decode=*/false, length, [this, run = next] {
        FetchRun(run);
      });
    }
    items_.pop_front();
  }
}

// Looks up every block of `group` in the cache and queues, per needed
// column, each hit and one run per stretch of adjacent misses: a hit
// splits a run.
void Scanner::Job::Expand(const Group& group) {
  u64 hits = 0;
  u64 misses = 0;
  for (u32 pos = 0; pos < needed_count_; pos++) {
    const ColumnFileHeader& file = File(pos);
    Item run{pos, group.first, 0, {}};
    for (u32 b = group.first; b < group.first + group.blocks; b++) {
      exec::BlockCache::Payload payload;
      if (cache_ != nullptr) {
        payload = cache_->LookupShared(keys_[pos], file.block_offsets[b],
                                       file.block_size(b), file.block_crcs[b]);
      }
      if (payload == nullptr) {
        if (run.blocks == 0) run.first = b;
        run.blocks++;
        misses++;
        continue;
      }
      // Cache hit: the bundle shares the cached buffer — no copy, no GET,
      // and no CRC32C: the entry is this block's verified bytes.
      hits++;
      if (run.blocks > 0) items_.push_back(run);
      run.blocks = 0;
      const u8* data = payload->data();
      const size_t size = payload->size();
      items_.push_back(
          Item{pos, b, 1, BlockPart{std::move(payload), data, size}});
    }
    if (run.blocks > 0) items_.push_back(run);
  }
  if (cache_ != nullptr) {
    cache_hits_ += hits;
    cache_misses_ += misses;
  }
  service_.RecordBlockLookups(tenant_, hits, misses);
}

// One run: a single GET for adjacent blocks of one column, sliced into a
// part per block without a copy, and each part checked where it arrives
// (Arrive). A failed GET fails every block of the run; a short response
// leaves the blocks past its end short, and they fail the check.
void Scanner::Job::FetchRun(const Item& run) {
  if (Failed()) return ItemDone();
  const ColumnFileHeader& file = File(run.pos);
  const u64 offset = file.block_offsets[run.first];
  const u64 length = file.block_offsets[run.first + run.blocks] - offset;
  std::vector<u8> bytes;
  Status status = lane_.Get(keys_[run.pos], offset, length, &bytes);
  const u64 got = bytes.size();
  std::shared_ptr<const std::vector<u8>> buffer;
  if (status.ok()) buffer = Padded(std::move(bytes));
  for (u32 b = run.first; b < run.first + run.blocks; b++) {
    BlockPart part;
    Status block_status = status;
    if (status.ok()) {
      const u64 begin = std::min(file.block_offsets[b] - offset, got);
      part = BlockPart{buffer, buffer->data() + begin,
                       std::min(file.block_size(b), got - begin)};
      block_status = Arrive(run.pos, b, &part);
    }
    Deliver(b, run.pos, std::move(part), block_status);
  }
  ItemDone();
}

// The scan's one integrity check of fetched bytes: `part` must be exactly
// block b of needed column `pos`, the size and CRC32C its column header
// promised. With refetch_on_crc_failure a failing block is read again,
// once, by an ordinary lane GET (retried, hedged, breaker-guarded). Only
// a verified part is cached and delivered; a part that stays bad is
// Corruption.
Status Scanner::Job::Arrive(u32 pos, u32 b, BlockPart* part) {
  ScanMetrics& metrics = ScanMetrics::Get();
  const ColumnFileHeader& file = File(pos);
  Timer check_timer;
  const bool intact = file.Intact(b, part->data, part->size);
  if (profile_ != nullptr) {
    profile_->AddActivity(obs::ScanActivity::kValidate,
                          static_cast<u64>(check_timer.ElapsedNanos()));
  }
  if (!intact) {
    metrics.crc_failures.Add();
    bool rescued = false;
    if (config_.refetch_on_crc_failure) {
      metrics.crc_refetches.Add();
      crc_refetches_.fetch_add(1, std::memory_order_relaxed);
      std::vector<u8> fresh;
      Status refetch = lane_.Get(keys_[pos], file.block_offsets[b],
                                 file.block_size(b), &fresh);
      rescued = refetch.ok() && file.Intact(b, fresh.data(), fresh.size());
      if (rescued) {
        const size_t size = fresh.size();
        std::shared_ptr<const std::vector<u8>> buffer =
            Padded(std::move(fresh));
        *part = BlockPart{buffer, buffer->data(), size};
        metrics.crc_rescues.Add();
        crc_rescues_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!rescued) {
      *part = BlockPart();  // only the Status reaches the bundle
      return Status::Corruption(
          "block " + std::to_string(b) + " of column " +
          scanner_.meta_.columns[resolved_.needed[pos]].name +
          " failed CRC verification");
    }
  }
  if (cache_ != nullptr) {
    // Verified: cached under the tenant's cache-byte quota.
    service_.TryCacheInsert(tenant_, keys_[pos], file.block_offsets[b],
                            file.block_size(b), file.block_crcs[b],
                            part->data);
  }
  return Status::Ok();
}

// Hands one part to its row block's bundle; the part that completes the
// bundle submits the block's decode item.
void Scanner::Job::Deliver(u32 b, u32 pos, BlockPart part,
                           const Status& status) {
  Bundle complete;
  bool is_complete = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failed_) {
      Bundle& bundle = assembling_[b];
      if (bundle.parts.empty()) bundle.parts.resize(needed_count_);
      if (!status.ok() && bundle.error.ok()) bundle.error = status;
      bundle.parts[pos] = std::move(part);
      if (++bundle.filled == needed_count_) {
        complete = std::move(bundle);
        assembling_.erase(b);
        is_complete = true;
        outstanding_++;  // the decode item submitted below
      }
    }
  }
  if (is_complete) {
    u64 cost = 0;
    for (const BlockPart& p : complete.parts) cost += p.size;
    lane_.Submit(/*decode=*/true, cost,
                 [this, b, bundle = std::move(complete)] {
                   Decode(b, bundle);
                 });
  }
}

// --- decode: one complete row block on the service's decode executors ------------

// Every non-pruned block reaches the reorder buffer exactly once:
// kDecoded, kSkipped, and — in degraded mode — kUnreadable, so the
// emitter always sees block b eventually and never waits forever.
void Scanner::Job::Decode(u32 b, const Bundle& bundle) {
  if (!Failed()) {
    try {
      BlockResult result;
      Status status = bundle.error.ok() ? DecodeBundle(b, bundle, &result)
                                        : bundle.error;
      if (!status.ok() && !config_.skip_unreadable_blocks) {
        Fail(std::move(status));
      } else {
        if (!status.ok()) {
          result = BlockResult();
          result.outcome = BlockOutcome::kUnreadable;
          result.error = std::move(status);
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ready_.emplace(b, std::move(result));
        }
        cv_.notify_all();
      }
    } catch (...) {
      // A service executor thread must survive a throwing decode; map the
      // exception into the scan's Status instead of rethrowing.
      Fail(Status::Internal("scan worker threw"));
    }
  }
  ItemDone();
}

// Structure, then the filter on the compressed form, then decompression
// of the projected columns of row block `b`. Every part arrived verified
// (a fetched part passed Arrive, a cached one is a verified copy), so
// only the structure is checked here, against this scan's metadata.
Status Scanner::Job::DecodeBundle(u32 b, const Bundle& bundle,
                                  BlockResult* result) {
  const u32 expected_rows = resolved_.block_rows[b];
  Timer validate_timer;
  for (u32 pos = 0; pos < needed_count_; pos++) {
    const BlockPart& part = bundle.parts[pos];
    BTR_RETURN_IF_ERROR(ValidateBlock(
        part.data, part.size,
        scanner_.meta_.columns[resolved_.needed[pos]].type, expected_rows));
  }
  if (profile_ != nullptr) {
    profile_->AddActivity(obs::ScanActivity::kValidate,
                          static_cast<u64>(validate_timer.ElapsedNanos()),
                          needed_count_);
  }

  if (has_filter_) {
    BTR_TRACE_SPAN("scan.predicate");
    Timer predicate_timer;
    if (config_.enable_predicate_pushdown) {
      // Evaluate on the compressed form; only surviving blocks reach
      // DecompressBlock below (decode-only-survivors).
      std::vector<LeafEvalStats> leaf_stats(resolved_.leaf_count);
      auto block_of = [&](const std::string& name) -> const u8* {
        auto it = resolved_.filter_pos.find(name);
        return it == resolved_.filter_pos.end()
                   ? nullptr
                   : bundle.parts[it->second].data;
      };
      EvalResult evaluated = EvaluateExpr(resolved_.filter, expected_rows,
                                          block_of, scanner_.config_,
                                          &leaf_stats);
      result->selection = std::move(evaluated.pass);
      for (u32 leaf = 0; leaf < resolved_.leaf_count; leaf++) {
        leaf_fast_[leaf].fetch_add(leaf_stats[leaf].fast_path,
                                   std::memory_order_relaxed);
        leaf_materialized_[leaf].fetch_add(leaf_stats[leaf].materialized,
                                           std::memory_order_relaxed);
      }
    } else {
      // Decode-then-filter baseline: materialize every filter column,
      // then run the reference row-at-a-time evaluation.
      std::unordered_map<std::string, DecodedBlock> decoded_filter;
      for (const auto& [name, pos] : resolved_.filter_pos) {
        DecompressBlock(bundle.parts[pos].data, &decoded_filter[name],
                        scanner_.config_);
      }
      EvalResult evaluated = EvaluateExprDecoded(
          resolved_.filter, expected_rows,
          [&](const std::string& name) -> const DecodedBlock* {
            auto it = decoded_filter.find(name);
            return it == decoded_filter.end() ? nullptr : &it->second;
          });
      result->selection = std::move(evaluated.pass);
      for (u32 leaf = 0; leaf < resolved_.leaf_count; leaf++) {
        leaf_materialized_[leaf].fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (profile_ != nullptr) {
      profile_->AddActivity(obs::ScanActivity::kPredicate,
                            static_cast<u64>(predicate_timer.ElapsedNanos()),
                            resolved_.leaf_count);
    }
    if (result->selection.Empty()) {
      result->outcome = BlockOutcome::kSkipped;
      return Status::Ok();
    }
  }

  BTR_TRACE_SPAN("scan.decode");
  result->decoded.resize(resolved_.projection.size());
  for (size_t p = 0; p < resolved_.projection.size(); p++) {
    const BlockPart& part = bundle.parts[resolved_.projection_pos[p]];
    const u32 column = resolved_.projection[p];
    if (profile_ != nullptr) {
      Timer decode_timer;
      DecompressBlock(part.data, &result->decoded[p], scanner_.config_);
      obs::DecodeRecord record;
      record.column = &scanner_.meta_.columns[column].name;
      record.offset = scanner_.column_files_[column].block_offsets[b];
      record.length = part.size;
      record.duration_ns = static_cast<u64>(decode_timer.ElapsedNanos());
      record.bytes_decoded = result->decoded[p].ValueBytes();
      record.block = b;
      record.scheme = PeekBlockScheme(part.data);
      record.type = static_cast<u8>(scanner_.meta_.columns[column].type);
      profile_->RecordDecode(record);
    } else {
      DecompressBlock(part.data, &result->decoded[p], scanner_.config_);
    }
    bytes_decoded_.fetch_add(result->decoded[p].ValueBytes(),
                             std::memory_order_relaxed);
  }
  return Status::Ok();
}

// --- emit: in-order chunks on the calling thread -----------------------------------

void Scanner::Job::Emit(const ChunkCallback& emit,
                        obs::StageTimer* stage_timer, ScanStats* stats) {
  ScanMetrics& metrics = ScanMetrics::Get();
  for (u32 b = 0; b < resolved_.row_blocks; b++) {
    if (pruned_[b]) {
      if (profile_ != nullptr) stage_timer->Enter(obs::ScanStage::kEmit);
      stats->blocks_pruned++;
      metrics.blocks_pruned.Add();
      EmitBlock(emit, b, nullptr);
      continue;
    }
    BlockResult result;
    {
      if (profile_ != nullptr) stage_timer->Enter(obs::ScanStage::kEmitWait);
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return failed_ || ready_.count(b) != 0; });
      if (failed_) return;
      auto it = ready_.find(b);
      result = std::move(it->second);
      ready_.erase(it);
    }
    if (profile_ != nullptr) stage_timer->Enter(obs::ScanStage::kEmit);
    if (result.outcome == BlockOutcome::kSkipped) {
      stats->blocks_skipped++;
      metrics.blocks_skipped.Add();
    } else if (result.outcome == BlockOutcome::kUnreadable) {
      stats->blocks_unreadable++;
      metrics.blocks_unreadable.Add();
      stats->unreadable_blocks.push_back(b);
      stats->unreadable_reasons.push_back(result.error);
    } else {
      const u64 matches = has_filter_ ? result.selection.Cardinality()
                                      : resolved_.block_rows[b];
      stats->blocks_decoded++;
      metrics.blocks_decoded.Add();
      stats->rows_matched += matches;
      metrics.rows_matched.Add(matches);
    }
    EmitBlock(emit, b, &result);
    if (b >= first_fetched_) {
      // The block has left the window: its parts' tokens come back.
      window_tokens_ += needed_count_;
      Pump();
    }
  }
}

// One chunk per projected column of row block `b`; a null `result` means
// the block was pruned.
void Scanner::Job::EmitBlock(const ChunkCallback& emit, u32 b,
                             BlockResult* result) {
  for (size_t p = 0; p < resolved_.projection.size(); p++) {
    ColumnChunk chunk;
    chunk.column = static_cast<u32>(p);
    chunk.block = b;
    chunk.row_begin = BlockRowBegin(b);
    chunk.row_count = resolved_.block_rows[b];
    chunk.outcome = result != nullptr ? result->outcome : BlockOutcome::kPruned;
    if (chunk.outcome == BlockOutcome::kDecoded) {
      chunk.values = std::move(result->decoded[p]);
      if (p + 1 == resolved_.projection.size()) {
        chunk.selection = std::move(result->selection);
      } else {
        chunk.selection = result->selection;
      }
    }
    emit(std::move(chunk));
  }
}

// Quiesces the job — every submitted item captures `this`, so none may be
// queued or running when Scan() returns — and fills this scan's fetch and
// decode counters into `stats`. Returns the scan's first failure.
Status Scanner::Job::Finish(ScanStats* stats) {
  Status status;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (failed_) status = first_error_;
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }
  lane_.Reap();

  stats->requests = lane_.gets();
  stats->bytes_fetched = lane_.bytes();
  stats->retries = lane_.retry().retries_granted();
  stats->cache_hits = cache_hits_;
  stats->cache_misses = cache_misses_;
  stats->hedges = lane_.hedges();
  stats->hedge_wins = lane_.hedge_wins();
  if (lane_.breaker() != nullptr) {
    stats->breaker_trips = lane_.breaker()->trips() - base_breaker_trips_;
    stats->breaker_fast_failures =
        lane_.breaker()->fast_failures() - base_breaker_fast_;
  }
  stats->crc_refetches = crc_refetches_.load(std::memory_order_relaxed);
  stats->crc_rescues = crc_rescues_.load(std::memory_order_relaxed);
  stats->bytes_decoded = bytes_decoded_.load(std::memory_order_relaxed);
  stats->predicate_leaves.resize(resolved_.leaf_count);
  for (u32 leaf = 0; leaf < resolved_.leaf_count; leaf++) {
    PredicateLeafStats& leaf_stats = stats->predicate_leaves[leaf];
    leaf_stats.description = resolved_.leaf_names[leaf];
    leaf_stats.blocks_pruned = leaf_zone_prunes_[leaf];
    leaf_stats.fast_path = leaf_fast_[leaf].load(std::memory_order_relaxed);
    leaf_stats.materialized =
        leaf_materialized_[leaf].load(std::memory_order_relaxed);
  }
  return status;
}

void Scanner::Job::Fail(Status status) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failed_) {
      failed_ = true;
      first = true;
      first_error_ = std::move(status);
    }
  }
  // Mark the failure point in the trace so an aborted scan's spans are
  // diagnosable — the RAII spans themselves flush normally on unwind.
  if (first) BTR_TRACE_INSTANT("scan.error");
  cv_.notify_all();
}

bool Scanner::Job::Failed() {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

// Interruptible retry backoff: a failing scan wakes its sleepers, so the
// executor thread is released at once.
bool Scanner::Job::Sleep(u64 backoff_ns) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::nanoseconds(backoff_ns),
               [this] { return failed_; });
  return !failed_;
}

void Scanner::Job::ItemDone() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (--outstanding_ == 0) cv_.notify_all();
}

Status Scanner::Scan(const ScanSpec& spec, const ChunkCallback& emit,
                     ScanStats* stats_out) {
  BTR_TRACE_SPAN("scan.pipeline");
  Timer timer;
  obs::StageTimer stage_timer;  // calling-thread stages; starts in kPlan
  ResolvedSpec resolved;
  BTR_RETURN_IF_ERROR(ResolveSpec(spec, &resolved));
  service::ScanService& service = ServiceFor(spec.config);

  // Admission control before any other work: a saturated service or an
  // over-quota tenant surfaces here as typed Status::Throttled (transient
  // — callers may wrap Scan in exec::RunWithRetries and back off). A
  // private service admits its one tenant at once.
  service::ScanService::Ticket ticket;
  u64 admission_wait_ns = 0;
  BTR_RETURN_IF_ERROR(service.Admit(tenant_slot_, &ticket, &admission_wait_ns));
  // Every return below must give the admission slot back.
  struct TicketGuard {
    service::ScanService* service;
    service::ScanService::Ticket* ticket;
    ~TicketGuard() { service->Release(ticket); }
  } ticket_guard{&service, &ticket};
  (void)ticket_guard;

  // Per-scan profile. Null when disabled: every instrumentation site
  // tests this pointer and records nothing — no locks, no allocation, no
  // clock reads on the disabled path.
  std::unique_ptr<obs::ScanProfileCollector> collector;
  if (spec.config.collect_profile) {
    collector = std::make_unique<obs::ScanProfileCollector>(
        spec.config.profile_slow_ops);
    collector->SetOpenNanos(open_ns_);
  }

  ScanStats stats;
  stats.row_blocks = resolved.row_blocks;
  ScanMetrics& metrics = ScanMetrics::Get();
  metrics.row_blocks.Add(resolved.row_blocks);

  Job job(*this, service, spec.config, resolved, collector.get());
  job.Plan();
  job.Pump();
  job.Emit(emit, &stage_timer, &stats);
  if (collector != nullptr) stage_timer.Enter(obs::ScanStage::kTeardown);
  Status status = job.Finish(&stats);

  stats.admission_wait_ns = admission_wait_ns;
  stats.seconds = timer.ElapsedSeconds();
  metrics.bytes_fetched.Add(stats.bytes_fetched);
  metrics.bytes_decoded.Add(stats.bytes_decoded);
  if (collector != nullptr) {
    stage_timer.Finish(collector.get());  // flush the tail stage
    auto profile = std::make_shared<obs::ScanProfile>(collector->Snapshot());
    // The totals ScanStats counts, copied here and counted nowhere else. A
    // cache hit is a request served without a GET.
    profile->wall_seconds = stats.seconds;
    profile->requests += stats.cache_hits;
    profile->cache_hits = stats.cache_hits;
    profile->cache_misses = stats.cache_misses;
    profile->retries = stats.retries;
    profile->hedged_requests = stats.hedges;
    profile->hedge_wins = stats.hedge_wins;
    profile->blocks_pruned = stats.blocks_pruned;
    profile->blocks_skipped = stats.blocks_skipped;
    profile->blocks_decoded = stats.blocks_decoded;
    profile->blocks_unreadable = stats.blocks_unreadable;
    profile->crc_refetched_blocks = stats.crc_refetches;
    profile->crc_rescued_blocks = stats.crc_rescues;
    profile->bytes_fetched = stats.bytes_fetched;
    profile->bytes_decoded = stats.bytes_decoded;
    stats.profile = std::move(profile);
  }
  if (stats_out != nullptr) *stats_out = stats;
  return status;
}

Status Scanner::Scan(const ScanSpec& spec, ScanOutput* out) {
  ResolvedSpec resolved;
  BTR_RETURN_IF_ERROR(ResolveSpec(spec, &resolved));
  out->columns.clear();
  out->columns.resize(resolved.projection.size());
  for (size_t p = 0; p < resolved.projection.size(); p++) {
    const TableMeta::ColumnMeta& cm = meta_.columns[resolved.projection[p]];
    out->columns[p].name = cm.name;
    out->columns[p].type = cm.type;
    out->columns[p].blocks.resize(resolved.row_blocks);
  }
  out->block_outcomes.assign(resolved.row_blocks, BlockOutcome::kDecoded);
  out->block_selections.assign(resolved.row_blocks, RoaringBitmap());

  bool has_filter = !spec.filter.Empty();
  Status status = Scan(
      spec,
      [out, has_filter](ColumnChunk&& chunk) {
        out->block_outcomes[chunk.block] = chunk.outcome;
        if (chunk.column == 0 && has_filter &&
            chunk.outcome == BlockOutcome::kDecoded) {
          out->block_selections[chunk.block] = std::move(chunk.selection);
        }
        out->columns[chunk.column].blocks[chunk.block] = std::move(chunk.values);
      },
      &out->stats);
  return status;
}

}  // namespace btr
