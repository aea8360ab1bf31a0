#include "service/scan_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.h"
#include "util/timer.h"

namespace btr::service {

// All hot counters are atomics so fetch/decode closures on different
// executor threads update them without a tenant-wide lock; the wait ring
// (exact p95) takes a small mutex only when a queue wait is recorded.
struct ScanService::TenantState {
  TenantId id;
  TenantQuota quota;

  // Guarded by admission_mutex_.
  u32 running_scans = 0;

  std::atomic<u64> scans_admitted{0};
  std::atomic<u64> scans_queued{0};
  std::atomic<u64> scans_rejected{0};
  std::atomic<u64> scans_completed{0};
  std::atomic<u64> admission_wait_ns{0};

  std::atomic<u64> gets{0};
  std::atomic<u64> cache_hits{0};
  std::atomic<u64> cache_misses{0};
  std::atomic<u64> bytes_fetched{0};
  std::atomic<u64> hedges{0};
  std::atomic<u64> hedges_denied{0};
  std::atomic<u64> hedges_used{0};  // against quota.hedge_budget

  std::atomic<u64> cache_bytes{0};
  std::atomic<u64> cache_quota_skips{0};

  std::atomic<u64> queue_items{0};
  std::atomic<u64> queue_wait_ns{0};

  // Ring of recent queue waits for the exact p95.
  mutable std::mutex wait_mutex;
  std::vector<u64> wait_ring;
  size_t wait_next = 0;
  u64 wait_seen = 0;

  // Per-tenant observability (docs/SCAN_SERVICE.md).
  obs::Counter* obs_gets = nullptr;
  obs::Counter* obs_hits = nullptr;
  obs::Counter* obs_queued_ns = nullptr;
  obs::Counter* obs_rejected = nullptr;
};

ScanService::ScanService(const ScanServiceConfig& config)
    : config_(config),
      cache_(config.cache),
      fetch_queue_(FairQueueConfig{config.fair_quantum_bytes}),
      decode_queue_(FairQueueConfig{config.fair_quantum_bytes}) {
  // Owned cache entries credit their tenant's byte count back on any exit
  // from the cache (eviction or replacement). Owner 0 = unowned.
  cache_.SetEvictionCallback([this](u32 owner, u64 bytes) {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    if (owner == 0 || owner > tenants_.size()) return;
    tenants_[owner - 1]->cache_bytes.fetch_sub(bytes,
                                               std::memory_order_relaxed);
  });
  u32 fetchers = std::max(1u, config_.fetch_threads);
  u32 decoders = config_.decode_threads != 0
                     ? config_.decode_threads
                     : std::max(1u, std::thread::hardware_concurrency());
  fetch_threads_.reserve(fetchers);
  for (u32 i = 0; i < fetchers; i++) {
    fetch_threads_.emplace_back([this] { ExecutorLoop(&fetch_queue_); });
  }
  decode_threads_.reserve(decoders);
  for (u32 i = 0; i < decoders; i++) {
    decode_threads_.emplace_back([this] { ExecutorLoop(&decode_queue_); });
  }
}

ScanService::~ScanService() {
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    BTR_CHECK_MSG(running_scans_ == 0 && waiters_.empty(),
                  "ScanService destroyed with scans still active");
  }
  fetch_queue_.Close();
  decode_queue_.Close();
  for (std::thread& t : fetch_threads_) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : decode_threads_) {
    if (t.joinable()) t.join();
  }
}

ScanService::TenantState& ScanService::Tenant(u32 slot) const {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  BTR_CHECK_MSG(slot < tenants_.size(), "ScanService: unknown tenant slot");
  return *tenants_[slot];
}

u32 ScanService::RegisterTenantLocked(const TenantId& id,
                                      const TenantQuota& quota) {
  auto it = tenant_index_.find(id);
  if (it != tenant_index_.end()) {
    tenants_[it->second]->quota = quota;
    return it->second;
  }
  auto tenant = std::make_unique<TenantState>();
  tenant->id = id;
  tenant->quota = quota;
  tenant->wait_ring.resize(std::max<u32>(1, config_.wait_ring_size), 0);
  obs::Registry& registry = obs::Registry::Get();
  std::string prefix = "service.tenant." + id + ".";
  tenant->obs_gets = &registry.GetCounter(prefix + "gets");
  tenant->obs_hits = &registry.GetCounter(prefix + "hits");
  tenant->obs_queued_ns = &registry.GetCounter(prefix + "queued_ns");
  tenant->obs_rejected = &registry.GetCounter(prefix + "rejected");
  u32 slot = static_cast<u32>(tenants_.size());
  tenants_.push_back(std::move(tenant));
  tenant_index_[id] = slot;
  // One lane per tenant in each queue, same index as the slot. The fetch
  // lane is capped at the tenant's outstanding-GET quota; decode items
  // finish on their own, so their lane never gates.
  u32 fetch_lane = fetch_queue_.AddLane(tenants_.back()->quota
                                            .max_outstanding_gets);
  u32 decode_lane = decode_queue_.AddLane(0);
  BTR_CHECK_MSG(fetch_lane == slot && decode_lane == slot,
                "ScanService: lane/slot mismatch");
  return slot;
}

u32 ScanService::RegisterTenant(const TenantId& id, const TenantQuota& quota) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  return RegisterTenantLocked(id, quota);
}

u32 ScanService::EnsureTenant(const TenantId& id) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenant_index_.find(id);
  if (it != tenant_index_.end()) return it->second;
  return RegisterTenantLocked(id, config_.default_quota);
}

u64 ScanService::EligibleFrontLocked() const {
  for (const Waiter& waiter : waiters_) {
    const TenantState& tenant = *waiter.tenant;
    if (tenant.quota.max_concurrent_scans == 0 ||
        tenant.running_scans < tenant.quota.max_concurrent_scans) {
      return waiter.seq;
    }
  }
  return ~0ull;
}

Status ScanService::Admit(u32 tenant_slot, Ticket* ticket, u64* wait_ns) {
  TenantState& tenant = Tenant(tenant_slot);
  ticket->tenant_slot = tenant_slot;
  ticket->admitted = false;
  if (wait_ns != nullptr) *wait_ns = 0;
  std::unique_lock<std::mutex> lock(admission_mutex_);
  // A tenant over its own concurrency quota is rejected immediately —
  // its own flood, not service pressure, and waiting would let one
  // tenant occupy the whole waiting room.
  auto tenant_has_capacity = [&] {
    return tenant.quota.max_concurrent_scans == 0 ||
           tenant.running_scans < tenant.quota.max_concurrent_scans;
  };
  if (!tenant_has_capacity()) {
    tenant.scans_rejected.fetch_add(1, std::memory_order_relaxed);
    tenant.obs_rejected->Add();
    return Status::Throttled("tenant '" + tenant.id +
                             "' is at its concurrent-scan quota");
  }
  if (running_scans_ < config_.max_concurrent_scans) {
    running_scans_++;
    tenant.running_scans++;
    tenant.scans_admitted.fetch_add(1, std::memory_order_relaxed);
    ticket->admitted = true;
    return Status::Ok();
  }
  if (waiters_.size() >= config_.max_queued_scans ||
      config_.admission_timeout_ns == 0) {
    tenant.scans_rejected.fetch_add(1, std::memory_order_relaxed);
    tenant.obs_rejected->Add();
    return Status::Throttled("scan service saturated (" +
                             std::to_string(running_scans_) + " running, " +
                             std::to_string(waiters_.size()) + " queued)");
  }
  // Bounded FIFO waiting room: the earliest waiter whose tenant has scan
  // capacity is granted on each Release.
  u64 seq = next_waiter_seq_++;
  waiters_.push_back(Waiter{seq, &tenant});
  tenant.scans_queued.fetch_add(1, std::memory_order_relaxed);
  Timer wait_timer;
  bool granted = admission_cv_.wait_for(
      lock, std::chrono::nanoseconds(config_.admission_timeout_ns), [&] {
        return running_scans_ < config_.max_concurrent_scans &&
               EligibleFrontLocked() == seq;
      });
  u64 waited = static_cast<u64>(wait_timer.ElapsedNanos());
  tenant.admission_wait_ns.fetch_add(waited, std::memory_order_relaxed);
  tenant.obs_queued_ns->Add(waited);
  if (wait_ns != nullptr) *wait_ns = waited;
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (it->seq == seq) {
      waiters_.erase(it);
      break;
    }
  }
  if (!granted) {
    tenant.scans_rejected.fetch_add(1, std::memory_order_relaxed);
    tenant.obs_rejected->Add();
    // Our slot in the room freed up; someone behind us may now be
    // eligible.
    admission_cv_.notify_all();
    return Status::Throttled("scan admission timed out after " +
                             std::to_string(waited / 1000000) + " ms");
  }
  running_scans_++;
  tenant.running_scans++;
  tenant.scans_admitted.fetch_add(1, std::memory_order_relaxed);
  ticket->admitted = true;
  // Another waiter may also fit (capacity can free in bursts).
  admission_cv_.notify_all();
  return Status::Ok();
}

void ScanService::Release(Ticket* ticket) {
  if (!ticket->admitted) return;
  TenantState& tenant = Tenant(ticket->tenant_slot);
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    BTR_CHECK_MSG(running_scans_ > 0, "ScanService: Release without Admit");
    running_scans_--;
    BTR_CHECK_MSG(tenant.running_scans > 0,
                  "ScanService: tenant Release without Admit");
    tenant.running_scans--;
  }
  tenant.scans_completed.fetch_add(1, std::memory_order_relaxed);
  ticket->admitted = false;
  admission_cv_.notify_all();
}

exec::CircuitBreaker* ScanService::BreakerFor(const s3sim::ObjectStore* store) {
  if (!config_.enable_breaker) return nullptr;
  std::lock_guard<std::mutex> lock(breakers_mutex_);
  auto it = breakers_.find(store);
  if (it != breakers_.end()) return it->second.get();
  auto breaker = std::make_unique<exec::CircuitBreaker>(config_.breaker);
  exec::CircuitBreaker* raw = breaker.get();
  breakers_[store] = std::move(breaker);
  return raw;
}

void ScanService::ExecutorLoop(FairQueue* queue) {
  std::function<void()> run;
  u64 queued_ns = 0;
  u32 lane = 0;
  while (queue->Pop(&run, &queued_ns, &lane)) {
    RecordQueueWait(lane, queued_ns);
    run();
    run = nullptr;  // release captures before blocking in Pop again
    queue->OnComplete(lane);
  }
}

void ScanService::RecordQueueWait(u32 slot, u64 wait_ns) {
  TenantState& tenant = Tenant(slot);
  tenant.queue_items.fetch_add(1, std::memory_order_relaxed);
  tenant.queue_wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  tenant.obs_queued_ns->Add(wait_ns);
  std::lock_guard<std::mutex> lock(tenant.wait_mutex);
  tenant.wait_ring[tenant.wait_next] = wait_ns;
  tenant.wait_next = (tenant.wait_next + 1) % tenant.wait_ring.size();
  tenant.wait_seen++;
}

void ScanService::SubmitFetch(u32 tenant_slot, u64 cost_bytes,
                              std::function<void()> run) {
  bool pushed = fetch_queue_.Push(tenant_slot, cost_bytes, std::move(run));
  BTR_CHECK_MSG(pushed, "ScanService: fetch submitted after shutdown");
}

void ScanService::SubmitDecode(u32 tenant_slot, u64 cost_bytes,
                               std::function<void()> run) {
  bool pushed = decode_queue_.Push(tenant_slot, cost_bytes, std::move(run));
  BTR_CHECK_MSG(pushed, "ScanService: decode submitted after shutdown");
}

bool ScanService::TryAcquireTenantHedge(u32 tenant_slot) {
  TenantState& tenant = Tenant(tenant_slot);
  if (tenant.quota.hedge_budget == 0) return true;
  u64 prev = tenant.hedges_used.fetch_add(1, std::memory_order_relaxed);
  if (prev >= tenant.quota.hedge_budget) {
    tenant.hedges_used.fetch_sub(1, std::memory_order_relaxed);
    tenant.hedges_denied.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool ScanService::TryCacheInsert(u32 tenant_slot, const std::string& key,
                                 u64 offset, u64 length, const u8* data,
                                 size_t size, u32 expected_crc) {
  TenantState& tenant = Tenant(tenant_slot);
  if (tenant.quota.max_cache_bytes != 0 &&
      tenant.cache_bytes.load(std::memory_order_relaxed) + size >
          tenant.quota.max_cache_bytes) {
    tenant.cache_quota_skips.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Credit before the insert: once the entry is in the cache it can be
  // evicted (and debited) concurrently, so the debit must never be able
  // to run before the matching credit.
  tenant.cache_bytes.fetch_add(size, std::memory_order_relaxed);
  bool inserted = cache_.Insert(key, offset, length, data, size, expected_crc,
                                tenant_slot + 1);
  if (!inserted) {
    tenant.cache_bytes.fetch_sub(size, std::memory_order_relaxed);
  }
  return inserted;
}

void ScanService::RecordBlockLookups(u32 tenant_slot, u64 hits, u64 misses) {
  TenantState& tenant = Tenant(tenant_slot);
  tenant.cache_hits.fetch_add(hits, std::memory_order_relaxed);
  tenant.cache_misses.fetch_add(misses, std::memory_order_relaxed);
  tenant.obs_hits->Add(hits);
}

void ScanService::RecordGets(u32 tenant_slot, u64 gets, u64 bytes,
                             bool hedged) {
  TenantState& tenant = Tenant(tenant_slot);
  tenant.gets.fetch_add(gets, std::memory_order_relaxed);
  tenant.bytes_fetched.fetch_add(bytes, std::memory_order_relaxed);
  tenant.obs_gets->Add(gets);
  if (hedged) tenant.hedges.fetch_add(1, std::memory_order_relaxed);
}

TenantStats ScanService::GetTenantStats(const TenantId& id) const {
  u32 slot;
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto it = tenant_index_.find(id);
    BTR_CHECK_MSG(it != tenant_index_.end(),
                  "ScanService: stats for unknown tenant");
    slot = it->second;
  }
  const TenantState& tenant = Tenant(slot);
  TenantStats stats;
  stats.scans_admitted = tenant.scans_admitted.load(std::memory_order_relaxed);
  stats.scans_queued = tenant.scans_queued.load(std::memory_order_relaxed);
  stats.scans_rejected =
      tenant.scans_rejected.load(std::memory_order_relaxed);
  stats.scans_completed =
      tenant.scans_completed.load(std::memory_order_relaxed);
  stats.admission_wait_ns =
      tenant.admission_wait_ns.load(std::memory_order_relaxed);
  stats.gets = tenant.gets.load(std::memory_order_relaxed);
  stats.cache_hits = tenant.cache_hits.load(std::memory_order_relaxed);
  stats.cache_misses = tenant.cache_misses.load(std::memory_order_relaxed);
  stats.bytes_fetched = tenant.bytes_fetched.load(std::memory_order_relaxed);
  stats.hedges = tenant.hedges.load(std::memory_order_relaxed);
  stats.hedges_denied = tenant.hedges_denied.load(std::memory_order_relaxed);
  stats.cache_bytes = tenant.cache_bytes.load(std::memory_order_relaxed);
  stats.cache_quota_skips =
      tenant.cache_quota_skips.load(std::memory_order_relaxed);
  stats.queue_items = tenant.queue_items.load(std::memory_order_relaxed);
  stats.queue_wait_ns = tenant.queue_wait_ns.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(tenant.wait_mutex);
    size_t n = static_cast<size_t>(
        std::min<u64>(tenant.wait_seen, tenant.wait_ring.size()));
    if (n > 0) {
      std::vector<u64> waits(tenant.wait_ring.begin(),
                             tenant.wait_ring.begin() + n);
      size_t rank = (n * 95) / 100;
      if (rank >= n) rank = n - 1;
      std::nth_element(waits.begin(), waits.begin() + rank, waits.end());
      stats.queue_wait_p95_ns = waits[rank];
    }
  }
  return stats;
}

std::vector<std::pair<TenantId, TenantStats>> ScanService::AllTenantStats()
    const {
  std::vector<TenantId> ids;
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    ids.reserve(tenants_.size());
    for (const auto& tenant : tenants_) ids.push_back(tenant->id);
  }
  std::vector<std::pair<TenantId, TenantStats>> all;
  all.reserve(ids.size());
  for (const TenantId& id : ids) {
    all.emplace_back(id, GetTenantStats(id));
  }
  return all;
}

u32 ScanService::running_scans() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return running_scans_;
}

u32 ScanService::queued_scans() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return static_cast<u32>(waiters_.size());
}

}  // namespace btr::service
