// btr::service::ScanService — the executor every btr::Scanner runs on.
//
// The paper's premise (§2.1/§6.7) is that GETs and CPU scheduling *are*
// the scan cost, so a multi-tenant deployment wins by sharing exactly
// those. One ScanService per process owns (docs/SCAN_SERVICE.md):
//
//   - one sharded exec::BlockCache shared by all scanners. Scanners
//     insert only blocks they verified on arrival, under the block's
//     header CRC32C, so one tenant's hit is as good as another tenant's
//     verified GET;
//   - one exec::CircuitBreaker per backend (keyed by ObjectStore*), so
//     tenant A's dead backend fails fast for tenant B too;
//   - a global fetch/decode thread-pool pair fed by two deficit-round-
//     robin FairQueues with one lane per tenant — a hog tenant's backlog
//     cannot starve a light tenant's items;
//   - admission control: at most `max_concurrent_scans` scans run; the
//     next `max_queued_scans` wait (FIFO by arrival, bounded by
//     `admission_timeout_ns`); everything else is rejected with typed
//     Status::Throttled. Throttled is transient, so callers can wrap
//     Scan() in exec::RunWithRetries and degrade gracefully;
//   - per-tenant stats (GetTenantStats) and obs counters:
//       service.tenant.<id>.gets / .hits / .queued_ns / .rejected
//
// Scanners attach via Scanner(service, tenant_id, ...); every GET they
// issue, Open's included, is a fetch item on the tenant's lane. A
// standalone Scanner(store, ...) runs on a private single-tenant
// ScanService of its own (tenant "standalone"), built at Open from its
// ScanConfig — one execution path for both (docs/SCAN_PIPELINE.md).
//
// Threading: all methods are thread-safe. Destroy the service only after
// every serviced Scan() call has returned (checked).
#ifndef BTR_SERVICE_SCAN_SERVICE_H_
#define BTR_SERVICE_SCAN_SERVICE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/block_cache.h"
#include "exec/retry.h"
#include "service/fair_queue.h"
#include "util/status.h"
#include "util/types.h"

namespace btr::obs {
class Counter;  // obs/metrics.h
}  // namespace btr::obs

namespace btr::s3sim {
class ObjectStore;  // s3sim/object_store.h
}  // namespace btr::s3sim

namespace btr::service {

using TenantId = std::string;

// Snapshot of one tenant's accounting (GetTenantStats).
struct TenantStats {
  u64 scans_admitted = 0;
  u64 scans_queued = 0;     // admissions that had to wait
  u64 scans_rejected = 0;   // typed-Throttled rejections
  u64 scans_completed = 0;
  u64 admission_wait_ns = 0;  // total time spent in the waiting room

  u64 gets = 0;           // GET attempts issued against the store, Open's
                          // included
  u64 cache_hits = 0;     // blocks the shared cache served
  u64 cache_misses = 0;   // blocks fetched from the store
  u64 bytes_fetched = 0;
  u64 hedges = 0;         // duplicate GETs issued

  u64 queue_items = 0;       // work items that passed through the queues
  u64 queue_wait_ns = 0;     // total fair-queue wait across those items
  u64 queue_wait_p95_ns = 0;  // exact p95 over the recent-wait ring
};

struct ScanServiceConfig {
  u32 fetch_threads = 8;   // global GET executor threads
  u32 decode_threads = 0;  // global decode executor threads; 0 = hw conc.

  // Admission control: max_concurrent_scans run; up to max_queued_scans
  // wait at most admission_timeout_ns; the rest reject with Throttled.
  u32 max_concurrent_scans = 64;
  u32 max_queued_scans = 64;
  u64 admission_timeout_ns = 500ull * 1000 * 1000;  // 500 ms

  // The one shared cache; every scan on the service uses it (the per-scan
  // ScanConfig cache knobs only size a standalone Scanner's private
  // service). capacity_bytes == 0 disables it: cache() is null and scans
  // neither look up nor count misses.
  exec::BlockCacheConfig cache;

  // Shared per-backend breakers (one per ObjectStore seen).
  bool enable_breaker = true;
  exec::CircuitBreakerPolicy breaker;

  // Equal configs build the same executors, cache and breakers: a
  // standalone Scanner keeps its private service while this holds.
  bool operator==(const ScanServiceConfig&) const = default;
};

class ScanService {
 public:
  explicit ScanService(const ScanServiceConfig& config = ScanServiceConfig());
  ~ScanService();

  ScanService(const ScanService&) = delete;
  ScanService& operator=(const ScanService&) = delete;

  // Returns the slot for `id`, registering the tenant (its stats and one
  // lane in each fair queue) on first sight. Slots are stable for the
  // service lifetime.
  u32 EnsureTenant(const TenantId& id);

  TenantStats GetTenantStats(const TenantId& id) const;
  std::vector<std::pair<TenantId, TenantStats>> AllTenantStats() const;

  // --- admission ------------------------------------------------------------
  struct Ticket {
    u32 tenant_slot = 0;
    bool admitted = false;
  };
  // Admits one scan for the tenant, waiting in the bounded FIFO room if
  // the service is saturated or the room is not empty (a freed slot goes
  // to the earliest waiter). Returns Status::Throttled when the waiting
  // room is full or the admission timeout elapsed. `wait_ns`, when set,
  // receives the time spent waiting.
  Status Admit(u32 tenant_slot, Ticket* ticket, u64* wait_ns = nullptr);
  // Releases an admitted ticket (idempotent; no-op on a rejected one).
  void Release(Ticket* ticket);

  // --- shared resources -----------------------------------------------------
  // The shared cache; nullptr when config().cache.capacity_bytes == 0.
  exec::BlockCache* cache() {
    return config_.cache.capacity_bytes == 0 ? nullptr : &cache_;
  }
  // The shared breaker for `store`, created on first sight; nullptr when
  // breakers are disabled in the service config.
  exec::CircuitBreaker* BreakerFor(const s3sim::ObjectStore* store);

  // --- work submission (called by Scanners) ---------------------------------
  // Enqueues a work item on the tenant's fetch/decode lane. `cost_bytes`
  // is the DRR charge. The closure runs on a service executor thread; it
  // must not block on other service work (the scanner's fetch and decode
  // windows, taken and returned on its calling thread, guarantee this).
  void SubmitFetch(u32 tenant_slot, u64 cost_bytes, std::function<void()> run);
  void SubmitDecode(u32 tenant_slot, u64 cost_bytes,
                    std::function<void()> run);

  // --- per-tenant accounting (called by Scanners) ---------------------------
  // Accounts `gets` GET attempts that moved `bytes` payload bytes (hedged
  // when a duplicate was issued). Every GET a Scanner issues lands here:
  // Open's manifest and metadata, block runs and CRC re-fetches.
  void RecordGets(u32 tenant_slot, u64 gets, u64 bytes, bool hedged);
  // Accounts a scan's block lookups: `hits` blocks the shared cache
  // served, `misses` blocks fetched from the store.
  void RecordBlockLookups(u32 tenant_slot, u64 hits, u64 misses);

  const ScanServiceConfig& config() const { return config_; }
  // Fetch and decode executor threads (config() values, 0 resolved).
  u32 fetch_threads() const { return static_cast<u32>(fetch_threads_.size()); }
  u32 decode_threads() const {
    return static_cast<u32>(decode_threads_.size());
  }
  // Scans currently admitted (running).
  u32 running_scans() const;

 private:
  struct TenantState;

  TenantState& Tenant(u32 slot) const;
  void ExecutorLoop(FairQueue* queue);
  void RecordQueueWait(u32 slot, u64 wait_ns);

  const ScanServiceConfig config_;
  exec::BlockCache cache_;

  mutable std::mutex tenants_mutex_;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  std::unordered_map<TenantId, u32> tenant_index_;

  mutable std::mutex breakers_mutex_;
  std::map<const s3sim::ObjectStore*, std::unique_ptr<exec::CircuitBreaker>>
      breakers_;

  // Admission state: the waiting room holds arrival numbers, oldest first.
  mutable std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  std::deque<u64> waiters_;
  u64 next_waiter_seq_ = 0;
  u32 running_scans_ = 0;

  FairQueue fetch_queue_;
  FairQueue decode_queue_;
  std::vector<std::thread> fetch_threads_;
  std::vector<std::thread> decode_threads_;
};

}  // namespace btr::service

#endif  // BTR_SERVICE_SCAN_SERVICE_H_
