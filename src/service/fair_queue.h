// Deficit-round-robin fair queue for the multi-tenant scan service.
//
// One FairQueue multiplexes work items from many tenant lanes onto a
// shared executor pool (docs/SCAN_SERVICE.md). Each lane owns a FIFO of
// closures tagged with a byte cost; Pop serves lanes deficit-round-robin
// (Shreedhar & Varghese): every serving pass grants each backlogged lane
// kFairQueueQuantumBytes of deficit, and a lane may dequeue items while its
// accumulated deficit covers their cost. A lane that goes idle forfeits
// its deficit, so a tenant cannot bank credit while absent and then burst
// past everyone. The result: over any busy interval, each backlogged
// tenant drains ~quantum-proportional bytes per pass regardless of how
// deep a hog tenant's backlog is.
//
// Lanes may also carry an outstanding-item cap (`max_outstanding`): a
// lane with that many items popped-but-not-yet-completed is skipped until
// OnComplete() is called — the service uses this to cap a tenant's
// in-flight GETs without stalling other tenants' work.
//
// Thread-safe: any number of pushers and popping executor threads.
#ifndef BTR_SERVICE_FAIR_QUEUE_H_
#define BTR_SERVICE_FAIR_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "util/types.h"

namespace btr::service {

// Deficit granted to each backlogged lane per serving pass. Items larger
// than the quantum still run (the deficit accumulates across passes); the
// quantum only sets the interleaving granularity.
inline constexpr u64 kFairQueueQuantumBytes = u64{1} << 20;

class FairQueue {
 public:
  FairQueue() = default;

  FairQueue(const FairQueue&) = delete;
  FairQueue& operator=(const FairQueue&) = delete;

  // Adds a lane; returns its index. `max_outstanding` caps items
  // concurrently popped-but-not-completed (0 = uncapped). Lanes are never
  // removed. Safe to call concurrently with Push/Pop.
  u32 AddLane(u32 max_outstanding = 0);

  // Enqueues a work item on `lane`. `cost` is the DRR charge (bytes the
  // item will move; 0 is treated as 1 so zero-cost floods cannot starve
  // the round-robin). Returns false if the queue is closed.
  bool Push(u32 lane, u64 cost, std::function<void()> run);

  // Blocks until an item is servable or the queue is closed-and-drained
  // (false). On success fills `run`, the nanoseconds the item spent
  // queued, and its lane; the caller must invoke OnComplete(lane) once
  // the item's work has finished.
  bool Pop(std::function<void()>* run, u64* queued_ns, u32* lane_out);

  // Releases one outstanding slot on `lane` and wakes poppers.
  void OnComplete(u32 lane);

  // No more Pushes succeed; Pops drain what is queued, then return false.
  void Close();

  struct LaneStats {
    u64 pushed = 0;
    u64 popped = 0;
    u64 queued_ns = 0;  // total time popped items spent waiting
  };
  LaneStats GetLaneStats(u32 lane) const;

  // Items currently queued across all lanes.
  size_t Depth() const;

 private:
  struct Item {
    u64 cost;
    std::function<void()> run;
    u64 enqueued_ns;  // steady-clock stamp at Push
  };
  struct Lane {
    std::deque<Item> items;
    u64 deficit = 0;
    u32 outstanding = 0;
    u32 max_outstanding = 0;
    LaneStats stats;
  };

  // A lane that Pop may serve right now (mutex held).
  bool ServableLocked(const Lane& lane) const {
    return !lane.items.empty() &&
           (lane.max_outstanding == 0 ||
            lane.outstanding < lane.max_outstanding);
  }
  bool AnyServableLocked() const;

  mutable std::mutex mutex_;
  std::condition_variable servable_cv_;
  std::vector<Lane> lanes_;
  size_t cursor_ = 0;  // lane the DRR pass resumes from
  size_t depth_ = 0;
  bool closed_ = false;
};

}  // namespace btr::service

#endif  // BTR_SERVICE_FAIR_QUEUE_H_
