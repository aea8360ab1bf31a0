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

  // Adds a lane; returns its index. Lanes are never removed. Safe to call
  // concurrently with Push/Pop.
  u32 AddLane();

  // Enqueues a work item on `lane`. `cost` is the DRR charge (bytes the
  // item will move; 0 is treated as 1 so zero-cost floods cannot starve
  // the round-robin). Returns false if the queue is closed.
  bool Push(u32 lane, u64 cost, std::function<void()> run);

  // Blocks until an item is queued or the queue is closed-and-drained
  // (false). On success fills `run`, the nanoseconds the item spent
  // queued, and its lane.
  bool Pop(std::function<void()>* run, u64* queued_ns, u32* lane_out);

  // No more Pushes succeed; Pops drain what is queued, then return false.
  void Close();

 private:
  struct Item {
    u64 cost;
    std::function<void()> run;
    u64 enqueued_ns;  // steady-clock stamp at Push
  };
  struct Lane {
    std::deque<Item> items;
    u64 deficit = 0;
  };

  std::mutex mutex_;
  std::condition_variable queued_cv_;
  std::vector<Lane> lanes_;
  size_t cursor_ = 0;  // lane the DRR pass resumes from
  size_t depth_ = 0;   // items queued across all lanes
  bool closed_ = false;
};

}  // namespace btr::service

#endif  // BTR_SERVICE_FAIR_QUEUE_H_
