#include "service/fair_queue.h"

#include <chrono>
#include <utility>

#include "util/types.h"

namespace btr::service {

namespace {

u64 NowNanos() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

u32 FairQueue::AddLane() {
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.emplace_back();
  return static_cast<u32>(lanes_.size() - 1);
}

bool FairQueue::Push(u32 lane_index, u64 cost, std::function<void()> run) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    BTR_CHECK_MSG(lane_index < lanes_.size(), "FairQueue: unknown lane");
    // Cost 0 would let a tenant drain unlimited items per pass; floor at 1.
    lanes_[lane_index].items.push_back(
        Item{cost == 0 ? 1 : cost, std::move(run), NowNanos()});
    depth_++;
  }
  queued_cv_.notify_one();
  return true;
}

bool FairQueue::Pop(std::function<void()>* run, u64* queued_ns,
                    u32* lane_out) {
  std::unique_lock<std::mutex> lock(mutex_);
  queued_cv_.wait(lock, [this] { return depth_ > 0 || closed_; });
  if (depth_ == 0) return false;  // closed and drained
  // DRR serving pass, resuming from cursor_: take the first backlogged
  // lane whose accumulated deficit covers its head item; when no lane
  // qualifies, grant each backlogged lane one quantum and rescan. Idle
  // lanes accrue nothing — credit cannot be banked while absent. Some
  // lane is backlogged, so the grants end the loop.
  for (;;) {
    for (size_t k = 0; k < lanes_.size(); k++) {
      size_t idx = (cursor_ + k) % lanes_.size();
      Lane& lane = lanes_[idx];
      if (lane.items.empty() || lane.deficit < lane.items.front().cost) {
        continue;
      }
      Item item = std::move(lane.items.front());
      lane.items.pop_front();
      lane.deficit -= item.cost;
      // A lane that just went idle forfeits its remaining deficit.
      if (lane.items.empty()) lane.deficit = 0;
      depth_--;
      // Keep serving this lane while its deficit lasts (classic DRR);
      // the deficit check above rotates the pass onward when spent.
      cursor_ = idx;
      *run = std::move(item.run);
      *queued_ns = NowNanos() - item.enqueued_ns;
      *lane_out = static_cast<u32>(idx);
      return true;
    }
    for (Lane& lane : lanes_) {
      if (!lane.items.empty()) lane.deficit += kFairQueueQuantumBytes;
    }
  }
}

void FairQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  queued_cv_.notify_all();
}

}  // namespace btr::service
