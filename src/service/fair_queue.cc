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

u32 FairQueue::AddLane(u32 max_outstanding) {
  std::lock_guard<std::mutex> lock(mutex_);
  Lane lane;
  lane.max_outstanding = max_outstanding;
  lanes_.push_back(std::move(lane));
  return static_cast<u32>(lanes_.size() - 1);
}

bool FairQueue::Push(u32 lane_index, u64 cost, std::function<void()> run) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    BTR_CHECK_MSG(lane_index < lanes_.size(), "FairQueue: unknown lane");
    Lane& lane = lanes_[lane_index];
    // Cost 0 would let a tenant drain unlimited items per pass; floor at 1.
    lane.items.push_back(Item{cost == 0 ? 1 : cost, std::move(run),
                              NowNanos()});
    lane.stats.pushed++;
    depth_++;
  }
  servable_cv_.notify_one();
  return true;
}

bool FairQueue::AnyServableLocked() const {
  for (const Lane& lane : lanes_) {
    if (ServableLocked(lane)) return true;
  }
  return false;
}

bool FairQueue::Pop(std::function<void()>* run, u64* queued_ns,
                    u32* lane_out) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    servable_cv_.wait(lock, [this] {
      return AnyServableLocked() || (closed_ && depth_ == 0);
    });
    if (!AnyServableLocked()) return false;  // closed and drained
    // DRR serving pass, resuming from cursor_: take the first servable
    // lane whose accumulated deficit covers its head item; when no lane
    // qualifies, grant each *backlogged, servable* lane one quantum and
    // rescan. Gated and idle lanes accrue nothing — credit cannot be
    // banked while absent.
    for (;;) {
      for (size_t k = 0; k < lanes_.size(); k++) {
        size_t idx = (cursor_ + k) % lanes_.size();
        Lane& lane = lanes_[idx];
        if (!ServableLocked(lane)) continue;
        if (lane.deficit < lane.items.front().cost) continue;
        Item item = std::move(lane.items.front());
        lane.items.pop_front();
        lane.deficit -= item.cost;
        // A lane that just went idle forfeits its remaining deficit.
        if (lane.items.empty()) lane.deficit = 0;
        lane.outstanding++;
        depth_--;
        u64 wait_ns = NowNanos() - item.enqueued_ns;
        lane.stats.popped++;
        lane.stats.queued_ns += wait_ns;
        // Keep serving this lane while its deficit lasts (classic DRR);
        // the deficit check above rotates the pass onward when spent.
        cursor_ = idx;
        *run = std::move(item.run);
        *queued_ns = wait_ns;
        *lane_out = static_cast<u32>(idx);
        return true;
      }
      bool granted = false;
      for (Lane& lane : lanes_) {
        if (ServableLocked(lane)) {
          lane.deficit += kFairQueueQuantumBytes;
          granted = true;
        }
      }
      // Servability cannot change while we hold the mutex; if nothing is
      // servable the outer wait must run again.
      if (!granted) break;
    }
  }
}

void FairQueue::OnComplete(u32 lane_index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    BTR_CHECK_MSG(lane_index < lanes_.size(), "FairQueue: unknown lane");
    Lane& lane = lanes_[lane_index];
    BTR_CHECK_MSG(lane.outstanding > 0,
                  "FairQueue: OnComplete without a matching Pop");
    lane.outstanding--;
  }
  servable_cv_.notify_one();
}

void FairQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  servable_cv_.notify_all();
}

FairQueue::LaneStats FairQueue::GetLaneStats(u32 lane_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  BTR_CHECK_MSG(lane_index < lanes_.size(), "FairQueue: unknown lane");
  return lanes_[lane_index].stats;
}

size_t FairQueue::Depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

}  // namespace btr::service
