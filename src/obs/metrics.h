// Process-wide metrics registry: counters, gauges, and log-bucketed
// histograms with JSON and human-readable text export.
//
// Hot-path cost model: Counter::Add and Histogram::Record are one relaxed
// atomic RMW into a thread-striped (cache-line padded) slot — cheap enough
// to leave enabled in release builds at block granularity. Metric objects
// are created once through the registry and never destroyed (leaky
// singleton), so call sites may cache references:
//
//   static obs::Counter& blocks =
//       obs::Registry::Get().GetCounter("btr.compress.blocks");
//   blocks.Add();
//
// Naming convention: dot-separated lowercase, "<area>.<object>.<unit>",
// e.g. "exec.pool.task_wait_ns", "s3.get.bytes" (see docs/OBSERVABILITY.md).
#ifndef BTR_OBS_METRICS_H_
#define BTR_OBS_METRICS_H_

#include <atomic>
#include <string>

#include "util/types.h"

namespace btr::obs {

namespace detail {
// Stable small index for the calling thread, used to pick a counter stripe.
u32 ThreadStripe();
}  // namespace detail

// Monotonically increasing sum, striped across threads.
class Counter {
 public:
  static constexpr u32 kStripes = 16;

  void Add(u64 n = 1) {
    stripes_[detail::ThreadStripe() % kStripes].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  u64 Value() const {
    u64 total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Stripe& s : stripes_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<u64> value{0};
  };
  Stripe stripes_[kStripes];
};

// Point-in-time signed value (e.g. queue depth).
class Gauge {
 public:
  void Set(i64 v) { value_.store(v, std::memory_order_relaxed); }
  void Add(i64 n) { value_.fetch_add(n, std::memory_order_relaxed); }
  i64 Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<i64> value_{0};
};

// Log2-bucketed histogram of u64 samples. Bucket b holds samples whose
// bit width is b: bucket 0 = {0}, bucket b (b >= 1) = [2^(b-1), 2^b - 1].
class Histogram {
 public:
  static constexpr u32 kBuckets = 65;

  static u32 BucketIndex(u64 value);
  // Inclusive lower bound of bucket b (0, 1, 2, 4, 8, ...).
  static u64 BucketLowerBound(u32 b);
  // Inclusive upper bound of bucket b.
  static u64 BucketUpperBound(u32 b);

  void Record(u64 value);

  u64 Count() const { return count_.load(std::memory_order_relaxed); }
  u64 Sum() const { return sum_.load(std::memory_order_relaxed); }
  // Min/Max of recorded samples; Min() returns 0 when empty.
  u64 Min() const;
  u64 Max() const { return max_.load(std::memory_order_relaxed); }
  u64 BucketCount(u32 b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  double Mean() const {
    u64 n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  void Reset();

 private:
  std::atomic<u64> buckets_[kBuckets] = {};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> min_{~0ull};
  std::atomic<u64> max_{0};
};

// Name -> metric map. Lookups take a mutex; returned references are valid
// for the process lifetime.
class Registry {
 public:
  static Registry& Get();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // {"counters":{...},"gauges":{...},"histograms":{...}} — histogram
  // buckets are emitted sparsely as [lo, count] pairs.
  std::string ExportJson() const;

  // Zeroes every registered metric (tests and bench repeats).
  void ResetAll();

 private:
  Registry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

// Writes Registry::Get().ExportJson() to `path`; returns false on IO error.
bool WriteMetricsJsonFile(const std::string& path);

}  // namespace btr::obs

#endif  // BTR_OBS_METRICS_H_
