#include "exec/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "s3sim/object_store.h"
#include "util/buffer.h"

namespace btr::exec {

namespace {

constexpr double kBackoffMultiplier = 2.0;  // exponential growth per retry
constexpr u64 kJitterSeed = 0xB10C5EEDull;  // deterministic jitter stream
constexpr u32 kHedgeLatencyWindow = 128;    // ring of the running quantile
constexpr u32 kHalfOpenProbes = 2;  // probe successes required to close

struct RetryMetrics {
  obs::Counter& retries;
  obs::Histogram& backoff_ns;

  static RetryMetrics& Get() {
    static RetryMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new RetryMetrics{r.GetCounter("scan.retries"),
                              r.GetHistogram("scan.backoff_ns")};
    }();
    return *m;
  }
};

struct BreakerMetrics {
  obs::Counter& trips;
  obs::Counter& fast_failures;
  obs::Gauge& state;

  static BreakerMetrics& Get() {
    static BreakerMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new BreakerMetrics{r.GetCounter("scan.breaker.trips"),
                                r.GetCounter("scan.breaker.fast_failures"),
                                r.GetGauge("scan.breaker.state")};
    }();
    return *m;
  }
};

struct HedgeMetrics {
  obs::Counter& hedges;
  obs::Counter& hedge_wins;

  static HedgeMetrics& Get() {
    static HedgeMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new HedgeMetrics{r.GetCounter("scan.hedges"),
                              r.GetCounter("scan.hedge_wins")};
    }();
    return *m;
  }
};

}  // namespace

RetryState::RetryState(const RetryPolicy& policy)
    : policy_(policy), jitter_rng_(kJitterSeed) {}

bool RetryState::NextBackoff(u32 attempts, u64* backoff_ns) {
  if (attempts >= policy_.max_attempts) return false;

  // Exponential target for this retry (attempts is >= 1: the count of
  // tries already made), capped, then jittered into [1/2, 1] of the
  // target so synchronized fetch threads desynchronize.
  double target = static_cast<double>(policy_.initial_backoff_ns);
  for (u32 i = 1; i < attempts; i++) target *= kBackoffMultiplier;
  target = std::min(target, static_cast<double>(policy_.max_backoff_ns));

  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_used_ >= policy_.retry_budget) return false;
  budget_used_++;  // reserved; committed or refunded after the sleep
  *backoff_ns =
      static_cast<u64>(target * (0.5 + 0.5 * jitter_rng_.NextDouble()));
  return true;
}

void RetryState::CommitRetry(u64 backoff_ns) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retries_committed_++;
  }
  RetryMetrics& metrics = RetryMetrics::Get();
  metrics.retries.Add();
  metrics.backoff_ns.Record(backoff_ns);
}

void RetryState::CancelRetry() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_used_ > 0) budget_used_--;
}

u64 RetryState::retries_granted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retries_committed_;
}

bool SleepUninterruptible(u64 backoff_ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
  return true;
}

// --- hedging ----------------------------------------------------------------

HedgeState::HedgeState(const HedgePolicy& policy)
    : policy_(policy), window_(kHedgeLatencyWindow, 0) {}

void HedgeState::RecordLatency(u64 ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  window_[next_] = ns;
  next_ = (next_ + 1) % window_.size();
  samples_++;
}

u64 HedgeState::ThresholdNs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // A quantile needs at least one latency, whatever min_samples says.
  if (samples_ == 0 || samples_ < policy_.min_samples) return 0;
  if (hedges_ >= policy_.hedge_budget) return 0;
  size_t filled = static_cast<size_t>(
      std::min<u64>(samples_, static_cast<u64>(window_.size())));
  std::vector<u64> sorted(window_.begin(), window_.begin() + filled);
  double q = std::clamp(policy_.quantile, 0.0, 1.0);
  size_t rank = static_cast<size_t>(q * static_cast<double>(filled - 1));
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return std::max(sorted[rank], policy_.min_threshold_ns);
}

bool HedgeState::TryAcquireHedge() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (hedges_ >= policy_.hedge_budget) return false;
  hedges_++;
  return true;
}

void HedgeState::RecordHedgeOutcome(bool hedge_won) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (hedge_won) wins_++;
}

u64 HedgeState::hedges_issued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hedges_;
}

u64 HedgeState::hedge_wins() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wins_;
}

// --- circuit breaker --------------------------------------------------------

CircuitBreaker::CircuitBreaker(const CircuitBreakerPolicy& policy)
    : policy_(policy), outcomes_(std::max<u32>(1, policy.window), 0) {}

void CircuitBreaker::TripLocked() {
  state_ = State::kOpen;
  open_until_ = Clock::now() + std::chrono::nanoseconds(policy_.cooldown_ns);
  probes_granted_ = 0;
  probe_successes_ = 0;
  trips_++;
  BreakerMetrics& metrics = BreakerMetrics::Get();
  metrics.trips.Add();
  metrics.state.Set(static_cast<i64>(State::kOpen));
}

void CircuitBreaker::CloseLocked() {
  state_ = State::kClosed;
  std::fill(outcomes_.begin(), outcomes_.end(), 0);
  next_ = 0;
  samples_ = 0;
  failures_ = 0;
  probes_granted_ = 0;
  probe_successes_ = 0;
  BreakerMetrics::Get().state.Set(static_cast<i64>(State::kClosed));
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == State::kClosed) return true;
  if (state_ == State::kOpen) {
    if (Clock::now() < open_until_) {
      fast_failures_++;
      BreakerMetrics::Get().fast_failures.Add();
      return false;
    }
    // Cooldown over: half-open, let a bounded number of probes through.
    state_ = State::kHalfOpen;
    probes_granted_ = 0;
    probe_successes_ = 0;
    BreakerMetrics::Get().state.Set(static_cast<i64>(State::kHalfOpen));
  }
  if (probes_granted_ < kHalfOpenProbes) {
    probes_granted_++;
    return true;
  }
  fast_failures_++;
  BreakerMetrics::Get().fast_failures.Add();
  return false;
}

void CircuitBreaker::Record(bool success) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == State::kHalfOpen) {
    if (!success) {
      TripLocked();  // probe failed: straight back to open
      return;
    }
    probe_successes_++;
    if (probe_successes_ >= kHalfOpenProbes) CloseLocked();
    return;
  }
  if (state_ == State::kOpen) return;  // stale outcome from before the trip
  // Closed: slide the outcome window and check the failure fraction.
  u32 window = static_cast<u32>(outcomes_.size());
  if (samples_ >= window) failures_ -= outcomes_[next_];
  outcomes_[next_] = success ? 0 : 1;
  failures_ += outcomes_[next_];
  next_ = (next_ + 1) % window;
  if (samples_ < window) samples_++;
  if (samples_ >= policy_.min_samples && samples_ > 0 &&
      static_cast<double>(failures_) / static_cast<double>(samples_) >=
          policy_.failure_threshold) {
    TripLocked();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

u64 CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trips_;
}

u64 CircuitBreaker::fast_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fast_failures_;
}

Status RunWithRetries(RetryState* state, const std::function<Status()>& op,
                      const SleepFn& sleep, CircuitBreaker* breaker,
                      RetryOutcome* outcome) {
  u32 attempts = 0;
  u32 retries = 0;
  auto record = [&](bool breaker_rejected) {
    if (outcome == nullptr) return;
    outcome->attempts = attempts;
    outcome->retries = retries;
    outcome->breaker_rejected = breaker_rejected;
  };
  for (;;) {
    if (breaker != nullptr && !breaker->Allow()) {
      // Fail fast: no attempt, no retry budget burned against a backend
      // the breaker already knows is down.
      record(true);
      return Status::Unavailable("circuit breaker open: failing fast");
    }
    Status status = op();
    attempts++;
    if (breaker != nullptr) breaker->Record(!status.IsTransient());
    if (status.ok() || !status.IsTransient()) {
      record(false);
      return status;
    }
    u64 backoff_ns = 0;
    if (!state->NextBackoff(attempts, &backoff_ns)) {
      record(false);
      return status;  // attempts or budget exhausted
    }
    if (!sleep(backoff_ns)) {
      // Interrupted mid-backoff: the retry never happens, so it must not
      // be counted and its budget reservation is refunded.
      state->CancelRetry();
      record(false);
      return status;
    }
    state->CommitRetry(backoff_ns);
    retries++;
  }
}

Status HedgedGet(s3sim::ObjectStore* store, const std::string& key,
                 u64 offset, u64 length, HedgeState* hedge,
                 std::vector<u8>* out, bool* hedged, bool* hedge_won) {
  using Clock = std::chrono::steady_clock;
  // 0 = no hedging, or not armed yet (warming up, or budget spent). With a
  // HedgeState, successful latencies still feed the quantile so the
  // threshold can arm.
  const u64 threshold_ns = hedge == nullptr ? 0 : hedge->ThresholdNs();
  out->clear();
  out->reserve(length + kSimdPadding);
  Clock::time_point issued = Clock::now();
  Clock::time_point arrival;
  Status status = store->IssueGet(key, offset, length, out, &arrival);
  const Clock::time_point deadline =
      issued + std::chrono::nanoseconds(threshold_ns);
  if (threshold_ns != 0 && arrival > deadline) {
    // The primary outlives the threshold: issue the duplicate at the
    // threshold. Both responses verify against the same header CRC
    // downstream, so either is acceptable.
    std::this_thread::sleep_until(deadline);
    if (hedge->TryAcquireHedge()) {
      HedgeMetrics::Get().hedges.Add();
      *hedged = true;
      std::vector<u8> duplicate;
      duplicate.reserve(length + kSimdPadding);
      const Clock::time_point duplicate_issued = Clock::now();
      Clock::time_point duplicate_arrival;
      Status duplicate_status = store->IssueGet(key, offset, length,
                                                &duplicate, &duplicate_arrival);
      const bool won = duplicate_status.ok() &&
                       (!status.ok() || duplicate_arrival < arrival);
      if (won) {
        HedgeMetrics::Get().hedge_wins.Add();
        *hedge_won = true;
        status = std::move(duplicate_status);
        *out = std::move(duplicate);
        issued = duplicate_issued;
        arrival = duplicate_arrival;
      }
      hedge->RecordHedgeOutcome(won);
    }
  }
  std::this_thread::sleep_until(arrival);
  if (hedge != nullptr && status.ok()) {
    hedge->RecordLatency(static_cast<u64>(
        std::chrono::nanoseconds(Clock::now() - issued).count()));
  }
  return status;
}

}  // namespace btr::exec
