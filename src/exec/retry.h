// Resilience policies for the object-store read path: retry/backoff for
// transient failures, hedged requests against tail latency, and a circuit
// breaker against a dying backend — plus HedgedGet, the one primitive that
// issues a Scanner's GETs (run under RunWithRetries). The policies are the
// plain structs of exec/policy.h; this header holds the state that runs
// them.
//
// --- retry (RetryPolicy / RetryState) ---------------------------------------
// Transient failures (Status::Throttled / Status::Unavailable) retry with
// capped exponential backoff, deterministic jitter, a per-request deadline,
// and a shared retry budget so one scan cannot retry without bound when the
// backend is down.
//
// One RetryState is shared by all fetch threads of a scan (and by
// Scanner::Open's metadata GETs): the budget is scan-wide and the jitter
// stream is seeded, so a given schedule of failures backs off the same
// way every run. Backoff sleeps go through a caller-supplied SleepFn so
// the scanner can make them interruptible — an aborting scan must not
// wait out a pending backoff.
//
// Accounting discipline: a retry only *counts* once its backoff sleep
// completed and the next attempt is actually going to happen. NextBackoff
// reserves a unit of budget; the caller commits it (metrics `scan.retries`
// and `scan.backoff_ns`, retries_granted()) after the sleep returns true,
// or cancels it (budget refunded, nothing recorded) when the sleep was
// interrupted — an aborted scan neither overcounts retries nor leaks
// budget. RunWithRetries does this bookkeeping for you.
//
// --- hedging (HedgePolicy / HedgeState) -------------------------------------
// "The Tail at Scale" discipline: when a GET outlives the running latency
// quantile of its peers, issue one duplicate GET and take the first
// successful response. HedgeState tracks recent `s3.get` latencies in a
// ring, arms once min_samples (and at least one) are in, and caps total
// hedges per scan with hedge_budget. A caller that does not hedge has no
// HedgeState. HedgedGet below owns the mechanics: it issues both requests
// from the calling thread and knows from each response's arrival time
// which one lands first, so a hedge starts no thread.
//
// --- circuit breaker (CircuitBreakerPolicy / CircuitBreaker) ----------------
// Past an error-rate threshold over a sliding outcome window the breaker
// trips open: requests fail fast with Status::Unavailable instead of
// burning attempts and retry budget against a backend that is down. After
// cooldown_ns it half-opens and lets two probe requests through; two
// successes close it, any probe failure re-opens it.
#ifndef BTR_EXEC_RETRY_H_
#define BTR_EXEC_RETRY_H_

#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exec/policy.h"
#include "util/random.h"
#include "util/status.h"
#include "util/types.h"

namespace btr::s3sim {
class ObjectStore;  // s3sim/object_store.h
}  // namespace btr::s3sim

namespace btr::exec {

// Shared mutable retry state: the scan-wide budget and the jitter PRNG.
// Thread-safe.
class RetryState {
 public:
  explicit RetryState(const RetryPolicy& policy);

  // Decides whether a request that has completed `attempts` tries (>= 1)
  // may retry. On true, one unit of budget is *reserved* and *backoff_ns
  // holds the jittered backoff to sleep before the next try. The caller must then either CommitRetry (the
  // sleep completed, the retry happens) or CancelRetry (the sleep was
  // interrupted, the reservation is refunded). Nothing is recorded yet.
  bool NextBackoff(u32 attempts, u64* backoff_ns);

  // The backoff slept to completion: count the retry (`scan.retries`) and
  // record its backoff (`scan.backoff_ns`).
  void CommitRetry(u64 backoff_ns);

  // The backoff sleep was interrupted and no retry will happen: refund the
  // reserved budget, record nothing.
  void CancelRetry();

  // Retries that actually happened (committed, not merely reserved).
  u64 retries_granted() const;

 private:
  const RetryPolicy policy_;
  mutable std::mutex mutex_;
  Random jitter_rng_;
  u64 budget_used_ = 0;       // reservations (refunded on cancel)
  u64 retries_committed_ = 0; // retries whose backoff completed
};

// Sleeps for the given nanoseconds; returns false when interrupted (the
// caller should stop retrying and unwind).
using SleepFn = std::function<bool(u64 backoff_ns)>;

// Blocking sleep that is never interrupted (for non-pipelined callers).
bool SleepUninterruptible(u64 backoff_ns);

// --- hedged requests --------------------------------------------------------

// Shared per-scan hedging state: the ring of the last 128 latencies the
// threshold derives from, and the hedge budget. Thread-safe.
class HedgeState {
 public:
  explicit HedgeState(const HedgePolicy& policy);

  // Records one completed GET's latency into the quantile window.
  void RecordLatency(u64 ns);

  // Nanoseconds a GET may run before a hedge should be issued, from the
  // running quantile (floored at min_threshold_ns). 0 = hedging not armed
  // (too few samples, or budget exhausted).
  u64 ThresholdNs() const;

  // Consumes one unit of hedge budget; false once the budget is gone.
  bool TryAcquireHedge();

  // Outcome of an issued hedge: did the duplicate win the race?
  void RecordHedgeOutcome(bool hedge_won);

  u64 hedges_issued() const;
  u64 hedge_wins() const;

 private:
  const HedgePolicy policy_;
  mutable std::mutex mutex_;
  std::vector<u64> window_;  // ring of recent latencies
  size_t next_ = 0;
  u64 samples_ = 0;
  u64 hedges_ = 0;
  u64 wins_ = 0;
};

// --- circuit breaker --------------------------------------------------------

// Per-backend breaker shared by every fetch thread of a scan. Thread-safe.
// Transient failures count against the backend; successes and permanent,
// request-specific errors (NotFound, InvalidArgument) count as healthy
// responses. Fail-fast rejections surface as Status::Unavailable — a
// typed, transient status, so callers keep their error contract.
class CircuitBreaker {
 public:
  enum class State : u8 { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  explicit CircuitBreaker(const CircuitBreakerPolicy& policy);

  // May a request go to the backend right now? false = fail fast (counted
  // in fast_failures and `scan.breaker.fast_failures`).
  bool Allow();

  // Reports a completed request's outcome (success = the backend answered,
  // even with a permanent error; failure = transient backend failure).
  void Record(bool success);

  State state() const;
  u64 trips() const;          // closed/half-open -> open transitions
  u64 fast_failures() const;  // requests rejected while open

 private:
  using Clock = std::chrono::steady_clock;

  void TripLocked();   // -> kOpen, starts the cooldown
  void CloseLocked();  // -> kClosed, resets the window

  const CircuitBreakerPolicy policy_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  std::vector<u8> outcomes_;  // ring: 1 = failure
  size_t next_ = 0;
  u32 samples_ = 0;
  u32 failures_ = 0;
  Clock::time_point open_until_{};
  u32 probes_granted_ = 0;
  u32 probe_successes_ = 0;
  u64 trips_ = 0;
  u64 fast_failures_ = 0;
};

// Per-call accounting RunWithRetries fills when the caller passes one —
// the per-request view the scan profiler needs (the RetryState totals
// are scan-wide and cannot attribute retries to a single request).
struct RetryOutcome {
  u32 attempts = 0;       // op() invocations, including the first
  u32 retries = 0;        // committed retries (backoff slept to completion)
  bool breaker_rejected = false;  // the breaker fast-failed this call
};

// Runs `op` until it succeeds, fails permanently, or retries are
// exhausted. Only transient statuses (Status::IsTransient) are retried;
// the last status is returned either way. With a breaker, every attempt
// first asks Allow() — a fail-fast rejection returns immediately as
// Status::Unavailable without consuming attempts or retry budget — and
// every completed attempt's outcome is Record()ed.
Status RunWithRetries(RetryState* state, const std::function<Status()>& op,
                      const SleepFn& sleep = SleepUninterruptible,
                      CircuitBreaker* breaker = nullptr,
                      RetryOutcome* outcome = nullptr);

// --- the GET ----------------------------------------------------------------

// One GET on the calling thread, hedged when `hedge`'s latency tracker
// says the primary is overdue. The primary is issued as a completion
// (ObjectStore::IssueGet); if it lands after the quantile threshold, this
// thread waits until the threshold and issues one duplicate, and the
// earlier successful arrival wins — the primary on a tie or when the
// duplicate fails. When both fail, the primary's status is returned. The
// loser is dropped, never waited for: the call returns when the winner
// lands. A null `hedge` issues one plain GET and never hedges. The latency
// sample is the winner's, measured once it has landed. `hedged` /
// `hedge_won` are OR-accumulated so retry wrappers can reuse the flags
// across attempts. Whichever response lands in `out` has capacity for
// kSimdPadding bytes past `length`, so a caller can pad it for decoders
// that over-read (util/buffer.h) without a copy. Metrics: `scan.hedges`,
// `scan.hedge_wins`.
Status HedgedGet(s3sim::ObjectStore* store, const std::string& key,
                 u64 offset, u64 length, HedgeState* hedge,
                 std::vector<u8>* out, bool* hedged, bool* hedge_won);

}  // namespace btr::exec

#endif  // BTR_EXEC_RETRY_H_
