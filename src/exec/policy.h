// The read path's three resilience policies as plain values: retry and
// backoff, hedged GETs, and the circuit breaker. Each default is written
// here and nowhere else; btr::ScanConfig (btr/config.h) embeds all three,
// service::ScanServiceConfig the breaker, write::WriterConfig the retry.
// The machinery that runs them (RetryState, HedgeState, CircuitBreaker,
// HedgedGet) lives in exec/retry.h, which brings in mutexes;
// this header brings in nothing but integer types.
#ifndef BTR_EXEC_POLICY_H_
#define BTR_EXEC_POLICY_H_

#include "util/types.h"

namespace btr::exec {

// Backoff doubles per retry up to max_backoff_ns, jittered from a fixed
// seed so runs are reproducible.
struct RetryPolicy {
  u32 max_attempts = 4;             // tries per request; 0 or 1 = never retry
  u64 initial_backoff_ns = 1000 * 1000;      // 1 ms before the first retry
  u64 max_backoff_ns = 64 * 1000 * 1000;     // backoff cap, 64 ms
  u64 retry_budget = 256;           // total retries across the policy's user
};

// A GET that outlives the running `quantile` of recent GET latencies gets
// one duplicate request; the first successful response wins. Hedges arm
// only after `min_samples` latencies (and at least one) and are capped per
// scan by `hedge_budget`, so a degraded backend cannot double its own load.
struct HedgePolicy {
  double quantile = 0.95;        // hedge when a GET outlives this quantile
  u32 min_samples = 16;          // latencies required before hedging arms
  u64 min_threshold_ns = 200 * 1000;  // floor under the quantile threshold
  u64 hedge_budget = 64;         // duplicate GETs allowed per scan
};

// Past `failure_threshold` transient failures over a sliding window of
// `window` outcomes the breaker trips open until `cooldown_ns` elapses.
struct CircuitBreakerPolicy {
  u32 window = 32;                 // sliding window of request outcomes
  u32 min_samples = 8;             // outcomes required before tripping
  double failure_threshold = 0.5;  // trip at >= this failure fraction
  u64 cooldown_ns = 10 * 1000 * 1000;  // open -> half-open after 10 ms

  bool operator==(const CircuitBreakerPolicy&) const = default;
};

}  // namespace btr::exec

#endif  // BTR_EXEC_POLICY_H_
