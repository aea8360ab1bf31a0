// Unit tests for the retry accounting discipline, hedging state and the
// circuit breaker (exec/retry.h).
//
// The accounting contract under test: a retry is *reserved* by NextBackoff
// and only *counted* (scan.retries, retries_granted) once its backoff
// sleep completed — an interrupted sleep refunds the reservation and
// records nothing, so aborted scans cannot overcount retries or leak
// budget.
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/retry.h"
#include "obs/metrics.h"
#include "s3sim/fault.h"
#include "s3sim/object_store.h"
#include "util/status.h"

namespace btr::exec {
namespace {

RetryPolicy FastPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ns = 1000;  // 1 us
  policy.max_backoff_ns = 4000;
  policy.retry_budget = 16;
  return policy;
}

TEST(RetryTest, CommitsRetriesOnlyAfterSleepCompletes) {
  obs::Counter& retries = obs::Registry::Get().GetCounter("scan.retries");
  u64 base = retries.Value();

  RetryState state(FastPolicy());
  u32 calls = 0;
  Status status = RunWithRetries(&state, [&] {
    calls++;
    return calls < 4 ? Status::Throttled("synthetic") : Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(state.retries_granted(), 3u);
  EXPECT_EQ(retries.Value() - base, 3u);
}

// The satellite bugfix: a sleep interrupted by pipeline shutdown used to
// bump scan.retries and burn budget even though the retry never happened.
TEST(RetryTest, InterruptedSleepCountsNoRetryAndRefundsBudget) {
  obs::Counter& retries = obs::Registry::Get().GetCounter("scan.retries");
  u64 base = retries.Value();

  RetryPolicy policy = FastPolicy();
  policy.retry_budget = 1;  // one reservation total
  RetryState state(policy);

  u32 calls = 0;
  auto interrupted_sleep = [](u64) { return false; };  // stop arrived
  Status status = RunWithRetries(
      &state, [&] { calls++; return Status::Unavailable("synthetic"); },
      interrupted_sleep);
  EXPECT_TRUE(status.IsTransient());
  EXPECT_EQ(calls, 1u) << "interrupted backoff must not retry";
  EXPECT_EQ(state.retries_granted(), 0u);
  EXPECT_EQ(retries.Value(), base) << "no metric for a retry that never ran";

  // The reservation was refunded: the single unit of budget is still
  // available for a retry whose sleep completes.
  calls = 0;
  status = RunWithRetries(&state, [&] {
    calls++;
    return calls < 2 ? Status::Throttled("synthetic") : Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(state.retries_granted(), 1u);
  EXPECT_EQ(retries.Value() - base, 1u);
}

TEST(RetryTest, BudgetExhaustionStopsRetrying) {
  RetryPolicy policy = FastPolicy();
  policy.retry_budget = 2;
  RetryState state(policy);
  u32 calls = 0;
  Status status = RunWithRetries(
      &state, [&] { calls++; return Status::Throttled("synthetic"); });
  EXPECT_TRUE(status.IsThrottled());
  EXPECT_EQ(calls, 3u) << "1 try + 2 budgeted retries";
  EXPECT_EQ(state.retries_granted(), 2u);
}

TEST(HedgeTest, ThresholdArmsOnlyAfterMinSamples) {
  HedgePolicy policy;
  policy.quantile = 0.5;
  policy.min_samples = 4;
  policy.min_threshold_ns = 10;
  HedgeState state(policy);

  EXPECT_EQ(state.ThresholdNs(), 0u) << "no samples yet";
  state.RecordLatency(100);
  state.RecordLatency(200);
  state.RecordLatency(300);
  EXPECT_EQ(state.ThresholdNs(), 0u) << "below min_samples";
  state.RecordLatency(400);
  u64 threshold = state.ThresholdNs();
  EXPECT_GE(threshold, 100u);
  EXPECT_LE(threshold, 400u);
}

// min_samples = 0 still needs one latency: a quantile of an empty window
// has no rank to read.
TEST(HedgeTest, ZeroMinSamplesArmsAfterTheFirstLatency) {
  HedgePolicy policy;
  policy.min_samples = 0;
  policy.min_threshold_ns = 10;
  HedgeState state(policy);

  EXPECT_EQ(state.ThresholdNs(), 0u) << "no latency recorded yet";
  state.RecordLatency(500);
  EXPECT_EQ(state.ThresholdNs(), 500u);
}

TEST(HedgeTest, ThresholdIsFloored) {
  HedgePolicy policy;
  policy.quantile = 0.5;
  policy.min_samples = 2;
  policy.min_threshold_ns = 1000000;  // floor far above the samples
  HedgeState state(policy);
  state.RecordLatency(10);
  state.RecordLatency(20);
  EXPECT_EQ(state.ThresholdNs(), 1000000u);
}

// A caller that does not hedge passes no HedgeState: HedgedGet issues one
// plain GET, even when that GET is slow, and never reports a hedge.
TEST(HedgeTest, HedgedGetWithoutStateIssuesOneGetAndNeverHedges) {
  s3sim::ObjectStore store;
  const std::vector<u8> object(4096, 7);
  ASSERT_TRUE(store.Put("obj", object.data(), object.size()).ok());
  s3sim::FaultPlan plan;
  plan.rules.push_back(s3sim::FaultRule::Latency("obj", 1, 2 * 1000 * 1000));
  store.InstallFaultPlan(plan);
  const u64 hedges_before =
      obs::Registry::Get().GetCounter("scan.hedges").Value();

  std::vector<u8> out;
  bool hedged = false;
  bool hedge_won = false;
  Status status = HedgedGet(&store, "obj", 100, 1000, /*hedge=*/nullptr, &out,
                            &hedged, &hedge_won);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, std::vector<u8>(1000, 7));
  EXPECT_EQ(store.total_requests(), 1u);
  EXPECT_FALSE(hedged);
  EXPECT_FALSE(hedge_won);
  EXPECT_EQ(obs::Registry::Get().GetCounter("scan.hedges").Value(),
            hedges_before);
}

// The primary answers 50 ms in; the duplicate, issued at the 20 ms
// threshold, takes 300 ms. HedgedGet returns the primary's bytes as soon
// as they land and drops the duplicate without waiting for it. (The
// primary is issued first, so it takes fault ordinal 1.)
TEST(HedgeTest, LosingDuplicateDoesNotDelayTheResult) {
  constexpr u64 kMs = 1000 * 1000;
  s3sim::ObjectStore store;
  const std::vector<u8> object(4096, 7);
  ASSERT_TRUE(store.Put("obj", object.data(), object.size()).ok());
  s3sim::FaultPlan plan;
  plan.rules.push_back(s3sim::FaultRule::Latency("obj", 1, 50 * kMs));
  plan.rules.push_back(s3sim::FaultRule::Latency("obj", 2, 300 * kMs));
  store.InstallFaultPlan(plan);
  HedgePolicy policy;
  policy.min_samples = 1;
  HedgeState state(policy);
  state.RecordLatency(20 * kMs);
  ASSERT_EQ(state.ThresholdNs(), 20 * kMs);

  std::vector<u8> out;
  bool hedged = false;
  bool hedge_won = false;
  const auto start = std::chrono::steady_clock::now();
  Status status =
      HedgedGet(&store, "obj", 100, 1000, &state, &out, &hedged, &hedge_won);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, std::vector<u8>(1000, 7));
  EXPECT_LT(elapsed, std::chrono::milliseconds(150))
      << "the losing duplicate delayed the primary's response";
  EXPECT_TRUE(hedged);
  EXPECT_FALSE(hedge_won);
  EXPECT_EQ(store.total_requests(), 2u);
}

// The mirror of the test above: only the primary is spiked, by 300 ms.
// The duplicate, issued at the 20 ms threshold floor, answers at once and
// wins, so HedgedGet returns long before the spike ends.
TEST(HedgeTest, DuplicateWinsAgainstSpikedPrimary) {
  constexpr u64 kMs = 1000 * 1000;
  s3sim::ObjectStore store;
  const std::vector<u8> object(4096, 7);
  ASSERT_TRUE(store.Put("obj", object.data(), object.size()).ok());
  s3sim::FaultPlan plan;
  plan.rules.push_back(s3sim::FaultRule::Latency("obj", 1, 300 * kMs));
  store.InstallFaultPlan(plan);
  HedgePolicy policy;
  policy.min_samples = 1;
  policy.min_threshold_ns = 20 * kMs;
  HedgeState state(policy);
  state.RecordLatency(1000);
  ASSERT_EQ(state.ThresholdNs(), 20 * kMs);

  std::vector<u8> out;
  bool hedged = false;
  bool hedge_won = false;
  const auto start = std::chrono::steady_clock::now();
  Status status =
      HedgedGet(&store, "obj", 100, 1000, &state, &out, &hedged, &hedge_won);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, std::vector<u8>(1000, 7));
  EXPECT_LT(elapsed, std::chrono::milliseconds(150))
      << "the spiked primary delayed the duplicate's response";
  EXPECT_TRUE(hedged);
  EXPECT_TRUE(hedge_won);
  EXPECT_EQ(state.hedge_wins(), 1u);
  EXPECT_EQ(store.total_requests(), 2u);
}

// Each round's primary is spiked by 5 ms and its duplicate, issued at the
// 1 ms threshold floor, by 300 ms: the primary is issued first on the
// calling thread, so it always takes fault ordinal 1 and always wins, and
// the call returns when it lands, without waiting for the duplicate.
TEST(HedgeTest, PrimaryAlwaysTakesTheFirstFaultOrdinal) {
  constexpr u64 kMs = 1000 * 1000;
  const std::vector<u8> object(4096, 7);
  for (int round = 0; round < 50; round++) {
    SCOPED_TRACE("round " + std::to_string(round));
    s3sim::ObjectStore store;
    ASSERT_TRUE(store.Put("obj", object.data(), object.size()).ok());
    s3sim::FaultPlan plan;
    plan.rules.push_back(s3sim::FaultRule::Latency("obj", 1, 5 * kMs));
    plan.rules.push_back(s3sim::FaultRule::Latency("obj", 2, 300 * kMs));
    store.InstallFaultPlan(plan);
    HedgePolicy policy;
    policy.min_samples = 1;
    policy.min_threshold_ns = 1 * kMs;
    HedgeState state(policy);
    state.RecordLatency(1000);
    ASSERT_EQ(state.ThresholdNs(), 1 * kMs);

    std::vector<u8> out;
    bool hedged = false;
    bool hedge_won = false;
    const auto start = std::chrono::steady_clock::now();
    Status status =
        HedgedGet(&store, "obj", 100, 1000, &state, &out, &hedged, &hedge_won);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(out, std::vector<u8>(1000, 7));
    EXPECT_TRUE(hedged);
    EXPECT_FALSE(hedge_won);
    EXPECT_LT(elapsed, std::chrono::milliseconds(150));
    EXPECT_EQ(store.total_requests(), 2u);
  }
}

TEST(HedgeTest, BudgetCapsHedgesAndDisarmsThreshold) {
  HedgePolicy policy;
  policy.min_samples = 1;
  policy.min_threshold_ns = 1;
  policy.hedge_budget = 2;
  HedgeState state(policy);
  state.RecordLatency(100);

  EXPECT_TRUE(state.TryAcquireHedge());
  EXPECT_TRUE(state.TryAcquireHedge());
  EXPECT_FALSE(state.TryAcquireHedge()) << "budget is 2";
  EXPECT_EQ(state.hedges_issued(), 2u);
  EXPECT_EQ(state.ThresholdNs(), 0u)
      << "an exhausted budget must disarm the threshold";

  state.RecordHedgeOutcome(true);
  state.RecordHedgeOutcome(false);
  EXPECT_EQ(state.hedge_wins(), 1u);
}

CircuitBreakerPolicy FastBreakerPolicy() {
  CircuitBreakerPolicy policy;
  policy.window = 8;
  policy.min_samples = 4;
  policy.failure_threshold = 0.5;
  policy.cooldown_ns = 2 * 1000 * 1000;  // 2 ms
  return policy;
}

TEST(BreakerTest, TripsAtFailureThresholdAndFailsFast) {
  CircuitBreaker breaker(FastBreakerPolicy());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  breaker.Record(true);
  breaker.Record(false);
  breaker.Record(false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed)
      << "3 outcomes < min_samples";
  breaker.Record(false);  // 3/4 failures >= 0.5
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);

  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.fast_failures(), 2u);
}

TEST(BreakerTest, HalfOpenProbesCloseOnSuccessReopenOnFailure) {
  CircuitBreakerPolicy policy = FastBreakerPolicy();
  CircuitBreaker breaker(policy);
  for (u32 i = 0; i < policy.min_samples; i++) breaker.Record(false);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  std::this_thread::sleep_for(std::chrono::nanoseconds(2 * policy.cooldown_ns));
  EXPECT_TRUE(breaker.Allow()) << "cooldown over: half-open probe";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.Record(false);  // probe failed
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);

  std::this_thread::sleep_for(std::chrono::nanoseconds(2 * policy.cooldown_ns));
  EXPECT_TRUE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow()) << "only half_open_probes probes pass";
  breaker.Record(true);
  breaker.Record(true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(BreakerTest, RunWithRetriesFailsFastWithoutCallingTheOp) {
  CircuitBreakerPolicy policy = FastBreakerPolicy();
  CircuitBreaker breaker(policy);
  for (u32 i = 0; i < policy.min_samples; i++) breaker.Record(false);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  RetryState state(FastPolicy());
  u32 calls = 0;
  Status status = RunWithRetries(
      &state, [&] { calls++; return Status::Ok(); }, SleepUninterruptible,
      &breaker);
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_EQ(calls, 0u) << "fail-fast must not reach the backend";
  EXPECT_EQ(state.retries_granted(), 0u) << "no retry budget burned";
}

TEST(BreakerTest, PermanentErrorsCountAsHealthyResponses) {
  CircuitBreakerPolicy policy = FastBreakerPolicy();
  CircuitBreaker breaker(policy);
  RetryState state(FastPolicy());
  // NotFound means the backend answered; the breaker must stay closed.
  for (u32 i = 0; i < policy.window; i++) {
    Status status = RunWithRetries(
        &state, [] { return Status::NotFound("no such key"); },
        SleepUninterruptible, &breaker);
    EXPECT_TRUE(status.IsNotFound());
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

}  // namespace
}  // namespace btr::exec
