// Observability tests: metrics registry (concurrent counters, histogram
// bucketing, export), span tracer (balanced Chrome JSON), and the cascade
// decision trace of a column with a known RLE -> Dict shape.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "btr/btrblocks.h"
#include "btr/datablock.h"
#include "btr/scanner.h"
#include "obs/cascade_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "s3sim/fault.h"
#include "s3sim/object_store.h"

namespace btr::obs {
namespace {

// --- counters ----------------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; i++) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), static_cast<u64>(kThreads) * kPerThread);
}

TEST(CounterTest, AddWithArgumentAndReset) {
  Counter counter;
  counter.Add(5);
  counter.Add(37);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAddValue) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-20);
  EXPECT_EQ(gauge.Value(), -13);
}

// --- histograms --------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds only 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(~0ull), 64u);
  for (u32 b = 1; b < Histogram::kBuckets; b++) {
    u64 lo = Histogram::BucketLowerBound(b);
    u64 hi = Histogram::BucketUpperBound(b);
    EXPECT_EQ(Histogram::BucketIndex(lo), b) << "lower bound of bucket " << b;
    EXPECT_EQ(Histogram::BucketIndex(hi), b) << "upper bound of bucket " << b;
    if (b > 1) EXPECT_EQ(lo, Histogram::BucketUpperBound(b - 1) + 1);
  }
}

TEST(HistogramTest, RecordAggregates) {
  Histogram hist;
  hist.Record(0);
  hist.Record(7);
  hist.Record(7);
  hist.Record(100);
  EXPECT_EQ(hist.Count(), 4u);
  EXPECT_EQ(hist.Sum(), 114u);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), 100u);
  EXPECT_DOUBLE_EQ(hist.Mean(), 114.0 / 4.0);
  EXPECT_EQ(hist.BucketCount(0), 1u);                          // {0}
  EXPECT_EQ(hist.BucketCount(Histogram::BucketIndex(7)), 2u);  // [4,7]
  EXPECT_EQ(hist.BucketCount(Histogram::BucketIndex(100)), 1u);
}

TEST(HistogramTest, ConcurrentRecordCountsExactly) {
  Histogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; i++) {
        hist.Record(static_cast<u64>(t) * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.Count(), static_cast<u64>(kThreads) * kPerThread);
  u64 bucket_total = 0;
  for (u32 b = 0; b < Histogram::kBuckets; b++) bucket_total += hist.BucketCount(b);
  EXPECT_EQ(bucket_total, hist.Count());
}

// --- registry ----------------------------------------------------------------

TEST(RegistryTest, SameNameSameObject) {
  Counter& a = Registry::Get().GetCounter("obs_test.registry.same");
  Counter& b = Registry::Get().GetCounter("obs_test.registry.same");
  EXPECT_EQ(&a, &b);
  Counter& c = Registry::Get().GetCounter("obs_test.registry.other");
  EXPECT_NE(&a, &c);
}

TEST(RegistryTest, ExportJsonContainsRegisteredMetrics) {
  Registry& registry = Registry::Get();
  registry.GetCounter("obs_test.export.counter").Add(3);
  registry.GetGauge("obs_test.export.gauge").Set(-4);
  registry.GetHistogram("obs_test.export.hist").Record(12);
  std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"obs_test.export.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.export.gauge\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.export.hist\""), std::string::npos);
  // Crude but effective structural check: braces/brackets balance.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') depth++;
    if (c == '}' || c == ']') depth--;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// String-aware structural check: braces/brackets must balance *outside*
// string literals, and every string must terminate. The naive depth check
// above would pass a document whose keys leak unescaped quotes.
void ExpectWellFormedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      // An unescaped control character inside a string is invalid JSON.
      ASSERT_FALSE(static_cast<unsigned char>(c) < 0x20)
          << "raw control char in string";
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      depth++;
    } else if (c == '}' || c == ']') {
      depth--;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string) << "unterminated string literal";
}

// Metric names are caller-chosen strings; quotes, backslashes, newlines
// and control characters must round-trip through ExportJson as valid
// escaped JSON instead of corrupting the document.
TEST(RegistryTest, ExportJsonEscapesHostileMetricNames) {
  Registry& registry = Registry::Get();
  registry.GetCounter("obs_test.esc.say_\"hi\"").Add(1);
  registry.GetCounter("obs_test.esc.back\\slash").Add(2);
  registry.GetCounter("obs_test.esc.line\nbreak\ttab").Add(3);
  registry.GetCounter(std::string("obs_test.esc.ctl\x01") + "end").Add(4);

  std::string json = registry.ExportJson();
  ExpectWellFormedJson(json);
  EXPECT_NE(json.find("obs_test.esc.say_\\\"hi\\\""), std::string::npos);
  EXPECT_NE(json.find("obs_test.esc.back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("obs_test.esc.line\\nbreak\\ttab"), std::string::npos);
  EXPECT_NE(json.find("obs_test.esc.ctl\\u0001end"), std::string::npos);
  // The raw (unescaped) forms must not appear.
  EXPECT_EQ(json.find("line\nbreak"), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

// --- tracer ------------------------------------------------------------------

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    n++;
  }
  return n;
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Disable();
  { ScopedSpan span("obs_test.disabled"); }
  EXPECT_EQ(tracer.SpanCount(), 0u);
}

TEST(TracerTest, ExportIsBalancedChromeJson) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  {
    ScopedSpan outer("obs_test.outer");
    ScopedSpan inner("obs_test.inner");
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; t++) {
    threads.emplace_back([] {
      for (int i = 0; i < 10; i++) ScopedSpan span("obs_test.thread");
    });
  }
  for (std::thread& t : threads) t.join();
  tracer.Disable();

  EXPECT_EQ(tracer.SpanCount(), 2u + 3u * 10u);
  std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Every span contributes exactly one begin and one end event.
  size_t begins = CountOccurrences(json, "\"ph\":\"B\"");
  size_t ends = CountOccurrences(json, "\"ph\":\"E\"");
  EXPECT_EQ(begins, tracer.SpanCount());
  EXPECT_EQ(ends, tracer.SpanCount());
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') depth++;
    if (c == '}' || c == ']') depth--;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  tracer.Reset();
}

// Instant markers export as Chrome "i"-phase events with thread scope,
// interleaved with the B/E pairs.
TEST(TracerTest, InstantEventsExportAsIPhase) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  {
    ScopedSpan span("obs_test.around_instant");
    tracer.RecordInstant("obs_test.instant");
  }
  tracer.Disable();

  std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"name\":\"obs_test.instant\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
  tracer.Reset();
}

// A scan that dies mid-flight must still leave a coherent trace: every
// span balanced (flushed on scope unwind, not lost) plus a "scan.error"
// instant marking where it died.
TEST(TracerTest, FailedScanLeavesBalancedSpansAndErrorInstant) {
  Relation table("trace_table");
  Column& ints = table.AddColumn("v", ColumnType::kInteger);
  for (u32 i = 0; i < 5000; i++) ints.AppendInt(static_cast<i32>(i % 100));
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(table, config);
  s3sim::ObjectStore store;
  ASSERT_TRUE(
      UploadCompressedRelation(compressed, nullptr, "lake/", &store).ok());

  Scanner scanner(&store, "trace_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  // Every GET fails and retries are exhausted immediately: the scan must
  // return a typed error.
  s3sim::FaultPlan plan;
  plan.seed = 1;
  s3sim::FaultRule unavailable;
  unavailable.kind = s3sim::FaultKind::kUnavailable;
  unavailable.probability = 1.0;
  plan.rules.push_back(unavailable);
  store.InstallFaultPlan(plan);

  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  ScanSpec spec;
  spec.config.retry.max_attempts = 1;
  spec.config.retry.initial_backoff_ns = 1000;
  spec.config.retry.max_backoff_ns = 2000;
  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  tracer.Disable();
  store.ClearFaultPlan();
  ASSERT_FALSE(status.ok());

  std::string json = tracer.ExportChromeJson();
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""))
      << "abnormal termination must not lose span ends";
  EXPECT_NE(json.find("\"name\":\"scan.error\""), std::string::npos);
  EXPECT_GE(CountOccurrences(json, "\"ph\":\"i\""), 1u);
  tracer.Reset();
}

// --- cascade trace -----------------------------------------------------------

// A column of 640 runs of length 100 cycling over 8 distinct wide values
// compresses as RLE at the root; the run-values vector (8 distinct values,
// too wide to bitpack well) becomes Dict at depth 1, and the constant
// run-lengths vector becomes OneValue at depth 1.
TEST(CascadeTraceTest, RleDictColumnMatchesExpectedTree) {
  std::vector<i32> values;
  values.reserve(64000);
  for (int run = 0; run < 640; run++) {
    for (int i = 0; i < 100; i++) values.push_back(1000000 + (run % 8) * 7919);
  }

  CompressionConfig config;
  config.collect_cascade_trace = true;
  BlockCompressionInfo info;
  ByteBuffer out;
  CompressBlock(values.data(), nullptr, static_cast<u32>(values.size()),
                &out, config, &info);

  const CascadeNode& root = info.trace;
  EXPECT_EQ(root.scheme, static_cast<u8>(IntSchemeCode::kRle));
  EXPECT_EQ(root.depth, 0u);
  EXPECT_EQ(root.value_count, 64000u);
  EXPECT_EQ(root.input_bytes, 64000u * sizeof(i32));
  EXPECT_GT(root.output_bytes, 0u);
  EXPECT_GT(root.ActualRatio(), 10.0);  // long runs compress well
  EXPECT_GT(root.estimated_ratio, 0.0);
  // The picker evaluated several candidates; RLE must be among them.
  bool saw_rle_candidate = false;
  for (const CascadeCandidate& c : root.candidates) {
    if (c.scheme == static_cast<u8>(IntSchemeCode::kRle)) {
      saw_rle_candidate = true;
      EXPECT_GT(c.estimated_ratio, 1.0);
    }
  }
  EXPECT_TRUE(saw_rle_candidate);

  // RLE cascades exactly two child vectors: run values, then run lengths.
  ASSERT_EQ(root.children.size(), 2u);
  const CascadeNode& run_values = root.children[0];
  const CascadeNode& run_lengths = root.children[1];
  EXPECT_EQ(run_values.depth, 1u);
  EXPECT_EQ(run_lengths.depth, 1u);
  EXPECT_EQ(run_values.value_count, 640u);
  EXPECT_EQ(run_lengths.value_count, 640u);
  EXPECT_EQ(run_values.scheme, static_cast<u8>(IntSchemeCode::kDict));
  EXPECT_EQ(run_lengths.scheme, static_cast<u8>(IntSchemeCode::kOneValue));
  EXPECT_GT(run_values.output_bytes, 0u);
  EXPECT_GT(run_lengths.output_bytes, 0u);

  // Tree-wide invariants and renderers.
  EXPECT_GE(root.NodeCount(), 3u);
  EXPECT_GE(root.MaxDepth(), 1u);
  std::string text = CascadeTreeToString(root);
  EXPECT_NE(text.find("rle"), std::string::npos);
  EXPECT_NE(text.find("dict"), std::string::npos);
  EXPECT_NE(text.find("one_value"), std::string::npos);
  std::string json = CascadeTreeToJson(root);
  EXPECT_NE(json.find("\"scheme\":\"rle\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

TEST(CascadeTraceTest, DisabledLeavesTraceEmpty) {
  std::vector<i32> values(1000, 7);
  CompressionConfig config;  // collect_cascade_trace defaults to false
  BlockCompressionInfo info;
  ByteBuffer out;
  CompressBlock(values.data(), nullptr, static_cast<u32>(values.size()),
                &out, config, &info);
  EXPECT_EQ(info.trace.value_count, 0u);
  EXPECT_TRUE(info.trace.children.empty());
}

// --- depth-indexed telemetry -------------------------------------------------

TEST(TelemetryTest, SchemeUsesByDepthAggregatesToRoot) {
  std::vector<i32> values;
  for (int run = 0; run < 640; run++) {
    for (int i = 0; i < 100; i++) values.push_back(1000000 + (run % 8) * 7919);
  }
  Telemetry telemetry;
  CompressionConfig config;
  config.telemetry = &telemetry;
  ByteBuffer out;
  CompressBlock(values.data(), nullptr, static_cast<u32>(values.size()),
                &out, config, nullptr);

  constexpr u32 kInt = 0;
  constexpr u32 kRle = static_cast<u32>(IntSchemeCode::kRle);
  // Depth 0 counts the block's root choice.
  EXPECT_EQ(telemetry.scheme_uses_by_depth[0][kInt][kRle], 1u);
  // The cascade recorded children at depth 1.
  u64 depth1_total = 0;
  for (u32 s = 0; s < 16; s++) {
    depth1_total += telemetry.scheme_uses_by_depth[1][kInt][s];
  }
  EXPECT_EQ(depth1_total, 2u);  // RLE's run-values and run-lengths vectors
}

}  // namespace
}  // namespace btr::obs
