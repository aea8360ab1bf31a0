#include "obs/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.h"

namespace btr::obs {

namespace detail {

u32 ThreadStripe() {
  static std::atomic<u32> next{0};
  thread_local u32 stripe = next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace detail

// --- Histogram ---------------------------------------------------------------

u32 Histogram::BucketIndex(u64 value) {
  return static_cast<u32>(std::bit_width(value));
}

u64 Histogram::BucketLowerBound(u32 b) {
  return b == 0 ? 0 : 1ull << (b - 1);
}

u64 Histogram::BucketUpperBound(u32 b) {
  if (b == 0) return 0;
  if (b >= 64) return ~0ull;
  return (1ull << b) - 1;
}

void Histogram::Record(u64 value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  u64 seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

u64 Histogram::Min() const {
  u64 m = min_.load(std::memory_order_relaxed);
  return m == ~0ull ? 0 : m;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --- Registry ----------------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map keeps export output sorted and deterministic.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Impl* Registry::impl() {
  static Impl* instance = new Impl();  // leaky: survives static destruction
  return instance;
}

const Registry::Impl* Registry::impl() const {
  return const_cast<Registry*>(this)->impl();
}

Registry& Registry::Get() {
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::GetCounter(const std::string& name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mutex);
  auto& slot = i->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mutex);
  auto& slot = i->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mutex);
  auto& slot = i->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string Registry::ExportJson() const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mutex);
  std::string out = "{\n  \"counters\": {";
  char buf[128];
  bool first = true;
  for (const auto& [name, c] : i->counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    AppendJsonEscaped(name, &out);
    std::snprintf(buf, sizeof(buf), "\": %" PRIu64, c->Value());
    out += buf;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : i->gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    AppendJsonEscaped(name, &out);
    std::snprintf(buf, sizeof(buf), "\": %" PRId64, g->Value());
    out += buf;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : i->histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    AppendJsonEscaped(name, &out);
    std::snprintf(buf, sizeof(buf),
                  "\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                  ", \"min\": %" PRIu64 ", \"max\": %" PRIu64 ", \"buckets\": [",
                  h->Count(), h->Sum(), h->Min(), h->Max());
    out += buf;
    bool first_bucket = true;
    for (u32 b = 0; b < Histogram::kBuckets; b++) {
      u64 n = h->BucketCount(b);
      if (n == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      std::snprintf(buf, sizeof(buf), "[%" PRIu64 ", %" PRIu64 "]",
                    Histogram::BucketLowerBound(b), n);
      out += buf;
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

void Registry::ResetAll() {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mutex);
  for (auto& [name, c] : i->counters) c->Reset();
  for (auto& [name, g] : i->gauges) g->Reset();
  for (auto& [name, h] : i->histograms) h->Reset();
}

bool WriteMetricsJsonFile(const std::string& path) {
  std::string json = Registry::Get().ExportJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

}  // namespace btr::obs
