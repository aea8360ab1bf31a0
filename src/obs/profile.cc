#include "obs/profile.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#endif

#include "obs/json.h"

namespace btr::obs {

const char* ScanStageName(ScanStage stage) {
  switch (stage) {
    case ScanStage::kPlan: return "plan";
    case ScanStage::kEmitWait: return "emit_wait";
    case ScanStage::kEmit: return "emit";
    case ScanStage::kTeardown: return "teardown";
  }
  return "?";
}

const char* ScanActivityName(ScanActivity activity) {
  switch (activity) {
    case ScanActivity::kGet: return "get";
    case ScanActivity::kPrefetchWait: return "prefetch_wait";
    case ScanActivity::kValidate: return "validate";
    case ScanActivity::kPredicate: return "predicate";
    case ScanActivity::kDecode: return "decode";
  }
  return "?";
}

// --- ScanProfileCollector ----------------------------------------------------

ScanProfileCollector::ScanProfileCollector(u32 slow_op_capacity)
    : slow_op_capacity_(slow_op_capacity) {
  slow_ops_.reserve(slow_op_capacity_);
}

void ScanProfileCollector::MaybeKeepSlowOp(SlowOp&& op) {
  if (slow_op_capacity_ == 0) return;
  if (slow_ops_.size() == slow_op_capacity_ &&
      op.duration_ns <= slow_ops_.back().duration_ns) {
    return;
  }
  auto at = std::upper_bound(
      slow_ops_.begin(), slow_ops_.end(), op,
      [](const SlowOp& a, const SlowOp& b) {
        return a.duration_ns > b.duration_ns;
      });
  slow_ops_.insert(at, std::move(op));
  if (slow_ops_.size() > slow_op_capacity_) slow_ops_.pop_back();
}

void ScanProfileCollector::RecordFetch(const FetchRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  requests_++;
  if (record.cache_hit) {
    cache_hits_++;
  } else {
    // Latency histogram covers requests that actually went to the store
    // (a cache hit's sub-microsecond lookup would drown the signal).
    get_latency_.Record(record.duration_ns);
    // Mirrors the scanner's accounting: only looked-up blocks count as
    // misses, so profile tallies agree with ScanStats exactly.
    cache_misses_ += record.blocks;
  }
  if (record.retries > 0) {
    retried_requests_++;
    retries_ += record.retries;
  }
  if (record.hedged) hedged_requests_++;
  if (record.hedge_won) hedge_wins_++;
  if (record.breaker_rejected) breaker_rejected_requests_++;
  if (!record.ok) failed_requests_++;
  if (!record.cache_hit) {
    activities_[static_cast<u32>(ScanActivity::kGet)].ns += record.duration_ns;
    activities_[static_cast<u32>(ScanActivity::kGet)].count++;
  }
  SlowOp op;
  op.kind = SlowOp::Kind::kGet;
  op.offset = record.offset;
  op.length = record.length;
  op.duration_ns = record.duration_ns;
  op.attempts = record.attempts;
  op.cache_hit = record.cache_hit;
  op.hedged = record.hedged;
  op.hedge_won = record.hedge_won;
  op.breaker_rejected = record.breaker_rejected;
  // Copy the key only when the op can make the ring — the common case
  // (fast op, full ring) allocates nothing.
  if (slow_op_capacity_ != 0 &&
      (slow_ops_.size() < slow_op_capacity_ ||
       op.duration_ns > slow_ops_.back().duration_ns)) {
    if (record.key != nullptr) op.key = *record.key;
    MaybeKeepSlowOp(std::move(op));
  }
}

void ScanProfileCollector::RecordDecode(const DecodeRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_decoded_ += record.bytes_decoded;
  activities_[static_cast<u32>(ScanActivity::kDecode)].ns += record.duration_ns;
  activities_[static_cast<u32>(ScanActivity::kDecode)].count++;
  bool found = false;
  for (SchemeDecodeStats& s : decode_by_scheme_) {
    if (s.type == record.type && s.scheme == record.scheme) {
      s.blocks++;
      s.ns += record.duration_ns;
      s.bytes_decoded += record.bytes_decoded;
      found = true;
      break;
    }
  }
  if (!found) {
    decode_by_scheme_.push_back(SchemeDecodeStats{
        record.type, record.scheme, 1, record.duration_ns,
        record.bytes_decoded});
  }
  if (slow_op_capacity_ != 0 &&
      (slow_ops_.size() < slow_op_capacity_ ||
       record.duration_ns > slow_ops_.back().duration_ns)) {
    SlowOp op;
    op.kind = SlowOp::Kind::kDecode;
    if (record.column != nullptr) op.key = *record.column;
    op.offset = record.offset;
    op.length = record.length;
    op.duration_ns = record.duration_ns;
    op.block = record.block;
    op.scheme = record.scheme;
    op.type = record.type;
    MaybeKeepSlowOp(std::move(op));
  }
}

void ScanProfileCollector::AddActivity(ScanActivity activity, u64 ns,
                                       u64 count) {
  std::lock_guard<std::mutex> lock(mutex_);
  activities_[static_cast<u32>(activity)].ns += ns;
  activities_[static_cast<u32>(activity)].count += count;
}

void ScanProfileCollector::SetStage(ScanStage stage, u64 wall_ns, u64 cpu_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_[static_cast<u32>(stage)].wall_ns = wall_ns;
  stages_[static_cast<u32>(stage)].cpu_ns = cpu_ns;
}

void ScanProfileCollector::AddBlockTallies(u64 pruned, u64 skipped,
                                           u64 decoded, u64 unreadable) {
  std::lock_guard<std::mutex> lock(mutex_);
  blocks_pruned_ += pruned;
  blocks_skipped_ += skipped;
  blocks_decoded_ += decoded;
  blocks_unreadable_ += unreadable;
}

void ScanProfileCollector::AddCrcRefetch(bool rescued) {
  std::lock_guard<std::mutex> lock(mutex_);
  crc_refetched_blocks_++;
  if (rescued) crc_rescued_blocks_++;
}

ScanProfile ScanProfileCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ScanProfile p;
  p.wall_seconds = wall_seconds_;
  p.open_ns = open_ns_;
  p.zone_prune_ns = zone_prune_ns_;
  for (u32 s = 0; s < kScanStageCount; s++) p.stages[s] = stages_[s];
  for (u32 a = 0; a < kScanActivityCount; a++) p.activities[a] = activities_[a];
  p.get_latency.count = get_latency_.Count();
  p.get_latency.sum = get_latency_.Sum();
  p.get_latency.min = get_latency_.Min();
  p.get_latency.max = get_latency_.Max();
  for (u32 b = 0; b < Histogram::kBuckets; b++) {
    if (const u64 n = get_latency_.BucketCount(b); n != 0) {
      p.get_latency.buckets.emplace_back(Histogram::BucketLowerBound(b), n);
    }
  }
  p.requests = requests_;
  p.cache_hits = cache_hits_;
  p.cache_misses = cache_misses_;
  p.retried_requests = retried_requests_;
  p.retries = retries_;
  p.hedged_requests = hedged_requests_;
  p.hedge_wins = hedge_wins_;
  p.breaker_rejected_requests = breaker_rejected_requests_;
  p.failed_requests = failed_requests_;
  p.blocks_pruned = blocks_pruned_;
  p.blocks_skipped = blocks_skipped_;
  p.blocks_decoded = blocks_decoded_;
  p.blocks_unreadable = blocks_unreadable_;
  p.crc_refetched_blocks = crc_refetched_blocks_;
  p.crc_rescued_blocks = crc_rescued_blocks_;
  p.bytes_fetched = bytes_fetched_;
  p.bytes_decoded = bytes_decoded_;
  p.decode_by_scheme = decode_by_scheme_;
  std::sort(p.decode_by_scheme.begin(), p.decode_by_scheme.end(),
            [](const SchemeDecodeStats& a, const SchemeDecodeStats& b) {
              return a.type != b.type ? a.type < b.type : a.scheme < b.scheme;
            });
  p.slow_ops = slow_ops_;
  return p;
}

// --- StageTimer --------------------------------------------------------------

StageTimer::StageTimer() {
  wall_mark_ = NowWall();
  cpu_mark_ = NowCpu();
}

u64 StageTimer::NowWall() const {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

u64 StageTimer::NowCpu() const {
#if defined(__unix__) || defined(__APPLE__)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<u64>(ts.tv_sec) * 1000000000ull +
           static_cast<u64>(ts.tv_nsec);
  }
#endif
  return 0;
}

void StageTimer::Enter(ScanStage next) {
  u64 wall = NowWall();
  u64 cpu = NowCpu();
  StageTime& t = totals_[static_cast<u32>(current_)];
  t.wall_ns += wall - wall_mark_;
  t.cpu_ns += cpu - cpu_mark_;
  wall_mark_ = wall;
  cpu_mark_ = cpu;
  current_ = next;
}

void StageTimer::Finish(ScanProfileCollector* collector) {
  Enter(current_);  // flush the tail of the current stage
  if (collector == nullptr) return;
  for (u32 s = 0; s < kScanStageCount; s++) {
    collector->SetStage(static_cast<ScanStage>(s), totals_[s].wall_ns,
                        totals_[s].cpu_ns);
  }
}

// --- export ------------------------------------------------------------------

namespace {

void AppendKeyU64(const char* key, u64 v, bool comma, std::string* out) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, comma ? "," : "", key,
                v);
  *out += buf;
}

double Pct(u64 part, double wall_seconds) {
  double wall_ns = wall_seconds * 1e9;
  return wall_ns <= 0 ? 0 : 100.0 * static_cast<double>(part) / wall_ns;
}

}  // namespace

std::string ScanProfile::ToText() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "scan profile (wall %.3f ms, open %.3f ms)\n",
                wall_seconds * 1e3, static_cast<double>(open_ns) / 1e6);
  out += buf;
  out += "  stages (calling thread, sum == wall):\n";
  for (u32 s = 0; s < kScanStageCount; s++) {
    std::snprintf(buf, sizeof(buf),
                  "    %-12s %10.3f ms  (%5.1f%% wall, cpu %.3f ms)\n",
                  ScanStageName(static_cast<ScanStage>(s)),
                  static_cast<double>(stages[s].wall_ns) / 1e6,
                  Pct(stages[s].wall_ns, wall_seconds),
                  static_cast<double>(stages[s].cpu_ns) / 1e6);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "    zone-map pruning inside plan: %.3f ms\n",
                static_cast<double>(zone_prune_ns) / 1e6);
  out += buf;
  out += "  worker activities (parallel; overlap wall time):\n";
  for (u32 a = 0; a < kScanActivityCount; a++) {
    if (activities[a].count == 0) continue;
    std::snprintf(buf, sizeof(buf), "    %-14s %10.3f ms across %" PRIu64
                  " ops\n",
                  ScanActivityName(static_cast<ScanActivity>(a)),
                  static_cast<double>(activities[a].ns) / 1e6,
                  activities[a].count);
    out += buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "  requests: %" PRIu64 " (%" PRIu64 " cache hits, %" PRIu64
      " misses, %" PRIu64 " retried / %" PRIu64 " retries, %" PRIu64
      " hedged / %" PRIu64 " hedge wins, %" PRIu64 " breaker-rejected, %" PRIu64
      " failed)\n",
      requests, cache_hits, cache_misses, retried_requests, retries,
      hedged_requests, hedge_wins, breaker_rejected_requests, failed_requests);
  out += buf;
  if (get_latency.count != 0) {
    std::snprintf(buf, sizeof(buf),
                  "  GET latency: n=%" PRIu64 " mean=%.1f us min=%.1f us "
                  "max=%.1f us\n",
                  get_latency.count,
                  static_cast<double>(get_latency.sum) /
                      static_cast<double>(get_latency.count) / 1e3,
                  static_cast<double>(get_latency.min) / 1e3,
                  static_cast<double>(get_latency.max) / 1e3);
    out += buf;
    out += "    log2 buckets (>=ns: count):";
    for (const auto& [lo, n] : get_latency.buckets) {
      std::snprintf(buf, sizeof(buf), " %" PRIu64 ":%" PRIu64, lo, n);
      out += buf;
    }
    out += "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "  blocks: %" PRIu64 " pruned, %" PRIu64 " skipped, %" PRIu64
                " decoded, %" PRIu64 " unreadable, %" PRIu64
                " CRC-refetched (%" PRIu64 " rescued)\n",
                blocks_pruned, blocks_skipped, blocks_decoded,
                blocks_unreadable, crc_refetched_blocks, crc_rescued_blocks);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  bytes: %.1f KiB fetched, %.1f KiB decoded\n",
                static_cast<double>(bytes_fetched) / 1024.0,
                static_cast<double>(bytes_decoded) / 1024.0);
  out += buf;
  if (!decode_by_scheme.empty()) {
    out += "  decode by scheme (type/scheme: blocks, ms, KiB):\n";
    static const char* kTypeTags[3] = {"int", "double", "string"};
    for (const SchemeDecodeStats& s : decode_by_scheme) {
      std::snprintf(buf, sizeof(buf),
                    "    %s/%u: %" PRIu64 " blocks, %.3f ms, %.1f KiB\n",
                    s.type < 3 ? kTypeTags[s.type] : "?", s.scheme, s.blocks,
                    static_cast<double>(s.ns) / 1e6,
                    static_cast<double>(s.bytes_decoded) / 1024.0);
      out += buf;
    }
  }
  if (!slow_ops.empty()) {
    out += "  slowest ops:\n";
    for (const SlowOp& op : slow_ops) {
      if (op.kind == SlowOp::Kind::kGet) {
        std::snprintf(buf, sizeof(buf),
                      "    GET %s [%" PRIu64 "+%" PRIu64 "] %.3f ms, %u "
                      "attempt%s%s%s%s\n",
                      op.key.c_str(), op.offset, op.length,
                      static_cast<double>(op.duration_ns) / 1e6, op.attempts,
                      op.attempts == 1 ? "" : "s",
                      op.cache_hit ? ", cache hit" : "",
                      op.hedged ? (op.hedge_won ? ", hedged (dup won)"
                                                : ", hedged") : "",
                      op.breaker_rejected ? ", breaker-rejected" : "");
      } else {
        std::snprintf(buf, sizeof(buf),
                      "    decode %s block %u (scheme %u) [%" PRIu64 "+%" PRIu64
                      "] %.3f ms\n",
                      op.key.c_str(), op.block, op.scheme, op.offset, op.length,
                      static_cast<double>(op.duration_ns) / 1e6);
      }
      out += buf;
    }
  }
  return out;
}

std::string ScanProfile::ToJson() const {
  std::string out = "{";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"schema_version\":%u", kSchemaVersion);
  out += buf;
  std::snprintf(buf, sizeof(buf), ",\"wall_seconds\":%.9f", wall_seconds);
  out += buf;
  AppendKeyU64("open_ns", open_ns, true, &out);
  AppendKeyU64("zone_prune_ns", zone_prune_ns, true, &out);
  out += ",\"stages\":{";
  for (u32 s = 0; s < kScanStageCount; s++) {
    if (s != 0) out += ",";
    out += "\"";
    out += ScanStageName(static_cast<ScanStage>(s));
    out += "\":{";
    AppendKeyU64("wall_ns", stages[s].wall_ns, false, &out);
    AppendKeyU64("cpu_ns", stages[s].cpu_ns, true, &out);
    out += "}";
  }
  out += "},\"activities\":{";
  for (u32 a = 0; a < kScanActivityCount; a++) {
    if (a != 0) out += ",";
    out += "\"";
    out += ScanActivityName(static_cast<ScanActivity>(a));
    out += "\":{";
    AppendKeyU64("ns", activities[a].ns, false, &out);
    AppendKeyU64("count", activities[a].count, true, &out);
    out += "}";
  }
  out += "},\"get_latency\":{";
  AppendKeyU64("count", get_latency.count, false, &out);
  AppendKeyU64("sum_ns", get_latency.sum, true, &out);
  AppendKeyU64("min_ns", get_latency.min, true, &out);
  AppendKeyU64("max_ns", get_latency.max, true, &out);
  out += ",\"buckets\":[";
  for (size_t b = 0; b < get_latency.buckets.size(); b++) {
    if (b != 0) out += ",";
    std::snprintf(buf, sizeof(buf), "[%" PRIu64 ",%" PRIu64 "]",
                  get_latency.buckets[b].first, get_latency.buckets[b].second);
    out += buf;
  }
  out += "]},\"tallies\":{";
  AppendKeyU64("requests", requests, false, &out);
  AppendKeyU64("cache_hits", cache_hits, true, &out);
  AppendKeyU64("cache_misses", cache_misses, true, &out);
  AppendKeyU64("retried_requests", retried_requests, true, &out);
  AppendKeyU64("retries", retries, true, &out);
  AppendKeyU64("hedged_requests", hedged_requests, true, &out);
  AppendKeyU64("hedge_wins", hedge_wins, true, &out);
  AppendKeyU64("breaker_rejected_requests", breaker_rejected_requests, true,
               &out);
  AppendKeyU64("failed_requests", failed_requests, true, &out);
  AppendKeyU64("blocks_pruned", blocks_pruned, true, &out);
  AppendKeyU64("blocks_skipped", blocks_skipped, true, &out);
  AppendKeyU64("blocks_decoded", blocks_decoded, true, &out);
  AppendKeyU64("blocks_unreadable", blocks_unreadable, true, &out);
  AppendKeyU64("crc_refetched_blocks", crc_refetched_blocks, true, &out);
  AppendKeyU64("crc_rescued_blocks", crc_rescued_blocks, true, &out);
  AppendKeyU64("bytes_fetched", bytes_fetched, true, &out);
  AppendKeyU64("bytes_decoded", bytes_decoded, true, &out);
  out += "},\"decode_by_scheme\":[";
  for (size_t i = 0; i < decode_by_scheme.size(); i++) {
    const SchemeDecodeStats& s = decode_by_scheme[i];
    if (i != 0) out += ",";
    out += "{";
    AppendKeyU64("type", s.type, false, &out);
    AppendKeyU64("scheme", s.scheme, true, &out);
    AppendKeyU64("blocks", s.blocks, true, &out);
    AppendKeyU64("ns", s.ns, true, &out);
    AppendKeyU64("bytes_decoded", s.bytes_decoded, true, &out);
    out += "}";
  }
  out += "],\"slow_ops\":[";
  for (size_t i = 0; i < slow_ops.size(); i++) {
    const SlowOp& op = slow_ops[i];
    if (i != 0) out += ",";
    out += "{\"kind\":\"";
    out += op.kind == SlowOp::Kind::kGet ? "get" : "decode";
    out += "\",\"key\":\"";
    AppendJsonEscaped(op.key, &out);
    out += "\"";
    AppendKeyU64("offset", op.offset, true, &out);
    AppendKeyU64("length", op.length, true, &out);
    AppendKeyU64("duration_ns", op.duration_ns, true, &out);
    AppendKeyU64("attempts", op.attempts, true, &out);
    AppendKeyU64("block", op.block, true, &out);
    AppendKeyU64("scheme", op.scheme, true, &out);
    AppendKeyU64("type", op.type, true, &out);
    out += ",\"cache_hit\":";
    out += op.cache_hit ? "true" : "false";
    out += ",\"hedged\":";
    out += op.hedged ? "true" : "false";
    out += ",\"hedge_won\":";
    out += op.hedge_won ? "true" : "false";
    out += ",\"breaker_rejected\":";
    out += op.breaker_rejected ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace btr::obs
