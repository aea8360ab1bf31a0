#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/trace.h"

namespace btr::lakebench {
namespace {

// Open spans of the calling thread, innermost last: the parent of a new
// span is the top of this stack.
thread_local std::vector<u32> open_spans;

u32 ThreadNumber() {
  static std::atomic<u32> next{1};
  thread_local u32 number = next.fetch_add(1);
  return number;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name, u64 op)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                           : nullptr) {
  if (recorder_ != nullptr) slot_ = recorder_->Open(name, op);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->Close(slot_);
}

u32 SpanRecorder::Open(const char* name, u64 op) {
  u32 parent = open_spans.empty() ? kNoParent : open_spans.back();
  u64 now = obs::Tracer::Get().NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  u32 slot = static_cast<u32>(spans_.size());
  spans_.push_back(Span{name, op, slot, parent, ThreadNumber(), now, now});
  open_spans.push_back(slot);
  return slot;
}

void SpanRecorder::Close(u32 slot) {
  u64 now = obs::Tracer::Get().NowNanos();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[slot].end_ns = now;
}

std::vector<SpanRecorder::LayerTime> SpanRecorder::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<u64> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::pair<std::string, bool>, LayerTime> by_name;
  for (const Span& s : spans_) {
    const bool in_op = s.op != kNoOp;
    LayerTime& t = by_name[{s.name, in_op}];
    t.name = s.name;
    t.in_op = in_op;
    t.count++;
    u64 total = s.end_ns - s.start_ns;
    t.total_ms += total / 1e6;
    t.self_ms += (total - std::min(total, child_ns[s.id])) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [key, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    if (a.in_op != b.in_op) return a.in_op;
    return a.self_ms > b.self_ms;
  });
  return out;
}

std::vector<double> SpanRecorder::Durations(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  std::string wanted = name;
  for (const Span& s : spans_) {
    if (wanted == s.name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path, u64 max_op,
                                    const std::string& library_json) const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[320];
    for (const Span& s : spans_) {
      if (s.op != kNoOp && s.op >= max_op) continue;
      long long op = s.op == kNoOp ? -1 : static_cast<long long>(s.op);
      long long parent = s.parent == kNoParent ? -1 : s.parent;
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"cat\":\"lakebench\",\"ph\":\"X\","
                    "\"pid\":2,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"op\":%lld,\"id\":%u,\"parent\":%lld}}",
                    first ? "" : ",", s.name, s.thread, s.start_ns / 1e3,
                    (s.end_ns - s.start_ns) / 1e3, op, s.id, parent);
      out += buf;
      first = false;
    }
  }
  // Splice in the library's events: everything between the first '[' and
  // the last ']' of its {"traceEvents":[...]} document.
  size_t open = library_json.find('[');
  size_t close = library_json.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open) {
    std::string events = library_json.substr(open + 1, close - open - 1);
    if (events.find('{') != std::string::npos) {
      if (!first) out += ",";
      out += events;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace btr::lakebench
