// Span recorder for lakebench's traced run.
//
// The benchmark wraps every call it makes into a layer (Scanner::Open,
// Scanner::Scan, the emit callback, StreamingWriter::Begin/Append/Commit,
// the layer probes) in a span. A span records its name, the op it belongs
// to, its parent (the innermost open span on the same thread), and its
// start and end on the obs::Tracer clock, so bench spans and the library's
// own BTR_TRACE_SPAN events line up in one Chrome trace.
//
// Spans stay in memory until the run ends. Self time of a span is its
// duration minus the durations of its children; children nest inside
// their parent on one thread, so they never overlap each other.
#ifndef BTR_BENCH_LAKE_SPANS_H_
#define BTR_BENCH_LAKE_SPANS_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.h"

namespace btr::lakebench {

class SpanRecorder {
 public:
  // Op id for spans that belong to no op (set-up, verification, probes).
  static constexpr u64 kNoOp = ~0ull;

  struct Span {
    const char* name;  // string literal
    u64 op;
    u32 id;
    u32 parent;  // kNoParent for a root span
    u32 thread;
    u64 start_ns;
    u64 end_ns;
  };
  static constexpr u32 kNoParent = ~0u;

  // RAII span. Records nothing when the recorder was disabled at entry.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, u64 op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;  // null when not recording
    u32 slot_ = 0;
  };

  void SetEnabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  struct LayerTime {
    std::string name;
    bool in_op = false;  // the spans belong to ops (else set-up, probes...)
    u64 count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  // Per (span name, in_op): calls, total and self time, op spans first,
  // each group sorted by self time.
  std::vector<LayerTime> SelfTimes() const;

  // Durations in ms of every completed span called `name`.
  std::vector<double> Durations(const char* name) const;

  // Chrome trace-event JSON of the spans whose op is below `max_op` or
  // kNoOp, merged with `library_json` (an obs::Tracer export, may be
  // empty). False on I/O error.
  bool WriteChromeTrace(const std::string& path, u64 max_op,
                        const std::string& library_json) const;

 private:
  u32 Open(const char* name, u64 op);
  void Close(u32 slot);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace btr::lakebench

#endif  // BTR_BENCH_LAKE_SPANS_H_
