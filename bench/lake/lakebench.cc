// lakebench: runs one workload and reports its metrics.
//
//   lakebench --workload=<name> --seed=<n> [--seconds=<s>] [--out=<dir>]
//             [--trace] [--git-sha=<sha>]
//
// Prints every metric as "name value unit", writes
// <out>/lakebench_<workload>.json (and, with --trace, a Chrome trace
// <out>/lakebench_<workload>.trace.json), and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set, or with --trace the per-layer set.
// Exit code 0 when every op and every check was correct, 1 when not, 2 on
// a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "lakebench.h"
#include "obs/trace.h"

namespace btr::lakebench {
namespace {

// Paper Table 5 cost model: instance time plus request charges.
constexpr double kInstanceUsdPerHour = 3.89;
constexpr double kUsdPerGet = 0.0004 / 1000;
constexpr double kUsdPerPut = 0.005 / 1000;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::vector<Metric> EndToEnd(const WorkloadReport& report) {
  const PhaseResult& p = report.untraced;
  const double done = static_cast<double>(p.latency_ms.size());
  // Verification ops compare values inside the scan, so their time and
  // requests are the bench's, not the system's: their time leaves the
  // wall clock, and requests count at the timed ops' share.
  const double busy_s = p.wall_s - p.verify_s;
  const double timed_share = done / std::max<double>(1, done + p.verified);
  const double usd = busy_s / 3600 * kInstanceUsdPerHour +
                     timed_share * (p.gets * kUsdPerGet + p.puts * kUsdPerPut);
  const double failed = static_cast<double>(p.failed + report.verify_failures);
  return {
      {"setup_s", Median(report.setup_s), "s"},
      {"latency_p50_ms", Percentile(p.latency_ms, 0.50), "ms"},
      {"latency_p95_ms", Percentile(p.latency_ms, 0.95), "ms"},
      {"ops_per_s", done / busy_s, "1/s"},
      {"usd_per_tb", usd / (p.covered_bytes / 1e12), "usd/TB"},
      {"compression_ratio", report.compression_ratio, "x"},
      {"success_rate", 1 - failed / std::max<double>(1, p.attempted), "frac"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"light_tenant_p95_ms", Percentile(p.light_ms, 0.95), "ms"},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: lakebench --workload=<cold_scan|warm_scan|tenant_storm|"
               "ingest> --seed=<n> [--seconds=<s>] [--out=<dir>] [--trace] "
               "[--git-sha=<sha>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      options.workload = v;
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      options.seconds = std::atof(v);
    } else if (const char* v = value("--out=")) {
      out_dir = v;
    } else if (const char* v = value("--git-sha=")) {
      git_sha = v;
    } else if (arg == "--trace") {
      options.trace = true;
    } else {
      return Usage();
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end() ||
      !(options.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(out_dir);
  const std::string base = out_dir + "/lakebench_" + options.workload;

  SpanRecorder spans;
  WorkloadReport report = RunWorkload(options, &spans);

  const PhaseResult& timed = options.trace ? report.traced : report.untraced;
  const u64 attempted = report.untraced.attempted + report.traced.attempted;
  const u64 failed =
      report.untraced.failed + report.traced.failed + report.verify_failures;
  const bool correct = failed == 0;
  std::vector<Metric> metrics = options.trace ? report.layer : EndToEnd(report);

  std::printf("# lakebench %s seed=%llu seconds=%g trace=%d ops=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, timed.latency_ms.size());
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : report.extra) {
    std::printf("%s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::vector<std::string> errors = report.untraced.errors;
  errors.insert(errors.end(), report.traced.errors.begin(),
                report.traced.errors.end());
  errors.insert(errors.end(), report.verify_errors.begin(),
                report.verify_errors.end());
  for (const std::string& e : errors) std::printf("# error: %s\n", e.c_str());

  std::string self_time = "[";
  if (options.trace) {
    // Op spans per traced op; set-up, verification and probe spans as
    // totals of the run.
    const double ops = std::max<double>(1, report.traced.attempted);
    std::printf("# self time: op spans per traced op (%.0f ops), other spans "
                "per run\n",
                ops);
    std::printf("# %-20s %-6s %8s %12s %12s\n", "span", "scope", "calls",
                "total_ms", "self_ms");
    bool first = true;
    for (const SpanRecorder::LayerTime& t : spans.SelfTimes()) {
      const double per = t.in_op ? ops : 1;
      std::printf("# %-20s %-6s %8llu %12.4f %12.4f\n", t.name.c_str(),
                  t.in_op ? "per-op" : "run",
                  static_cast<unsigned long long>(t.count), t.total_ms / per,
                  t.self_ms / per);
      self_time += std::string(first ? "" : ", ") + "{\"span\": " +
                   JsonString(t.name) + ", \"in_op\": " +
                   (t.in_op ? "true" : "false") + ", \"calls\": " +
                   std::to_string(t.count) + ", \"total_ms\": " +
                   Number(t.total_ms) + ", \"self_ms\": " + Number(t.self_ms) +
                   "}";
      first = false;
    }
    if (!spans.WriteChromeTrace(base + ".trace.json", kChromeTraceOps,
                                obs::Tracer::Get().ExportChromeJson())) {
      std::fprintf(stderr, "lakebench: cannot write %s.trace.json\n",
                   base.c_str());
    }
  }
  self_time += "]";

  std::string errors_json = "[";
  for (size_t i = 0; i < errors.size(); i++) {
    errors_json += (i > 0 ? ", " : "") + JsonString(errors[i]);
  }
  errors_json += "]";
  std::string sidecar =
      "{\"workload\": " + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + Number(options.seconds) +
      ", \"trace\": " + (options.trace ? "true" : "false") +
      ", \"git_sha\": " + JsonString(git_sha) +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"ops\": " + std::to_string(timed.latency_ms.size()) +
      ", \"metrics\": " + MetricsObject(metrics) +
      ", \"extra\": " + MetricsObject(report.extra) +
      ", \"self_time\": " + self_time + ", \"errors\": " + errors_json + "}\n";
  if (std::FILE* f = std::fopen((base + ".json").c_str(), "w")) {
    std::fputs(sidecar.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "lakebench: cannot write %s.json\n", base.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsObject(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace btr::lakebench

int main(int argc, char** argv) { return btr::lakebench::Main(argc, argv); }
