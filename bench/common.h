// Shared helpers for the per-table/figure benchmark harnesses.
//
// Every binary in bench/ regenerates one table or figure of the paper and
// prints rows in the paper's shape. Corpus sizes default small enough for
// a laptop-class single-core run; set BTR_BENCH_SCALE=N (default 1) to
// multiply the row counts.
#ifndef BTR_BENCH_COMMON_H_
#define BTR_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "datagen/public_bi.h"
#include "datagen/tpch.h"
#include "lakeformat/orc_like.h"
#include "lakeformat/parquet_like.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace btr::bench {

inline u32 BenchScale() {
  const char* env = std::getenv("BTR_BENCH_SCALE");
  if (env == nullptr) return 1;
  int scale = std::atoi(env);
  return scale < 1 ? 1 : static_cast<u32>(scale);
}

inline std::vector<Relation> PbiCorpus(u32 rows_per_table = 128000,
                                       u32 tables = 5) {
  datagen::PublicBiOptions options;
  options.tables = tables;
  options.rows_per_table = rows_per_table * BenchScale();
  return datagen::MakePublicBiCorpus(options);
}

inline std::vector<Relation> TpchCorpus(u32 lineitem_rows = 200000) {
  datagen::TpchOptions options;
  options.lineitem_rows = lineitem_rows * BenchScale();
  return datagen::MakeTpchCorpus(options);
}

// --- measurements ------------------------------------------------------------

struct FormatResult {
  u64 uncompressed_bytes = 0;
  u64 compressed_bytes = 0;
  double compress_seconds = 0;
  double decompress_seconds = 0;  // single-thread, best of repeats

  double Ratio() const {
    return compressed_bytes == 0
               ? 0
               : static_cast<double>(uncompressed_bytes) / compressed_bytes;
  }
  double DecompressGBps() const {
    return decompress_seconds == 0
               ? 0
               : static_cast<double>(uncompressed_bytes) / decompress_seconds / 1e9;
  }
};

inline constexpr int kDecompressRepeats = 3;

inline FormatResult MeasureBtr(const std::vector<Relation>& corpus,
                               const CompressionConfig& config) {
  FormatResult result;
  std::vector<CompressedRelation> compressed;
  Timer compress_timer;
  for (const Relation& table : corpus) {
    compressed.push_back(CompressRelation(table, config));
  }
  result.compress_seconds = compress_timer.ElapsedSeconds();
  for (const CompressedRelation& c : compressed) {
    result.uncompressed_bytes += c.UncompressedBytes();
    result.compressed_bytes += c.CompressedBytes();
  }
  double best = 1e300;
  for (int repeat = 0; repeat < kDecompressRepeats; repeat++) {
    Timer timer;
    for (const CompressedRelation& c : compressed) {
      DecompressRelation(c, config);
    }
    best = std::min(best, timer.ElapsedSeconds());
  }
  result.decompress_seconds = best;
  return result;
}

// The Parquet-like and ORC-like baselines: `write` every table, then the
// best of kDecompressRepeats passes of `decode` over the files.
template <typename Options>
inline FormatResult MeasureLakeFormat(
    const std::vector<Relation>& corpus, const Options& options,
    ByteBuffer (*write)(const Relation&, const Options&),
    Status (*decode)(const u8*, size_t, u64*)) {
  FormatResult result;
  std::vector<ByteBuffer> files;
  Timer compress_timer;
  for (const Relation& table : corpus) files.push_back(write(table, options));
  result.compress_seconds = compress_timer.ElapsedSeconds();
  for (const Relation& table : corpus) {
    result.uncompressed_bytes += table.UncompressedBytes();
  }
  for (const ByteBuffer& f : files) result.compressed_bytes += f.size();
  double best = 1e300;
  for (int repeat = 0; repeat < kDecompressRepeats; repeat++) {
    Timer timer;
    for (const ByteBuffer& f : files) {
      u64 bytes = 0;
      Status status = decode(f.data(), f.size(), &bytes);
      BTR_CHECK_MSG(status.ok(), "baseline bench file failed to decode");
    }
    best = std::min(best, timer.ElapsedSeconds());
  }
  result.decompress_seconds = best;
  return result;
}

inline FormatResult MeasureParquetLike(
    const std::vector<Relation>& corpus,
    const lakeformat::ParquetOptions& options) {
  return MeasureLakeFormat(corpus, options, lakeformat::WriteParquetLike,
                           lakeformat::DecodeParquetLikeBytes);
}

inline FormatResult MeasureOrcLike(const std::vector<Relation>& corpus,
                                   const lakeformat::OrcOptions& options) {
  return MeasureLakeFormat(corpus, options, lakeformat::WriteOrcLike,
                           lakeformat::DecodeOrcLikeBytes);
}

// Single-column corpus view helper.
inline std::vector<Relation> SingleColumnRelation(const Column& column) {
  std::vector<Relation> corpus;
  Relation r("single");
  Column& copy = r.AddColumn(column.name(), column.type());
  for (u32 i = 0; i < column.size(); i++) {
    if (column.IsNull(i)) {
      copy.AppendNull();
      continue;
    }
    switch (column.type()) {
      case ColumnType::kInteger: copy.AppendInt(column.ints()[i]); break;
      case ColumnType::kDouble: copy.AppendDouble(column.doubles()[i]); break;
      case ColumnType::kString: copy.AppendString(column.GetString(i)); break;
    }
  }
  corpus.push_back(std::move(r));
  return corpus;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

// --- durable bench telemetry (docs/OBSERVABILITY.md) -------------------------
//
// Every bench binary calls InitBench("<name>") once and Report(...) for each
// headline metric it prints. On exit the reporter writes a schema-versioned
// sidecar BENCH_<name>.json into $BTR_BENCH_OUT_DIR (or the working
// directory), so runs can be archived and diffed — tools/bench_compare.py
// consumes two sidecar sets and gates CI on regressions vs bench/baselines/.
//
// Sidecar schema (stable; bump kSidecarSchemaVersion on breaking change):
//   {
//     "schema_version": 1,
//     "bench": "<name>",
//     "git_sha": "<GITHUB_SHA | BTR_GIT_SHA | unknown>",
//     "config": {"bench_scale": <N>},
//     "metrics": {
//       "<metric>": {"value": <num>, "unit": "<unit>",
//                     "kind": "<time|throughput|ratio|bytes|count>",
//                     "iterations": <N>}, ...
//     }
//   }
//
// `kind` drives comparison semantics: time regresses upward, throughput and
// ratio regress downward, bytes regresses upward, count must match exactly.
enum class MetricKind { kTime, kThroughput, kRatio, kBytes, kCount };

inline const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kTime: return "time";
    case MetricKind::kThroughput: return "throughput";
    case MetricKind::kRatio: return "ratio";
    case MetricKind::kBytes: return "bytes";
    case MetricKind::kCount: return "count";
  }
  return "?";
}

class Reporter {
 public:
  static Reporter& Get() {
    static Reporter* instance = new Reporter();
    return *instance;
  }

  // Names this run's sidecar and registers the atexit writer (once).
  void InitBench(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    bench_name_ = name;
    if (!atexit_registered_) {
      atexit_registered_ = true;
      std::atexit([] { Reporter::Get().WriteSidecar(); });
    }
  }

  // Records one metric. Re-reporting a name overwrites the earlier value
  // (benches that loop report their final/aggregate numbers).
  void Report(const std::string& metric, double value, const std::string& unit,
              MetricKind kind, u64 iterations = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Metric& m : metrics_) {
      if (m.name == metric) {
        m = Metric{metric, value, unit, kind, iterations};
        return;
      }
    }
    metrics_.push_back(Metric{metric, value, unit, kind, iterations});
  }

  // FormatResult convenience: the four headline numbers every format
  // measurement produces, under "<prefix>." names.
  void ReportFormatResult(const std::string& prefix,
                          const FormatResult& result) {
    Report(prefix + ".ratio", result.Ratio(), "x", MetricKind::kRatio);
    Report(prefix + ".compressed_bytes",
           static_cast<double>(result.compressed_bytes), "bytes",
           MetricKind::kBytes);
    Report(prefix + ".compress_seconds", result.compress_seconds, "s",
           MetricKind::kTime);
    Report(prefix + ".decompress_gbps", result.DecompressGBps(), "GB/s",
           MetricKind::kThroughput, kDecompressRepeats);
  }

  std::string ToJson() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\n  \"schema_version\": ";
    out += std::to_string(kSidecarSchemaVersion);
    out += ",\n  \"bench\": \"";
    obs::AppendJsonEscaped(bench_name_, &out);
    out += "\",\n  \"git_sha\": \"";
    obs::AppendJsonEscaped(GitSha(), &out);
    out += "\",\n  \"config\": {\"bench_scale\": ";
    out += std::to_string(BenchScale());
    out += "},\n  \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"";
      obs::AppendJsonEscaped(m.name, &out);
      out += "\": {\"value\": ";
      AppendJsonNumber(m.value, &out);
      out += ", \"unit\": \"";
      obs::AppendJsonEscaped(m.unit, &out);
      out += "\", \"kind\": \"";
      out += MetricKindName(m.kind);
      out += "\", \"iterations\": ";
      out += std::to_string(m.iterations);
      out += "}";
    }
    out += "\n  }\n}\n";
    return out;
  }

  // Writes BENCH_<name>.json; no-op (true) when InitBench was never called.
  bool WriteSidecar() const {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (bench_name_.empty()) return true;
      const char* dir = std::getenv("BTR_BENCH_OUT_DIR");
      if (dir != nullptr && dir[0] != '\0') {
        path = dir;
        if (path.back() != '/') path += '/';
      }
      path += "BENCH_" + bench_name_ + ".json";
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write bench sidecar %s\n",
                   path.c_str());
      return false;
    }
    out << ToJson();
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write bench sidecar %s\n",
                   path.c_str());
      return false;
    }
    std::fprintf(stderr, "bench sidecar written to %s\n", path.c_str());
    return true;
  }

 private:
  static constexpr u32 kSidecarSchemaVersion = 1;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
    MetricKind kind;
    u64 iterations;
  };

  static std::string GitSha() {
    for (const char* var : {"GITHUB_SHA", "BTR_GIT_SHA"}) {
      const char* sha = std::getenv(var);
      if (sha != nullptr && sha[0] != '\0') return sha;
    }
    return "unknown";
  }

  // JSON has no NaN/Inf literals; a bench that produced one has already
  // failed in a way the comparison should see, so encode as null.
  static void AppendJsonNumber(double value, std::string* out) {
    if (!std::isfinite(value)) {
      *out += "null";
      return;
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    *out += buffer;
  }

  Reporter() = default;

  mutable std::mutex mutex_;
  std::string bench_name_;
  std::vector<Metric> metrics_;
  bool atexit_registered_ = false;
};

// One-line setup used at the top of every bench main().
inline void InitBench(const std::string& name) {
  Reporter::Get().InitBench(name);
}

inline void Report(const std::string& metric, double value,
                   const std::string& unit, MetricKind kind,
                   u64 iterations = 1) {
  Reporter::Get().Report(metric, value, unit, kind, iterations);
}

}  // namespace btr::bench

#endif  // BTR_BENCH_COMMON_H_
