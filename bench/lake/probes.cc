// Layer probes: single-threaded measurements of the kernel layers on the
// workload's own data, each reported as the median of 5 repeats.
#include <map>
#include <utility>

#include "btr/zonemap.h"
#include "lakebench.h"
#include "s3sim/object_store.h"
#include "util/crc32c.h"
#include "util/timer.h"
#include "write/recovery.h"
#include "write/streaming_writer.h"

namespace btr::lakebench {
namespace {

constexpr int kRepeats = 5;
// A measurement loops its body for at least this long.
constexpr double kMinProbeSeconds = 0.005;

const char* const kTypeNames[] = {"int", "double", "string"};

// Root schemes the lake table's blocks compress to, each reported with its
// own decode throughput (0 if a table had none).
const std::pair<ColumnType, u8> kReportedSchemes[] = {
    {ColumnType::kInteger, static_cast<u8>(IntSchemeCode::kRle)},
    {ColumnType::kInteger, static_cast<u8>(IntSchemeCode::kBp128)},
    {ColumnType::kInteger, static_cast<u8>(IntSchemeCode::kPfor)},
    {ColumnType::kDouble, static_cast<u8>(DoubleSchemeCode::kRle)},
    {ColumnType::kDouble, static_cast<u8>(DoubleSchemeCode::kDict)},
    {ColumnType::kDouble, static_cast<u8>(DoubleSchemeCode::kPseudodecimal)},
    {ColumnType::kString, static_cast<u8>(StringSchemeCode::kOneValue)},
    {ColumnType::kString, static_cast<u8>(StringSchemeCode::kDict)},
    {ColumnType::kString, static_cast<u8>(StringSchemeCode::kFsst)},
};

// Seconds per call of `fn`, looping until kMinProbeSeconds elapsed.
template <typename Fn>
double SecondsPerCall(Fn&& fn) {
  Timer timer;
  u64 calls = 0;
  do {
    fn();
    calls++;
  } while (timer.ElapsedSeconds() < kMinProbeSeconds);
  return timer.ElapsedSeconds() / calls;
}

const char* SchemeName(ColumnType type, u8 code) {
  switch (type) {
    case ColumnType::kInteger: return IntSchemeName(static_cast<IntSchemeCode>(code));
    case ColumnType::kDouble:
      return DoubleSchemeName(static_cast<DoubleSchemeCode>(code));
    case ColumnType::kString:
      return StringSchemeName(static_cast<StringSchemeCode>(code));
  }
  return "unknown";
}

// btr.cascade: CompressColumn throughput per type with Telemetry attached,
// the statistics and estimation shares of compression time, and the ratio
// per type, over the row blocks in `slices`.
void CascadeProbe(const std::vector<Relation>& slices,
                  std::vector<Metric>* out) {
  std::vector<double> mbps[3], stats_share, estimate_share;
  u64 raw[3] = {}, packed[3] = {};
  for (int r = 0; r < kRepeats; r++) {
    Telemetry telemetry;
    CompressionConfig config;
    config.telemetry = &telemetry;
    double seconds[3] = {};
    u64 bytes[3] = {};
    for (const Relation& slice : slices) {
      for (const Column& column : slice.columns()) {
        const int t = static_cast<int>(column.type());
        Timer timer;
        CompressedColumn compressed = CompressColumn(column, config);
        seconds[t] += timer.ElapsedSeconds();
        bytes[t] += column.UncompressedBytes();
        if (r == 0) {
          raw[t] += column.UncompressedBytes();
          packed[t] += compressed.CompressedBytes();
        }
      }
    }
    for (int t = 0; t < 3; t++) mbps[t].push_back(bytes[t] / seconds[t] / 1e6);
    stats_share.push_back(static_cast<double>(telemetry.stats_ns) /
                          telemetry.compress_ns);
    estimate_share.push_back(static_cast<double>(telemetry.estimate_ns) /
                             telemetry.compress_ns);
  }
  for (int t = 0; t < 3; t++) {
    out->push_back({std::string("btr.cascade.") + kTypeNames[t] + "_mbps",
                    Median(mbps[t]), "MB/s"});
  }
  out->push_back({"btr.cascade.stats_share", Median(stats_share), "frac"});
  out->push_back({"btr.cascade.estimate_share", Median(estimate_share), "frac"});
  for (int t = 0; t < 3; t++) {
    out->push_back({std::string("btr.cascade.ratio.") + kTypeNames[t],
                    static_cast<double>(raw[t]) / packed[t], "x"});
  }
}

// btr.decode: DecompressBlock throughput over every block of the table,
// per type and per (type, root scheme), in logical decoded GB/s.
void DecodeProbe(const CompressedRelation& compressed,
                 std::vector<Metric>* out) {
  std::map<std::pair<int, u8>, std::vector<const ByteBuffer*>> groups;
  for (const CompressedColumn& column : compressed.columns) {
    for (size_t b = 0; b < column.blocks.size(); b++) {
      groups[{static_cast<int>(column.type), column.block_root_schemes[b]}]
          .push_back(&column.blocks[b]);
    }
  }
  CompressionConfig config;
  DecodedBlock scratch;
  std::map<std::pair<int, u8>, std::vector<double>> group_gbps;
  std::vector<double> type_gbps[3];
  for (int r = 0; r < kRepeats; r++) {
    double seconds[3] = {};
    double bytes[3] = {};
    for (const auto& [key, blocks] : groups) {
      u64 decoded = 0;
      double per_call = SecondsPerCall([&] {
        decoded = 0;
        for (const ByteBuffer* block : blocks) {
          DecompressBlock(block->data(), &scratch, config);
          decoded += scratch.ValueBytes();
        }
      });
      group_gbps[key].push_back(decoded / per_call / 1e9);
      seconds[key.first] += per_call;
      bytes[key.first] += decoded;
    }
    for (int t = 0; t < 3; t++) {
      if (seconds[t] > 0) type_gbps[t].push_back(bytes[t] / seconds[t] / 1e9);
    }
  }
  for (int t = 0; t < 3; t++) {
    out->push_back({std::string("btr.decode.") + kTypeNames[t] + "_gbps",
                    Median(type_gbps[t]), "GB/s"});
  }
  for (const auto& [type, scheme] : kReportedSchemes) {
    const int t = static_cast<int>(type);
    out->push_back({std::string("btr.decode.") + kTypeNames[t] + "." +
                        SchemeName(type, scheme) + "_gbps",
                    Median(group_gbps[{t, scheme}]), "GB/s"});
  }
}

// btr.predicate: SelectMatches on the compressed form against decode +
// EvaluateExprDecoded, per evaluated row, over the leaves of the
// warm_scan-style filters on row blocks `blocks`; the share of (leaf,
// block) evaluations with a compressed-form fast path; and the share of
// (filter, row block) pairs the table's zone maps prune. Returns result
// mismatches.
u64 PredicateProbe(const Relation& table, u64 seed,
                   const CompressedRelation& compressed,
                   const std::vector<u32>& blocks, std::vector<Metric>* out) {
  std::vector<Query> queries = MakeFilterQueries(table, seed ^ 0x9E0BEull, 18, 0);
  auto column_index = [&](const std::string& name) {
    for (size_t c = 0; c < table.columns().size(); c++) {
      if (table.columns()[c].name() == name) return c;
    }
    return size_t{0};
  };
  // Every (leaf, probe block) pair.
  struct Evaluation {
    PredicateExpr leaf;
    const ByteBuffer* block;
    u32 rows;
  };
  std::vector<Evaluation> evaluations;
  u64 rows = 0;
  for (const Query& q : queries) {
    q.filter.ForEachLeaf([&](const PredicateExpr& leaf) {
      const CompressedColumn& column = compressed.columns[column_index(leaf.column)];
      for (u32 b : blocks) {
        evaluations.push_back({leaf, &column.blocks[b], column.block_value_counts[b]});
        rows += column.block_value_counts[b];
      }
    });
  }

  CompressionConfig config;
  std::vector<RoaringBitmap> selected(evaluations.size());
  std::vector<RoaringBitmap> reference(evaluations.size());
  std::vector<double> select_ns, decoded_ns;
  DecodedBlock decoded;
  for (int r = 0; r < kRepeats; r++) {
    Timer select;
    for (size_t i = 0; i < evaluations.size(); i++) {
      selected[i] = SelectMatches(evaluations[i].block->data(),
                                  evaluations[i].leaf, config);
    }
    select_ns.push_back(select.ElapsedSeconds() * 1e9 / rows);
    Timer decode_then_filter;
    for (size_t i = 0; i < evaluations.size(); i++) {
      DecompressBlock(evaluations[i].block->data(), &decoded, config);
      reference[i] = EvaluateExprDecoded(evaluations[i].leaf, evaluations[i].rows,
                                         [&](const std::string&) {
                                           return &decoded;
                                         }).pass;
    }
    decoded_ns.push_back(decode_then_filter.ElapsedSeconds() * 1e9 / rows);
  }
  u64 mismatches = 0, fast = 0;
  for (size_t i = 0; i < evaluations.size(); i++) {
    fast += HasFastPath(evaluations[i].block->data(), evaluations[i].leaf);
    if (selected[i].ToVector() != reference[i].ToVector()) mismatches++;
  }

  std::vector<ColumnZoneMap> zones;
  for (const Column& column : table.columns()) {
    zones.push_back(ComputeColumnZoneMap(column));
  }
  u64 pruned = 0, checked = 0;
  const u32 row_blocks = (table.row_count() + kBlockCapacity - 1) / kBlockCapacity;
  for (const Query& q : queries) {
    for (u32 b = 0; b < row_blocks; b++) {
      checked++;
      bool may = ZoneMayMatch(q.filter, [&](const std::string& name) {
        return &zones[column_index(name)].zones[b];
      });
      pruned += may ? 0 : 1;
    }
  }
  out->push_back({"btr.predicate.select_ns_per_row", Median(select_ns), "ns"});
  out->push_back({"btr.predicate.decoded_ns_per_row", Median(decoded_ns), "ns"});
  out->push_back({"btr.predicate.fast_path_ratio",
                  static_cast<double>(fast) / evaluations.size(), "ratio"});
  out->push_back({"btr.predicate.zone_prune_ratio",
                  static_cast<double>(pruned) / checked, "ratio"});
  return mismatches;
}

// util: CRC32C over every compressed block of the table.
void CrcProbe(const CompressedRelation& compressed, std::vector<Metric>* out) {
  ByteBuffer bytes;
  for (const CompressedColumn& column : compressed.columns) {
    for (const ByteBuffer& block : column.blocks) {
      bytes.Append(block.data(), block.size());
    }
  }
  std::vector<double> gbps;
  volatile u32 sink = 0;
  for (int r = 0; r < kRepeats; r++) {
    double per_call = SecondsPerCall([&] { sink = Crc32c(bytes.data(), bytes.size()); });
    gbps.push_back(bytes.size() / per_call / 1e9);
  }
  (void)sink;
  out->push_back({"util.crc32c_gbps", Median(gbps), "GB/s"});
}

// write: one ingest-shaped partition (2 x 16,000 rows of `slice`)
// committed through StreamingWriter into a private store, then Fsck'd.
// Returns failures.
u64 WriteProbe(const Relation& slice, std::vector<Metric>* out) {
  const u32 half = 16000;
  Relation first = SliceRows(slice, 0, half);
  Relation second = SliceRows(slice, half, half);
  const double raw = first.UncompressedBytes() + second.UncompressedBytes();
  std::vector<write::StreamingWriter::ColumnSpec> schema;
  for (const Column& c : slice.columns()) schema.push_back({c.name(), c.type()});

  u64 failures = 0;
  std::vector<double> append_ms, commit_ms, fsck_ms, verify_mb, put_ratio;
  for (int r = 0; r < kRepeats; r++) {
    s3sim::ObjectStore store;
    write::StreamingWriter writer(&store, "probe", "probe/");
    Status status = writer.Begin(schema);
    Timer append;
    if (status.ok()) status = writer.Append(first);
    if (status.ok()) status = writer.Append(second);
    append_ms.push_back(append.ElapsedSeconds() * 1e3);
    const u64 gets_before = store.total_bytes_fetched();
    Timer commit;
    if (status.ok()) status = writer.Commit();
    commit_ms.push_back(commit.ElapsedSeconds() * 1e3);
    verify_mb.push_back((store.total_bytes_fetched() - gets_before) / 1e6);
    put_ratio.push_back(store.total_bytes_put() / raw);
    write::FsckOptions options;
    options.verify_committed = true;
    write::FsckReport report;
    Timer fsck;
    if (status.ok()) status = write::Fsck(&store, "probe/", "probe", options, &report);
    fsck_ms.push_back(fsck.ElapsedSeconds() * 1e3);
    if (!status.ok() || !report.clean) failures++;
  }
  out->push_back({"write.append_ms_per_op", Median(append_ms), "ms"});
  out->push_back({"write.commit_ms", Median(commit_ms), "ms"});
  out->push_back({"write.verify_get_mb_per_op", Median(verify_mb), "MB"});
  out->push_back({"write.bytes_put_per_user_byte", Median(put_ratio), "ratio"});
  out->push_back({"write.fsck_ms", Median(fsck_ms), "ms"});
  return failures;
}

}  // namespace

u64 RunLayerProbes(const Relation& table, u64 seed, SpanRecorder* spans,
                   std::vector<Metric>* out) {
  // Two row blocks for the per-block probes: the first and a seeded other.
  const u32 row_blocks = table.row_count() / kBlockCapacity;
  const std::vector<u32> blocks = {0, 1 + static_cast<u32>(seed % (row_blocks - 1))};
  std::vector<Relation> slices;
  for (u32 b : blocks) {
    slices.push_back(SliceRows(table, b * kBlockCapacity, kBlockCapacity));
  }
  u64 failures = 0;
  {
    SpanRecorder::Scope span(spans, "probe.cascade", SpanRecorder::kNoOp);
    CascadeProbe(slices, out);
  }
  // The whole table, compressed on the client pool as input to the others.
  CompressedRelation compressed;
  {
    exec::ThreadPool pool(kClientThreads);
    compressed = CompressRelation(table, CompressionConfig(), &pool);
  }
  {
    SpanRecorder::Scope span(spans, "probe.decode", SpanRecorder::kNoOp);
    DecodeProbe(compressed, out);
  }
  {
    SpanRecorder::Scope span(spans, "probe.predicate", SpanRecorder::kNoOp);
    failures += PredicateProbe(table, seed, compressed, blocks, out);
  }
  {
    SpanRecorder::Scope span(spans, "probe.crc32c", SpanRecorder::kNoOp);
    CrcProbe(compressed, out);
  }
  {
    SpanRecorder::Scope span(spans, "probe.write", SpanRecorder::kNoOp);
    failures += WriteProbe(slices[0], out);
  }
  return failures;
}

}  // namespace btr::lakebench
