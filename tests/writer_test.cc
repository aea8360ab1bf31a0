// Crash-safe streaming write path: the streamed bytes must be
// bit-identical to the one-shot upload, commits must be atomic
// (either-old-or-new under every crash point and fault schedule), and
// write::Fsck must converge the store — resuming interrupted multipart
// uploads, GC'ing orphans — and be idempotent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "btr/scanner.h"
#include "hostile_bytes.h"
#include "s3sim/fault.h"
#include "write/intent.h"
#include "write/manifest.h"
#include "write/recovery.h"
#include "write/streaming_writer.h"

namespace btr {
namespace {

// One full block plus a short tail so the streamed table cuts blocks at
// exactly kBlockCapacity regardless of chunk boundaries.
constexpr u32 kRows = kBlockCapacity + 30000;

Relation MakeTable(const std::string& name, u32 rows) {
  Relation table(name);
  Column& ints = table.AddColumn("id", ColumnType::kInteger);
  Column& doubles = table.AddColumn("price", ColumnType::kDouble);
  Column& strings = table.AddColumn("city", ColumnType::kString);
  const char* cities[4] = {"berlin", "munich", "bonn", "hamburg"};
  for (u32 i = 0; i < rows; i++) {
    if (i % 97 == 13) {
      ints.AppendNull();
    } else {
      ints.AppendInt(static_cast<i32>(i / kBlockCapacity * 1000 + i % 1000));
    }
    if (i % 101 == 7) {
      doubles.AppendNull();
    } else {
      doubles.AppendDouble(static_cast<double>(i % 4096) * 0.25);
    }
    if (i % 89 == 3) {
      strings.AppendNull();
    } else {
      strings.AppendString(cities[i % 4]);
    }
  }
  return table;
}

Relation SliceRows(const Relation& table, u32 begin, u32 count) {
  Relation chunk(table.name());
  for (const Column& src : table.columns()) {
    Column& dst = chunk.AddColumn(src.name(), src.type());
    for (u32 r = begin; r < begin + count; r++) {
      if (src.IsNull(r)) {
        dst.AppendNull();
        continue;
      }
      switch (src.type()) {
        case ColumnType::kInteger: dst.AppendInt(src.ints()[r]); break;
        case ColumnType::kDouble: dst.AppendDouble(src.doubles()[r]); break;
        case ColumnType::kString: dst.AppendString(src.GetString(r)); break;
      }
    }
  }
  return chunk;
}

std::vector<write::StreamingWriter::ColumnSpec> SchemaOf(
    const Relation& table) {
  std::vector<write::StreamingWriter::ColumnSpec> schema;
  for (const Column& column : table.columns()) {
    schema.push_back({column.name(), column.type()});
  }
  return schema;
}

TableZoneMap ZonesOf(const Relation& table) {
  TableZoneMap zones;
  for (const Column& column : table.columns()) {
    zones.columns.push_back(ComputeColumnZoneMap(column));
  }
  return zones;
}

// Streams `table` through a StreamingWriter in `chunk_rows`-row appends.
Status StreamTable(s3sim::ObjectStore* store, const Relation& table,
                   u32 chunk_rows, write::WriterConfig config,
                   u64* version_out = nullptr) {
  write::StreamingWriter writer(store, table.name(), "lake/",
                                std::move(config));
  Status status = writer.Begin(SchemaOf(table));
  for (u32 begin = 0; status.ok() && begin < table.row_count();
       begin += chunk_rows) {
    u32 n = std::min(chunk_rows, table.row_count() - begin);
    status = writer.Append(SliceRows(table, begin, n));
  }
  if (status.ok()) status = writer.Commit();
  if (version_out != nullptr) *version_out = writer.version();
  return status;
}

// Full-table scan; returns emitted row count (column 0's chunks).
Status ScanRows(s3sim::ObjectStore* store, const std::string& table,
                u64* rows_out) {
  Scanner scanner(store, table, "lake/");
  BTR_RETURN_IF_ERROR(scanner.Open());
  u64 rows = 0;
  BTR_RETURN_IF_ERROR(scanner.Scan(ScanSpec(), [&](ColumnChunk&& chunk) {
    if (chunk.column == 0) rows += chunk.row_count;
  }));
  *rows_out = rows;
  return Status::Ok();
}

// Staged versioned keys above the committed version plus any open
// multipart upload — after fsck --repair this must be zero.
u32 CountStray(s3sim::ObjectStore& store, const std::string& table,
               u64 committed) {
  u32 stray = 0;
  for (const std::string& key : store.ListKeys("lake/" + table + ".v")) {
    u64 version = 0;
    if (write::ParseVersionedKey(key, "lake/", table, &version) &&
        version > committed) {
      stray++;
    }
  }
  stray += static_cast<u32>(
      store.ListMultipartUploads("lake/" + table + ".v").size());
  return stray;
}

std::vector<u8> MustGet(s3sim::ObjectStore& store, const std::string& key) {
  std::vector<u8> blob;
  Status status = store.GetObject(key, &blob);
  EXPECT_TRUE(status.ok()) << key << ": " << status.ToString();
  return blob;
}

void ExpectObjectEquals(s3sim::ObjectStore& store, const std::string& key,
                        const ByteBuffer& expected) {
  std::vector<u8> blob = MustGet(store, key);
  ASSERT_EQ(blob.size(), expected.size()) << key;
  EXPECT_EQ(std::memcmp(blob.data(), expected.data(), blob.size()), 0)
      << key << " bytes differ";
}

// --- bit identity -----------------------------------------------------------

TEST(StreamingWriterTest, StreamedObjectsBitIdenticalToOneShot) {
  Relation table = MakeTable("t", kRows);
  CompressionConfig config;
  CompressedRelation one_shot = CompressRelation(table, config);
  TableZoneMap zones = ZonesOf(table);

  s3sim::ObjectStore store;
  write::WriterConfig writer_config;
  writer_config.part_target_bytes = 64 * 1024;  // force several parts
  u64 version = 0;
  // Chunk size deliberately coprime with kBlockCapacity: block cuts land
  // mid-chunk and chunk boundaries land mid-block.
  Status status = StreamTable(&store, table, 9999, writer_config, &version);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(version, 1u);

  std::string resolved;
  ASSERT_TRUE(write::ResolveCommittedName(&store, "lake/", "t", &resolved).ok());
  EXPECT_EQ(resolved, "t.v1");

  ByteBuffer expected;
  SerializeTableMeta(one_shot, &expected);
  ExpectObjectEquals(store, TableMetaKey("lake/", resolved), expected);
  for (size_t c = 0; c < one_shot.columns.size(); c++) {
    expected.Clear();
    SerializeColumnFile(one_shot.columns[c], &expected);
    ExpectObjectEquals(store, ColumnFileKey("lake/", resolved, c), expected);
  }
  expected.Clear();
  SerializeTableZoneMap(zones, &expected);
  ExpectObjectEquals(store, ZoneMapKey("lake/", resolved), expected);

  // No intent, no open uploads, nothing stray after a clean commit.
  EXPECT_FALSE(store.Contains(write::IntentKey("lake/", "t", 1)));
  EXPECT_EQ(CountStray(store, "t", 1), 0u);

  u64 rows = 0;
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, kRows);
}

TEST(StreamingWriterTest, CommitCompressedRelationMatchesStreamedBytes) {
  Relation table = MakeTable("t", kRows);
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(table, config);
  TableZoneMap zones = ZonesOf(table);

  s3sim::ObjectStore a, b;
  ASSERT_TRUE(
      write::CommitCompressedRelation(compressed, &zones, "lake/", &a).ok());
  ASSERT_TRUE(StreamTable(&b, table, 7777, write::WriterConfig()).ok());
  for (const std::string& key : a.ListKeys("lake/")) {
    std::vector<u8> from_a = MustGet(a, key);
    std::vector<u8> from_b = MustGet(b, key);
    EXPECT_EQ(from_a, from_b) << key;
  }
}

// A table without rows still commits. Its column objects hold no blocks,
// and a multipart upload completes only with at least one part, so each is
// staged as one empty part. Both write paths: a streaming writer that
// never appended, and a zero-row relation committed in one go.
TEST(StreamingWriterTest, ZeroRowTableCommitsAndScans) {
  const Relation empty = MakeTable("t", 0);
  auto expect_empty_table = [](s3sim::ObjectStore& store) {
    u64 rows = 1;
    Status status = ScanRows(&store, "t", &rows);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(rows, 0u);
    write::FsckOptions verify;
    verify.verify_committed = true;
    write::FsckReport report;
    ASSERT_TRUE(write::Fsck(&store, "lake/", "t", verify, &report).ok());
    EXPECT_EQ(report.committed_version_after, 1u);
    EXPECT_EQ(report.verify_failures, 0u);
    EXPECT_TRUE(report.clean);
  };
  {
    s3sim::ObjectStore store;
    write::StreamingWriter writer(&store, "t", "lake/");
    ASSERT_TRUE(writer.Begin(SchemaOf(empty)).ok());
    Status status = writer.Commit();
    ASSERT_TRUE(status.ok()) << status.ToString();
    expect_empty_table(store);
  }
  {
    s3sim::ObjectStore store;
    const CompressedRelation compressed =
        CompressRelation(empty, CompressionConfig());
    const TableZoneMap zones = ZonesOf(empty);
    Status status =
        write::CommitCompressedRelation(compressed, &zones, "lake/", &store);
    ASSERT_TRUE(status.ok()) << status.ToString();
    expect_empty_table(store);
  }
}

// --- writer API contract ----------------------------------------------------

TEST(StreamingWriterTest, SchemaMismatchAndStateErrorsAreStatuses) {
  s3sim::ObjectStore store;
  Relation table = MakeTable("t", 100);
  write::StreamingWriter writer(&store, "t", "lake/");
  EXPECT_TRUE(writer.Append(table).IsInvalidArgument());  // before Begin
  ASSERT_TRUE(writer.Begin(SchemaOf(table)).ok());
  EXPECT_TRUE(writer.Begin(SchemaOf(table)).IsInvalidArgument());

  Relation wrong("t");
  wrong.AddColumn("id", ColumnType::kString);  // wrong type
  wrong.AddColumn("price", ColumnType::kDouble);
  wrong.AddColumn("city", ColumnType::kString);
  EXPECT_TRUE(writer.Append(wrong).IsInvalidArgument());

  ASSERT_TRUE(writer.Append(table).ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_TRUE(writer.Append(table).IsInvalidArgument());  // after Commit
  EXPECT_TRUE(writer.Commit().IsInvalidArgument());
  EXPECT_TRUE(writer.Abort().IsInvalidArgument());
}

TEST(StreamingWriterTest, AbortLeavesOldVersionAndFsckCleansUp) {
  Relation table = MakeTable("t", kRows);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, SliceRows(table, 0, 40000), 9000,
                          write::WriterConfig())
                  .ok());

  write::StreamingWriter writer(&store, "t", "lake/");
  ASSERT_TRUE(writer.Begin(SchemaOf(table)).ok());
  ASSERT_TRUE(writer.Append(SliceRows(table, 0, 50000)).ok());
  ASSERT_TRUE(writer.Abort().ok());
  // Abandoned state is a crash by design: staged garbage exists until
  // recovery runs.
  write::FsckOptions repair;
  repair.repair = true;
  write::FsckReport report;
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &report).ok());
  EXPECT_EQ(report.committed_version_after, 1u);
  EXPECT_EQ(CountStray(store, "t", 1), 0u);
  u64 rows = 0;
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, 40000u);
}

// --- fault injection --------------------------------------------------------

TEST(StreamingWriterTest, TransientPutFaultsAreRetried) {
  Relation table = MakeTable("t", kRows);
  s3sim::ObjectStore store;
  s3sim::FaultPlan plan;
  plan.seed = 3;
  // Throttle the first intent PUT and the first part upload of column 0.
  plan.rules.push_back(s3sim::FaultRule::PutThrottle(".intent", 1));
  plan.rules.push_back(s3sim::FaultRule::PutUnavailable(".0.btr", 1));
  store.InstallFaultPlan(plan);
  write::WriterConfig config;
  config.part_target_bytes = 16 * 1024;
  Status status = StreamTable(&store, table, 20000, config);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(store.faults_injected(), 2u);
  u64 rows = 0;
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, kRows);
}

TEST(StreamingWriterTest, PartialPartIsRetriedAndReplaced) {
  Relation table = MakeTable("t", kRows);
  CompressionConfig cc;
  CompressedRelation one_shot = CompressRelation(table, cc);
  s3sim::ObjectStore store;
  s3sim::FaultPlan plan;
  plan.seed = 5;
  // First part PUT of column 1 stores a 7-byte prefix and reports
  // Unavailable; the retry must *replace* the damaged part, leaving the
  // assembled object bit-identical.
  plan.rules.push_back(s3sim::FaultRule::PutPartialPart(".1.btr", 1, 7));
  store.InstallFaultPlan(plan);
  write::WriterConfig config;
  config.part_target_bytes = 16 * 1024;
  ASSERT_TRUE(StreamTable(&store, table, 20000, config).ok());
  EXPECT_EQ(store.faults_injected(), 1u);

  ByteBuffer expected;
  SerializeColumnFile(one_shot.columns[1], &expected);
  ExpectObjectEquals(store, ColumnFileKey("lake/", "t.v1", 1), expected);
}

TEST(StreamingWriterTest, TornAckedPutIsCaughtBeforeManifestSwap) {
  Relation table = MakeTable("t", kRows);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, SliceRows(table, 0, 40000), 9000,
                          write::WriterConfig())
                  .ok());

  // The metadata PUT of v2 silently stores an 8-byte prefix while
  // reporting success — undetectable by retries, caught only by the
  // verify-before-commit read-back.
  s3sim::FaultPlan plan;
  plan.seed = 9;
  plan.rules.push_back(s3sim::FaultRule::PutTornWrite(".v2.btrmeta", 1, 8));
  store.InstallFaultPlan(plan);
  Status status = StreamTable(&store, table, 20000, write::WriterConfig());
  store.ClearFaultPlan();
  ASSERT_TRUE(status.IsCorruption()) << status.ToString();

  // The manifest still points at v1; fsck GCs the damaged version.
  write::FsckOptions repair;
  repair.repair = true;
  write::FsckReport report;
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &report).ok());
  EXPECT_EQ(report.committed_version_after, 1u);
  EXPECT_EQ(CountStray(store, "t", 1), 0u);
  u64 rows = 0;
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, 40000u);
}

TEST(StreamingWriterTest, CorruptAckedPutIsCaughtBeforeManifestSwap) {
  Relation table = MakeTable("t", kRows);
  s3sim::ObjectStore store;
  s3sim::FaultPlan plan;
  plan.seed = 13;
  plan.rules.push_back(s3sim::FaultRule::PutCorrupt(".zones", 1, 3));
  store.InstallFaultPlan(plan);
  Status status = StreamTable(&store, table, 20000, write::WriterConfig());
  store.ClearFaultPlan();
  ASSERT_TRUE(status.IsCorruption()) << status.ToString();
  // Nothing was ever published.
  Scanner scanner(&store, "t", "lake/");
  EXPECT_TRUE(scanner.Open().IsNotFound());
}

// --- atomicity --------------------------------------------------------------

TEST(StreamingWriterTest, OpenScannerKeepsOldVersionAcrossCommit) {
  Relation table = MakeTable("t", kRows);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, SliceRows(table, 0, 40000), 9000,
                          write::WriterConfig())
                  .ok());

  Scanner old_reader(&store, "t", "lake/");
  ASSERT_TRUE(old_reader.Open().ok());
  EXPECT_EQ(old_reader.resolved_name(), "t.v1");

  ASSERT_TRUE(StreamTable(&store, table, 20000, write::WriterConfig()).ok());

  // The already-open scanner still reads v1, in full.
  u64 rows = 0;
  ASSERT_TRUE(old_reader
                  .Scan(ScanSpec(),
                        [&](ColumnChunk&& chunk) {
                          if (chunk.column == 0) rows += chunk.row_count;
                        })
                  .ok());
  EXPECT_EQ(rows, 40000u);
  EXPECT_EQ(old_reader.meta().row_count, 40000u);

  // A fresh Open resolves v2.
  Scanner new_reader(&store, "t", "lake/");
  ASSERT_TRUE(new_reader.Open().ok());
  EXPECT_EQ(new_reader.resolved_name(), "t.v2");
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, kRows);
}

TEST(StreamingWriterTest, VersionAllocationSkipsCrashedPredecessor) {
  Relation table = MakeTable("t", kRows);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, SliceRows(table, 0, 40000), 9000,
                          write::WriterConfig())
                  .ok());

  // A writer dies mid-staging of v2 (nothing repaired it yet).
  write::WriterConfig crash_config;
  u32 point = 0;
  crash_config.failpoint = [&](const char*) { return ++point == 8; };
  Status status = StreamTable(&store, table, 20000, crash_config);
  ASSERT_TRUE(status.IsIoError()) << status.ToString();

  // The next writer must not reuse v2 even though v2 never committed.
  u64 version = 0;
  ASSERT_TRUE(
      StreamTable(&store, table, 20000, write::WriterConfig(), &version).ok());
  EXPECT_EQ(version, 3u);
  u64 rows = 0;
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, kRows);

  // Recovery afterwards GCs the crashed v2 without touching v1 or v3.
  write::FsckOptions repair;
  repair.repair = true;
  write::FsckReport report;
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &report).ok());
  EXPECT_EQ(report.committed_version_after, 3u);
  EXPECT_EQ(CountStray(store, "t", 3), 0u);
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, kRows);
}

// --- crash matrix -----------------------------------------------------------

// Kill the writer at every crash point in turn; after fsck --repair the
// table must read back as exactly the old or the new version, the store
// must hold zero stray objects/uploads, and a second fsck must find a
// clean store (idempotence).
TEST(WriterCrashMatrixTest, EveryCrashPointConvergesToEitherOldOrNew) {
  Relation full = MakeTable("t", kRows);
  Relation half = SliceRows(full, 0, 40000);
  CompressionConfig cc;
  CompressedRelation chalf = CompressRelation(half, cc);
  CompressedRelation cfull = CompressRelation(full, cc);
  TableZoneMap zhalf = ZonesOf(half);
  TableZoneMap zfull = ZonesOf(full);

  // Pass 1: count the crash points of the second commit.
  u32 points = 0;
  {
    s3sim::ObjectStore store;
    write::WriterConfig config;
    config.part_target_bytes = 8 * 1024;
    ASSERT_TRUE(write::CommitCompressedRelation(chalf, &zhalf, "lake/", &store,
                                                config)
                    .ok());
    config.failpoint = [&](const char*) {
      points++;
      return false;
    };
    ASSERT_TRUE(write::CommitCompressedRelation(cfull, &zfull, "lake/", &store,
                                                config)
                    .ok());
  }
  ASSERT_GT(points, 12u) << "matrix must cover every protocol step";

  // Pass 2: kill at each point.
  for (u32 k = 1; k <= points; k++) {
    SCOPED_TRACE("crash point " + std::to_string(k) + "/" +
                 std::to_string(points));
    s3sim::ObjectStore store;
    write::WriterConfig config;
    config.part_target_bytes = 8 * 1024;
    ASSERT_TRUE(write::CommitCompressedRelation(chalf, &zhalf, "lake/", &store,
                                                config)
                    .ok());
    u32 n = 0;
    config.failpoint = [&](const char*) { return ++n == k; };
    Status crashed = write::CommitCompressedRelation(cfull, &zfull, "lake/",
                                                     &store, config);
    EXPECT_FALSE(crashed.ok()) << "point " << k << " must kill the writer";

    write::FsckOptions repair;
    repair.repair = true;
    repair.verify_committed = true;
    write::FsckReport report;
    ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &report).ok());
    EXPECT_TRUE(report.committed_version_after == 1 ||
                report.committed_version_after == 2);
    EXPECT_EQ(CountStray(store, "t", report.committed_version_after), 0u)
        << "repair must leave zero stray objects";

    // Idempotence: an immediate re-run finds nothing to do.
    write::FsckReport again;
    ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &again).ok());
    EXPECT_TRUE(again.clean) << "fsck must be idempotent";
    EXPECT_EQ(again.committed_version_after, report.committed_version_after);

    u64 rows = 0;
    Status read = ScanRows(&store, "t", &rows);
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_TRUE(rows == 40000u || rows == kRows)
        << "read back " << rows << " rows — neither old nor new";
    EXPECT_EQ(rows == kRows, report.committed_version_after == 2u);
  }
}

// Chaos-style seeded PUT fault schedules: whatever the schedule does, the
// invariant holds — a successful Commit publishes the new version in
// full; a failed one leaves the old version intact after fsck.
TEST(WriterCrashMatrixTest, SeededPutChaosSchedulesKeepEitherOldOrNew) {
  Relation full = MakeTable("t", kRows);
  Relation half = SliceRows(full, 0, 40000);
  CompressionConfig cc;
  CompressedRelation chalf = CompressRelation(half, cc);
  CompressedRelation cfull = CompressRelation(full, cc);

  for (u64 seed = 1; seed <= 12; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    s3sim::ObjectStore store;
    write::WriterConfig config;
    config.part_target_bytes = 8 * 1024;
    ASSERT_TRUE(
        write::CommitCompressedRelation(chalf, nullptr, "lake/", &store, config)
            .ok());
    store.InstallFaultPlan(s3sim::MakePutChaosPlan(seed, 0.35));
    Status status = write::CommitCompressedRelation(cfull, nullptr, "lake/",
                                                    &store, config);
    store.ClearFaultPlan();

    write::FsckOptions repair;
    repair.repair = true;
    write::FsckReport report;
    ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &report).ok());
    EXPECT_EQ(CountStray(store, "t", report.committed_version_after), 0u);
    u64 rows = 0;
    ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
    if (status.ok()) {
      EXPECT_EQ(rows, kRows) << "committed write must be fully visible";
    } else {
      EXPECT_TRUE(rows == 40000u || rows == kRows);
    }
  }
}

// --- recovery ---------------------------------------------------------------

TEST(FsckTest, CleanStoreIsANoOp) {
  Relation table = MakeTable("t", 40000);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, table, 9000, write::WriterConfig()).ok());
  u64 puts_before = store.total_put_requests();
  std::vector<std::string> keys_before = store.ListKeys("");

  write::FsckOptions repair;
  repair.repair = true;
  write::FsckReport report;
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &report).ok());
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.rolled_forward, 0u);
  EXPECT_EQ(report.rolled_back, 0u);
  EXPECT_EQ(report.committed_version_after, 1u);
  EXPECT_EQ(store.total_put_requests(), puts_before) << "no writes on clean";
  EXPECT_EQ(store.ListKeys(""), keys_before) << "no mutations on clean";

  // On a completely empty store it is also a no-op.
  s3sim::ObjectStore empty;
  ASSERT_TRUE(write::Fsck(&empty, "lake/", "t", repair, &report).ok());
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.committed_version_after, 0u);
}

TEST(FsckTest, RollForwardCompletesInterruptedUploads) {
  Relation table = MakeTable("t", kRows);
  s3sim::ObjectStore store;
  // Kill the writer right after the kStaged intent: all bytes are staged,
  // no multipart upload is completed yet — recovery itself must assemble
  // the objects ("resumable multipart") and publish.
  write::WriterConfig config;
  config.failpoint = [&](const char* label) {
    return std::strcmp(label, "commit:after-staged-intent") == 0;
  };
  Status status = StreamTable(&store, table, 20000, config);
  ASSERT_TRUE(status.IsIoError()) << status.ToString();
  ASSERT_FALSE(store.ListMultipartUploads("lake/").empty());

  // Read-only fsck reports the pending roll-forward but changes nothing.
  write::FsckOptions analyze;
  write::FsckReport report;
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", analyze, &report).ok());
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.rolled_forward, 1u);
  EXPECT_EQ(report.uploads_completed, 0u);
  ASSERT_FALSE(store.ListMultipartUploads("lake/").empty());

  write::FsckOptions repair;
  repair.repair = true;
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &report).ok());
  EXPECT_EQ(report.rolled_forward, 1u);
  EXPECT_EQ(report.uploads_completed, 3u);  // one per column
  EXPECT_EQ(report.committed_version_after, 1u);
  EXPECT_EQ(CountStray(store, "t", 1), 0u);
  u64 rows = 0;
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, kRows);
}

TEST(FsckTest, DamagedStagedVersionRollsBack) {
  Relation table = MakeTable("t", kRows);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, SliceRows(table, 0, 40000), 9000,
                          write::WriterConfig())
                  .ok());
  // Stage v2 fully (kStaged intent written), then corrupt a staged object
  // behind the writer's back before recovery runs.
  write::WriterConfig config;
  config.failpoint = [&](const char* label) {
    return std::strcmp(label, "commit:after-verify") == 0;
  };
  Status status = StreamTable(&store, table, 20000, config);
  ASSERT_TRUE(status.IsIoError()) << status.ToString();
  std::vector<u8> meta = MustGet(store, TableMetaKey("lake/", "t.v2"));
  meta[meta.size() / 2] ^= 0xFF;
  ASSERT_TRUE(
      store.Put(TableMetaKey("lake/", "t.v2"), meta.data(), meta.size()).ok());

  write::FsckOptions repair;
  repair.repair = true;
  write::FsckReport report;
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", repair, &report).ok());
  EXPECT_GE(report.verify_failures, 1u);
  EXPECT_EQ(report.rolled_back, 1u);
  EXPECT_EQ(report.committed_version_after, 1u) << "damaged v2 must not publish";
  EXPECT_EQ(CountStray(store, "t", 1), 0u);
  u64 rows = 0;
  ASSERT_TRUE(ScanRows(&store, "t", &rows).ok());
  EXPECT_EQ(rows, 40000u);
}

TEST(FsckTest, VerifyCommittedDetectsBitRot) {
  Relation table = MakeTable("t", 40000);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, table, 9000, write::WriterConfig()).ok());
  // Flip one payload byte of the committed column 0 object.
  std::string key = ColumnFileKey("lake/", "t.v1", 0);
  std::vector<u8> blob = MustGet(store, key);
  blob[blob.size() - 1] ^= 0x01;
  ASSERT_TRUE(store.Put(key, blob.data(), blob.size()).ok());

  write::FsckOptions deep;
  deep.verify_committed = true;
  write::FsckReport report;
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", deep, &report).ok());
  EXPECT_GE(report.verify_failures, 1u);
  EXPECT_FALSE(report.clean);

  // An object shorter than its block table in the metadata says.
  blob.pop_back();
  ASSERT_TRUE(store.Put(key, blob.data(), blob.size()).ok());
  ASSERT_TRUE(write::Fsck(&store, "lake/", "t", deep, &report).ok());
  EXPECT_EQ(report.verify_failures, 1u);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("does not match its blocks"),
            std::string::npos)
      << report.notes[0];
}

// --- hostile metadata -------------------------------------------------------

Status ParseIntentBytes(const u8* data, size_t size) {
  write::IntentRecord intent;
  return write::ParseIntent(data, size, &intent);
}

Status ParseManifestBytes(const u8* data, size_t size) {
  write::Manifest manifest;
  return write::ParseManifest(data, size, &manifest);
}

Bytes StagedIntent() {
  write::IntentRecord intent;
  intent.table = "t";
  intent.version = 2;
  intent.phase = write::IntentPhase::kStaged;
  intent.entries.push_back({"lake/t.v2.0.btr", "mpu-7", 1234, 0xDEADBEEFu});
  intent.entries.push_back({"lake/t.v2.btrmeta", "", 99, 0x12345678u});
  ByteBuffer buffer;
  write::SerializeIntent(intent, &buffer);
  return ToBytes(buffer);
}

TEST(WriterMetadataTest, HostileIntentIsCorruption) {
  const Bytes intent = StagedIntent();
  ASSERT_TRUE(ParseIntentBytes(intent.data(), intent.size()).ok());
  ExpectTruncationsAndMagicCorrupt(ParseIntentBytes, intent);
  // "BTRI" | u32 format | u64 version | u8 phase | u16 name_len | "t" |
  // u32 entry_count | u16 key_len | key ...
  ExpectCorruption(ParseIntentBytes, Restamped<u32>(intent, 4, 2),
                   "format 2");
  ExpectCorruption(ParseIntentBytes, Restamped<u8>(intent, 16, 2), "phase 2");
  ExpectCorruption(ParseIntentBytes, Restamped<u32>(intent, 20, 0xFFFFFFFFu),
                   "entry count 0xFFFFFFFF");
  ExpectCorruption(ParseIntentBytes, Restamped<u16>(intent, 24, 0xFFFF),
                   "key length 0xFFFF");
}

TEST(WriterMetadataTest, HostileManifestIsCorruption) {
  write::Manifest manifest{"t", 3};
  ByteBuffer buffer;
  write::SerializeManifest(manifest, &buffer);
  const Bytes bytes = ToBytes(buffer);
  ASSERT_TRUE(ParseManifestBytes(bytes.data(), bytes.size()).ok());
  ExpectTruncationsAndMagicCorrupt(ParseManifestBytes, bytes);
  // "BTRV" | u32 format | u64 committed_version | u16 name_len | "t"
  ExpectCorruption(ParseManifestBytes, Restamped<u32>(bytes, 4, 2),
                   "format 2");
  ExpectCorruption(ParseManifestBytes, Restamped<u64>(bytes, 8, 0),
                   "version 0");
  ExpectCorruption(ParseManifestBytes, Restamped<u16>(bytes, 16, 0xFFFF),
                   "name length 0xFFFF");
}

// The Status contract holds above the parsers: a CRC-valid intent or
// table metadata with a hostile count is an unreadable object to Fsck and
// a Corruption to Scanner::Open, never an escaping exception.
TEST(WriterMetadataTest, HostileCountsStayStatuses) {
  Relation table = MakeTable("t", 40000);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, table, 9000, write::WriterConfig()).ok());

  const Bytes intent = Restamped<u32>(StagedIntent(), 20, 0xFFFFFFFFu);
  const std::string intent_key = write::IntentKey("lake/", "t", 2);
  ASSERT_TRUE(store.Put(intent_key, intent.data(), intent.size()).ok());
  write::FsckOptions repair;
  repair.repair = true;
  write::FsckReport report;
  Status status;
  EXPECT_NO_THROW(status = write::Fsck(&store, "lake/", "t", repair, &report));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.intents_deleted, 1u);
  EXPECT_EQ(report.committed_version_after, 1u);
  EXPECT_FALSE(store.Contains(intent_key));

  const std::string meta_key = TableMetaKey("lake/", "t.v1");
  const Bytes meta = Restamped<u32>(MustGet(store, meta_key), 4, 0xFFFFFFFFu);
  ASSERT_TRUE(store.Put(meta_key, meta.data(), meta.size()).ok());
  Scanner scanner(&store, "t", "lake/");
  EXPECT_NO_THROW(status = scanner.Open());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(WriterMetadataTest, TableWithoutManifestIsNotFound) {
  Relation table = MakeTable("t", 1000);
  s3sim::ObjectStore store;
  ASSERT_TRUE(StreamTable(&store, table, 1000, write::WriterConfig()).ok());
  ASSERT_TRUE(store.Delete(write::ManifestKey("lake/", "t")).ok());
  std::string name;
  EXPECT_TRUE(
      write::ResolveCommittedName(&store, "lake/", "t", &name).IsNotFound());
  Scanner scanner(&store, "t", "lake/");
  EXPECT_TRUE(scanner.Open().IsNotFound());
}

}  // namespace
}  // namespace btr
