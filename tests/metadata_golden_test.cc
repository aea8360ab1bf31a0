// Metadata golden test: pins the byte count and CRC32C of every stored
// object — the manifest ("BTRV"), both phases of the write-ahead intent
// ("BTRI"), the table metadata with its block tables ("BTRT"), the
// zone-map sidecar ("BTRZ") and the column objects, which hold the blocks
// alone — as the streaming writer, CommitCompressedRelation and the
// directory writer produce them. A change to any framing that
// moves a single written byte fails here. Compression has no SIMD path,
// so the constants hold in every build flavour.
//
// On a mismatch the failure message prints the table line to paste.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "datagen/public_bi.h"
#include "util/crc32c.h"
#include "write/manifest.h"
#include "write/streaming_writer.h"

namespace btr {
namespace {

struct Golden {
  const char* name;
  u64 bytes;
  u32 crc;
};

struct Actual {
  std::string name;
  u64 bytes;
  u32 crc;
};

std::string Line(const Actual& a) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "    {\"%s\", %" PRIu64 ", 0x%08xu},",
                a.name.c_str(), a.bytes, a.crc);
  return buf;
}

void ExpectGolden(const std::vector<Actual>& actual,
                  const std::vector<Golden>& expected) {
  std::string table;
  for (const Actual& a : actual) table += Line(a) + "\n";
  ASSERT_EQ(actual.size(), expected.size()) << "actual table:\n" << table;
  for (size_t i = 0; i < actual.size(); i++) {
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_TRUE(actual[i].bytes == expected[i].bytes &&
                actual[i].crc == expected[i].crc)
        << "expected " << expected[i].bytes << " bytes, got\n"
        << Line(actual[i]);
  }
}

// A CRC-trailed frame ends in the CRC32C of the bytes before it, and the
// CRC32C of such a frame as a whole is the same constant for every frame.
// So the table pins the CRC32C of everything but the last four bytes. For
// a column object that still covers the last block: its CRC sits in the
// table metadata.
void Record(std::vector<Actual>* out, std::string name,
            const std::vector<u8>& bytes) {
  ASSERT_GE(bytes.size(), 4u) << name;
  out->push_back(
      {std::move(name), bytes.size(), Crc32c(bytes.data(), bytes.size() - 4)});
}

void RecordObject(std::vector<Actual>* out, std::string name,
                  s3sim::ObjectStore& store, const std::string& key) {
  std::vector<u8> blob;
  Status status = store.GetObject(key, &blob);
  ASSERT_TRUE(status.ok()) << key << ": " << status.ToString();
  Record(out, std::move(name), blob);
}

// The table metadata, the zone map and every column object of `name`.
void RecordVersion(std::vector<Actual>* out, const std::string& label,
                   s3sim::ObjectStore& store, const std::string& name,
                   size_t columns) {
  RecordObject(out, label + ".btrmeta", store, TableMetaKey("lake/", name));
  RecordObject(out, label + ".zones", store, ZoneMapKey("lake/", name));
  for (size_t c = 0; c < columns; c++) {
    RecordObject(out, label + "." + std::to_string(c) + ".btr", store,
                 ColumnFileKey("lake/", name, c));
  }
}

// --- inputs -----------------------------------------------------------------

// One full block and a short second one.
constexpr u32 kStreamRows = kBlockCapacity + 4465;

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

// Streams `table` in 9,999-row appends; `crash_label` (when not null) kills
// the writer at that failpoint.
Status StreamTable(s3sim::ObjectStore* store, const Relation& table,
                   const char* crash_label) {
  write::WriterConfig config;
  config.part_target_bytes = 64 * 1024;
  if (crash_label != nullptr) {
    config.failpoint = [crash_label](const char* label) {
      return std::strcmp(label, crash_label) == 0;
    };
  }
  write::StreamingWriter writer(store, table.name(), "lake/", config);
  std::vector<write::StreamingWriter::ColumnSpec> schema;
  for (const Column& column : table.columns()) {
    schema.push_back({column.name(), column.type()});
  }
  Status status = writer.Begin(schema);
  for (u32 begin = 0; status.ok() && begin < table.row_count();
       begin += 9999) {
    u32 n = std::min<u32>(9999, table.row_count() - begin);
    status = writer.Append(SliceRows(table, begin, n));
  }
  if (status.ok()) status = writer.Commit();
  return status;
}

// An all-NULL column, doubles with NaN payloads, -0.0 and +-inf, and
// strings longer than the zone map's 8-byte prefixes.
Relation EdgeRelation() {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  Relation r("edge");
  Column& ids = r.AddColumn("id", ColumnType::kInteger);
  Column& specials = r.AddColumn("d_special", ColumnType::kDouble);
  Column& longs = r.AddColumn("s_long", ColumnType::kString);
  Column& all_null = r.AddColumn("i_all_null", ColumnType::kInteger);
  const double values[] = {kNaN, -0.0, 0.0, kInf, -kInf, 2.5, -1e300};
  for (u32 i = 0; i < kBlockCapacity + 1000; i++) {
    ids.AppendInt(static_cast<i32>(i * 7u) - 5000);
    if (i % 13 == 0) {
      specials.AppendNull();
    } else {
      specials.AppendDouble(values[i % 7]);
    }
    longs.AppendString("a_string_longer_than_eight_bytes_" +
                       std::to_string((i * 31u) % 4099));
    all_null.AppendNull();
  }
  return r;
}

TableZoneMap ZonesOf(const Relation& table) {
  TableZoneMap zones;
  for (const Column& column : table.columns()) {
    zones.columns.push_back(ComputeColumnZoneMap(column));
  }
  return zones;
}

std::vector<u8> ReadFile(const std::string& path) {
  std::vector<u8> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return bytes;
  u8 buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

// --- golden tables ---------------------------------------------------------

const std::vector<Golden> kStreamGolden = {
    {"manifest", 23, 0x7a402596u},
    {"v1.btrmeta", 776, 0xaac1aa48u},
    {"v1.zones", 1650, 0x93661538u},
    {"v1.0.btr", 37302, 0x8f292d35u},
    {"v1.1.btr", 50, 0x175cb41bu},
    {"v1.2.btr", 5875, 0x7f7b9a41u},
    {"v1.3.btr", 562000, 0xdfe6c507u},
    {"v1.4.btr", 360049, 0x2f27c24fu},
    {"v1.5.btr", 20022, 0x833989feu},
    {"v1.6.btr", 5863, 0x6f69acfdu},
    {"v1.7.btr", 37302, 0xdf7364cau},
    {"v1.8.btr", 547740, 0xce821760u},
    {"v1.9.btr", 78301, 0x9fb605cdu},
    {"v1.10.btr", 16693, 0xe9ee791cu},
    {"v1.11.btr", 21915, 0x0bcc4a6fu},
    {"v1.12.btr", 84074, 0x70826e1eu},
    {"v1.13.btr", 128126, 0x63a12ffcu},
};

const std::vector<Golden> kIntentGolden = {
    {"begin:after-intent", 605, 0x9951989eu},
    {"commit:after-staged-intent", 605, 0x0b9ab636u},
};

const std::vector<Golden> kCommitGolden = {
    {"manifest", 26, 0x5655abcau},
    {"v1.btrmeta", 199, 0xb67ee406u},
    {"v1.zones", 480, 0x8194de64u},
    {"v1.0.btr", 83826, 0xbda9d855u},
    {"v1.1.btr", 43547, 0xbd55cf0bu},
    {"v1.2.btr", 364496, 0x4c180b0fu},
    {"v1.3.btr", 66, 0xd499bffeu},
};

const std::vector<Golden> kFilesGolden = {
    {"btrmeta", 199, 0xb67ee406u},
    {"0.btr", 83826, 0xbda9d855u},
    {"1.btr", 43547, 0xbd55cf0bu},
    {"2.btr", 364496, 0x4c180b0fu},
    {"3.btr", 66, 0xd499bffeu},
};

TEST(MetadataGoldenTest, StreamingWriterCommit) {
  Relation table = datagen::MakePublicBiTable("t", kStreamRows, 77);
  s3sim::ObjectStore store;
  Status status = StreamTable(&store, table, nullptr);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<Actual> actual;
  RecordObject(&actual, "manifest", store, write::ManifestKey("lake/", "t"));
  RecordVersion(&actual, "v1", store, "t.v1", table.columns().size());
  ExpectGolden(actual, kStreamGolden);
}

TEST(MetadataGoldenTest, IntentsLeftByCrashedWriters) {
  Relation table = datagen::MakePublicBiTable("t", kStreamRows, 77);
  std::vector<Actual> actual;
  for (const char* label : {"begin:after-intent",
                            "commit:after-staged-intent"}) {
    s3sim::ObjectStore store;
    ASSERT_TRUE(StreamTable(&store, table, label).IsIoError()) << label;
    RecordObject(&actual, label, store, write::IntentKey("lake/", "t", 1));
  }
  ExpectGolden(actual, kIntentGolden);
}

TEST(MetadataGoldenTest, CommitCompressedRelationEdgeTable) {
  Relation table = EdgeRelation();
  CompressedRelation compressed = CompressRelation(table, CompressionConfig());
  TableZoneMap zones = ZonesOf(table);
  s3sim::ObjectStore store;
  Status status =
      write::CommitCompressedRelation(compressed, &zones, "lake/", &store);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<Actual> actual;
  RecordObject(&actual, "manifest", store,
               write::ManifestKey("lake/", "edge"));
  RecordVersion(&actual, "v1", store, "edge.v1", table.columns().size());
  ExpectGolden(actual, kCommitGolden);
}

TEST(MetadataGoldenTest, DirectoryWriterFiles) {
  Relation table = EdgeRelation();
  CompressedRelation compressed = CompressRelation(table, CompressionConfig());
  compressed.name = "metadata_golden_edge";
  const std::string dir = ::testing::TempDir();
  Status status = WriteCompressedRelation(compressed, dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::string stem = dir + "/" + compressed.name;
  std::vector<Actual> actual;
  Record(&actual, "btrmeta", ReadFile(stem + ".btrmeta"));
  for (size_t c = 0; c < compressed.columns.size(); c++) {
    Record(&actual, std::to_string(c) + ".btr",
           ReadFile(stem + "." + std::to_string(c) + ".btr"));
  }
  ExpectGolden(actual, kFilesGolden);
}

}  // namespace
}  // namespace btr
