// Integration tests: block compression with NULLs, relation round trips,
// file format persistence and hostile metadata, telemetry.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "hostile_bytes.h"
#include "util/random.h"

namespace btr {
namespace {

Relation MakeMixedRelation(u64 seed, u32 rows) {
  Random rng(seed);
  Relation relation("test_table");
  Column& ids = relation.AddColumn("id", ColumnType::kInteger);
  Column& price = relation.AddColumn("price", ColumnType::kDouble);
  Column& city = relation.AddColumn("city", ColumnType::kString);
  const char* cities[] = {"PHOENIX", "RALEIGH", "BETHESDA", "ATHENS"};
  for (u32 i = 0; i < rows; i++) {
    ids.AppendInt(static_cast<i32>(i));
    if (rng.NextBounded(10) == 0) {
      price.AppendNull();
    } else {
      price.AppendDouble(static_cast<double>(rng.NextBounded(100000)) / 100.0);
    }
    if (rng.NextBounded(20) == 0) {
      city.AppendNull();
    } else {
      city.AppendString(cities[rng.NextBounded(4)]);
    }
  }
  return relation;
}

void ExpectRelationsEqual(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.columns().size(), b.columns().size());
  ASSERT_EQ(a.row_count(), b.row_count());
  for (size_t c = 0; c < a.columns().size(); c++) {
    const Column& ca = a.columns()[c];
    const Column& cb = b.columns()[c];
    ASSERT_EQ(ca.type(), cb.type());
    ASSERT_EQ(ca.name(), cb.name());
    for (u32 r = 0; r < a.row_count(); r++) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r)) << ca.name() << " row " << r;
      switch (ca.type()) {
        case ColumnType::kInteger:
          ASSERT_EQ(ca.ints()[r], cb.ints()[r]) << "row " << r;
          break;
        case ColumnType::kDouble: {
          u64 x, y;
          std::memcpy(&x, &ca.doubles()[r], 8);
          std::memcpy(&y, &cb.doubles()[r], 8);
          ASSERT_EQ(x, y) << "row " << r;
          break;
        }
        case ColumnType::kString:
          ASSERT_EQ(ca.GetString(r), cb.GetString(r)) << "row " << r;
          break;
      }
    }
  }
}

TEST(BlockTest, IntBlockWithNulls) {
  std::vector<i32> values(10000, 7);
  std::vector<u8> nulls(10000, 0);
  for (int i = 0; i < 10000; i += 17) nulls[i] = 1;
  CompressionConfig config;
  ByteBuffer block;
  BlockCompressionInfo info;
  CompressBlock(values.data(), nulls.data(), 10000, &block, config, &info);
  EXPECT_EQ(static_cast<IntSchemeCode>(info.root_scheme), IntSchemeCode::kOneValue);

  DecodedBlock decoded;
  DecompressBlock(block.data(), &decoded, config);
  EXPECT_EQ(decoded.count, 10000u);
  EXPECT_EQ(decoded.type, ColumnType::kInteger);
  for (u32 i = 0; i < 10000; i++) {
    EXPECT_EQ(decoded.IsNull(i), nulls[i] != 0);
    EXPECT_EQ(decoded.ints[i], 7);
  }
}

TEST(BlockTest, NoNullsMeansNoNullFlags) {
  std::vector<double> values(100, 1.5);
  CompressionConfig config;
  ByteBuffer block;
  CompressBlock(values.data(), nullptr, 100, &block, config);
  DecodedBlock decoded;
  DecompressBlock(block.data(), &decoded, config);
  EXPECT_TRUE(decoded.null_flags.empty());
  EXPECT_FALSE(decoded.IsNull(50));
}

TEST(RelationTest, RoundTripMultiBlock) {
  // > kBlockCapacity rows forces multiple blocks per column.
  Relation relation = MakeMixedRelation(1, 150000);
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(relation, config);
  EXPECT_EQ(compressed.columns.size(), 3u);
  EXPECT_EQ(compressed.columns[0].blocks.size(), 3u);
  EXPECT_GT(compressed.CompressionRatio(), 2.0);

  Relation back = MaterializeRelation(compressed, config);
  ExpectRelationsEqual(relation, back);
}

TEST(RelationTest, DecompressReportsBytes) {
  Relation relation = MakeMixedRelation(2, 64000);
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(relation, config);
  u64 bytes = DecompressRelation(compressed, config);
  EXPECT_EQ(bytes, relation.UncompressedBytes());
}

// Column tasks of a parallel CompressRelation each record into their own
// Telemetry; the attached sink must end up with the serial run's scheme
// counts (and real timings), with no data race on the way (TSan job).
TEST(RelationTest, ParallelCompressionMatchesSerial) {
  Relation relation = MakeMixedRelation(3, 100000);
  CompressionConfig config;
  Telemetry serial_telemetry;
  config.telemetry = &serial_telemetry;
  CompressedRelation serial = CompressRelation(relation, config);
  exec::ThreadPool pool(4);
  Telemetry parallel_telemetry;
  config.telemetry = &parallel_telemetry;
  CompressedRelation parallel = CompressRelation(relation, config, &pool);
  EXPECT_EQ(0, std::memcmp(serial_telemetry.scheme_uses_by_depth,
                           parallel_telemetry.scheme_uses_by_depth,
                           sizeof(serial_telemetry.scheme_uses_by_depth)));
  u64 roots = 0;  // depth 0 counts one root scheme per block
  for (const auto& type : parallel_telemetry.scheme_uses_by_depth[0]) {
    for (u64 uses : type) roots += uses;
  }
  u64 blocks = 0;
  for (const CompressedColumn& column : parallel.columns) {
    blocks += column.blocks.size();
  }
  EXPECT_EQ(roots, blocks);
  EXPECT_GT(parallel_telemetry.stats_ns, 0u);
  EXPECT_GT(parallel_telemetry.estimate_ns, 0u);
  EXPECT_GT(parallel_telemetry.compress_ns, 0u);
  ASSERT_EQ(serial.columns.size(), parallel.columns.size());
  for (size_t c = 0; c < serial.columns.size(); c++) {
    ASSERT_EQ(serial.columns[c].blocks.size(), parallel.columns[c].blocks.size());
    for (size_t b = 0; b < serial.columns[c].blocks.size(); b++) {
      const ByteBuffer& x = serial.columns[c].blocks[b];
      const ByteBuffer& y = parallel.columns[c].blocks[b];
      ASSERT_EQ(x.size(), y.size());
      ASSERT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0);
    }
  }
}

TEST(FileFormatTest, WriteReadRoundTrip) {
  Relation relation = MakeMixedRelation(4, 80000);
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(relation, config);

  std::string dir = ::testing::TempDir();
  Status status = WriteCompressedRelation(compressed, dir);
  ASSERT_TRUE(status.ok()) << status.ToString();

  CompressedRelation loaded;
  status = ReadCompressedRelation(dir, "test_table", &loaded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(loaded.row_count, compressed.row_count);
  EXPECT_EQ(loaded.CompressedBytes(), compressed.CompressedBytes());

  Relation back = MaterializeRelation(loaded, config);
  ExpectRelationsEqual(relation, back);
}

TEST(FileFormatTest, MissingFileReportsNotFound) {
  CompressedRelation out;
  Status status = ReadCompressedRelation("/nonexistent_dir_xyz", "nope", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kNotFound);
}

// --- hostile metadata -------------------------------------------------------

Status ParseMeta(const u8* data, size_t size) {
  TableMeta meta;
  return ParseTableMeta(data, size, &meta);
}

TEST(FileFormatTest, HostileTableMetaIsCorruption) {
  CompressedRelation compressed =
      CompressRelation(MakeMixedRelation(6, 70000), CompressionConfig());
  ByteBuffer buffer;
  SerializeTableMeta(compressed, &buffer);
  const Bytes meta = ToBytes(buffer);
  ASSERT_TRUE(ParseMeta(meta.data(), meta.size()).ok());
  ExpectTruncationsAndMagicCorrupt(ParseMeta, meta);

  // "BTRT" | u32 column_count | u32 row_count | per column: u16 name_len |
  // name | u8 type | u64 uncompressed_bytes | u32 block_count |
  // block_count x (u32 value count, u32 size, u32 CRC32C), array by array.
  const size_t type_offset = 12 + 2 + compressed.columns[0].name.size();
  const size_t block_count_offset = type_offset + 1 + 8;
  size_t last_count_offset = 0;
  size_t end = 12;
  for (const CompressedColumn& column : compressed.columns) {
    last_count_offset = end + 2 + column.name.size() + 1 + 8;
    end = last_count_offset + 4 + 12 * column.blocks.size();
  }
  ASSERT_EQ(end + 4, meta.size());
  ExpectCorruption(ParseMeta, Restamped<u32>(meta, 4, 0xFFFFFFFFu),
                   "column count 0xFFFFFFFF");
  ExpectCorruption(ParseMeta,
                   Restamped<u32>(meta, block_count_offset, 0xFFFFFFFFu),
                   "block count 0xFFFFFFFF");
  ExpectCorruption(ParseMeta, Restamped<u16>(meta, 12, 0xFFFF),
                   "name length 0xFFFF");
  ExpectCorruption(ParseMeta, Restamped<u8>(meta, type_offset, 3),
                   "column type 3");

  // Each flipped bit of the last column's block count: a larger count is
  // accepted only when the bytes left hold that many entries (they do
  // not), and a smaller one leaves bytes over.
  u32 last_count = 0;
  std::memcpy(&last_count, meta.data() + last_count_offset, 4);
  ASSERT_EQ(last_count, compressed.columns.back().blocks.size());
  for (u32 bit = 0; bit < 32; bit++) {
    ExpectCorruption(
        ParseMeta,
        Restamped<u32>(meta, last_count_offset, last_count ^ (1u << bit)),
        "block count bit " + std::to_string(bit));
  }

  // A frame of the previous layout, whose column objects began with their
  // own block headers, is no longer metadata.
  u32 previous_magic = 0;
  std::memcpy(&previous_magic, "BTRM", 4);
  ExpectCorruption(ParseMeta, Restamped<u32>(meta, 0, previous_magic),
                   "previous magic");
}

TEST(TelemetryTest, EstimationShareIsSmall) {
  // Paper Section 3.1: scheme selection uses ~1.2% of compression time.
  // Generous bound here: estimation must stay a small fraction.
  Relation relation = MakeMixedRelation(5, 128000);
  Telemetry telemetry;
  CompressionConfig config;
  config.telemetry = &telemetry;
  CompressRelation(relation, config);
  EXPECT_GT(telemetry.compress_ns, 0u);
  EXPECT_GT(telemetry.estimate_ns, 0u);
  EXPECT_LT(telemetry.estimate_ns, telemetry.compress_ns);
  u64 total_uses = 0;
  for (auto& per_type : telemetry.scheme_uses_by_depth[0]) {
    for (u64 uses : per_type) total_uses += uses;
  }
  // 3 columns x 2 blocks each.
  EXPECT_EQ(total_uses, 6u);
}

TEST(BlockTest, PeekBlockScheme) {
  std::vector<i32> values(1000, 3);
  CompressionConfig config;
  ByteBuffer block;
  BlockCompressionInfo info;
  CompressBlock(values.data(), nullptr, 1000, &block, config, &info);
  EXPECT_EQ(PeekBlockScheme(block.data()), info.root_scheme);
}

}  // namespace
}  // namespace btr
