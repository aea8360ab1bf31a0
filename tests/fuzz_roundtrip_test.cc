// Randomized end-to-end round-trip tests ("fuzz-lite"): many seeds, mixed
// schemas, adversarial value distributions, NULL patterns, varying block
// counts and cascade depths. Every relation must survive
// compress -> serialize -> deserialize -> decompress bit-exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "btr/btrblocks.h"
#include "util/random.h"

namespace btr {
namespace {

Relation RandomRelation(u64 seed) {
  Random rng(seed);
  Relation relation("fuzz_" + std::to_string(seed));
  u32 column_count = 1 + static_cast<u32>(rng.NextBounded(6));
  u32 rows = 1 + static_cast<u32>(rng.NextBounded(150000));
  for (u32 c = 0; c < column_count; c++) {
    ColumnType type = static_cast<ColumnType>(rng.NextBounded(3));
    Column& column =
        relation.AddColumn(std::string("c").append(std::to_string(c)), type);
    u32 distribution = static_cast<u32>(rng.NextBounded(5));
    double null_rate = rng.NextBounded(3) == 0 ? 0.1 : 0.0;
    for (u32 r = 0; r < rows; r++) {
      if (null_rate > 0 && rng.NextDouble() < null_rate) {
        column.AppendNull();
        continue;
      }
      switch (type) {
        case ColumnType::kInteger: {
          i32 v = 0;
          switch (distribution) {
            case 0: v = static_cast<i32>(rng.Next()); break;
            case 1: v = static_cast<i32>(rng.NextBounded(4)); break;
            case 2: v = 42; break;
            case 3: v = static_cast<i32>(r / 100); break;
            case 4: v = INT32_MIN + static_cast<i32>(rng.NextBounded(3)); break;
          }
          column.AppendInt(v);
          break;
        }
        case ColumnType::kDouble: {
          double v = 0;
          switch (distribution) {
            case 0: {
              u64 bits = rng.Next();
              std::memcpy(&v, &bits, 8);
              break;
            }
            case 1: v = static_cast<double>(rng.NextBounded(100)) / 4.0; break;
            case 2: v = -0.0; break;
            case 3: v = static_cast<double>(r % 7) * 1e-3; break;
            case 4: v = rng.NextDouble() * 1e308; break;
          }
          column.AppendDouble(v);
          break;
        }
        case ColumnType::kString: {
          std::string s;
          switch (distribution) {
            case 0: {
              u32 len = static_cast<u32>(rng.NextBounded(40));
              for (u32 i = 0; i < len; i++) {
                s.push_back(static_cast<char>(rng.Next() & 0xFF));
              }
              break;
            }
            case 1: s = "constant value"; break;
            case 2: s = "id-" + std::to_string(rng.NextBounded(10)); break;
            case 3: break;  // empty strings
            case 4: s = std::string(1 + rng.NextBounded(300), 'x'); break;
          }
          column.AppendString(s);
          break;
        }
      }
    }
  }
  return relation;
}

void ExpectEqual(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.columns().size(), b.columns().size());
  ASSERT_EQ(a.row_count(), b.row_count());
  for (size_t c = 0; c < a.columns().size(); c++) {
    const Column& x = a.columns()[c];
    const Column& y = b.columns()[c];
    ASSERT_EQ(x.type(), y.type());
    for (u32 r = 0; r < a.row_count(); r++) {
      ASSERT_EQ(x.IsNull(r), y.IsNull(r)) << "col " << c << " row " << r;
      switch (x.type()) {
        case ColumnType::kInteger:
          ASSERT_EQ(x.ints()[r], y.ints()[r]) << "col " << c << " row " << r;
          break;
        case ColumnType::kDouble: {
          u64 xb, yb;
          std::memcpy(&xb, &x.doubles()[r], 8);
          std::memcpy(&yb, &y.doubles()[r], 8);
          ASSERT_EQ(xb, yb) << "col " << c << " row " << r;
          break;
        }
        case ColumnType::kString:
          ASSERT_EQ(x.GetString(r), y.GetString(r))
              << "col " << c << " row " << r;
          break;
      }
    }
  }
}

class FuzzRoundTripTest : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzRoundTripTest, CompressDecompress) {
  Relation relation = RandomRelation(GetParam());
  CompressionConfig config;
  // Vary the cascade depth with the seed as well.
  config.max_cascade_depth = static_cast<u8>(1 + GetParam() % 4);
  CompressedRelation compressed = CompressRelation(relation, config);
  Relation back = MaterializeRelation(compressed, config);
  ExpectEqual(relation, back);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRoundTripTest,
                         ::testing::Range<u64>(1000, 1024));

TEST(FuzzRoundTripTest, ThroughDiskFormat) {
  Relation relation = RandomRelation(5555);
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(relation, config);
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(WriteCompressedRelation(compressed, dir).ok());
  CompressedRelation loaded;
  ASSERT_TRUE(ReadCompressedRelation(dir, relation.name(), &loaded).ok());
  Relation back = MaterializeRelation(loaded, config);
  ExpectEqual(relation, back);
}

TEST(ProjectionReadTest, SingleColumnFetch) {
  Relation relation = RandomRelation(7777);
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(relation, config);
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(WriteCompressedRelation(compressed, dir).ok());

  TableMeta meta;
  ASSERT_TRUE(ReadTableMeta(dir, relation.name(), &meta).ok());
  ASSERT_EQ(meta.columns.size(), relation.columns().size());
  ASSERT_EQ(meta.row_count, relation.row_count());

  for (size_t c = 0; c < meta.columns.size(); c++) {
    CompressedColumn column;
    ASSERT_TRUE(
        ReadCompressedColumn(dir, relation.name(), meta, c, &column).ok());
    EXPECT_EQ(column.name, relation.columns()[c].name());
    EXPECT_EQ(column.type, relation.columns()[c].type());
    DecodedBlock scratch;
    u64 bytes = DecompressColumn(column, config, &scratch);
    EXPECT_EQ(bytes, relation.columns()[c].UncompressedBytes());
  }
  // Out-of-range projection is rejected.
  CompressedColumn column;
  EXPECT_FALSE(ReadCompressedColumn(dir, relation.name(), meta,
                                    meta.columns.size(), &column)
                   .ok());
}

}  // namespace
}  // namespace btr
