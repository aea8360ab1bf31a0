// Baseline-format golden test: pins the byte count and CRC32C of whole
// Parquet-like and ORC-like files, so a change to the shared container or
// to either value codec that moves a single written byte fails here.
// Covers seeded Public-BI-like tables, TPC-H lineitem and hand-built
// relations: several row groups / stripes with a short last one, doubles
// with NaN payloads, -0.0, +0.0 and +-inf (dictionary keys are bit
// patterns), all-distinct numeric columns (PLAIN), a string column past
// the 1 MiB dictionary limit (PLAIN fallback), ORC repeat/delta/direct
// runs through INT32_MIN and INT32_MAX, ORC direct and dictionary strings,
// NULL-heavy and all-NULL chunks and a 1-row relation; each under no
// codec, lz77 and entropy_lz. Compression has no SIMD path, so the
// constants hold in every build flavour.
//
// On a mismatch the failure message prints the table line to paste.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "datagen/public_bi.h"
#include "datagen/tpch.h"
#include "lakeformat/orc_like.h"
#include "lakeformat/parquet_like.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace btr::lakeformat {
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

// --- inputs -----------------------------------------------------------------

double FromBits(u64 bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// 10,007 rows written in groups of 4,096: two full groups and a short one.
constexpr u32 kEdgeRows = 10007;
constexpr u32 kEdgeGroupRows = 4096;

Relation EdgeRelation() {
  constexpr i32 kMin = std::numeric_limits<i32>::min();
  constexpr i32 kMax = std::numeric_limits<i32>::max();
  const double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {
      FromBits(0x7FF8000000000000ull),  // quiet NaN
      FromBits(0x7FF8000000000001ull),  // NaN with a payload
      FromBits(0xFFF80000DEADBEEFull),  // negative NaN with a payload
      FromBits(0x7FF0000000000001ull),  // signalling NaN
      -0.0, 0.0, kInf, -kInf, 1.5};
  constexpr u32 kSpecials = sizeof(specials) / sizeof(specials[0]);

  Relation r("edge");
  Column& special = r.AddColumn("d_special", ColumnType::kDouble);
  Column& int_distinct = r.AddColumn("i_distinct", ColumnType::kInteger);
  Column& double_distinct = r.AddColumn("d_distinct", ColumnType::kDouble);
  Column& runs = r.AddColumn("i_runs", ColumnType::kInteger);
  Column& dict_strings = r.AddColumn("s_dict", ColumnType::kString);
  Column& direct_strings = r.AddColumn("s_direct", ColumnType::kString);
  Column& null_heavy = r.AddColumn("i_null_heavy", ColumnType::kInteger);
  Column& null_group = r.AddColumn("d_null_first_group", ColumnType::kDouble);
  Column& all_null = r.AddColumn("s_all_null", ColumnType::kString);
  Random rng(4242);
  for (u32 i = 0; i < kEdgeRows; i++) {
    // Runs of the first special value between noise over all of them.
    special.AppendDouble(i % 100 < 20 ? specials[0]
                                      : specials[(i * 5) % kSpecials]);
    int_distinct.AppendInt(static_cast<i32>(i * 2654435761u));
    double_distinct.AppendDouble(i * 0.001 + 0.5);
    // 64-row segments cycling repeat / delta / direct / delta.
    u32 k = i % 64;
    switch ((i / 64) % 4) {
      case 0: runs.AppendInt(kMin); break;
      case 1: runs.AppendInt(kMax - static_cast<i32>(k) * 3); break;
      case 2:
        runs.AppendInt(k % 7 == 0   ? kMax
                       : k % 7 == 1 ? kMin
                                    : static_cast<i32>(rng.Next()));
        break;
      default: runs.AppendInt(kMin + static_cast<i32>(k) * 1000); break;
    }
    if (i % 10 < 3) {
      dict_strings.AppendNull();
    } else {
      dict_strings.AppendString("city_" + std::to_string((i * i) % 37));
    }
    direct_strings.AppendString("row-" + std::to_string(i * 7919u));
    if (i % 20 == 0) {
      null_heavy.AppendInt(static_cast<i32>(i));
    } else {
      null_heavy.AppendNull();
    }
    if (i < kEdgeGroupRows) {
      null_group.AppendNull();
    } else {
      null_group.AppendDouble(i * 0.25);
    }
    all_null.AppendNull();
  }
  return r;
}

// 30,000 distinct ~45-byte strings: the Parquet dictionary passes 1 MiB
// and falls back to PLAIN; ORC writes them direct.
Relation LongStringsRelation() {
  Relation r("strings");
  Column& c = r.AddColumn("s_unique", ColumnType::kString);
  for (u32 i = 0; i < 30000; i++) {
    c.AppendString("unique_value_" + std::to_string(i * 104729u) +
                   std::string(24, 'x'));
  }
  return r;
}

Relation OneRowRelation() {
  Relation r("one");
  r.AddColumn("i", ColumnType::kInteger).AppendInt(-7);
  r.AddColumn("d", ColumnType::kDouble).AppendDouble(-0.0);
  r.AddColumn("s", ColumnType::kString).AppendString("only");
  return r;
}

struct Input {
  std::string name;
  Relation relation;
  u32 group_rows;  // 0 = the format's default
};

std::vector<Input> Inputs() {
  std::vector<Input> inputs;
  inputs.push_back({"pbi_s1", datagen::MakePublicBiTable("pbi", 70000, 1), 0});
  inputs.push_back({"pbi_s2", datagen::MakePublicBiTable("pbi", 70000, 2), 0});
  datagen::TpchOptions tpch;
  tpch.lineitem_rows = 20000;
  inputs.push_back({"lineitem", datagen::MakeLineitem(tpch), 0});
  inputs.push_back({"edge", EdgeRelation(), kEdgeGroupRows});
  inputs.push_back({"strings", LongStringsRelation(), 0});
  inputs.push_back({"one_row", OneRowRelation(), 0});
  return inputs;
}

struct NamedCodec {
  const char* name;
  gpc::CodecKind kind;
};

constexpr NamedCodec kCodecs[] = {{"none", gpc::CodecKind::kNone},
                                  {"lz77", gpc::CodecKind::kLz77},
                                  {"entropy_lz", gpc::CodecKind::kEntropyLz}};

void Record(std::vector<Actual>* out, std::string name, const ByteBuffer& b) {
  out->push_back({std::move(name), b.size(), Crc32c(b.data(), b.size())});
}

// Reading a file back and writing it again must give the same bytes: every
// value, NULL and NaN payload survived the round trip.
template <typename Options, typename Write, typename Read>
void ExpectRewriteIdentical(const std::string& name, const ByteBuffer& file,
                            const Options& options, Write write, Read read) {
  Relation back("back");
  Status status = read(file.data(), file.size(), &back);
  ASSERT_TRUE(status.ok()) << name << ": " << status.ToString();
  ByteBuffer again = write(back, options);
  EXPECT_TRUE(again.size() == file.size() &&
              std::memcmp(again.data(), file.data(), file.size()) == 0)
      << name << " changed after a read and a rewrite";
}

// --- golden tables ---------------------------------------------------------

const std::vector<Golden> kParquetGolden = {
    {"pbi_s1/none", 11049845, 0x57675a5au},
    {"pbi_s1/lz77", 3444459, 0x83bdf81fu},
    {"pbi_s1/entropy_lz", 2840812, 0x1e51939bu},
    {"pbi_s2/none", 11754073, 0xcdd51fabu},
    {"pbi_s2/lz77", 4157779, 0x7f7fc6f5u},
    {"pbi_s2/entropy_lz", 3515063, 0xaa694b33u},
    {"lineitem/none", 1638686, 0xa39fc2f7u},
    {"lineitem/lz77", 995201, 0xbcce0882u},
    {"lineitem/entropy_lz", 872545, 0xb0468bd4u},
    {"edge/none", 370105, 0xbe1a9a08u},
    {"edge/lz77", 209570, 0x6ea21dd7u},
    {"edge/entropy_lz", 196372, 0x2994caf8u},
    {"strings/none", 1519448, 0x30668dd0u},
    {"strings/lz77", 306966, 0x7016b66eu},
    {"strings/entropy_lz", 244329, 0xd302878fu},
    {"one_row/none", 140, 0xd8036a1du},
    {"one_row/lz77", 143, 0x0190fb5eu},
    {"one_row/entropy_lz", 963, 0xfd1fc9f8u},
};

const std::vector<Golden> kOrcGolden = {
    {"pbi_s1/none", 10276475, 0x45fe2374u},
    {"pbi_s1/lz77", 3343059, 0xfff3f040u},
    {"pbi_s1/entropy_lz", 2902836, 0x95d7b2b8u},
    {"pbi_s2/none", 10415312, 0xf8905ee8u},
    {"pbi_s2/lz77", 4191501, 0xb9ad2a4au},
    {"pbi_s2/entropy_lz", 3719124, 0x22650ad4u},
    {"lineitem/none", 1880138, 0xebeb8804u},
    {"lineitem/lz77", 951316, 0xb4b8cddbu},
    {"lineitem/entropy_lz", 865348, 0xeec5d2bau},
    {"edge/none", 429301, 0x7d4f5e69u},
    {"edge/lz77", 202303, 0xa6412d26u},
    {"edge/entropy_lz", 191294, 0xb02ead31u},
    {"strings/none", 1399479, 0x45c2b017u},
    {"strings/lz77", 301140, 0xbea8430bu},
    {"strings/entropy_lz", 242834, 0x804cf280u},
    {"one_row/none", 148, 0xe760ab64u},
    {"one_row/lz77", 152, 0xb98d3de0u},
    {"one_row/entropy_lz", 964, 0xd8ba459cu},
};

TEST(LakeFormatGoldenTest, ParquetLikeFiles) {
  std::vector<Actual> actual;
  for (const Input& input : Inputs()) {
    for (const NamedCodec& codec : kCodecs) {
      ParquetOptions options;
      options.codec = codec.kind;
      if (input.group_rows != 0) options.rowgroup_rows = input.group_rows;
      std::string name = input.name + "/" + codec.name;
      ByteBuffer file = WriteParquetLike(input.relation, options);
      Record(&actual, name, file);
      ExpectRewriteIdentical(name, file, options, WriteParquetLike,
                             ReadParquetLike);
    }
  }
  ExpectGolden(actual, kParquetGolden);
}

TEST(LakeFormatGoldenTest, OrcLikeFiles) {
  std::vector<Actual> actual;
  for (const Input& input : Inputs()) {
    for (const NamedCodec& codec : kCodecs) {
      OrcOptions options;
      options.codec = codec.kind;
      if (input.group_rows != 0) options.stripe_rows = input.group_rows;
      std::string name = input.name + "/" + codec.name;
      ByteBuffer file = WriteOrcLike(input.relation, options);
      Record(&actual, name, file);
      ExpectRewriteIdentical(name, file, options, WriteOrcLike, ReadOrcLike);
    }
  }
  ExpectGolden(actual, kOrcGolden);
}

}  // namespace
}  // namespace btr::lakeformat
