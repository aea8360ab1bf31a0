// Zone map tests: pruning must never skip a block that contains a match
// (soundness) and must skip most blocks on clustered data (effectiveness).
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "btr/btrblocks.h"
#include "btr/predicate.h"
#include "btr/zonemap.h"
#include "hostile_bytes.h"
#include "util/random.h"

namespace btr {
namespace {

TEST(ZoneMapTest, IntZonesSoundAndEffective) {
  // Clustered (sorted) data: each block covers a narrow range.
  Relation relation("t");
  Column& column = relation.AddColumn("x", ColumnType::kInteger);
  constexpr u32 kRows = 4 * kBlockCapacity;
  for (u32 i = 0; i < kRows; i++) column.AppendInt(static_cast<i32>(i));
  ColumnZoneMap map = ComputeColumnZoneMap(column);
  ASSERT_EQ(map.zones.size(), 4u);
  EXPECT_EQ(map.zones[0].int_min, 0);
  EXPECT_EQ(map.zones[0].int_max, static_cast<i32>(kBlockCapacity - 1));

  // A point probe may match exactly one zone.
  i32 probe = 3 * static_cast<i32>(kBlockCapacity) + 17;
  u32 candidate_blocks = 0;
  for (const BlockZone& zone : map.zones) {
    candidate_blocks += ZoneMayOverlapIntRange(zone, probe, probe);
  }
  EXPECT_EQ(candidate_blocks, 1u);
  // Out-of-domain probes match no zone.
  for (const BlockZone& zone : map.zones) {
    EXPECT_FALSE(ZoneMayOverlapIntRange(zone, -5, -5));
    const i32 past_end = static_cast<i32>(kRows) + 1;
    EXPECT_FALSE(ZoneMayOverlapIntRange(zone, past_end, past_end));
  }
  // Range overlap.
  EXPECT_TRUE(ZoneMayOverlapIntRange(map.zones[1],
                                     static_cast<i32>(kBlockCapacity) + 5,
                                     static_cast<i32>(kBlockCapacity) + 9));
  EXPECT_FALSE(ZoneMayOverlapIntRange(map.zones[1], 0, 10));
}

TEST(ZoneMapTest, SoundnessPropertyAgainstCompressedScan) {
  // Property: for random blocks and probes, zone pruning never disagrees
  // with the actual (exact) count being nonzero.
  Random rng(1);
  CompressionConfig config;
  for (int trial = 0; trial < 20; trial++) {
    Relation relation("t");
    Column& column = relation.AddColumn("x", ColumnType::kInteger);
    u32 rows = 1000 + static_cast<u32>(rng.NextBounded(2 * kBlockCapacity));
    i32 base = static_cast<i32>(rng.NextBounded(1000)) - 500;
    for (u32 i = 0; i < rows; i++) {
      if (rng.NextBounded(20) == 0) {
        column.AppendNull();
      } else {
        column.AppendInt(base + static_cast<i32>(rng.NextBounded(100)));
      }
    }
    ColumnZoneMap map = ComputeColumnZoneMap(column);
    CompressedColumn compressed = CompressColumn(column, config);
    ASSERT_EQ(map.zones.size(), compressed.blocks.size());
    for (int p = 0; p < 20; p++) {
      i32 probe = base + static_cast<i32>(rng.NextBounded(140)) - 20;
      for (size_t b = 0; b < compressed.blocks.size(); b++) {
        const PredicateExpr leaf = Predicate::EqualsInt("c", probe);
        u32 matches = CountMatches(compressed.blocks[b].data(), leaf, config);
        if (matches > 0) {
          EXPECT_TRUE(ZoneMayMatchLeaf(map.zones[b], leaf))
              << "pruned a matching block, probe " << probe;
        }
      }
    }
  }
}

TEST(ZoneMapTest, StringPrefixPruning) {
  Relation relation("t");
  Column& column = relation.AddColumn("s", ColumnType::kString);
  const char* values[] = {"berlin", "chicago", "denver", "frankfurt"};
  for (int i = 0; i < 1000; i++) column.AppendString(values[i % 4]);
  ColumnZoneMap map = ComputeColumnZoneMap(column);
  ASSERT_EQ(map.zones.size(), 1u);
  const BlockZone& zone = map.zones[0];
  // A point probe is the closed range [v, v].
  auto point = [&](const char* v) {
    return ZoneMayOverlapStringRange(zone, v, false, v, false);
  };
  EXPECT_TRUE(point("chicago"));
  EXPECT_TRUE(point("berlin"));
  EXPECT_FALSE(point("aachen"));   // < min
  EXPECT_FALSE(point("zurich"));   // > max
  // Inside the range but absent: may-contain must still be true
  // (zone maps are conservative, not exact).
  EXPECT_TRUE(point("dresden"));
}

TEST(ZoneMapTest, LongStringsTruncateConservatively) {
  Relation relation("t");
  Column& column = relation.AddColumn("s", ColumnType::kString);
  column.AppendString("aaaaaaaaaaaaaaaa");  // 16 bytes
  column.AppendString("aaaaaaaazzzzzzzz");
  ColumnZoneMap map = ComputeColumnZoneMap(column);
  const BlockZone& zone = map.zones[0];
  auto point = [&](const char* v) {
    return ZoneMayOverlapStringRange(zone, v, false, v, false);
  };
  // Both share the 8-byte prefix "aaaaaaaa": probes with that prefix must
  // stay candidates regardless of their tails.
  EXPECT_TRUE(point("aaaaaaaammmm"));
  EXPECT_TRUE(point("aaaaaaaa"));
  EXPECT_FALSE(point("ab"));
  EXPECT_FALSE(point("a"));  // < both
}

TEST(ZoneMapTest, DoubleZonesAndNulls) {
  Relation relation("t");
  Column& column = relation.AddColumn("d", ColumnType::kDouble);
  for (int i = 0; i < 100; i++) column.AppendNull();
  ColumnZoneMap all_null = ComputeColumnZoneMap(column);
  EXPECT_TRUE(all_null.zones[0].all_null);
  EXPECT_FALSE(ZoneMayContainDouble(all_null.zones[0], 0.0));

  Relation relation2("t");
  Column& column2 = relation2.AddColumn("d", ColumnType::kDouble);
  column2.AppendDouble(1.5);
  column2.AppendDouble(9.75);
  column2.AppendNull();
  ColumnZoneMap map = ComputeColumnZoneMap(column2);
  EXPECT_EQ(map.zones[0].null_count, 1u);
  EXPECT_TRUE(ZoneMayContainDouble(map.zones[0], 5.0));
  EXPECT_FALSE(ZoneMayContainDouble(map.zones[0], 10.0));
  EXPECT_FALSE(ZoneMayContainDouble(map.zones[0], -1.0));
}

TEST(ZoneMapTest, NaNThenNegativeValues) {
  // Regression: a leading NaN used to consume the "first value" flag
  // without updating min/max, leaving the zone stuck at [0, 0] — a block
  // of {NaN, -5.0} then reported min 0 / max 0 and range scans for
  // negative values pruned a block that contains matches.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation relation("t");
  Column& column = relation.AddColumn("d", ColumnType::kDouble);
  column.AppendDouble(nan);
  column.AppendDouble(-5.0);
  ColumnZoneMap map = ComputeColumnZoneMap(column);
  const BlockZone& zone = map.zones[0];
  EXPECT_EQ(zone.double_min, -5.0);
  EXPECT_EQ(zone.double_max, -5.0);
  EXPECT_TRUE(ZoneMayContainDouble(zone, -5.0));
  EXPECT_TRUE(ZoneMayOverlapDoubleRange(zone, -10.0, 0.0, false, false));
  EXPECT_FALSE(ZoneMayOverlapDoubleRange(zone, 0.0, 10.0, false, false));

  // All-NaN blocks carry the inverted [+inf, -inf] envelope: no ordered
  // comparison can match, so every range probe prunes — even the
  // unbounded one.
  Relation relation2("t");
  Column& all_nan = relation2.AddColumn("d", ColumnType::kDouble);
  all_nan.AppendDouble(nan);
  all_nan.AppendDouble(nan);
  ColumnZoneMap nan_map = ComputeColumnZoneMap(all_nan);
  EXPECT_FALSE(ZoneMayOverlapDoubleRange(nan_map.zones[0], -kDoubleInf,
                                         kDoubleInf, false, false));
  EXPECT_FALSE(ZoneMayContainDouble(nan_map.zones[0], 0.0));

  // A NaN bound makes the predicate unsatisfiable: always prune.
  EXPECT_FALSE(ZoneMayOverlapDoubleRange(zone, nan, 10.0, false, false));
  EXPECT_FALSE(ZoneMayOverlapDoubleRange(zone, -10.0, nan, false, false));
}

TEST(ZoneMapTest, DoubleRangeBoundStrictness) {
  // Zone [1.0, 2.0]. Inclusive vs strict bounds at the zone edges decide
  // keep-vs-prune exactly at the boundary.
  Relation relation("t");
  Column& column = relation.AddColumn("d", ColumnType::kDouble);
  column.AppendDouble(1.0);
  column.AppendDouble(2.0);
  ColumnZoneMap map = ComputeColumnZoneMap(column);
  const BlockZone& zone = map.zones[0];

  // Probe range touching the zone max only at 2.0: x >= 2.0 keeps,
  // x > 2.0 prunes (no stored value can exceed the zone max).
  EXPECT_TRUE(ZoneMayOverlapDoubleRange(zone, 2.0, kDoubleInf, false, false));
  EXPECT_FALSE(ZoneMayOverlapDoubleRange(zone, 2.0, kDoubleInf, true, false));
  // Same at the min: x <= 1.0 keeps, x < 1.0 prunes.
  EXPECT_TRUE(ZoneMayOverlapDoubleRange(zone, -kDoubleInf, 1.0, false, false));
  EXPECT_FALSE(ZoneMayOverlapDoubleRange(zone, -kDoubleInf, 1.0, false, true));
  // Interior ranges keep regardless of strictness.
  EXPECT_TRUE(ZoneMayOverlapDoubleRange(zone, 1.5, 1.6, true, true));
  // Degenerate strict range (lo, lo) is empty: prune.
  EXPECT_FALSE(ZoneMayOverlapDoubleRange(zone, 1.5, 1.5, true, true));
}

TEST(ZoneMapTest, StringRangePrefixBounds) {
  Relation relation("t");
  Column& column = relation.AddColumn("s", ColumnType::kString);
  column.AppendString("berlin");
  column.AppendString("munich");
  ColumnZoneMap map = ComputeColumnZoneMap(column);
  const BlockZone& zone = map.zones[0];

  // Closed ranges overlapping [berlin, munich].
  EXPECT_TRUE(ZoneMayOverlapStringRange(zone, "bonn", false, "denver", false));
  EXPECT_TRUE(ZoneMayOverlapStringRange(zone, "munich", false, "zurich",
                                        false));
  EXPECT_FALSE(ZoneMayOverlapStringRange(zone, "n", false, "z", false));
  EXPECT_FALSE(ZoneMayOverlapStringRange(zone, "a", false, "b", false));
  // Open bounds on either side.
  EXPECT_TRUE(ZoneMayOverlapStringRange(zone, "", true, "c", false));
  EXPECT_TRUE(ZoneMayOverlapStringRange(zone, "m", false, "", true));
  EXPECT_FALSE(ZoneMayOverlapStringRange(zone, "mz", false, "", true));
  // 8-byte-prefix truncation stays conservative: a probe range whose
  // decision depends on bytes past the prefix must keep the block.
  Relation relation2("t");
  Column& long_strings = relation2.AddColumn("s", ColumnType::kString);
  long_strings.AppendString("aaaaaaaabbbb");
  long_strings.AppendString("aaaaaaaccccc");
  ColumnZoneMap long_map = ComputeColumnZoneMap(long_strings);
  EXPECT_TRUE(ZoneMayOverlapStringRange(long_map.zones[0], "aaaaaaaabc",
                                        false, "aaaaaaaabd", false));
}

TEST(ZoneMapTest, ExpressionPruningOverZones) {
  // ZoneMayMatch over a whole expression: AND prunes when any conjunct
  // proves empty, OR only when all disjuncts do, NOT never prunes.
  Relation relation("t");
  Column& column = relation.AddColumn("x", ColumnType::kInteger);
  for (i32 v = 100; v < 200; v++) column.AppendInt(v);
  BlockZone zone = ComputeColumnZoneMap(column).zones[0];

  EXPECT_TRUE(ZoneMayMatch(zone, Predicate::BetweenInt("x", 150, 160)));
  EXPECT_FALSE(ZoneMayMatch(zone, Predicate::BetweenInt("x", 300, 400)));
  EXPECT_FALSE(ZoneMayMatch(
      zone, PredicateExpr::And(Predicate::BetweenInt("x", 150, 160),
                               Predicate::EqualsInt("x", 500))));
  EXPECT_TRUE(ZoneMayMatch(
      zone, PredicateExpr::Or(Predicate::EqualsInt("x", 500),
                              Predicate::EqualsInt("x", 150))));
  EXPECT_FALSE(ZoneMayMatch(
      zone, PredicateExpr::Or(Predicate::EqualsInt("x", 500),
                              Predicate::EqualsInt("x", 600))));
  // NOT (x = 500) is satisfiable in this zone, and zone maps cannot prove
  // the inverse either way: never prune through NOT.
  EXPECT_TRUE(ZoneMayMatch(
      zone, PredicateExpr::Not(Predicate::EqualsInt("x", 150))));
  // Strict comparisons at the zone edge.
  EXPECT_TRUE(ZoneMayMatch(
      zone, Predicate::CompareInt("x", CompareOp::kGe, 199)));
  EXPECT_FALSE(ZoneMayMatch(
      zone, Predicate::CompareInt("x", CompareOp::kGt, 199)));
  EXPECT_TRUE(ZoneMayMatch(
      zone, Predicate::CompareInt("x", CompareOp::kLe, 100)));
  EXPECT_FALSE(ZoneMayMatch(
      zone, Predicate::CompareInt("x", CompareOp::kLt, 100)));
}

// One leaf against one column's single zone.
bool LeafMayMatch(const Column& column, const PredicateExpr& leaf) {
  return ZoneMayMatchLeaf(ComputeColumnZoneMap(column).zones[0], leaf);
}

// Leaf pruning at literals the randomized Kleene test never draws: the
// ends of the i32 domain, infinities and NaN, and strings that reach past
// the zone's 8-byte prefixes.
TEST(ZoneMapTest, LeafPruningAtExtremeLiterals) {
  constexpr i32 kMin = std::numeric_limits<i32>::min();
  constexpr i32 kMax = std::numeric_limits<i32>::max();
  const double inf = kDoubleInf;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto i = [](CompareOp op, i32 v) {
    return Predicate::CompareInt("i", op, v);
  };
  auto d = [](CompareOp op, double v) {
    return Predicate::CompareDouble("d", op, v);
  };
  auto s = [](CompareOp op, const char* v) {
    return Predicate::CompareString("s", op, v);
  };
  using enum CompareOp;

  Column small("i", ColumnType::kInteger);  // zone [-10, 10]
  small.AppendInt(-10);
  small.AppendInt(10);
  EXPECT_FALSE(LeafMayMatch(small, i(kLt, kMin)));
  EXPECT_FALSE(LeafMayMatch(small, i(kLe, kMin)));
  EXPECT_TRUE(LeafMayMatch(small, i(kGt, kMin)));
  EXPECT_FALSE(LeafMayMatch(small, i(kGt, kMax)));
  EXPECT_FALSE(LeafMayMatch(small, i(kGe, kMax)));
  EXPECT_TRUE(LeafMayMatch(small, i(kLt, kMax)));
  EXPECT_FALSE(LeafMayMatch(small, i(kEq, kMin)));
  EXPECT_TRUE(LeafMayMatch(small, Predicate::BetweenInt("i", kMin, kMax)));
  EXPECT_FALSE(LeafMayMatch(small, Predicate::BetweenInt("i", kMax, kMin)));
  EXPECT_FALSE(LeafMayMatch(small, Predicate::InInt("i", {kMin, kMax})));
  EXPECT_TRUE(LeafMayMatch(small, Predicate::InInt("i", {kMin, 0, kMax})));

  Column wide("i", ColumnType::kInteger);  // zone [INT32_MIN, INT32_MAX]
  wide.AppendInt(kMin);
  wide.AppendInt(kMax);
  EXPECT_FALSE(LeafMayMatch(wide, i(kLt, kMin)));
  EXPECT_TRUE(LeafMayMatch(wide, i(kLe, kMin)));
  EXPECT_FALSE(LeafMayMatch(wide, i(kGt, kMax)));
  EXPECT_TRUE(LeafMayMatch(wide, i(kGe, kMax)));
  EXPECT_TRUE(LeafMayMatch(wide, i(kEq, kMax)));
  EXPECT_TRUE(LeafMayMatch(wide, Predicate::InInt("i", {kMin})));

  Column finite("d", ColumnType::kDouble);  // zone [-1.5, 2.5]
  finite.AppendDouble(-1.5);
  finite.AppendDouble(2.5);
  EXPECT_FALSE(LeafMayMatch(finite, d(kLt, -inf)));
  EXPECT_FALSE(LeafMayMatch(finite, d(kLe, -inf)));
  EXPECT_TRUE(LeafMayMatch(finite, d(kGt, -inf)));
  EXPECT_FALSE(LeafMayMatch(finite, d(kGt, inf)));
  EXPECT_FALSE(LeafMayMatch(finite, d(kGe, inf)));
  EXPECT_TRUE(LeafMayMatch(finite, d(kLt, inf)));
  EXPECT_FALSE(LeafMayMatch(finite, d(kEq, inf)));
  EXPECT_TRUE(LeafMayMatch(finite, Predicate::BetweenDouble("d", -inf, inf)));
  EXPECT_FALSE(LeafMayMatch(finite, Predicate::BetweenDouble("d", inf, -inf)));
  EXPECT_FALSE(LeafMayMatch(finite, Predicate::InDouble("d", {-inf, inf})));
  // A NaN probe compares bit patterns, which min/max cannot rule out; a
  // NaN bound of an ordered comparison admits nothing.
  EXPECT_TRUE(LeafMayMatch(finite, d(kEq, nan)));
  EXPECT_TRUE(LeafMayMatch(finite, Predicate::InDouble("d", {inf, nan})));
  EXPECT_FALSE(LeafMayMatch(finite, d(kLt, nan)));
  EXPECT_FALSE(LeafMayMatch(finite, Predicate::BetweenDouble("d", nan, 1.0)));

  Column infinite("d", ColumnType::kDouble);  // zone [-inf, +inf]
  infinite.AppendDouble(-inf);
  infinite.AppendDouble(inf);
  EXPECT_FALSE(LeafMayMatch(infinite, d(kLt, -inf)));
  EXPECT_TRUE(LeafMayMatch(infinite, d(kLe, -inf)));
  EXPECT_FALSE(LeafMayMatch(infinite, d(kGt, inf)));
  EXPECT_TRUE(LeafMayMatch(infinite, d(kGe, inf)));
  EXPECT_TRUE(LeafMayMatch(infinite, d(kEq, -inf)));
  EXPECT_TRUE(LeafMayMatch(infinite, Predicate::InDouble("d", {inf})));

  Column all_nan("d", ColumnType::kDouble);  // inverted [+inf, -inf]
  all_nan.AppendDouble(nan);
  EXPECT_TRUE(LeafMayMatch(all_nan, d(kEq, nan)));
  EXPECT_FALSE(LeafMayMatch(all_nan, d(kEq, inf)));
  EXPECT_FALSE(
      LeafMayMatch(all_nan, Predicate::BetweenDouble("d", -inf, inf)));

  // Both values share the 8-byte prefix "aaaaaaaa", so both stored
  // prefixes are that and count as truncated: a longer literal that shares
  // them cannot be decided and keeps the block, strict bound or not.
  Column strings("s", ColumnType::kString);
  strings.AppendString("aaaaaaaabbbb");
  strings.AppendString("aaaaaaaaffff");
  EXPECT_TRUE(LeafMayMatch(strings, s(kEq, "aaaaaaaazzzz")));
  EXPECT_TRUE(
      LeafMayMatch(strings, Predicate::InString("s", {"aaaaaaaazzzz"})));
  EXPECT_TRUE(LeafMayMatch(strings, s(kGt, "aaaaaaaazzzz")));
  EXPECT_TRUE(LeafMayMatch(strings, s(kLt, "aaaaaaaa0000")));
  EXPECT_TRUE(LeafMayMatch(strings, s(kLt, "aaaaaaaa")));
  EXPECT_TRUE(LeafMayMatch(
      strings, Predicate::BetweenString("s", "aaaaaaaazz", "aaaaaaaazzz")));
  EXPECT_FALSE(LeafMayMatch(
      strings, Predicate::BetweenString("s", "aaaaaaaazzz", "aaaaaaaazz")));
  // A literal that differs inside the prefix is decided by it.
  EXPECT_FALSE(LeafMayMatch(strings, s(kLe, "aaaaaaa")));
  EXPECT_FALSE(LeafMayMatch(strings, s(kGe, "aaaaaaab")));
  EXPECT_FALSE(LeafMayMatch(strings, s(kEq, "aaaaaaabzzzz")));
}

// An int and a string column of 70,000 random rows: two zones each.
TableZoneMap SampleZoneMap() {
  Relation relation("ztable");
  Column& ints = relation.AddColumn("i", ColumnType::kInteger);
  Column& strs = relation.AddColumn("s", ColumnType::kString);
  Random rng(3);
  for (int i = 0; i < 70000; i++) {
    ints.AppendInt(static_cast<i32>(rng.NextBounded(1000)));
    strs.AppendString(
        std::string("v").append(std::to_string(rng.NextBounded(50))));
  }
  TableZoneMap zonemap;
  for (const Column& c : relation.columns()) {
    zonemap.columns.push_back(ComputeColumnZoneMap(c));
  }
  return zonemap;
}

TEST(ZoneMapTest, SidecarRoundTrip) {
  TableZoneMap zonemap = SampleZoneMap();
  ByteBuffer sidecar;
  SerializeTableZoneMap(zonemap, &sidecar);
  TableZoneMap loaded;
  ASSERT_TRUE(ParseTableZoneMap(sidecar.data(), sidecar.size(), &loaded).ok());
  ASSERT_EQ(loaded.columns.size(), 2u);
  ASSERT_EQ(loaded.columns[0].zones.size(), zonemap.columns[0].zones.size());
  // Compare field-by-field: a whole-struct memcmp against the in-memory
  // original would compare indeterminate padding.
  for (size_t c = 0; c < 2; c++) {
    for (size_t z = 0; z < zonemap.columns[c].zones.size(); z++) {
      const BlockZone& got = loaded.columns[c].zones[z];
      const BlockZone& want = zonemap.columns[c].zones[z];
      EXPECT_EQ(got.row_count, want.row_count);
      EXPECT_EQ(got.null_count, want.null_count);
      EXPECT_EQ(got.int_min, want.int_min);
      EXPECT_EQ(got.int_max, want.int_max);
      EXPECT_EQ(got.double_min, want.double_min);
      EXPECT_EQ(got.double_max, want.double_max);
      EXPECT_EQ(std::memcmp(got.string_min, want.string_min, 8), 0);
      EXPECT_EQ(std::memcmp(got.string_max, want.string_max, 8), 0);
      EXPECT_EQ(got.string_min_len, want.string_min_len);
      EXPECT_EQ(got.string_max_len, want.string_max_len);
      EXPECT_EQ(got.all_null, want.all_null);
    }
  }
}

Status ParseZones(const u8* data, size_t size) {
  TableZoneMap zones;
  return ParseTableZoneMap(data, size, &zones);
}

TEST(ZoneMapTest, HostileSidecarIsCorruption) {
  ByteBuffer buffer;
  SerializeTableZoneMap(SampleZoneMap(), &buffer);
  const Bytes sidecar = ToBytes(buffer);
  ASSERT_TRUE(ParseZones(sidecar.data(), sidecar.size()).ok());
  ExpectTruncationsAndMagicCorrupt(ParseZones, sidecar);

  // "BTRZ" | u32 column_count | u8 type | u32 zone_count | 56-byte zones
  // (string_min_len at +48, all_null at +50) ...
  constexpr size_t kZone = 13;
  ExpectCorruption(ParseZones, Restamped<u32>(sidecar, 4, 0xFFFFFFFFu),
                   "column count 0xFFFFFFFF");
  ExpectCorruption(ParseZones, Restamped<u32>(sidecar, 9, 0xFFFFFFFFu),
                   "zone count 0xFFFFFFFF");
  ExpectCorruption(ParseZones, Restamped<u8>(sidecar, 8, 3), "column type 3");
  ExpectCorruption(ParseZones, Restamped<u8>(sidecar, kZone + 50, 2),
                   "all_null byte 2");
  ExpectCorruption(ParseZones, Restamped<u8>(sidecar, kZone + 48, 9),
                   "prefix length 9");
}

}  // namespace
}  // namespace btr
