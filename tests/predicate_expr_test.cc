// Tests for the composable predicate surface (btr/predicate.h): leaf
// factories and combinators, the --where parser (btr/predicate_parser.h),
// and SQL three-valued semantics — on the compressed form (EvaluateExpr)
// and on decoded blocks (EvaluateExprDecoded), which must agree exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "btr/predicate.h"
#include "btr/predicate_parser.h"
#include "util/random.h"

namespace btr {
namespace {

// --- construction ------------------------------------------------------------

TEST(PredicateExprTest, InSetsAreSortedAndDeduplicated) {
  PredicateExpr e = Predicate::InInt("c", {5, 3, 5, 1, 3});
  EXPECT_EQ(e.int_set, (std::vector<i32>{1, 3, 5}));
  EXPECT_EQ(e.ToString(), "c IN (1, 3, 5)");

  PredicateExpr s = Predicate::InString("s", {"b", "a", "b"});
  EXPECT_EQ(s.string_set, (std::vector<std::string>{"a", "b"}));

  // Doubles dedupe by bit pattern: -0.0 and 0.0 are distinct patterns.
  PredicateExpr d = Predicate::InDouble("d", {0.0, -0.0, 0.0});
  EXPECT_EQ(d.double_set.size(), 2u);
}

TEST(PredicateExprTest, CombinatorsFlattenAndDropEmpty) {
  PredicateExpr a = Predicate::EqualsInt("a", 1);
  PredicateExpr b = Predicate::EqualsInt("b", 2);
  PredicateExpr c = Predicate::EqualsInt("c", 3);

  // AND of zero / all-empty operands is the empty (match-all) expression.
  EXPECT_TRUE(PredicateExpr::And({}).Empty());
  EXPECT_TRUE(PredicateExpr::And(PredicateExpr(), PredicateExpr()).Empty());

  // A single surviving operand is returned directly, not wrapped.
  PredicateExpr single = PredicateExpr::And(PredicateExpr(), a);
  EXPECT_TRUE(single.IsLeaf());
  EXPECT_EQ(single.column, "a");

  // Nested same-kind nodes flatten: AND(AND(a, b), c) has three children.
  PredicateExpr nested =
      PredicateExpr::And(PredicateExpr::And(a, b), c);
  ASSERT_EQ(nested.kind, PredicateExpr::Kind::kAnd);
  EXPECT_EQ(nested.children.size(), 3u);

  // Mixed kinds do not flatten.
  PredicateExpr mixed = PredicateExpr::And(PredicateExpr::Or(a, b), c);
  ASSERT_EQ(mixed.kind, PredicateExpr::Kind::kAnd);
  ASSERT_EQ(mixed.children.size(), 2u);
  EXPECT_EQ(mixed.children[0].kind, PredicateExpr::Kind::kOr);
}

TEST(PredicateExprTest, ColumnsDeduplicatesInFirstUseOrder) {
  PredicateExpr e = PredicateExpr::And(
      PredicateExpr::Or(Predicate::EqualsInt("x", 1),
                        Predicate::EqualsInt("y", 2)),
      Predicate::EqualsInt("x", 3));
  EXPECT_EQ(e.Columns(), (std::vector<std::string>{"x", "y"}));

  u32 leaves = 0;
  e.ForEachLeaf([&](const PredicateExpr&) { leaves++; });
  EXPECT_EQ(leaves, 3u);
}

// --- parser ------------------------------------------------------------------

TEST(PredicateParserTest, ParsesLeavesAndRendersBack) {
  struct Case {
    const char* input;
    const char* rendered;
  };
  const Case cases[] = {
      {"a = 5", "a = 5"},
      {"a == 5", "a = 5"},
      {"a >= 5 AND name IN ('a', 'b')", "a >= 5 AND name IN ('a', 'b')"},
      {"id BETWEEN 10 AND 20", "id BETWEEN 10 AND 20"},
      {"NOT a < 3", "NOT a < 3"},
  };
  for (const Case& c : cases) {
    PredicateExpr e;
    Status status = ParsePredicate(c.input, &e);
    ASSERT_TRUE(status.ok()) << c.input << ": " << status.ToString();
    EXPECT_EQ(e.ToString(), c.rendered) << c.input;
  }
}

TEST(PredicateParserTest, PrecedenceNotThenAndThenOr) {
  PredicateExpr e;
  ASSERT_TRUE(ParsePredicate("a = 1 OR b = 2 AND c = 3", &e).ok());
  ASSERT_EQ(e.kind, PredicateExpr::Kind::kOr);
  ASSERT_EQ(e.children.size(), 2u);
  EXPECT_TRUE(e.children[0].IsLeaf());
  EXPECT_EQ(e.children[1].kind, PredicateExpr::Kind::kAnd);

  // Parentheses override.
  ASSERT_TRUE(ParsePredicate("(a = 1 OR b = 2) AND c = 3", &e).ok());
  ASSERT_EQ(e.kind, PredicateExpr::Kind::kAnd);
  EXPECT_EQ(e.children[0].kind, PredicateExpr::Kind::kOr);

  // NOT binds tighter than AND.
  ASSERT_TRUE(ParsePredicate("NOT a = 1 AND b = 2", &e).ok());
  ASSERT_EQ(e.kind, PredicateExpr::Kind::kAnd);
  EXPECT_EQ(e.children[0].kind, PredicateExpr::Kind::kNot);
}

TEST(PredicateParserTest, NotEqualsAndNotInDesugarToNot) {
  PredicateExpr e;
  ASSERT_TRUE(ParsePredicate("a != 5", &e).ok());
  ASSERT_EQ(e.kind, PredicateExpr::Kind::kNot);
  ASSERT_TRUE(e.children[0].IsLeaf());
  EXPECT_EQ(e.children[0].op, CompareOp::kEq);

  ASSERT_TRUE(ParsePredicate("a <> 5", &e).ok());
  EXPECT_EQ(e.kind, PredicateExpr::Kind::kNot);

  ASSERT_TRUE(ParsePredicate("a NOT IN (1, 2)", &e).ok());
  ASSERT_EQ(e.kind, PredicateExpr::Kind::kNot);
  EXPECT_EQ(e.children[0].op, CompareOp::kIn);
  EXPECT_EQ(e.children[0].int_set, (std::vector<i32>{1, 2}));
}

TEST(PredicateParserTest, LiteralTypingAndPromotion) {
  PredicateExpr e;
  ASSERT_TRUE(ParsePredicate("a = 5", &e).ok());
  EXPECT_EQ(e.type, ColumnType::kInteger);

  ASSERT_TRUE(ParsePredicate("a = 1.5", &e).ok());
  EXPECT_EQ(e.type, ColumnType::kDouble);
  EXPECT_EQ(e.double_lo, 1.5);

  ASSERT_TRUE(ParsePredicate("a = 2e3", &e).ok());
  EXPECT_EQ(e.type, ColumnType::kDouble);
  EXPECT_EQ(e.double_lo, 2000.0);

  ASSERT_TRUE(ParsePredicate("a = 'x'", &e).ok());
  EXPECT_EQ(e.type, ColumnType::kString);

  // Mixed int/double BETWEEN bounds and IN lists promote to double.
  ASSERT_TRUE(ParsePredicate("a BETWEEN 1 AND 2.5", &e).ok());
  EXPECT_EQ(e.type, ColumnType::kDouble);
  EXPECT_EQ(e.double_lo, 1.0);
  EXPECT_EQ(e.double_hi, 2.5);

  ASSERT_TRUE(ParsePredicate("a IN (1, 2.5)", &e).ok());
  EXPECT_EQ(e.type, ColumnType::kDouble);
  EXPECT_EQ(e.double_set.size(), 2u);

  // SQL doubled-quote escape inside string literals.
  ASSERT_TRUE(ParsePredicate("a = 'it''s'", &e).ok());
  EXPECT_EQ(e.string_lo, "it's");
}

TEST(PredicateParserTest, EmptyInputIsEmptyExpression) {
  PredicateExpr e;
  ASSERT_TRUE(ParsePredicate("", &e).ok());
  EXPECT_TRUE(e.Empty());
  ASSERT_TRUE(ParsePredicate("   \t ", &e).ok());
  EXPECT_TRUE(e.Empty());
}

TEST(PredicateParserTest, ErrorsAreInvalidArgumentAndLeaveOutputEmpty) {
  const char* bad[] = {
      "a >",                   // missing literal
      "= 5",                   // missing column
      "a = 5 AND",             // dangling AND
      "a IN ()",               // empty IN list
      "a IN (1, 'x')",         // mixed string/number list
      "a BETWEEN 'x' AND 2",   // mixed BETWEEN bounds
      "a = 'unterminated",     // unterminated string
      "a = 99999999999",       // out of i32 range
      "a ~ 5",                 // unknown operator
      "a = 5 b = 6",           // trailing garbage
  };
  for (const char* input : bad) {
    PredicateExpr e = Predicate::EqualsInt("sentinel", 1);
    Status status = ParsePredicate(input, &e);
    EXPECT_TRUE(status.IsInvalidArgument())
        << input << " -> " << status.ToString();
    EXPECT_TRUE(e.Empty()) << input << " must leave *out empty";
  }
}

// --- three-valued logic on blocks --------------------------------------------

// One compressed int block with NULLs every 7th row. NULL rows store the
// default value 0 inside the encoding, so any engine that forgets the
// null bitmap will wrongly match them with c = 0.
struct NullBlockFixture {
  CompressionConfig config;
  Column column{"c", ColumnType::kInteger};
  CompressedColumn compressed;
  DecodedBlock decoded;
  u32 rows = 1000;

  NullBlockFixture() {
    for (u32 i = 0; i < rows; i++) {
      if (i % 7 == 0) {
        column.AppendNull();
      } else {
        column.AppendInt(static_cast<i32>(i % 10));
      }
    }
    compressed = CompressColumn(column, config);
    DecompressBlock(compressed.blocks[0].data(), &decoded, config);
  }

  EvalResult Eval(const PredicateExpr& expr) const {
    auto block_of = [&](const std::string&) -> const u8* {
      return compressed.blocks[0].data();
    };
    return EvaluateExpr(expr, rows, block_of, config, nullptr);
  }

  EvalResult EvalDecoded(const PredicateExpr& expr) const {
    auto decoded_of = [&](const std::string&) -> const DecodedBlock* {
      return &decoded;
    };
    return EvaluateExprDecoded(expr, rows, decoded_of);
  }
};

void ExpectSameResult(const EvalResult& a, const EvalResult& b,
                      const char* what) {
  EXPECT_EQ(a.pass.ToVector(), b.pass.ToVector())
      << what << ": pass sets differ";
  EXPECT_EQ(a.unknown.ToVector(), b.unknown.ToVector())
      << what << ": unknown sets differ";
}

TEST(PredicateEvalTest, NullRowsAreUnknownNotFalse) {
  NullBlockFixture f;
  // c = 0: NULL rows (which store 0 raw) must be UNKNOWN, not matches.
  EvalResult eq = f.Eval(Predicate::EqualsInt("c", 0));
  for (u32 i = 0; i < f.rows; i++) {
    if (i % 7 == 0) {
      EXPECT_FALSE(eq.pass.Contains(i)) << "null row " << i << " matched";
      EXPECT_TRUE(eq.unknown.Contains(i)) << "null row " << i;
    } else {
      EXPECT_EQ(eq.pass.Contains(i), (i % 10) == 0) << "row " << i;
      EXPECT_FALSE(eq.unknown.Contains(i));
    }
  }
  ExpectSameResult(eq, f.EvalDecoded(Predicate::EqualsInt("c", 0)), "c = 0");
}

TEST(PredicateEvalTest, NotOfUnknownStaysUnknown) {
  NullBlockFixture f;
  // NOT (c = 0): SQL says NOT UNKNOWN = UNKNOWN, so NULL rows still do
  // not pass — the classic "WHERE col <> x drops NULLs" behavior.
  PredicateExpr expr = PredicateExpr::Not(Predicate::EqualsInt("c", 0));
  EvalResult r = f.Eval(expr);
  for (u32 i = 0; i < f.rows; i++) {
    if (i % 7 == 0) {
      EXPECT_FALSE(r.pass.Contains(i)) << "null row " << i;
      EXPECT_TRUE(r.unknown.Contains(i)) << "null row " << i;
    } else {
      EXPECT_EQ(r.pass.Contains(i), (i % 10) != 0) << "row " << i;
    }
  }
  ExpectSameResult(r, f.EvalDecoded(expr), "NOT c = 0");
}

TEST(PredicateEvalTest, KleeneAndOrWithUnknown) {
  NullBlockFixture f;
  // TRUE OR UNKNOWN = TRUE: (c < 100 OR c = 0) is TRUE on every non-null
  // row; on NULL rows both sides are UNKNOWN so the OR stays UNKNOWN.
  PredicateExpr or_expr =
      PredicateExpr::Or(Predicate::CompareInt("c", CompareOp::kLt, 100),
                        Predicate::EqualsInt("c", 0));
  EvalResult o = f.Eval(or_expr);
  for (u32 i = 0; i < f.rows; i++) {
    EXPECT_EQ(o.pass.Contains(i), i % 7 != 0) << "row " << i;
    EXPECT_EQ(o.unknown.Contains(i), i % 7 == 0) << "row " << i;
  }
  ExpectSameResult(o, f.EvalDecoded(or_expr), "OR");

  // (c < 0 AND c = 0): FALSE on every non-null row. On NULL rows both
  // conjuncts are UNKNOWN, and UNKNOWN AND UNKNOWN = UNKNOWN — the rows
  // still do not pass, but they are not FALSE either.
  PredicateExpr and_expr =
      PredicateExpr::And(Predicate::CompareInt("c", CompareOp::kLt, 0),
                         Predicate::EqualsInt("c", 0));
  EvalResult a = f.Eval(and_expr);
  EXPECT_EQ(a.pass.Cardinality(), 0u);
  for (u32 i = 0; i < f.rows; i++) {
    EXPECT_EQ(a.unknown.Contains(i), i % 7 == 0) << "row " << i;
  }
  ExpectSameResult(a, f.EvalDecoded(and_expr), "AND");
}

TEST(PredicateEvalTest, EmptyExpressionMatchesEveryRow) {
  NullBlockFixture f;
  EvalResult r = f.Eval(PredicateExpr());
  EXPECT_EQ(r.pass.Cardinality(), f.rows);
  EXPECT_EQ(r.unknown.Cardinality(), 0u);
}

TEST(PredicateEvalTest, RangeOpsOnCompressedForm) {
  CompressionConfig config;
  Column column("c", ColumnType::kInteger);
  for (u32 i = 0; i < 5000; i++) column.AppendInt(static_cast<i32>(i % 100));
  CompressedColumn compressed = CompressColumn(column, config);
  const u8* block = compressed.blocks[0].data();

  EXPECT_EQ(CountMatches(block, Predicate::CompareInt("c", CompareOp::kLt, 10),
                         config),
            500u);
  EXPECT_EQ(CountMatches(block, Predicate::CompareInt("c", CompareOp::kLe, 10),
                         config),
            550u);
  EXPECT_EQ(CountMatches(block, Predicate::CompareInt("c", CompareOp::kGt, 89),
                         config),
            500u);
  EXPECT_EQ(CountMatches(block, Predicate::CompareInt("c", CompareOp::kGe, 89),
                         config),
            550u);
  EXPECT_EQ(CountMatches(block, Predicate::BetweenInt("c", 10, 19), config),
            500u);
  EXPECT_EQ(CountMatches(block, Predicate::InInt("c", {5, 7, 500}), config),
            100u);
  // Inverted BETWEEN is empty, not a crash.
  EXPECT_EQ(CountMatches(block, Predicate::BetweenInt("c", 19, 10), config),
            0u);
}

TEST(PredicateEvalTest, DoubleOrderedOpsNeverMatchNaN) {
  CompressionConfig config;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column column("d", ColumnType::kDouble);
  column.AppendDouble(1.0);
  column.AppendDouble(nan);
  column.AppendDouble(-1.0);
  column.AppendDouble(nan);
  CompressedColumn compressed = CompressColumn(column, config);
  const u8* block = compressed.blocks[0].data();

  // Ordered comparisons are IEEE-ordered: NaN matches nothing.
  EXPECT_EQ(CountMatches(
                block, Predicate::CompareDouble("d", CompareOp::kLt, 100.0),
                config),
            2u);
  EXPECT_EQ(CountMatches(
                block, Predicate::CompareDouble("d", CompareOp::kGe, -100.0),
                config),
            2u);
  EXPECT_EQ(CountMatches(block, Predicate::BetweenDouble("d", -2.0, 2.0),
                         config),
            2u);
  // Bit-pattern equality does match stored NaNs of identical bits.
  EXPECT_EQ(CountMatches(block, Predicate::EqualsDouble("d", nan), config),
            2u);
}

TEST(PredicateEvalTest, StringRangeAndInOnDictionary) {
  CompressionConfig config;
  Column column("s", ColumnType::kString);
  const char* cities[4] = {"berlin", "munich", "bonn", "hamburg"};
  for (u32 i = 0; i < 2000; i++) column.AppendString(cities[i % 4]);
  CompressedColumn compressed = CompressColumn(column, config);
  const u8* block = compressed.blocks[0].data();

  EXPECT_EQ(CountMatches(block,
                         Predicate::InString("s", {"bonn", "munich", "paris"}),
                         config),
            1000u);
  // Lexicographic range [berlin, bonn] covers berlin and bonn.
  EXPECT_EQ(CountMatches(block, Predicate::BetweenString("s", "berlin", "bonn"),
                         config),
            1000u);
  EXPECT_EQ(CountMatches(
                block, Predicate::CompareString("s", CompareOp::kLt, "bonn"),
                config),
            500u);
}

// --- randomized Kleene logic against a row-at-a-time evaluator ---------------

enum class Truth { kFalse, kTrue, kUnknown };

// One nullable column of each type; `style` varies the value shapes so the
// cascade picks different root schemes (runs, dictionaries, a dominant
// value, a constant, or free values).
struct RandomTable {
  Column ints{"i", ColumnType::kInteger};
  Column doubles{"d", ColumnType::kDouble};
  Column strings{"s", ColumnType::kString};

  RandomTable(u32 rows, u32 style, Random* rng) {
    const double palette[] = {0.5, 1.5, 2.5, -1.0, 0.0, -0.0,
                              std::numeric_limits<double>::quiet_NaN()};
    const char* words[] = {"", "a", "berlin", "bonn", "munich", "zz"};
    auto null = [&] { return rng->NextBounded(8) == 0; };
    for (u32 i = 0; i < rows; i++) {
      // Style 0: runs of 50 rows, 1: one dominant value, 2: a constant,
      // 3: free values.
      u32 pick = static_cast<u32>(rng->NextBounded(7));
      if (style == 0) pick = (i / 50) % 7;
      if (style == 1 && rng->NextBounded(8) != 0) pick = 2;
      if (style == 2) pick = 3;
      if (null()) {
        ints.AppendNull();
      } else {
        ints.AppendInt(style == 3 ? static_cast<i32>(rng->NextRange(-40, 40))
                                  : static_cast<i32>(pick) * 3 - 5);
      }
      if (null()) {
        doubles.AppendNull();
      } else {
        doubles.AppendDouble(palette[pick]);
      }
      if (null()) {
        strings.AppendNull();
      } else {
        strings.AppendString(words[pick % 6]);
      }
    }
  }

  const Column& Of(ColumnType type) const {
    return type == ColumnType::kInteger  ? ints
           : type == ColumnType::kDouble ? doubles
                                         : strings;
  }
};

PredicateExpr RandomLeaf(Random* rng) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kLt, CompareOp::kLe,
                           CompareOp::kGt, CompareOp::kGe};
  const double doubles[] = {0.5, 1.5, -1.0, 0.0, -0.0, 9.0,
                            std::numeric_limits<double>::quiet_NaN()};
  const char* strings[] = {"", "a", "b", "bonn", "munich", "zzz"};
  const u32 shape = static_cast<u32>(rng->NextBounded(7));  // 5: BETWEEN, 6: IN
  const CompareOp op = ops[shape % 5];
  switch (rng->NextBounded(3)) {
    case 0: {
      const i32 a = static_cast<i32>(rng->NextRange(-8, 16));
      const i32 b = static_cast<i32>(rng->NextRange(-8, 16));
      if (shape == 5) return PredicateExpr::BetweenInt("i", a, b);
      if (shape == 6) return PredicateExpr::InInt("i", {a, b, a + 3});
      return PredicateExpr::CompareInt("i", op, a);
    }
    case 1: {
      const double a = doubles[rng->NextBounded(7)];
      const double b = doubles[rng->NextBounded(7)];
      if (shape == 5) return PredicateExpr::BetweenDouble("d", a, b);
      if (shape == 6) return PredicateExpr::InDouble("d", {a, b});
      return PredicateExpr::CompareDouble("d", op, a);
    }
    default: {
      const std::string a = strings[rng->NextBounded(6)];
      const std::string b = strings[rng->NextBounded(6)];
      if (shape == 5) return PredicateExpr::BetweenString("s", a, b);
      if (shape == 6) return PredicateExpr::InString("s", {a, b});
      return PredicateExpr::CompareString("s", op, a);
    }
  }
}

PredicateExpr RandomExpr(Random* rng, int depth) {
  if (depth == 0 || rng->NextBounded(4) == 0) return RandomLeaf(rng);
  const u64 kind = rng->NextBounded(3);
  if (kind == 0) return PredicateExpr::Not(RandomExpr(rng, depth - 1));
  std::vector<PredicateExpr> operands;
  const u64 n = 2 + rng->NextBounded(2);
  for (u64 i = 0; i < n; i++) operands.push_back(RandomExpr(rng, depth - 1));
  return kind == 1 ? PredicateExpr::And(std::move(operands))
                   : PredicateExpr::Or(std::move(operands));
}

u64 BitPattern(double d) {
  u64 bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// SQL semantics written out per row: a NULL operand is UNKNOWN, double
// equality compares bit patterns, ordered comparisons are IEEE-ordered.
Truth LeafTruth(const PredicateExpr& leaf, const RandomTable& table, u32 row) {
  const Column& column = table.Of(leaf.type);
  if (column.IsNull(row)) return Truth::kUnknown;
  auto compare = [&](const auto& v, const auto& lo, const auto& hi,
                     const auto& set, const auto& equal) {
    switch (leaf.op) {
      case CompareOp::kEq: return equal(v, lo);
      case CompareOp::kLt: return v < lo;
      case CompareOp::kLe: return v <= lo;
      case CompareOp::kGt: return v > lo;
      case CompareOp::kGe: return v >= lo;
      case CompareOp::kBetween: return v >= lo && v <= hi;
      case CompareOp::kIn:
        for (const auto& candidate : set) {
          if (equal(v, candidate)) return true;
        }
        return false;
    }
    return false;
  };
  bool match = false;
  switch (leaf.type) {
    case ColumnType::kInteger:
      match = compare(column.ints()[row], leaf.int_lo, leaf.int_hi,
                      leaf.int_set, [](i32 a, i32 b) { return a == b; });
      break;
    case ColumnType::kDouble:
      match = compare(column.doubles()[row], leaf.double_lo, leaf.double_hi,
                      leaf.double_set, [](double a, double b) {
                        return BitPattern(a) == BitPattern(b);
                      });
      break;
    case ColumnType::kString:
      match = compare(std::string(column.GetString(row)), leaf.string_lo,
                      leaf.string_hi, leaf.string_set,
                      [](const std::string& a, const std::string& b) {
                        return a == b;
                      });
      break;
  }
  return match ? Truth::kTrue : Truth::kFalse;
}

Truth RowTruth(const PredicateExpr& expr, const RandomTable& table, u32 row) {
  switch (expr.kind) {
    case PredicateExpr::Kind::kNone:
      return Truth::kTrue;
    case PredicateExpr::Kind::kLeaf:
      return LeafTruth(expr, table, row);
    case PredicateExpr::Kind::kNot: {
      Truth child = RowTruth(expr.children[0], table, row);
      if (child == Truth::kUnknown) return Truth::kUnknown;
      return child == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
    }
    case PredicateExpr::Kind::kAnd: {
      Truth acc = Truth::kTrue;
      for (const PredicateExpr& child : expr.children) {
        Truth t = RowTruth(child, table, row);
        if (t == Truth::kFalse) return Truth::kFalse;
        if (t == Truth::kUnknown) acc = Truth::kUnknown;
      }
      return acc;
    }
    case PredicateExpr::Kind::kOr: {
      Truth acc = Truth::kFalse;
      for (const PredicateExpr& child : expr.children) {
        Truth t = RowTruth(child, table, row);
        if (t == Truth::kTrue) return Truth::kTrue;
        if (t == Truth::kUnknown) acc = Truth::kUnknown;
      }
      return acc;
    }
  }
  return Truth::kFalse;
}

// Random AND/OR/NOT trees of depth <= 3 over nullable int, double and
// string columns. Row counts end mid-word (1, 63, 65, 4097), on a word
// (64) and at a full block (64000), so NOT and OR must keep the bits past
// the row count clear. Zone pruning is checked on the same trees: a tree
// or leaf the columns' zones prune has no TRUE row under the oracle.
TEST(PredicateEvalTest, RandomKleeneTreesMatchRowAtATimeEvaluation) {
  CompressionConfig config;
  Random rng(1606);
  u32 style = 0;
  u32 trees_seen = 0, trees_pruned = 0, leaves_seen = 0, leaves_pruned = 0;
  for (u32 rows : {1u, 63u, 64u, 65u, 4097u, 64000u}) {
    for (int table_trial = 0; table_trial < 2; table_trial++, style++) {
      RandomTable table(rows, style % 4, &rng);
      CompressedColumn ints = CompressColumn(table.ints, config);
      CompressedColumn doubles = CompressColumn(table.doubles, config);
      CompressedColumn strings = CompressColumn(table.strings, config);
      auto block_of = [&](const std::string& name) -> const u8* {
        if (name == "i") return ints.blocks[0].data();
        if (name == "d") return doubles.blocks[0].data();
        return strings.blocks[0].data();
      };
      const BlockZone int_zone = ComputeColumnZoneMap(table.ints).zones[0];
      const BlockZone double_zone =
          ComputeColumnZoneMap(table.doubles).zones[0];
      const BlockZone string_zone =
          ComputeColumnZoneMap(table.strings).zones[0];
      auto zone_of = [&](const std::string& name) -> const BlockZone* {
        if (name == "i") return &int_zone;
        if (name == "d") return &double_zone;
        return &string_zone;
      };
      const int trees = rows > 10000 ? 12 : 40;
      for (int t = 0; t < trees; t++) {
        PredicateExpr expr = RandomExpr(&rng, 3);
        EvalResult got = EvaluateExpr(expr, rows, block_of, config, nullptr);
        std::vector<u32> want_pass, want_unknown;
        for (u32 row = 0; row < rows; row++) {
          Truth truth = RowTruth(expr, table, row);
          if (truth == Truth::kTrue) want_pass.push_back(row);
          if (truth == Truth::kUnknown) want_unknown.push_back(row);
        }
        trees_seen++;
        if (!ZoneMayMatch(expr, zone_of)) {
          trees_pruned++;
          EXPECT_TRUE(want_pass.empty())
              << "zones pruned " << expr.ToString() << ", rows " << rows;
        }
        expr.ForEachLeaf([&](const PredicateExpr& leaf) {
          leaves_seen++;
          if (ZoneMayMatchLeaf(*zone_of(leaf.column), leaf)) return;
          leaves_pruned++;
          u32 true_rows = 0;
          for (u32 row = 0; row < rows; row++) {
            true_rows += LeafTruth(leaf, table, row) == Truth::kTrue;
          }
          EXPECT_EQ(true_rows, 0u)
              << "zone pruned " << leaf.ToString() << ", rows " << rows;
        });
        std::vector<u32> pass = got.pass.ToVector();
        std::vector<u32> unknown = got.unknown.ToVector();
        EXPECT_EQ(pass, want_pass) << expr.ToString() << ", rows " << rows;
        EXPECT_EQ(unknown, want_unknown)
            << expr.ToString() << ", rows " << rows;
        EXPECT_TRUE(pass.empty() || pass.back() < rows) << expr.ToString();
        EXPECT_TRUE(unknown.empty() || unknown.back() < rows)
            << expr.ToString();
      }
    }
  }
  // Pins how much the zones prune, beyond pruning soundly (checked
  // above): a lower count means scans skip fewer row blocks.
  EXPECT_EQ(trees_seen, 424u);
  EXPECT_EQ(trees_pruned, 92u);
  EXPECT_EQ(leaves_seen, 1833u);
  EXPECT_EQ(leaves_pruned, 686u);
}

}  // namespace
}  // namespace btr
