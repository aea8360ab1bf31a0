// Composable predicate expressions — the single filtering surface for
// btr::Scanner, zone-map pruning and block-level evaluation.
//
// A PredicateExpr is a small expression tree: leaf comparisons over typed
// columns (=, <, <=, >, >=, BETWEEN, IN) combined with AND / OR / NOT.
// Three questions are answered against it:
//
//   ZoneMayMatch(expr, zone_of)       can this row block contain a match?
//                                     (conservative pruning from zone maps)
//   SelectMatches(blocks, expr, cfg)  matching row positions of one row
//                                     block as a roaring selection vector,
//                                     evaluated on the *compressed* form
//                                     when the root scheme allows
//                                     (paper Section 7, docs/PREDICATES.md)
//   HasFastPath(block, leaf)          does the block's root scheme admit a
//                                     sub-linear / no-materialization path?
//
// Semantics are SQL three-valued logic: a leaf comparison against a NULL
// row is UNKNOWN, AND/OR/NOT combine by Kleene logic, and the final
// selection keeps only rows where the whole expression is TRUE. Double
// equality (kEq/kIn) compares bit patterns — the storage format is
// lossless down to NaN payloads — while the ordered operators use IEEE
// ordered comparisons, so `x < 5.0` never matches NaN but `x = NaN`
// matches stored NaNs of identical bits.
//
// The legacy single-op `Predicate` (equality only) is now an alias for a
// leaf PredicateExpr; Predicate::EqualsInt / EqualsDouble / EqualsString
// keep compiling unchanged.
#ifndef BTR_BTR_PREDICATE_H_
#define BTR_BTR_PREDICATE_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bitmap/roaring.h"
#include "btr/column.h"
#include "btr/config.h"
#include "btr/datablock.h"
#include "btr/zonemap.h"

namespace btr {

// Leaf comparison operator. kBetween carries both bounds inclusively;
// strict bounds are expressed with kLt/kGt (the builder canonicalizes).
enum class CompareOp : u8 {
  kEq = 0,       // col = v
  kLt = 1,       // col < v
  kLe = 2,       // col <= v
  kGt = 3,       // col > v
  kGe = 4,       // col >= v
  kBetween = 5,  // lo <= col <= hi (inclusive both sides)
  kIn = 6,       // col IN (v0, v1, ...)
};

const char* CompareOpName(CompareOp op);

struct PredicateExpr {
  enum class Kind : u8 {
    kNone = 0,  // empty expression: matches every row (no filtering)
    kLeaf = 1,
    kAnd = 2,
    kOr = 3,
    kNot = 4,
  };

  Kind kind = Kind::kNone;
  std::vector<PredicateExpr> children;  // kAnd/kOr: >=1, kNot: exactly 1

  // --- leaf payload (kind == kLeaf) -----------------------------------------
  // Raw operands as written: single-operand ops (kEq/kLt/kLe/kGt/kGe)
  // carry their value in *_lo (mirrored into *_hi), kBetween carries both
  // bounds, kIn carries the set (sorted + deduplicated by the factory;
  // double sets are ordered by bit pattern to match kEq bit-equality).
  // The evaluation engine derives closed ranges from (op, operands).
  std::string column;
  ColumnType type = ColumnType::kInteger;
  CompareOp op = CompareOp::kEq;
  i32 int_lo = 0;
  i32 int_hi = 0;
  std::vector<i32> int_set;
  double double_lo = 0;
  double double_hi = 0;
  std::vector<double> double_set;
  std::string string_lo;
  std::string string_hi;
  std::vector<std::string> string_set;

  bool Empty() const { return kind == Kind::kNone; }
  bool IsLeaf() const { return kind == Kind::kLeaf; }

  // --- leaf factories -------------------------------------------------------
  static PredicateExpr EqualsInt(std::string column, i32 value);
  static PredicateExpr EqualsDouble(std::string column, double value);
  static PredicateExpr EqualsString(std::string column, std::string value);

  // cmp is one of kLt/kLe/kGt/kGe (kEq also accepted).
  static PredicateExpr CompareInt(std::string column, CompareOp cmp, i32 value);
  static PredicateExpr CompareDouble(std::string column, CompareOp cmp,
                                     double value);
  static PredicateExpr CompareString(std::string column, CompareOp cmp,
                                     std::string value);

  // Inclusive BETWEEN on both sides.
  static PredicateExpr BetweenInt(std::string column, i32 lo, i32 hi);
  static PredicateExpr BetweenDouble(std::string column, double lo, double hi);
  static PredicateExpr BetweenString(std::string column, std::string lo,
                                     std::string hi);

  static PredicateExpr InInt(std::string column, std::vector<i32> values);
  static PredicateExpr InDouble(std::string column, std::vector<double> values);
  static PredicateExpr InString(std::string column,
                                std::vector<std::string> values);

  // --- combinators ----------------------------------------------------------
  // Empty operands are dropped; And()/Or() of zero operands is Empty.
  static PredicateExpr And(std::vector<PredicateExpr> operands);
  static PredicateExpr Or(std::vector<PredicateExpr> operands);
  static PredicateExpr Not(PredicateExpr operand);
  static PredicateExpr And(PredicateExpr a, PredicateExpr b);
  static PredicateExpr Or(PredicateExpr a, PredicateExpr b);

  // Every column name referenced by some leaf, deduplicated, in first-use
  // order.
  std::vector<std::string> Columns() const;

  // Leaves in depth-first order (planning / per-leaf stats identity).
  void ForEachLeaf(const std::function<void(const PredicateExpr&)>& fn) const;

  // Human-readable SQL-ish rendering ("a >= 5 AND b IN ('x', 'y')").
  std::string ToString() const;
};

// Legacy name: the old struct Predicate was a single equality leaf. The
// existing call sites (Predicate::EqualsInt, ...) keep working against the
// leaf subset of PredicateExpr.
using Predicate = PredicateExpr;

// --- zone-map pruning --------------------------------------------------------

// Conservative pruning of one leaf against one block zone: false means no
// row of the block can satisfy the comparison, true means some row may.
bool ZoneMayMatchLeaf(const BlockZone& zone, const PredicateExpr& leaf);

// Whole-expression pruning. `zone_of` maps a column name to that column's
// zone for the block under test (nullptr = no zone known, stay
// conservative). AND prunes when any conjunct proves empty; OR prunes
// only when every disjunct does; NOT never prunes (a zone proves
// existence of *some* matching row only in degenerate cases).
bool ZoneMayMatch(
    const PredicateExpr& expr,
    const std::function<const BlockZone*(const std::string&)>& zone_of);

// Single-zone convenience for one-column expressions (the legacy
// signature): every leaf is checked against `zone`.
bool ZoneMayMatch(const BlockZone& zone, const PredicateExpr& expr);

// --- block-level evaluation --------------------------------------------------

// Kleene evaluation result over one row block: `pass` holds rows where the
// expression is TRUE, `unknown` rows where it is UNKNOWN (some compared
// column is NULL and the comparison outcome cannot be decided). Rows in
// neither set are FALSE. SQL WHERE keeps only `pass`.
struct EvalResult {
  RoaringBitmap pass;
  RoaringBitmap unknown;
};

// Per-leaf evaluation telemetry, keyed by the leaf's depth-first index.
struct LeafEvalStats {
  u64 fast_path = 0;     // evaluated on compressed form without full decode
  u64 materialized = 0;  // fell back to decode-then-compare
};

// Evaluates `expr` over one row block. `block_of` maps a column name to
// the serialized block bytes of that column for this row block (never
// null for a referenced column; the Scanner guarantees this by fetching
// every predicate column). `row_count` is the block's row count.
// `leaf_stats` (optional) must have one entry per depth-first leaf.
EvalResult EvaluateExpr(
    const PredicateExpr& expr, u32 row_count,
    const std::function<const u8*(const std::string&)>& block_of,
    const CompressionConfig& config, std::vector<LeafEvalStats>* leaf_stats);

// Single-block convenience for one-column expressions: every leaf is
// evaluated against `block`. Returns only the TRUE rows.
RoaringBitmap SelectMatches(const u8* block, const PredicateExpr& expr,
                            const CompressionConfig& config);

// Match count of a one-column expression over one block.
u32 CountMatches(const u8* block, const PredicateExpr& expr,
                 const CompressionConfig& config);

// Reference evaluation over already-decoded blocks (decode-then-filter).
// Used by ScanConfig::enable_predicate_pushdown = false and as the oracle
// the SIMD kernels are property-tested against.
EvalResult EvaluateExprDecoded(
    const PredicateExpr& expr, u32 row_count,
    const std::function<const DecodedBlock*(const std::string&)>& decoded_of);

// True when `block`'s root scheme admits a sub-linear / partial-decode
// evaluation for this leaf (no full row materialization). See the
// (scheme x op) support matrix in docs/PREDICATES.md.
bool HasFastPath(const u8* block, const PredicateExpr& leaf);

}  // namespace btr

#endif  // BTR_BTR_PREDICATE_H_
