// PredicateExpr construction, integer-to-double leaf coercion and
// introspection. What a leaf admits — for zone pruning and for block
// evaluation — is decided once, by the leaf contexts in predicate_eval.cc.
#include "btr/predicate.h"

#include <algorithm>
#include <cstring>

namespace btr {

namespace {

PredicateExpr MakeLeaf(std::string column, ColumnType type, CompareOp op) {
  PredicateExpr e;
  e.kind = PredicateExpr::Kind::kLeaf;
  e.column = std::move(column);
  e.type = type;
  e.op = op;
  return e;
}

u64 BitsOf(double d) {
  u64 b;
  std::memcpy(&b, &d, sizeof(u64));
  return b;
}

void SortDedupe(std::vector<i32>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kBetween: return "BETWEEN";
    case CompareOp::kIn: return "IN";
  }
  return "?";
}

// --- leaf factories ----------------------------------------------------------

PredicateExpr PredicateExpr::EqualsInt(std::string column, i32 value) {
  return CompareInt(std::move(column), CompareOp::kEq, value);
}
PredicateExpr PredicateExpr::EqualsDouble(std::string column, double value) {
  return CompareDouble(std::move(column), CompareOp::kEq, value);
}
PredicateExpr PredicateExpr::EqualsString(std::string column,
                                          std::string value) {
  return CompareString(std::move(column), CompareOp::kEq, std::move(value));
}

PredicateExpr PredicateExpr::CompareInt(std::string column, CompareOp cmp,
                                        i32 value) {
  PredicateExpr e = MakeLeaf(std::move(column), ColumnType::kInteger, cmp);
  e.int_lo = value;
  e.int_hi = value;
  return e;
}
PredicateExpr PredicateExpr::CompareDouble(std::string column, CompareOp cmp,
                                           double value) {
  PredicateExpr e = MakeLeaf(std::move(column), ColumnType::kDouble, cmp);
  e.double_lo = value;
  e.double_hi = value;
  return e;
}
PredicateExpr PredicateExpr::CompareString(std::string column, CompareOp cmp,
                                           std::string value) {
  PredicateExpr e = MakeLeaf(std::move(column), ColumnType::kString, cmp);
  e.string_lo = value;
  e.string_hi = std::move(value);
  return e;
}

PredicateExpr PredicateExpr::BetweenInt(std::string column, i32 lo, i32 hi) {
  PredicateExpr e =
      MakeLeaf(std::move(column), ColumnType::kInteger, CompareOp::kBetween);
  e.int_lo = lo;
  e.int_hi = hi;
  return e;
}
PredicateExpr PredicateExpr::BetweenDouble(std::string column, double lo,
                                           double hi) {
  PredicateExpr e =
      MakeLeaf(std::move(column), ColumnType::kDouble, CompareOp::kBetween);
  e.double_lo = lo;
  e.double_hi = hi;
  return e;
}
PredicateExpr PredicateExpr::BetweenString(std::string column, std::string lo,
                                           std::string hi) {
  PredicateExpr e =
      MakeLeaf(std::move(column), ColumnType::kString, CompareOp::kBetween);
  e.string_lo = std::move(lo);
  e.string_hi = std::move(hi);
  return e;
}

PredicateExpr PredicateExpr::InInt(std::string column, std::vector<i32> values) {
  PredicateExpr e =
      MakeLeaf(std::move(column), ColumnType::kInteger, CompareOp::kIn);
  SortDedupe(&values);
  e.int_set = std::move(values);
  return e;
}
PredicateExpr PredicateExpr::InDouble(std::string column,
                                      std::vector<double> values) {
  PredicateExpr e =
      MakeLeaf(std::move(column), ColumnType::kDouble, CompareOp::kIn);
  // Bit-pattern order so the kEq/kIn bit-equality kernels can binary
  // search; also deduplicates bit-identical values (NaN payloads stay
  // distinct on purpose).
  std::sort(values.begin(), values.end(),
            [](double a, double b) { return BitsOf(a) < BitsOf(b); });
  values.erase(std::unique(values.begin(), values.end(),
                           [](double a, double b) {
                             return BitsOf(a) == BitsOf(b);
                           }),
               values.end());
  e.double_set = std::move(values);
  return e;
}
PredicateExpr PredicateExpr::InString(std::string column,
                                      std::vector<std::string> values) {
  PredicateExpr e =
      MakeLeaf(std::move(column), ColumnType::kString, CompareOp::kIn);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  e.string_set = std::move(values);
  return e;
}

PredicateExpr CoerceIntLeafToDouble(const PredicateExpr& leaf) {
  switch (leaf.op) {
    case CompareOp::kEq:
      return PredicateExpr::EqualsDouble(leaf.column, leaf.int_lo);
    case CompareOp::kBetween:
      return PredicateExpr::BetweenDouble(leaf.column, leaf.int_lo,
                                          leaf.int_hi);
    case CompareOp::kIn: {
      std::vector<double> values(leaf.int_set.begin(), leaf.int_set.end());
      return PredicateExpr::InDouble(leaf.column, std::move(values));
    }
    default:
      return PredicateExpr::CompareDouble(leaf.column, leaf.op, leaf.int_lo);
  }
}

// --- combinators -------------------------------------------------------------

namespace {

PredicateExpr Combine(PredicateExpr::Kind kind,
                      std::vector<PredicateExpr> operands) {
  // Drop empties (they match everything: AND identity; for OR an empty
  // operand would make the whole disjunction trivially true, which is
  // never what a builder dropping an unset filter wants) and flatten
  // nested nodes of the same kind.
  std::vector<PredicateExpr> children;
  for (PredicateExpr& operand : operands) {
    if (operand.Empty()) continue;
    if (operand.kind == kind) {
      for (PredicateExpr& grandchild : operand.children) {
        children.push_back(std::move(grandchild));
      }
    } else {
      children.push_back(std::move(operand));
    }
  }
  if (children.empty()) return PredicateExpr();
  if (children.size() == 1) return std::move(children[0]);
  PredicateExpr e;
  e.kind = kind;
  e.children = std::move(children);
  return e;
}

}  // namespace

PredicateExpr PredicateExpr::And(std::vector<PredicateExpr> operands) {
  return Combine(Kind::kAnd, std::move(operands));
}
PredicateExpr PredicateExpr::Or(std::vector<PredicateExpr> operands) {
  return Combine(Kind::kOr, std::move(operands));
}
PredicateExpr PredicateExpr::And(PredicateExpr a, PredicateExpr b) {
  std::vector<PredicateExpr> operands;
  operands.push_back(std::move(a));
  operands.push_back(std::move(b));
  return And(std::move(operands));
}
PredicateExpr PredicateExpr::Or(PredicateExpr a, PredicateExpr b) {
  std::vector<PredicateExpr> operands;
  operands.push_back(std::move(a));
  operands.push_back(std::move(b));
  return Or(std::move(operands));
}
PredicateExpr PredicateExpr::Not(PredicateExpr operand) {
  PredicateExpr e;
  e.kind = Kind::kNot;
  e.children.push_back(std::move(operand));
  return e;
}

// --- introspection -----------------------------------------------------------

void PredicateExpr::ForEachLeaf(
    const std::function<void(const PredicateExpr&)>& fn) const {
  if (IsLeaf()) {
    fn(*this);
    return;
  }
  for (const PredicateExpr& child : children) child.ForEachLeaf(fn);
}

std::vector<std::string> PredicateExpr::Columns() const {
  std::vector<std::string> out;
  ForEachLeaf([&](const PredicateExpr& leaf) {
    if (std::find(out.begin(), out.end(), leaf.column) == out.end()) {
      out.push_back(leaf.column);
    }
  });
  return out;
}

namespace {

std::string QuoteString(const std::string& s) { return "'" + s + "'"; }

void AppendLeaf(const PredicateExpr& e, std::string* out) {
  auto value_str = [&](size_t i) -> std::string {
    switch (e.type) {
      case ColumnType::kInteger:
        return std::to_string(i == 0 ? e.int_lo : e.int_hi);
      case ColumnType::kDouble:
        return std::to_string(i == 0 ? e.double_lo : e.double_hi);
      case ColumnType::kString:
        return QuoteString(i == 0 ? e.string_lo : e.string_hi);
    }
    return "?";
  };
  *out += e.column;
  if (e.op == CompareOp::kBetween) {
    *out += " BETWEEN " + value_str(0) + " AND " + value_str(1);
    return;
  }
  if (e.op == CompareOp::kIn) {
    *out += " IN (";
    bool first = true;
    auto append = [&](const std::string& v) {
      if (!first) *out += ", ";
      *out += v;
      first = false;
    };
    switch (e.type) {
      case ColumnType::kInteger:
        for (i32 v : e.int_set) append(std::to_string(v));
        break;
      case ColumnType::kDouble:
        for (double v : e.double_set) append(std::to_string(v));
        break;
      case ColumnType::kString:
        for (const std::string& v : e.string_set) append(QuoteString(v));
        break;
    }
    *out += ")";
    return;
  }
  *out += std::string(" ") + CompareOpName(e.op) + " " + value_str(0);
}

void AppendExpr(const PredicateExpr& e, std::string* out, bool parenthesize) {
  switch (e.kind) {
    case PredicateExpr::Kind::kNone:
      *out += "TRUE";
      return;
    case PredicateExpr::Kind::kLeaf:
      AppendLeaf(e, out);
      return;
    case PredicateExpr::Kind::kNot:
      *out += "NOT ";
      AppendExpr(e.children[0], out, true);
      return;
    case PredicateExpr::Kind::kAnd:
    case PredicateExpr::Kind::kOr: {
      const char* joiner =
          e.kind == PredicateExpr::Kind::kAnd ? " AND " : " OR ";
      if (parenthesize) *out += "(";
      for (size_t i = 0; i < e.children.size(); i++) {
        if (i != 0) *out += joiner;
        AppendExpr(e.children[i], out, true);
      }
      if (parenthesize) *out += ")";
      return;
    }
  }
}

}  // namespace

std::string PredicateExpr::ToString() const {
  std::string out;
  AppendExpr(*this, &out, false);
  return out;
}

}  // namespace btr
