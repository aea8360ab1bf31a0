// Block-level PredicateExpr evaluation on the compressed form.
//
// Leaves are evaluated per root scheme:
//
//   OneValue    O(1): compare the single stored value
//   RLE         O(runs): run arithmetic emits whole ranges
//   Dictionary  evaluate the comparison over the (small) dictionary, then
//               select rows whose code is in the matching-code set — run
//               arithmetic when the code vector is RLE, SIMD IN-scan
//               otherwise
//   Frequency   decide the dominant value once, scan only the exceptions
//   FastBP128   (ints, range ops) simd::SelectBp128Range — per-miniblock
//               frame envelopes prune or whole-accept 128 values at a
//               time, survivors are compared 32 lanes per instruction
//   otherwise   decode the value vector into scratch (no DecodedBlock /
//               null materialization) and run the SIMD compare kernels;
//               strings without a dictionary compare row by row
//
// Payloads are read through the layout readers the decoders use
// (btr/layout.h), and one root-scheme switch (ShapeOf) decides both the
// evaluation and HasFastPath.
//
// NULL semantics: rows under the block's null bitmap store default values
// inside the encodings, so every leaf result is corrected with one
// AndNot(raw, nulls) — no per-scheme special-casing — and the null rows
// become the leaf's UNKNOWN set for Kleene AND/OR/NOT combination.
#include <algorithm>
#include <cstring>
#include <type_traits>

#include "btr/layout.h"
#include "btr/predicate.h"
#include "btr/scheme_picker.h"
#include "btr/simd_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace btr {

namespace {

RoaringBitmap AllRows(u32 count) {
  RoaringBitmap out;
  out.AddRange(0, count);
  out.RunOptimize();
  return out;
}

u64 BitsOf(double d) {
  u64 b;
  std::memcpy(&b, &d, sizeof(u64));
  return b;
}

// --- root-scheme shapes ------------------------------------------------------

// The root-scheme shapes evaluated on the compressed form; every other
// scheme is decoded into scratch first.
enum class Shape { kOneValue, kRle, kDict, kFrequency, kBp128, kDecode };

Shape ShapeOf(ColumnType type, u8 scheme) {
  switch (type) {
    case ColumnType::kInteger:
      switch (static_cast<IntSchemeCode>(scheme)) {
        case IntSchemeCode::kOneValue: return Shape::kOneValue;
        case IntSchemeCode::kRle: return Shape::kRle;
        case IntSchemeCode::kDict: return Shape::kDict;
        case IntSchemeCode::kFrequency: return Shape::kFrequency;
        case IntSchemeCode::kBp128: return Shape::kBp128;
        default: return Shape::kDecode;
      }
    case ColumnType::kDouble:
      switch (static_cast<DoubleSchemeCode>(scheme)) {
        case DoubleSchemeCode::kOneValue: return Shape::kOneValue;
        case DoubleSchemeCode::kRle: return Shape::kRle;
        case DoubleSchemeCode::kDict: return Shape::kDict;
        case DoubleSchemeCode::kFrequency: return Shape::kFrequency;
        default: return Shape::kDecode;
      }
    case ColumnType::kString:
      switch (static_cast<StringSchemeCode>(scheme)) {
        case StringSchemeCode::kOneValue: return Shape::kOneValue;
        case StringSchemeCode::kDict: return Shape::kDict;
        default: return Shape::kDecode;
      }
  }
  return Shape::kDecode;
}

// The (scheme x op) fast-path matrix of docs/PREDICATES.md. Range ops ride
// the FastBP128 miniblock envelopes; IN over bit-packed data does not.
bool IsFastPath(Shape shape, CompareOp op) {
  if (shape == Shape::kBp128) return op != CompareOp::kIn;
  return shape != Shape::kDecode;
}

// --- derived leaf comparison contexts ---------------------------------------

struct IntRange {
  i32 lo = 0;
  i32 hi = 0;
  bool empty = false;
};

IntRange DeriveIntRange(const PredicateExpr& leaf) {
  IntRange r;
  switch (leaf.op) {
    case CompareOp::kEq:
      r.lo = r.hi = leaf.int_lo;
      break;
    case CompareOp::kLt:
      r.empty = leaf.int_lo == INT32_MIN;
      r.lo = INT32_MIN;
      r.hi = r.empty ? INT32_MIN : leaf.int_lo - 1;
      break;
    case CompareOp::kLe:
      r.lo = INT32_MIN;
      r.hi = leaf.int_lo;
      break;
    case CompareOp::kGt:
      r.empty = leaf.int_lo == INT32_MAX;
      r.lo = r.empty ? INT32_MAX : leaf.int_lo + 1;
      r.hi = INT32_MAX;
      break;
    case CompareOp::kGe:
      r.lo = leaf.int_lo;
      r.hi = INT32_MAX;
      break;
    case CompareOp::kBetween:
      r.lo = leaf.int_lo;
      r.hi = leaf.int_hi;
      r.empty = r.lo > r.hi;
      break;
    case CompareOp::kIn:
      break;  // handled through the set, not a range
  }
  return r;
}

struct F64Range {
  double lo = -kDoubleInf;
  double hi = kDoubleInf;
  bool lo_strict = false;
  bool hi_strict = false;
};

F64Range DeriveF64Range(const PredicateExpr& leaf) {
  F64Range r;
  switch (leaf.op) {
    case CompareOp::kLt:
      r.hi = leaf.double_lo;
      r.hi_strict = true;
      break;
    case CompareOp::kLe:
      r.hi = leaf.double_lo;
      break;
    case CompareOp::kGt:
      r.lo = leaf.double_lo;
      r.lo_strict = true;
      break;
    case CompareOp::kGe:
      r.lo = leaf.double_lo;
      break;
    case CompareOp::kBetween:
      r.lo = leaf.double_lo;
      r.hi = leaf.double_hi;
      break;
    default:
      break;
  }
  return r;
}

bool F64RangeMatch(double v, const F64Range& r) {
  bool ge = r.lo_strict ? (v > r.lo) : (v >= r.lo);
  bool le = r.hi_strict ? (v < r.hi) : (v <= r.hi);
  return ge && le;
}

// Precomputed per (leaf, block) evaluation.
struct IntLeafCtx {
  bool is_set;
  IntRange range;
  const std::vector<i32>* set;

  explicit IntLeafCtx(const PredicateExpr& leaf)
      : is_set(leaf.op == CompareOp::kIn),
        range(DeriveIntRange(leaf)),
        set(&leaf.int_set) {}

  bool Match(i32 v) const {
    if (is_set) return std::binary_search(set->begin(), set->end(), v);
    return !range.empty && v >= range.lo && v <= range.hi;
  }

  void SelectDecoded(const i32* values, u32 count, RoaringBitmap* out) const {
    if (is_set) {
      simd::SelectI32Set(values, count, 0, *set, out);
    } else if (!range.empty) {
      simd::SelectI32Range(values, count, 0, range.lo, range.hi, out);
    }
  }
};

struct DoubleLeafCtx {
  bool is_bits;  // kEq / kIn: bit-pattern equality
  F64Range range;
  std::vector<u64> bits;  // sorted bit patterns

  explicit DoubleLeafCtx(const PredicateExpr& leaf)
      : is_bits(leaf.op == CompareOp::kEq || leaf.op == CompareOp::kIn) {
    if (leaf.op == CompareOp::kEq) {
      bits.push_back(BitsOf(leaf.double_lo));
    } else if (leaf.op == CompareOp::kIn) {
      bits.reserve(leaf.double_set.size());
      for (double v : leaf.double_set) bits.push_back(BitsOf(v));
      std::sort(bits.begin(), bits.end());
    } else {
      range = DeriveF64Range(leaf);
    }
  }

  bool Match(double v) const {
    if (is_bits) {
      return std::binary_search(bits.begin(), bits.end(), BitsOf(v));
    }
    return F64RangeMatch(v, range);
  }

  void SelectDecoded(const double* values, u32 count,
                     RoaringBitmap* out) const {
    if (is_bits) {
      simd::SelectF64BitsSet(values, count, 0, bits, out);
    } else {
      simd::SelectF64Range(values, count, 0, range.lo, range.hi,
                           range.lo_strict, range.hi_strict, out);
    }
  }
};

bool MatchString(std::string_view v, const PredicateExpr& leaf) {
  switch (leaf.op) {
    case CompareOp::kEq:
      return v == leaf.string_lo;
    case CompareOp::kLt:
      return v < leaf.string_lo;
    case CompareOp::kLe:
      return v <= leaf.string_lo;
    case CompareOp::kGt:
      return v > leaf.string_lo;
    case CompareOp::kGe:
      return v >= leaf.string_lo;
    case CompareOp::kBetween:
      return v >= leaf.string_lo && v <= leaf.string_hi;
    case CompareOp::kIn:
      return std::binary_search(leaf.string_set.begin(),
                                leaf.string_set.end(), v);
  }
  return false;
}

// --- compressed-form selection ----------------------------------------------

// Rows of the runs whose value satisfies `match`, as whole ranges.
template <typename T, typename MatchFn>
void SelectRuns(const layout::Runs<T>& runs, const MatchFn& match,
                RoaringBitmap* out) {
  u32 position = 0;
  for (u32 r = 0; r < runs.count; r++) {
    u32 length = static_cast<u32>(runs.lengths[r]);
    if (match(runs.values[r])) out->AddRange(position, position + length);
    position += length;
  }
}

// Codes of the dictionary entries that satisfy `matches(code)`, ascending.
template <typename MatchFn>
std::vector<i32> MatchingCodes(size_t dict_count, const MatchFn& matches) {
  std::vector<i32> codes;
  for (u32 d = 0; d < dict_count; d++) {
    if (matches(d)) codes.push_back(static_cast<i32>(d));
  }
  return codes;
}

// Rows whose dictionary code is in `codes` (sorted ascending): run
// arithmetic when the code vector is RLE-compressed, SIMD IN-scan of the
// decoded codes otherwise.
void SelectCodesIn(const u8* codes_vec, u32 count,
                   const std::vector<i32>& codes, RoaringBitmap* out) {
  if (codes.empty()) return;
  if (PeekIntScheme(codes_vec) == IntSchemeCode::kRle) {
    SelectRuns(layout::DecodeRuns<i32>(layout::ReadRle(codes_vec + 1)),
               [&](i32 code) {
                 return std::binary_search(codes.begin(), codes.end(), code);
               },
               out);
    return;
  }
  std::vector<i32> scratch(count + kDecodeSlack);
  DecompressInts(codes_vec, count, scratch.data());
  simd::SelectI32Set(scratch.data(), count, 0, codes, out);
}

// --- per-type leaf kernels ---------------------------------------------------
// Both return raw matches over stored values; null correction happens once
// in the caller.

// T is i32 (Ctx = IntLeafCtx) or double (Ctx = DoubleLeafCtx).
template <typename T, typename Ctx>
RoaringBitmap SelectNumericLeafRaw(const layout::Block& b, Shape shape,
                                   const Ctx& ctx) {
  auto match = [&](T v) { return ctx.Match(v); };
  const u8* payload = b.payload();
  RoaringBitmap out;
  switch (shape) {
    case Shape::kOneValue:
      if (match(layout::ReadOneValue<T>(payload))) out = AllRows(b.count);
      return out;
    case Shape::kRle:
      SelectRuns(layout::DecodeRuns<T>(layout::ReadRle(payload)), match, &out);
      return out;
    case Shape::kDict: {
      layout::Dict<T> dict = layout::ReadDict<T>(payload);
      auto entry_matches = [&](u32 d) { return match(dict.entries[d]); };
      SelectCodesIn(dict.codes, b.count,
                    MatchingCodes(dict.entries.size(), entry_matches), &out);
      return out;
    }
    case Shape::kFrequency: {
      layout::Frequency<T> f = layout::DecodeFrequency<T>(payload);
      if (match(f.top)) {
        out = RoaringBitmap::AndNot(AllRows(b.count), f.positions);
      }
      u32 e = 0;
      f.positions.ForEach([&](u32 position) {
        if (match(f.exceptions[e++])) out.Add(position);
      });
      return out;
    }
    case Shape::kBp128:
      if constexpr (std::is_same_v<T, i32>) {
        if (!ctx.is_set) {
          if (!ctx.range.empty) {
            simd::SelectBp128Range(payload, b.count, 0, ctx.range.lo,
                                   ctx.range.hi, &out);
          }
          return out;
        }
      }
      break;  // IN over bit-packed data: scratch decode
    case Shape::kDecode:
      break;
  }
  std::vector<T> scratch(b.count + kDecodeSlack);
  DecompressValues(b.vector, b.count, scratch.data());
  ctx.SelectDecoded(scratch.data(), b.count, &out);
  return out;
}

RoaringBitmap SelectStringLeafRaw(const layout::Block& b, Shape shape,
                                  const PredicateExpr& leaf,
                                  const CompressionConfig& config) {
  RoaringBitmap out;
  switch (shape) {
    case Shape::kOneValue:
      if (MatchString(layout::ReadOneString(b.payload()), leaf)) {
        out = AllRows(b.count);
      }
      return out;
    case Shape::kDict: {
      layout::StringDict dict = layout::ReadStringDict(b.payload());
      auto entry_matches = [&](u32 d) {
        return MatchString(dict.Entry(d), leaf);
      };
      SelectCodesIn(dict.codes, b.count,
                    MatchingCodes(dict.entries.size(), entry_matches), &out);
      return out;
    }
    default:
      break;
  }
  DecodedStrings strings;
  DecompressStrings(b.vector, b.count, &strings, config);
  for (u32 i = 0; i < b.count; i++) {
    if (MatchString(strings.Get(i), leaf)) out.Add(i);
  }
  return out;
}

// --- Kleene recursion --------------------------------------------------------

u32 CountLeaves(const PredicateExpr& expr) {
  u32 count = 0;
  expr.ForEachLeaf([&](const PredicateExpr&) { count++; });
  return count;
}

// Generic over how a leaf is evaluated, so the compressed-form engine and
// the decoded-reference engine share one Kleene combinator.
template <typename LeafFn>
EvalResult EvalNode(const PredicateExpr& expr, u32 row_count,
                    const LeafFn& eval_leaf, u32* leaf_index) {
  switch (expr.kind) {
    case PredicateExpr::Kind::kNone: {
      EvalResult all;
      all.pass = AllRows(row_count);
      return all;
    }
    case PredicateExpr::Kind::kLeaf: {
      EvalResult r = eval_leaf(expr, *leaf_index);
      (*leaf_index)++;
      return r;
    }
    case PredicateExpr::Kind::kNot: {
      EvalResult child = EvalNode(expr.children[0], row_count, eval_leaf,
                                  leaf_index);
      EvalResult out;
      out.unknown = child.unknown;
      out.pass = RoaringBitmap::AndNot(
          RoaringBitmap::AndNot(AllRows(row_count), child.pass),
          child.unknown);
      return out;
    }
    case PredicateExpr::Kind::kAnd: {
      EvalResult acc;
      acc.pass = AllRows(row_count);
      for (size_t i = 0; i < expr.children.size(); i++) {
        if (acc.pass.Empty() && acc.unknown.Empty()) {
          // FALSE absorbs: skip the rest, keeping leaf numbering aligned.
          *leaf_index += CountLeaves(expr.children[i]);
          continue;
        }
        EvalResult r = EvalNode(expr.children[i], row_count, eval_leaf,
                                leaf_index);
        RoaringBitmap pass = RoaringBitmap::And(acc.pass, r.pass);
        // UNKNOWN where both sides are at least UNKNOWN but not both TRUE.
        RoaringBitmap a = RoaringBitmap::Or(acc.pass, acc.unknown);
        RoaringBitmap b = RoaringBitmap::Or(r.pass, r.unknown);
        acc.unknown = RoaringBitmap::AndNot(RoaringBitmap::And(a, b), pass);
        acc.pass = std::move(pass);
      }
      return acc;
    }
    case PredicateExpr::Kind::kOr: {
      EvalResult acc;
      for (size_t i = 0; i < expr.children.size(); i++) {
        if (acc.pass.Cardinality() == row_count) {
          *leaf_index += CountLeaves(expr.children[i]);  // TRUE absorbs
          continue;
        }
        EvalResult r = EvalNode(expr.children[i], row_count, eval_leaf,
                                leaf_index);
        RoaringBitmap pass = RoaringBitmap::Or(acc.pass, r.pass);
        acc.unknown = RoaringBitmap::AndNot(
            RoaringBitmap::Or(acc.unknown, r.unknown), pass);
        acc.pass = std::move(pass);
      }
      return acc;
    }
  }
  return EvalResult();
}

void CountLeafMetric(bool fast) {
  static obs::Counter& fast_counter =
      obs::Registry::Get().GetCounter("btr.pred.leaf_fast_path");
  static obs::Counter& slow_counter =
      obs::Registry::Get().GetCounter("btr.pred.leaf_materialized");
  (fast ? fast_counter : slow_counter).Add();
}

}  // namespace

EvalResult EvaluateExpr(
    const PredicateExpr& expr, u32 row_count,
    const std::function<const u8*(const std::string&)>& block_of,
    const CompressionConfig& config, std::vector<LeafEvalStats>* leaf_stats) {
  BTR_TRACE_SPAN("btr.pred.eval");
  auto eval_leaf = [&](const PredicateExpr& leaf, u32 index) {
    const u8* block = block_of(leaf.column);
    BTR_CHECK(block != nullptr);
    layout::Block b = layout::ReadBlock(block);
    BTR_CHECK(b.type == leaf.type);
    Shape shape = ShapeOf(b.type, b.scheme());
    RoaringBitmap raw;
    switch (leaf.type) {
      case ColumnType::kInteger:
        raw = SelectNumericLeafRaw<i32>(b, shape, IntLeafCtx(leaf));
        break;
      case ColumnType::kDouble:
        raw = SelectNumericLeafRaw<double>(b, shape, DoubleLeafCtx(leaf));
        break;
      case ColumnType::kString:
        raw = SelectStringLeafRaw(b, shape, leaf, config);
        break;
    }
    raw.RunOptimize();
    bool fast = IsFastPath(shape, leaf.op);
    CountLeafMetric(fast);
    if (leaf_stats != nullptr && index < leaf_stats->size()) {
      ((*leaf_stats)[index].*(fast ? &LeafEvalStats::fast_path
                                   : &LeafEvalStats::materialized))++;
    }
    EvalResult out;
    if (b.null_bytes > 0) {
      // NULL rows store default values inside the encodings; pull them
      // back out of the raw matches and report them as UNKNOWN.
      RoaringBitmap nulls = b.NullRows();
      out.pass = RoaringBitmap::AndNot(raw, nulls);
      out.unknown = std::move(nulls);
    } else {
      out.pass = std::move(raw);
    }
    return out;
  };
  u32 leaf_index = 0;
  return EvalNode(expr, row_count, eval_leaf, &leaf_index);
}

EvalResult EvaluateExprDecoded(
    const PredicateExpr& expr, u32 row_count,
    const std::function<const DecodedBlock*(const std::string&)>& decoded_of) {
  auto eval_leaf = [&](const PredicateExpr& leaf, u32) {
    const DecodedBlock* d = decoded_of(leaf.column);
    BTR_CHECK(d != nullptr);
    BTR_CHECK(d->type == leaf.type);
    EvalResult out;
    // Both ternary operands must be lvalues: IntLeafCtx keeps a pointer
    // into the chosen leaf's int_set, so a prvalue operand would make the
    // ternary copy `leaf` into a temporary and leave the ctx dangling.
    static const PredicateExpr kIntDummy = PredicateExpr::EqualsInt("", 0);
    static const PredicateExpr kDoubleDummy =
        PredicateExpr::EqualsDouble("", 0);
    IntLeafCtx int_ctx(leaf.type == ColumnType::kInteger ? leaf : kIntDummy);
    DoubleLeafCtx double_ctx(leaf.type == ColumnType::kDouble ? leaf
                                                              : kDoubleDummy);
    for (u32 i = 0; i < d->count; i++) {
      if (d->IsNull(i)) {
        out.unknown.Add(i);
        continue;
      }
      bool match = false;
      switch (leaf.type) {
        case ColumnType::kInteger:
          match = int_ctx.Match(d->ints[i]);
          break;
        case ColumnType::kDouble:
          match = double_ctx.Match(d->doubles[i]);
          break;
        case ColumnType::kString:
          match = MatchString(d->strings.Get(i), leaf);
          break;
      }
      if (match) out.pass.Add(i);
    }
    out.pass.RunOptimize();
    out.unknown.RunOptimize();
    return out;
  };
  u32 leaf_index = 0;
  return EvalNode(expr, row_count, eval_leaf, &leaf_index);
}

RoaringBitmap SelectMatches(const u8* block, const PredicateExpr& expr,
                            const CompressionConfig& config) {
  EvalResult r = EvaluateExpr(
      expr, layout::ReadBlock(block).count,
      [block](const std::string&) { return block; }, config, nullptr);
  return std::move(r.pass);
}

u32 CountMatches(const u8* block, const PredicateExpr& expr,
                 const CompressionConfig& config) {
  return static_cast<u32>(SelectMatches(block, expr, config).Cardinality());
}

bool HasFastPath(const u8* block, const PredicateExpr& leaf) {
  layout::Block b = layout::ReadBlock(block);
  return leaf.IsLeaf() && b.type == leaf.type &&
         IsFastPath(ShapeOf(b.type, b.scheme()), leaf.op);
}

}  // namespace btr
