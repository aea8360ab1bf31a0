// Block-level PredicateExpr evaluation and zone pruning.
//
// Each leaf is interpreted once, by its type's leaf context (IntLeafCtx,
// DoubleLeafCtx, StringLeafCtx): the only code that turns a leaf's (op,
// operands) into the values it admits. A context answers Match(v) for one
// stored value and MayMatch(zone) for one block's zone, so zone pruning
// (ZoneMayMatchLeaf), the compressed-form engine (EvaluateExpr) and the
// decode-then-filter reference (EvaluateExprDecoded) read one derivation.
//
// On the compressed form a row block evaluates into two dense block-local
// word arrays, `pass` and `unknown`: bit i of words[i / 64] is row i
// (util/bits.h). Leaves write their raw matches per root scheme:
//
//   OneValue    O(1): compare the single stored value, fill the block
//   RLE         O(runs): run arithmetic sets whole bit ranges
//   Dictionary  evaluate the comparison once per dictionary entry into a
//               match table (one byte per entry), then select the rows
//               whose code matches — per run when the code vector is RLE,
//               the SIMD IN-scan of the decoded codes when at most 8
//               entries match, one table lookup per row otherwise
//   Frequency   fill the block when the dominant value matches, then clear
//               and re-set only the exception positions
//   FastBP128   (ints, range ops) simd::SelectBp128Range — per-miniblock
//               frame envelopes prune or whole-accept 128 values at a
//               time, survivors are compared 32 lanes per instruction
//   otherwise   decode the value vector into scratch (no DecodedBlock /
//               null materialization) and run the SIMD word kernels;
//               strings without a dictionary compare row by row
//
// Payloads are read through the layout readers the decoders use
// (btr/layout.h), and one root-scheme switch (ShapeOf) decides both the
// evaluation and HasFastPath.
//
// NULL semantics: rows under the block's null bitmap store default values
// inside the encodings, so every leaf result is corrected with one word
// loop — the null bitmap is ORed into `unknown` and cleared from `pass` —
// with no per-scheme special-casing. A leaf over a block without NULLs
// carries no `unknown` words. AND/OR/NOT combine the word pairs by Kleene
// logic, and the block's selection becomes a RoaringBitmap once, when it
// leaves EvaluateExpr.
#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "btr/layout.h"
#include "btr/predicate.h"
#include "btr/scheme_picker.h"
#include "btr/simd_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bits.h"

namespace btr {

namespace {

// One row block's Kleene result: bit i of pass[i / 64] is set when row i
// is TRUE, of unknown[i / 64] when it is UNKNOWN; rows in neither are
// FALSE, and bits at or past the row count are zero. `unknown` is empty
// when no row is UNKNOWN.
struct Words {
  std::vector<u64> pass;
  std::vector<u64> unknown;
};

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

// --- leaf contexts -----------------------------------------------------------
// Built once per (leaf, block) evaluation or zone test. Every MayMatch is
// conservative: false means no value inside the zone is admitted.

// An integer leaf admits one closed interval [lo, hi] — strict bounds
// move by one, and `x < INT32_MIN` / `x > INT32_MAX` admit nothing — or,
// for kIn, the members of its sorted set.
struct IntLeafCtx {
  bool is_set;
  bool empty = false;
  i32 lo = INT32_MIN;
  i32 hi = INT32_MAX;
  const std::vector<i32>* set;

  explicit IntLeafCtx(const PredicateExpr& leaf)
      : is_set(leaf.op == CompareOp::kIn), set(&leaf.int_set) {
    const i32 v = leaf.int_lo;
    switch (leaf.op) {
      case CompareOp::kEq: lo = hi = v; break;
      case CompareOp::kLt:
        empty = v == INT32_MIN;
        if (!empty) hi = v - 1;
        break;
      case CompareOp::kLe: hi = v; break;
      case CompareOp::kGt:
        empty = v == INT32_MAX;
        if (!empty) lo = v + 1;
        break;
      case CompareOp::kGe: lo = v; break;
      case CompareOp::kBetween:
        lo = v;
        hi = leaf.int_hi;
        empty = lo > hi;
        break;
      case CompareOp::kIn: break;
    }
  }

  bool Match(i32 v) const {
    if (is_set) return std::binary_search(set->begin(), set->end(), v);
    return !empty && v >= lo && v <= hi;
  }

  bool MayMatch(const BlockZone& zone) const {
    if (is_set) {
      return std::any_of(set->begin(), set->end(), [&](i32 v) {
        return ZoneMayOverlapIntRange(zone, v, v);
      });
    }
    return !empty && ZoneMayOverlapIntRange(zone, lo, hi);
  }

  // `words` arrive zeroed, so an empty range writes nothing.
  void SelectDecoded(const i32* values, u32 count, u64* words) const {
    if (is_set) {
      simd::SelectI32Set(values, count, *set, words);
    } else if (!empty) {
      simd::SelectI32Range(values, count, lo, hi, words);
    }
  }
};

// A double leaf's kEq / kIn admit the bit patterns of its operands (NaN
// payloads included); the ordered ops admit an IEEE-ordered range whose
// bounds are each strict or not (+-inf for a missing bound), which no NaN
// satisfies.
struct DoubleLeafCtx {
  bool is_bits;
  std::vector<u64> bits;  // sorted bit patterns
  double lo = -kDoubleInf;
  double hi = kDoubleInf;
  bool lo_strict = false;
  bool hi_strict = false;

  explicit DoubleLeafCtx(const PredicateExpr& leaf)
      : is_bits(leaf.op == CompareOp::kEq || leaf.op == CompareOp::kIn) {
    const double v = leaf.double_lo;
    switch (leaf.op) {
      case CompareOp::kEq: bits.push_back(std::bit_cast<u64>(v)); break;
      case CompareOp::kLt: hi = v; hi_strict = true; break;
      case CompareOp::kLe: hi = v; break;
      case CompareOp::kGt: lo = v; lo_strict = true; break;
      case CompareOp::kGe: lo = v; break;
      case CompareOp::kBetween:
        lo = v;
        hi = leaf.double_hi;
        break;
      case CompareOp::kIn:
        bits.reserve(leaf.double_set.size());
        for (double d : leaf.double_set) bits.push_back(std::bit_cast<u64>(d));
        std::sort(bits.begin(), bits.end());
        break;
    }
  }

  bool Match(double v) const {
    if (is_bits) {
      return std::binary_search(bits.begin(), bits.end(),
                                std::bit_cast<u64>(v));
    }
    return (lo_strict ? v > lo : v >= lo) && (hi_strict ? v < hi : v <= hi);
  }

  // A NaN pattern is kept by any zone that is not all NULL: min/max hold
  // no NaN.
  bool MayMatch(const BlockZone& zone) const {
    if (is_bits) {
      return std::any_of(bits.begin(), bits.end(), [&](u64 b) {
        return ZoneMayContainDouble(zone, std::bit_cast<double>(b));
      });
    }
    return ZoneMayOverlapDoubleRange(zone, lo, hi, lo_strict, hi_strict);
  }

  void SelectDecoded(const double* values, u32 count, u64* words) const {
    if (is_bits) {
      simd::SelectF64BitsSet(values, count, bits, words);
    } else {
      simd::SelectF64Range(values, count, lo, hi, lo_strict, hi_strict, words);
    }
  }
};

// A string leaf admits a lexicographic range whose sides are each open,
// closed or strict (kEq is [v, v]), or, for kIn, the members of its
// sorted set. The views point into the leaf.
struct StringLeafCtx {
  enum class Bound : u8 { kOpen, kClosed, kStrict };

  const std::vector<std::string>* set = nullptr;  // kIn only
  std::string_view lo;
  std::string_view hi;
  Bound lo_bound = Bound::kOpen;
  Bound hi_bound = Bound::kOpen;

  explicit StringLeafCtx(const PredicateExpr& leaf) {
    const std::string_view v = leaf.string_lo;
    switch (leaf.op) {
      case CompareOp::kEq:
        lo = hi = v;
        lo_bound = hi_bound = Bound::kClosed;
        break;
      case CompareOp::kLt: hi = v; hi_bound = Bound::kStrict; break;
      case CompareOp::kLe: hi = v; hi_bound = Bound::kClosed; break;
      case CompareOp::kGt: lo = v; lo_bound = Bound::kStrict; break;
      case CompareOp::kGe: lo = v; lo_bound = Bound::kClosed; break;
      case CompareOp::kBetween:
        lo = v;
        hi = leaf.string_hi;
        lo_bound = hi_bound = Bound::kClosed;
        break;
      case CompareOp::kIn: set = &leaf.string_set; break;
    }
  }

  bool Match(std::string_view v) const {
    if (set != nullptr) return std::binary_search(set->begin(), set->end(), v);
    if (lo_bound != Bound::kOpen) {
      const int c = v.compare(lo);
      if (c < 0 || (c == 0 && lo_bound == Bound::kStrict)) return false;
    }
    if (hi_bound != Bound::kOpen) {
      const int c = v.compare(hi);
      if (c > 0 || (c == 0 && hi_bound == Bound::kStrict)) return false;
    }
    return true;
  }

  // The zone's 8-byte prefixes cannot tell a value equal to a bound from
  // one that runs past it, so a strict bound prunes like a closed one.
  bool MayMatch(const BlockZone& zone) const {
    if (set != nullptr) {
      return std::any_of(set->begin(), set->end(), [&](const std::string& v) {
        return ZoneMayOverlapStringRange(zone, v, false, v, false);
      });
    }
    if (lo_bound != Bound::kOpen && hi_bound != Bound::kOpen && lo > hi) {
      return false;  // BETWEEN with crossed bounds
    }
    return ZoneMayOverlapStringRange(zone, lo, lo_bound == Bound::kOpen, hi,
                                     hi_bound == Bound::kOpen);
  }
};

// --- compressed-form selection ----------------------------------------------
// Every kernel below sets the bits of its matching rows in `words`, which
// hold WordCount(count) zeroed words on entry.

// Rows of the runs whose value satisfies `match`, as whole ranges. Runs
// reaching past `count` are cut at `count`.
template <typename T, typename MatchFn>
void SelectRuns(const layout::Runs<T>& runs, u32 count, const MatchFn& match,
                u64* words) {
  u64 position = 0;  // 64-bit: the sum of u32 lengths cannot wrap
  for (u32 r = 0; r < runs.count; r++) {
    const u64 end = position + static_cast<u32>(runs.lengths[r]);
    if (match(runs.values[r]) && position < count) {
      SetBits(words, static_cast<u32>(position),
              static_cast<u32>(std::min<u64>(end, count)));
    }
    position = end;
  }
}

// One byte per dictionary entry: 1 when entry `d` satisfies `matches(d)`.
template <typename MatchFn>
std::vector<u8> MatchTable(size_t dict_count, const MatchFn& matches) {
  std::vector<u8> table(dict_count);
  for (u32 d = 0; d < dict_count; d++) table[d] = matches(d) ? 1 : 0;
  return table;
}

// Rows whose dictionary code's table entry is set: run arithmetic when the
// code vector is RLE-compressed; over the decoded codes, the SIMD IN-scan
// when at most 8 entries match and a table lookup per row beyond. A code
// at or past the table's size never matches, so the table is never read
// out of bounds.
void SelectCodes(const u8* codes_vec, u32 count, const std::vector<u8>& table,
                 u64* words) {
  std::vector<i32> matching;
  for (u32 d = 0; d < table.size(); d++) {
    if (table[d] != 0) matching.push_back(static_cast<i32>(d));
  }
  if (matching.empty()) return;
  auto code_matches = [&](i32 code) {
    return static_cast<u32>(code) < table.size() && table[code] != 0;
  };
  if (PeekIntScheme(codes_vec) == IntSchemeCode::kRle) {
    SelectRuns(layout::DecodeRuns<i32>(layout::ReadRle(codes_vec + 1)), count,
               code_matches, words);
    return;
  }
  auto scratch = std::make_unique_for_overwrite<i32[]>(count + kDecodeSlack);
  DecompressInts(codes_vec, count, scratch.get());
  if (matching.size() <= 8) {
    simd::SelectI32Set(scratch.get(), count, matching, words);
    return;
  }
  WriteBits(0, count, words, [&](u32 i) { return code_matches(scratch[i]); });
}

// --- per-type leaf kernels ---------------------------------------------------
// Both write raw matches over stored values; null correction happens once
// in the caller.

// T is i32 (Ctx = IntLeafCtx) or double (Ctx = DoubleLeafCtx).
template <typename T, typename Ctx>
void SelectNumericLeafRaw(const layout::Block& b, Shape shape, const Ctx& ctx,
                          u64* words) {
  auto match = [&](T v) { return ctx.Match(v); };
  const u8* payload = b.payload();
  switch (shape) {
    case Shape::kOneValue:
      if (match(layout::ReadOneValue<T>(payload))) SetBits(words, 0, b.count);
      return;
    case Shape::kRle:
      SelectRuns(layout::DecodeRuns<T>(layout::ReadRle(payload)), b.count,
                 match, words);
      return;
    case Shape::kDict: {
      layout::Dict<T> dict = layout::ReadDict<T>(payload);
      auto entry_matches = [&](u32 d) { return match(dict.entries[d]); };
      SelectCodes(dict.codes, b.count,
                  MatchTable(dict.entries.size(), entry_matches), words);
      return;
    }
    case Shape::kFrequency: {
      layout::Frequency<T> f = layout::DecodeFrequency<T>(payload);
      const u32 word_count = WordCount(b.count);
      if (match(f.top) && word_count > 0) {
        // Every row but the exceptions holds the dominant value.
        f.positions.OrInto(words, word_count);
        for (u32 w = 0; w < word_count; w++) words[w] = ~words[w];
        words[word_count - 1] &= LastWordMask(b.count);
      }
      u32 e = 0;
      f.positions.ForEach([&](u32 position) {
        if (match(f.exceptions[e++]) && position < b.count) {
          SetBit(words, position);
        }
      });
      return;
    }
    case Shape::kBp128:
      if constexpr (std::is_same_v<T, i32>) {
        if (!ctx.is_set) {
          if (!ctx.empty) {
            simd::SelectBp128Range(payload, b.count, ctx.lo, ctx.hi, words);
          }
          return;
        }
      }
      break;  // IN over bit-packed data: scratch decode
    case Shape::kDecode:
      break;
  }
  // Every value is decoded before it is read: no need to zero 256-512 KiB.
  auto scratch = std::make_unique_for_overwrite<T[]>(b.count + kDecodeSlack);
  DecompressValues(b.vector, b.count, scratch.get());
  ctx.SelectDecoded(scratch.get(), b.count, words);
}

void SelectStringLeafRaw(const layout::Block& b, Shape shape,
                         const StringLeafCtx& ctx,
                         const CompressionConfig& config, u64* words) {
  switch (shape) {
    case Shape::kOneValue:
      if (ctx.Match(layout::ReadOneString(b.payload()))) {
        SetBits(words, 0, b.count);
      }
      return;
    case Shape::kDict: {
      layout::StringDict dict = layout::ReadStringDict(b.payload());
      auto entry_matches = [&](u32 d) { return ctx.Match(dict.Entry(d)); };
      SelectCodes(dict.codes, b.count,
                  MatchTable(dict.entries.size(), entry_matches), words);
      return;
    }
    default:
      break;
  }
  DecodedStrings strings;
  DecompressStrings(b.vector, b.count, &strings, config);
  WriteBits(0, b.count, words,
            [&](u32 i) { return ctx.Match(strings.Get(i)); });
}

// A decoded block's rows where `match(i)` holds; NULL rows are UNKNOWN.
template <typename MatchFn>
Words SelectDecodedRows(const DecodedBlock& d, const MatchFn& match) {
  Words out;
  out.pass.resize(WordCount(d.count));
  if (!d.null_flags.empty()) out.unknown.resize(WordCount(d.count));
  for (u32 i = 0; i < d.count; i++) {
    if (d.IsNull(i)) {
      SetBit(out.unknown.data(), i);
    } else if (match(i)) {
      SetBit(out.pass.data(), i);
    }
  }
  return out;
}

// --- Kleene recursion --------------------------------------------------------

u32 CountLeaves(const PredicateExpr& expr) {
  u32 count = 0;
  expr.ForEachLeaf([&](const PredicateExpr&) { count++; });
  return count;
}

Words AllTrue(u32 row_count) {
  Words all;
  all.pass.resize(WordCount(row_count));
  SetBits(all.pass.data(), 0, row_count);
  return all;
}

bool IsAllFalse(const Words& s) {
  auto zero = [](u64 w) { return w == 0; };
  return std::all_of(s.pass.begin(), s.pass.end(), zero) &&
         std::all_of(s.unknown.begin(), s.unknown.end(), zero);
}

bool IsAllTrue(const Words& s, u32 row_count) {
  for (size_t w = 0; w + 1 < s.pass.size(); w++) {
    if (s.pass[w] != ~u64{0}) return false;
  }
  return s.pass.empty() || s.pass.back() == LastWordMask(row_count);
}

// NOT TRUE = FALSE, NOT FALSE = TRUE, NOT UNKNOWN = UNKNOWN.
void KleeneNot(Words* s, u32 row_count) {
  const size_t n = s->pass.size();
  if (n == 0) return;
  if (s->unknown.empty()) {
    for (size_t w = 0; w < n; w++) s->pass[w] = ~s->pass[w];
  } else {
    for (size_t w = 0; w < n; w++) {
      s->pass[w] = ~(s->pass[w] | s->unknown[w]);
    }
  }
  s->pass[n - 1] &= LastWordMask(row_count);
}

// acc AND r. UNKNOWN where both sides are at least UNKNOWN but not both
// TRUE; since pass and unknown are disjoint that is
// (acc.unknown & (r.pass | r.unknown)) | (acc.pass & r.unknown).
void KleeneAnd(Words* acc, Words&& r) {
  const size_t n = acc->pass.size();
  if (r.unknown.empty()) {
    for (size_t w = 0; w < acc->unknown.size(); w++) {
      acc->unknown[w] &= r.pass[w];
    }
  } else if (acc->unknown.empty()) {
    acc->unknown = std::move(r.unknown);
    for (size_t w = 0; w < n; w++) acc->unknown[w] &= acc->pass[w];
  } else {
    for (size_t w = 0; w < n; w++) {
      acc->unknown[w] = (acc->unknown[w] & (r.pass[w] | r.unknown[w])) |
                        (acc->pass[w] & r.unknown[w]);
    }
  }
  for (size_t w = 0; w < n; w++) acc->pass[w] &= r.pass[w];
}

// acc OR r: TRUE where either side is TRUE, UNKNOWN where either side is
// UNKNOWN and neither is TRUE.
void KleeneOr(Words* acc, Words&& r) {
  const size_t n = acc->pass.size();
  for (size_t w = 0; w < n; w++) acc->pass[w] |= r.pass[w];
  if (!r.unknown.empty()) {
    if (acc->unknown.empty()) {
      acc->unknown = std::move(r.unknown);
    } else {
      for (size_t w = 0; w < n; w++) acc->unknown[w] |= r.unknown[w];
    }
  }
  for (size_t w = 0; w < acc->unknown.size(); w++) {
    acc->unknown[w] &= ~acc->pass[w];
  }
}

// Generic over how a leaf is evaluated, so the compressed-form engine and
// the decoded-reference engine share one Kleene combinator.
template <typename LeafFn>
Words EvalNode(const PredicateExpr& expr, u32 row_count,
               const LeafFn& eval_leaf, u32* leaf_index) {
  switch (expr.kind) {
    case PredicateExpr::Kind::kNone:
      return AllTrue(row_count);
    case PredicateExpr::Kind::kLeaf: {
      Words r = eval_leaf(expr, *leaf_index);
      (*leaf_index)++;
      return r;
    }
    case PredicateExpr::Kind::kNot: {
      Words r = EvalNode(expr.children[0], row_count, eval_leaf, leaf_index);
      KleeneNot(&r, row_count);
      return r;
    }
    case PredicateExpr::Kind::kAnd: {
      std::optional<Words> acc;  // no child yet: TRUE on every row
      for (const PredicateExpr& child : expr.children) {
        if (acc ? IsAllFalse(*acc) : row_count == 0) {
          // FALSE absorbs: skip the rest, keeping leaf numbering aligned.
          *leaf_index += CountLeaves(child);
          continue;
        }
        Words r = EvalNode(child, row_count, eval_leaf, leaf_index);
        if (acc) {
          KleeneAnd(&*acc, std::move(r));
        } else {
          acc = std::move(r);
        }
      }
      return acc ? std::move(*acc) : AllTrue(row_count);
    }
    case PredicateExpr::Kind::kOr: {
      std::optional<Words> acc;  // no child yet: FALSE on every row
      for (const PredicateExpr& child : expr.children) {
        if (acc ? IsAllTrue(*acc, row_count) : row_count == 0) {
          *leaf_index += CountLeaves(child);  // TRUE absorbs
          continue;
        }
        Words r = EvalNode(child, row_count, eval_leaf, leaf_index);
        if (acc) {
          KleeneOr(&*acc, std::move(r));
        } else {
          acc = std::move(r);
        }
      }
      return acc ? std::move(*acc) : Words();
    }
  }
  return Words();
}

// The block's selection leaves the word form here, once.
EvalResult ToEvalResult(const Words& s) {
  EvalResult out;
  out.pass = RoaringBitmap::FromWords(s.pass.data(),
                                      static_cast<u32>(s.pass.size()));
  out.unknown = RoaringBitmap::FromWords(s.unknown.data(),
                                         static_cast<u32>(s.unknown.size()));
  return out;
}

void CountLeafMetric(bool fast) {
  static obs::Counter& fast_counter =
      obs::Registry::Get().GetCounter("btr.pred.leaf_fast_path");
  static obs::Counter& slow_counter =
      obs::Registry::Get().GetCounter("btr.pred.leaf_materialized");
  (fast ? fast_counter : slow_counter).Add();
}

}  // namespace

// --- zone-map pruning --------------------------------------------------------

bool ZoneMayMatchLeaf(const BlockZone& zone, const PredicateExpr& leaf) {
  if (zone.all_null) return false;  // no row can compare TRUE
  switch (leaf.type) {
    case ColumnType::kInteger: return IntLeafCtx(leaf).MayMatch(zone);
    case ColumnType::kDouble: return DoubleLeafCtx(leaf).MayMatch(zone);
    case ColumnType::kString: return StringLeafCtx(leaf).MayMatch(zone);
  }
  return true;
}

bool ZoneMayMatch(
    const PredicateExpr& expr,
    const std::function<const BlockZone*(const std::string&)>& zone_of) {
  switch (expr.kind) {
    case PredicateExpr::Kind::kNone:
      return true;
    case PredicateExpr::Kind::kLeaf: {
      const BlockZone* zone = zone_of(expr.column);
      return zone == nullptr || ZoneMayMatchLeaf(*zone, expr);
    }
    case PredicateExpr::Kind::kAnd:
      for (const PredicateExpr& child : expr.children) {
        if (!ZoneMayMatch(child, zone_of)) return false;
      }
      return true;
    case PredicateExpr::Kind::kOr:
      for (const PredicateExpr& child : expr.children) {
        if (ZoneMayMatch(child, zone_of)) return true;
      }
      return false;
    case PredicateExpr::Kind::kNot:
      // A zone proves absence, never presence: NOT (nothing here) would
      // need "every row matches the child" to prune, which min/max alone
      // cannot establish. Stay conservative.
      return true;
  }
  return true;
}

bool ZoneMayMatch(const BlockZone& zone, const PredicateExpr& expr) {
  return ZoneMayMatch(expr,
                      [&](const std::string&) -> const BlockZone* {
                        return &zone;
                      });
}

// --- block-level evaluation --------------------------------------------------

EvalResult EvaluateExpr(
    const PredicateExpr& expr, u32 row_count,
    const std::function<const u8*(const std::string&)>& block_of,
    const CompressionConfig& config, std::vector<LeafEvalStats>* leaf_stats) {
  BTR_TRACE_SPAN("btr.pred.eval");
  const u32 word_count = WordCount(row_count);
  auto eval_leaf = [&](const PredicateExpr& leaf, u32 index) {
    const u8* block = block_of(leaf.column);
    BTR_CHECK(block != nullptr);
    layout::Block b = layout::ReadBlock(block);
    BTR_CHECK(b.type == leaf.type);
    BTR_CHECK(b.count == row_count);
    Shape shape = ShapeOf(b.type, b.scheme());
    Words out;
    out.pass.resize(word_count);
    switch (leaf.type) {
      case ColumnType::kInteger:
        SelectNumericLeafRaw<i32>(b, shape, IntLeafCtx(leaf), out.pass.data());
        break;
      case ColumnType::kDouble:
        SelectNumericLeafRaw<double>(b, shape, DoubleLeafCtx(leaf),
                                     out.pass.data());
        break;
      case ColumnType::kString:
        SelectStringLeafRaw(b, shape, StringLeafCtx(leaf), config,
                            out.pass.data());
        break;
    }
    bool fast = IsFastPath(shape, leaf.op);
    CountLeafMetric(fast);
    if (leaf_stats != nullptr && index < leaf_stats->size()) {
      ((*leaf_stats)[index].*(fast ? &LeafEvalStats::fast_path
                                   : &LeafEvalStats::materialized))++;
    }
    if (b.null_bytes > 0) {
      // NULL rows store default values inside the encodings; pull them
      // back out of the raw matches and report them as UNKNOWN.
      out.unknown.resize(word_count);
      b.NullRows().OrInto(out.unknown.data(), word_count);
      for (u32 w = 0; w < word_count; w++) out.pass[w] &= ~out.unknown[w];
    }
    return out;
  };
  u32 leaf_index = 0;
  return ToEvalResult(EvalNode(expr, row_count, eval_leaf, &leaf_index));
}

EvalResult EvaluateExprDecoded(
    const PredicateExpr& expr, u32 row_count,
    const std::function<const DecodedBlock*(const std::string&)>& decoded_of) {
  auto eval_leaf = [&](const PredicateExpr& leaf, u32) {
    const DecodedBlock* d = decoded_of(leaf.column);
    BTR_CHECK(d != nullptr);
    BTR_CHECK(d->type == leaf.type);
    BTR_CHECK(d->count == row_count);
    switch (leaf.type) {
      case ColumnType::kInteger: {
        IntLeafCtx ctx(leaf);
        return SelectDecodedRows(
            *d, [&](u32 i) { return ctx.Match(d->ints[i]); });
      }
      case ColumnType::kDouble: {
        DoubleLeafCtx ctx(leaf);
        return SelectDecodedRows(
            *d, [&](u32 i) { return ctx.Match(d->doubles[i]); });
      }
      case ColumnType::kString: {
        StringLeafCtx ctx(leaf);
        return SelectDecodedRows(
            *d, [&](u32 i) { return ctx.Match(d->strings.Get(i)); });
      }
    }
    return Words();
  };
  u32 leaf_index = 0;
  return ToEvalResult(EvalNode(expr, row_count, eval_leaf, &leaf_index));
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
