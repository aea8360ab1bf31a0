// Table generation, query lists and the result oracle.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "datagen/archetypes.h"
#include "exec/thread_pool.h"
#include "lakebench.h"
#include "util/random.h"

namespace btr::lakebench {
namespace {

using datagen::DoubleArchetype;
using datagen::IntArchetype;
using datagen::StringArchetype;

// One column per string archetype except `segmented`, whose random segment
// lengths move its compression ratio by up to 25% between seeds and the
// table's by 4%; a second street-address column takes its place. The
// double and integer archetypes give the predicates a clustered column
// (sequential ids), unclustered ranges, NULLs, runs and a dominant value.
constexpr StringArchetype kStrings[] = {
    StringArchetype::kOneValue,        StringArchetype::kNullHeavy,
    StringArchetype::kLowCardinality,  StringArchetype::kCityNames,
    StringArchetype::kStreetAddresses, StringArchetype::kUrls,
    StringArchetype::kCategoryRuns,    StringArchetype::kStreetAddresses};
constexpr DoubleArchetype kDoubles[] = {DoubleArchetype::kPrice2Decimals,
                                        DoubleArchetype::kPriceRuns,
                                        DoubleArchetype::kMixedWithNulls};
constexpr IntArchetype kInts[] = {IntArchetype::kSequential,
                                  IntArchetype::kForeignKeyRuns,
                                  IntArchetype::kSkewedCategory};

// Column names as MakeLakeTable builds them.
const char* const kClustered = "i_sequential_0";
const char* const kFkRuns = "i_fk_runs_1";
const char* const kPrices = "d_price_2dec_0";
const char* const kPriceRuns = "d_price_runs_1";
const char* const kNullable = "d_mixed_nulls_2";
const char* const kCategories = "s_low_cardinality_2";
const char* const kCities = "s_city_names_3";
const char* const kAddresses = "s_street_addresses_4";
const char* const kUrls = "s_urls_5";

constexpr double kSelectivities[] = {0.001, 0.01, 0.05, 0.2, 0.5};
constexpr u32 kFilterShapes = 9;

const Column& ColumnNamed(const Relation& table, const std::string& name) {
  for (const Column& c : table.columns()) {
    if (c.name() == name) return c;
  }
  BTR_CHECK_MSG(false, "lakebench: unknown column");
  return table.columns()[0];
}

// Hands out column indices so that every column is drawn equally often:
// a seeded shuffle of all columns, reshuffled when used up.
class ColumnDeck {
 public:
  ColumnDeck(u32 columns, Random* rng) : columns_(columns), rng_(rng) {}

  std::vector<u32> Draw(u32 k) {
    std::vector<u32> out;
    while (out.size() < k) {
      if (next_ == deck_.size()) Refill();
      u32 c = deck_[next_++];
      if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
    }
    return out;
  }

 private:
  void Refill() {
    deck_.resize(columns_);
    for (u32 i = 0; i < columns_; i++) deck_[i] = i;
    for (u32 i = columns_; i > 1; i--) {
      std::swap(deck_[i - 1], deck_[rng_->NextBounded(i)]);
    }
    next_ = 0;
  }

  u32 columns_;
  Random* rng_;
  std::vector<u32> deck_;
  size_t next_ = 0;
};

template <typename T>
void Shuffle(std::vector<T>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; i--) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(i)]);
  }
}

// Sorted sample of a column's non-NULL values, for literals that hit a
// target selectivity.
class ColumnSample {
 public:
  ColumnSample(const Column& column, Random* rng) {
    const u32 kSample = 8192;
    for (u32 i = 0; i < kSample; i++) {
      u32 r = static_cast<u32>(rng->NextBounded(column.size()));
      if (column.IsNull(r)) continue;
      switch (column.type()) {
        case ColumnType::kInteger: ints_.push_back(column.ints()[r]); break;
        case ColumnType::kDouble: doubles_.push_back(column.doubles()[r]); break;
        case ColumnType::kString:
          strings_.emplace_back(column.GetString(r));
          break;
      }
    }
    std::sort(ints_.begin(), ints_.end());
    std::sort(doubles_.begin(), doubles_.end());
    std::sort(strings_.begin(), strings_.end());
  }

  template <typename T>
  static const T& At(const std::vector<T>& sorted, double q) {
    size_t i = static_cast<size_t>(q * sorted.size());
    return sorted[std::min(i, sorted.size() - 1)];
  }
  i32 Int(double q) const { return At(ints_, q); }
  double Double(double q) const { return At(doubles_, q); }
  const std::string& String(double q) const { return At(strings_, q); }
  const std::vector<i32>& ints() const { return ints_; }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::vector<i32> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

// Builds filter leaves at a target selectivity from column samples.
class LeafMaker {
 public:
  LeafMaker(const Relation& table, Random* rng)
      : rng_(rng),
        rows_(table.row_count()),
        fk_(ColumnNamed(table, kFkRuns), rng),
        prices_(ColumnNamed(table, kPrices), rng),
        price_runs_(ColumnNamed(table, kPriceRuns), rng),
        nullable_(ColumnNamed(table, kNullable), rng),
        categories_(ColumnNamed(table, kCategories), rng),
        cities_(ColumnNamed(table, kCities), rng),
        addresses_(ColumnNamed(table, kAddresses), rng),
        urls_(ColumnNamed(table, kUrls), rng) {}

  // Start quantile of a window of width s.
  double Start(double s) { return rng_->NextDouble() * (1.0 - s); }

  PredicateExpr ClusteredRange(double s) {
    i32 width = std::max<i32>(1, static_cast<i32>(s * rows_));
    i32 lo = 1 + static_cast<i32>(rng_->NextBounded(rows_ - width + 1));
    return PredicateExpr::BetweenInt(kClustered, lo, lo + width - 1);
  }
  PredicateExpr IntRange(double s) {
    double q = Start(s);
    return PredicateExpr::BetweenInt(kFkRuns, fk_.Int(q), fk_.Int(q + s));
  }
  PredicateExpr IntIn(double s) {
    u32 k = std::clamp<u32>(static_cast<u32>(s * 2000), 1, 256);
    std::vector<i32> values;
    for (u32 i = 0; i < k; i++) {
      values.push_back(fk_.ints()[rng_->NextBounded(fk_.ints().size())]);
    }
    return PredicateExpr::InInt(kFkRuns, std::move(values));
  }
  PredicateExpr DoubleRange(const char* column, const ColumnSample& sample,
                            double s) {
    double q = Start(s);
    return PredicateExpr::BetweenDouble(column, sample.Double(q),
                                        sample.Double(q + s));
  }
  PredicateExpr DoubleBelow(double s) {
    return PredicateExpr::CompareDouble(kPriceRuns, CompareOp::kLt,
                                        price_runs_.Double(s));
  }
  // Adds distinct sampled values until their sample share reaches s.
  PredicateExpr StringIn(double s) {
    bool cities = rng_->NextBounded(2) == 0;
    const ColumnSample& sample = cities ? cities_ : categories_;
    const std::vector<std::string>& values = sample.strings();
    std::vector<std::string> chosen;
    u64 covered = 0;
    for (u32 tries = 0; tries < 64 && covered < s * values.size(); tries++) {
      const std::string& v = values[rng_->NextBounded(values.size())];
      if (std::find(chosen.begin(), chosen.end(), v) != chosen.end()) continue;
      chosen.push_back(v);
      covered += std::upper_bound(values.begin(), values.end(), v) -
                 std::lower_bound(values.begin(), values.end(), v);
    }
    return PredicateExpr::InString(cities ? kCities : kCategories,
                                   std::move(chosen));
  }
  PredicateExpr StringRange(double s) {
    bool urls = rng_->NextBounded(2) == 0;
    const ColumnSample& sample = urls ? urls_ : addresses_;
    double q = Start(s);
    return PredicateExpr::BetweenString(urls ? kUrls : kAddresses,
                                        sample.String(q), sample.String(q + s));
  }

  PredicateExpr Shape(u32 shape, double s) {
    switch (shape) {
      case 0: return ClusteredRange(s);
      case 1: return IntRange(s);
      case 2: return IntIn(s);
      case 3: return DoubleRange(kPrices, prices_, s);
      case 4: return DoubleBelow(s);
      case 5: return StringIn(s);
      case 6: return StringRange(s);
      case 7:
        return PredicateExpr::And(ClusteredRange(std::min(1.0, 2 * s)),
                                  DoubleRange(kNullable, nullable_, 0.5));
      default:
        return PredicateExpr::Or(DoubleRange(kPrices, prices_, s / 2),
                                 StringRange(s / 2));
    }
  }

 private:
  Random* rng_;
  u32 rows_;
  ColumnSample fk_, prices_, price_runs_, nullable_, categories_, cities_,
      addresses_, urls_;
};

std::vector<std::string> Names(const Relation& table,
                               const std::vector<u32>& indices) {
  std::vector<std::string> out;
  for (u32 i : indices) out.push_back(table.columns()[i].name());
  return out;
}

Query FullScan() {
  Query q;
  q.light = false;
  return q;
}

// --- reference evaluation (SQL three-valued logic) -----------------------------

enum Tri : u8 { kFalse = 0, kTrue = 1, kUnknown = 2 };

// Ordered comparison of one value against a leaf's bounds (every op but
// kIn, which each type evaluates itself).
template <typename T>
bool Compare(CompareOp op, const T& v, const T& lo, const T& hi) {
  switch (op) {
    case CompareOp::kEq: return v == lo;
    case CompareOp::kLt: return v < lo;
    case CompareOp::kLe: return v <= lo;
    case CompareOp::kGt: return v > lo;
    case CompareOp::kGe: return v >= lo;
    case CompareOp::kBetween: return lo <= v && v <= hi;
    case CompareOp::kIn: break;
  }
  return false;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void EvalLeaf(const Column& column, const PredicateExpr& leaf,
              std::vector<u8>* out) {
  const u32 rows = column.size();
  out->assign(rows, kFalse);
  for (u32 r = 0; r < rows; r++) {
    if (column.IsNull(r)) {
      (*out)[r] = kUnknown;
      continue;
    }
    bool match = false;
    switch (column.type()) {
      case ColumnType::kInteger: {
        i32 v = column.ints()[r];
        match = leaf.op == CompareOp::kIn
                    ? std::binary_search(leaf.int_set.begin(),
                                         leaf.int_set.end(), v)
                    : Compare(leaf.op, v, leaf.int_lo, leaf.int_hi);
        break;
      }
      case ColumnType::kDouble: {
        double v = column.doubles()[r];
        // Equality and IN compare bit patterns; ordered operators are IEEE.
        if (leaf.op == CompareOp::kEq) {
          match = SameBits(v, leaf.double_lo);
        } else if (leaf.op == CompareOp::kIn) {
          for (double x : leaf.double_set) match = match || SameBits(v, x);
        } else {
          match = Compare(leaf.op, v, leaf.double_lo, leaf.double_hi);
        }
        break;
      }
      case ColumnType::kString: {
        std::string_view v = column.GetString(r);
        if (leaf.op == CompareOp::kIn) {
          for (const std::string& x : leaf.string_set) match = match || v == x;
        } else {
          match = Compare<std::string_view>(leaf.op, v, leaf.string_lo,
                                            leaf.string_hi);
        }
        break;
      }
    }
    (*out)[r] = match ? kTrue : kFalse;
  }
}

void Eval(const Relation& table, const PredicateExpr& expr,
          std::vector<u8>* out) {
  if (expr.kind == PredicateExpr::Kind::kLeaf) {
    EvalLeaf(ColumnNamed(table, expr.column), expr, out);
    return;
  }
  if (expr.kind == PredicateExpr::Kind::kNone) {
    out->assign(table.row_count(), kTrue);
    return;
  }
  Eval(table, expr.children[0], out);
  std::vector<u8> other;
  for (size_t i = 1; i < expr.children.size(); i++) {
    Eval(table, expr.children[i], &other);
    for (size_t r = 0; r < out->size(); r++) {
      u8 a = (*out)[r], b = other[r];
      if (expr.kind == PredicateExpr::Kind::kAnd) {
        (*out)[r] = (a == kFalse || b == kFalse) ? kFalse
                    : (a == kUnknown || b == kUnknown) ? kUnknown
                                                       : kTrue;
      } else {
        (*out)[r] = (a == kTrue || b == kTrue) ? kTrue
                    : (a == kUnknown || b == kUnknown) ? kUnknown
                                                       : kFalse;
      }
    }
  }
  if (expr.kind == PredicateExpr::Kind::kNot) {
    for (u8& v : *out) v = v == kUnknown ? kUnknown : (v == kTrue ? kFalse : kTrue);
  }
}

std::vector<u32> ProjectionIndices(const Relation& table, const Query& query) {
  std::vector<u32> out;
  if (query.columns.empty()) {
    for (u32 c = 0; c < table.columns().size(); c++) out.push_back(c);
    return out;
  }
  for (const std::string& name : query.columns) {
    for (u32 c = 0; c < table.columns().size(); c++) {
      if (table.columns()[c].name() == name) out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Relation MakeLakeTable(u32 rows, u64 seed) {
  Relation relation("lake");
  u32 c = 0;
  for (StringArchetype a : kStrings) {
    Column& column = relation.AddColumn(
        std::string("s_") + datagen::StringArchetypeName(a) + "_" +
            std::to_string(c),
        ColumnType::kString);
    datagen::FillString(&column, a, rows, seed * 131 + c);
    c++;
  }
  c = 0;
  for (DoubleArchetype a : kDoubles) {
    Column& column = relation.AddColumn(
        std::string("d_") + datagen::DoubleArchetypeName(a) + "_" +
            std::to_string(c),
        ColumnType::kDouble);
    datagen::FillDouble(&column, a, rows, seed * 137 + c);
    c++;
  }
  c = 0;
  for (IntArchetype a : kInts) {
    Column& column = relation.AddColumn(
        std::string("i_") + datagen::IntArchetypeName(a) + "_" +
            std::to_string(c),
        ColumnType::kInteger);
    datagen::FillInt(&column, a, rows, seed * 139 + c);
    c++;
  }
  return relation;
}

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

std::vector<Query> MakeProjectionQueries(const Relation& table, u64 seed,
                                         u32 count) {
  Random rng(seed ^ 0xC01DC01Dull);
  ColumnDeck deck(static_cast<u32>(table.columns().size()), &rng);
  std::vector<Query> queries;
  for (u32 i = 0; i < count; i++) {
    if (i % 4 == 3) {
      queries.push_back(FullScan());
      continue;
    }
    Query q;
    q.columns = Names(table, deck.Draw(1 + (i / 4) % 4));
    queries.push_back(std::move(q));
  }
  Shuffle(&queries, &rng);
  return queries;
}

std::vector<Query> MakeFilterQueries(const Relation& table, u64 seed,
                                     u32 count, double full_share) {
  Random rng(seed ^ 0xF117E75ull);
  ColumnDeck deck(static_cast<u32>(table.columns().size()), &rng);
  LeafMaker leaves(table, &rng);
  const u32 full = static_cast<u32>(std::lround(count * full_share));
  std::vector<Query> queries;
  for (u32 i = 0; i < full; i++) queries.push_back(FullScan());
  for (u32 i = 0; i + full < count; i++) {
    Query q;
    q.columns = Names(table, deck.Draw(1 + i % 3));
    q.filter = leaves.Shape(i % kFilterShapes,
                            kSelectivities[(i / kFilterShapes) %
                                           std::size(kSelectivities)]);
    queries.push_back(std::move(q));
  }
  Shuffle(&queries, &rng);
  return queries;
}

std::vector<Query> MakeFullScanQueries(u32 count) {
  return std::vector<Query>(count, FullScan());
}

void ComputeExpected(const Relation& table, std::vector<Query>* queries) {
  exec::ThreadPool pool(kClientThreads);
  exec::ParallelFor(&pool, 0, queries->size(), [&](u64 i) {
    Query& q = (*queries)[i];
    std::vector<u32> read = ProjectionIndices(table, q);
    for (const std::string& name : q.filter.Columns()) {
      for (u32 c = 0; c < table.columns().size(); c++) {
        if (table.columns()[c].name() == name &&
            std::find(read.begin(), read.end(), c) == read.end()) {
          read.push_back(c);
        }
      }
    }
    q.covered_bytes = 0;
    for (u32 c : read) q.covered_bytes += table.columns()[c].UncompressedBytes();
    if (q.filter.Empty()) {
      q.expected_matches = table.row_count();
      return;
    }
    std::vector<u8> mask;
    Eval(table, q.filter, &mask);
    q.expected_matches = std::count(mask.begin(), mask.end(), kTrue);
  });
}

void ScanSink::Consume(const ColumnChunk& chunk) {
  if (chunk.column >= rows_per_column.size()) {
    rows_per_column.resize(chunk.column + 1, 0);
  }
  chunks++;
  if (chunk.outcome == BlockOutcome::kDecoded) {
    if (chunk.values.count != chunk.row_count) shape_ok = false;
    rows_per_column[chunk.column] += chunk.values.count;
    if (chunk.column == 0) {
      selected_rows += filtered ? chunk.selection.Cardinality()
                                : chunk.values.count;
    }
  } else if (chunk.outcome == BlockOutcome::kUnreadable) {
    shape_ok = false;
  }
  if (checker != nullptr) checker->Check(chunk);
}

std::string CheckScan(const Relation& table, const Query& query,
                      const Status& status, const ScanStats& stats,
                      const ScanSink& sink) {
  if (!status.ok()) return status.ToString();
  const size_t projected = ProjectionIndices(table, query).size();
  const u64 blocks = (table.row_count() + kBlockCapacity - 1) / kBlockCapacity;
  if (!sink.shape_ok) return "a chunk was unreadable or short";
  if (sink.chunks != projected * blocks) return "wrong chunk count";
  if (stats.rows_matched != query.expected_matches) {
    return "rows_matched " + std::to_string(stats.rows_matched) +
           " != expected " + std::to_string(query.expected_matches);
  }
  if (sink.selected_rows != query.expected_matches) {
    return "emitted rows " + std::to_string(sink.selected_rows) +
           " != expected " + std::to_string(query.expected_matches);
  }
  for (u64 rows : sink.rows_per_column) {
    if (rows != sink.rows_per_column[0]) return "columns decoded unequal rows";
  }
  if (query.filter.Empty() && sink.rows_per_column[0] != table.row_count()) {
    return "unfiltered scan decoded a partial table";
  }
  return sink.checker != nullptr ? sink.checker->error() : "";
}

ValueChecker::ValueChecker(const Relation& table, const Query& query)
    : table_(table),
      projection_(ProjectionIndices(table, query)),
      filtered_(!query.filter.Empty()) {
  if (filtered_) Eval(table, query.filter, &mask_);
}

void ValueChecker::Check(const ColumnChunk& chunk) {
  if (!error_.empty()) return;
  const std::string where = " in block " + std::to_string(chunk.block) +
                            " column " + std::to_string(chunk.column);
  if (chunk.column >= projection_.size()) {
    error_ = "chunk column out of range";
    return;
  }
  const u64 begin = chunk.row_begin;
  if (chunk.outcome != BlockOutcome::kDecoded) {
    if (!filtered_) {
      error_ = "unfiltered scan did not decode" + where;
      return;
    }
    for (u32 i = 0; i < chunk.row_count; i++) {
      if (mask_[begin + i] == kTrue) {
        error_ = "matching rows dropped" + where;
        return;
      }
    }
    return;
  }
  if (filtered_ && chunk.column == 0) {
    u64 expected = 0;
    for (u32 i = 0; i < chunk.row_count; i++) {
      if (mask_[begin + i] != kTrue) continue;
      expected++;
      if (!chunk.selection.Contains(i)) {
        error_ = "selection misses a row" + where;
        return;
      }
    }
    if (chunk.selection.Cardinality() != expected) {
      error_ = "selection has extra rows" + where;
      return;
    }
  }
  const Column& column = table_.columns()[projection_[chunk.column]];
  const DecodedBlock& values = chunk.values;
  for (u32 i = 0; i < values.count; i++) {
    const u32 r = static_cast<u32>(begin + i);
    if (values.IsNull(i) != column.IsNull(r)) {
      error_ = "NULL flag differs" + where;
      return;
    }
    if (column.IsNull(r)) continue;
    bool same = true;
    switch (column.type()) {
      case ColumnType::kInteger: same = values.ints[i] == column.ints()[r]; break;
      case ColumnType::kDouble:
        same = SameBits(values.doubles[i], column.doubles()[r]);
        break;
      case ColumnType::kString:
        same = values.strings.Get(i) == column.GetString(r);
        break;
    }
    if (!same) {
      error_ = "value differs" + where;
      return;
    }
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  double lo = *std::max_element(values.begin(), values.begin() + mid);
  return (lo + hi) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

}  // namespace btr::lakebench
