// Scheme registries and name tables. Each pool lists its schemes in code
// order.
#include <iterator>

#include "btr/column.h"
#include "btr/scheme.h"
#include "btr/schemes/double_schemes.h"
#include "btr/schemes/int_schemes.h"
#include "btr/schemes/numeric_schemes.h"
#include "btr/schemes/string_schemes.h"

namespace btr {

namespace {
template <typename Scheme, typename Code, size_t N>
const Scheme& SchemeAt(const Scheme* const (&pool)[N], Code code) {
  BTR_CHECK_MSG(static_cast<size_t>(code) < N, "invalid scheme code");
  return *pool[static_cast<size_t>(code)];
}
}  // namespace

const IntScheme& GetScheme(IntSchemeCode code) {
  static const IntScheme* const kPool[] = {
      new Uncompressed<i32>(), new OneValue<i32>(), new Rle<i32>(),
      new Dict<i32>(),         new Frequency<i32>(), new IntBp128(),
      new IntPfor()};
  static_assert(std::size(kPool) == kIntSchemeCount);
  return SchemeAt(kPool, code);
}

const DoubleScheme& GetScheme(DoubleSchemeCode code) {
  static const DoubleScheme* const kPool[] = {
      new Uncompressed<double>(), new OneValue<double>(),
      new Rle<double>(),          new Dict<double>(),
      new Frequency<double>(),    new DoublePseudodecimal()};
  static_assert(std::size(kPool) == kDoubleSchemeCount);
  return SchemeAt(kPool, code);
}

const StringScheme& GetScheme(StringSchemeCode code) {
  static const StringScheme* const kPool[] = {
      new StringUncompressed(), new StringOneValue(), new StringDict(),
      new StringFsst(), new StringDictFsst()};
  static_assert(std::size(kPool) == kStringSchemeCount);
  return SchemeAt(kPool, code);
}

const char* IntSchemeName(IntSchemeCode code) { return GetScheme(code).name(); }
const char* DoubleSchemeName(DoubleSchemeCode code) {
  return GetScheme(code).name();
}
const char* StringSchemeName(StringSchemeCode code) {
  return GetScheme(code).name();
}

const char* SchemeNameFor(ColumnType type, u8 code) {
  switch (type) {
    case ColumnType::kInteger: return IntSchemeName(IntSchemeCode{code});
    case ColumnType::kDouble: return DoubleSchemeName(DoubleSchemeCode{code});
    case ColumnType::kString: return StringSchemeName(StringSchemeCode{code});
  }
  return "?";
}

}  // namespace btr
