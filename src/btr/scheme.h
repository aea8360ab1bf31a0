// Encoding scheme interfaces and the per-type scheme pools.
//
// Mirrors the paper's Listing 1: every scheme can (a) estimate its
// compression ratio on a sample — returning 0 when statistics rule it out —
// and (b) compress/decompress a full block, possibly cascading into
// recursive CompressValues calls with a decremented recursion budget.
//
// Integers and doubles share one interface, NumericScheme<T>, and the
// schemes both pools hold (Uncompressed, OneValue, RLE, Dictionary,
// Frequency) are written once for both (schemes/numeric_schemes.h).
// SchemeTraits<T> holds what differs per column type.
//
// Payload framing convention: a "compressed vector" is [u8 scheme code]
// [payload]. Parents that embed child vectors store the child's byte size
// themselves. Decompression output buffers must provide kDecodeSlack
// elements of slack past the logical end: vectorized kernels intentionally
// overshoot and correct the cursor afterwards (paper Section 5).
#ifndef BTR_BTR_SCHEME_H_
#define BTR_BTR_SCHEME_H_

#include <bit>
#include <string_view>

#include "btr/config.h"
#include "btr/sampling.h"
#include "btr/stats.h"
#include "util/buffer.h"

namespace btr {

// Elements (not bytes) of writable slack required past decompression
// output ends.
inline constexpr u32 kDecodeSlack = 16;

// What differs between the column types the picker serves: the scheme
// code enum and pool size, the equality/hash key of a value, and, for the
// numeric types, QuickPick, the statistics-only choice of cascade children
// while a sample is being compressed for estimation (scheme_picker.cc).
// Strings need none: no scheme cascades into a string vector. T is the
// value type: i32, double or std::string_view.
template <typename T>
struct SchemeTraits;

template <>
struct SchemeTraits<i32> {
  using Code = IntSchemeCode;
  static constexpr ColumnType kType = ColumnType::kInteger;
  static constexpr u32 kSchemeCount = kIntSchemeCount;
  using Key = i32;
  static Key KeyOf(i32 value) { return value; }
  static Code QuickPick(const i32* in, u32 count, const IntStats& stats,
                        const CompressionConfig& config);
};

template <>
struct SchemeTraits<double> {
  using Code = DoubleSchemeCode;
  static constexpr ColumnType kType = ColumnType::kDouble;
  static constexpr u32 kSchemeCount = kDoubleSchemeCount;
  // Bit patterns: the format is lossless down to NaN payloads and signed
  // zeros.
  using Key = u64;
  static Key KeyOf(double value) { return std::bit_cast<u64>(value); }
  static Code QuickPick(const double* in, u32 count, const DoubleStats& stats,
                        const CompressionConfig& config);
};

template <>
struct SchemeTraits<std::string_view> {
  using Code = StringSchemeCode;
  static constexpr ColumnType kType = ColumnType::kString;
  static constexpr u32 kSchemeCount = kStringSchemeCount;
};

// Value count and uncompressed footprint of an input vector: numbers are
// (values, count), strings a view whose footprint counts one 4-byte
// offset per string, consistent with Column::UncompressedBytes().
template <typename T>
u32 ValueCount(const T*, u32 count) {
  return count;
}
inline u32 ValueCount(const StringsView& in) { return in.count; }
template <typename T>
u64 InputBytes(const T*, u32 count) {
  return u64{count} * sizeof(T);
}
inline u64 InputBytes(const StringsView& in) {
  return u64{in.TotalBytes()} + u64{in.count} * sizeof(u32);
}

// One interface for the i32 and double pools.
template <typename T>
class NumericScheme {
 public:
  using Code = typename SchemeTraits<T>::Code;
  virtual ~NumericScheme() = default;
  virtual Code code() const = 0;
  virtual const char* name() const = 0;
  // Estimated compression ratio (input bytes / output bytes) on the
  // sample; 0 if the scheme is not viable for this block.
  virtual double EstimateRatio(const NumericStats<T>& stats,
                               const NumericSample<T>& sample,
                               const CompressionContext& ctx) const = 0;
  // Appends [payload] (scheme byte written by the picker). Returns bytes.
  virtual size_t Compress(const T* in, u32 count, ByteBuffer* out,
                          const CompressionContext& ctx) const = 0;
  virtual void Decompress(const u8* in, u32 count, T* out) const = 0;
};
using IntScheme = NumericScheme<i32>;
using DoubleScheme = NumericScheme<double>;

class StringScheme {
 public:
  virtual ~StringScheme() = default;
  virtual StringSchemeCode code() const = 0;
  virtual const char* name() const = 0;
  virtual double EstimateRatio(const StringStats& stats,
                               const StringSample& sample,
                               const CompressionContext& ctx) const = 0;
  virtual size_t Compress(const StringsView& in, ByteBuffer* out,
                          const CompressionContext& ctx) const = 0;
  // `count` strings; appends bytes to out->pool and slots to out->slots.
  virtual void Decompress(const u8* in, u32 count, DecodedStrings* out,
                          const CompressionConfig& config) const = 0;
};

// Process-lifetime scheme registries.
const IntScheme& GetScheme(IntSchemeCode code);
const DoubleScheme& GetScheme(DoubleSchemeCode code);
const StringScheme& GetScheme(StringSchemeCode code);

}  // namespace btr

#endif  // BTR_BTR_SCHEME_H_
