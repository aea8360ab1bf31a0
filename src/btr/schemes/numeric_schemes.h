// The schemes the integer and double pools share (paper Figure 3, Table 1):
// Uncompressed, OneValue, RLE, Dictionary and Frequency, each written once
// for T = i32 and double. Values are compared through
// SchemeTraits<T>::KeyOf, so doubles stay bitwise lossless (NaN payloads,
// signed zeros). Nested vectors cascade through CompressValues; decoding
// goes through the shared kernels of decode_util.h and the layout readers.
#ifndef BTR_BTR_SCHEMES_NUMERIC_SCHEMES_H_
#define BTR_BTR_SCHEMES_NUMERIC_SCHEMES_H_

#include <cstring>
#include <unordered_map>
#include <vector>

#include "bitmap/roaring.h"
#include "btr/scheme_picker.h"
#include "btr/schemes/decode_util.h"
#include "btr/schemes/estimate_util.h"

namespace btr {

// Payload: the raw values.
template <typename T>
class Uncompressed final : public NumericScheme<T> {
 public:
  using Code = typename SchemeTraits<T>::Code;
  Code code() const override { return Code::kUncompressed; }
  const char* name() const override { return "uncompressed"; }
  double EstimateRatio(const NumericStats<T>&, const NumericSample<T>&,
                       const CompressionContext&) const override {
    return 1.0;
  }
  size_t Compress(const T* in, u32 count, ByteBuffer* out,
                  const CompressionContext&) const override {
    out->Append(in, count * sizeof(T));
    return count * sizeof(T);
  }
  void Decompress(const u8* in, u32 count, T* out) const override {
    std::memcpy(out, in, count * sizeof(T));
  }
};

// Payload: the one value.
template <typename T>
class OneValue final : public NumericScheme<T> {
 public:
  using Code = typename SchemeTraits<T>::Code;
  Code code() const override { return Code::kOneValue; }
  const char* name() const override { return "one_value"; }
  double EstimateRatio(const NumericStats<T>& stats, const NumericSample<T>&,
                       const CompressionContext&) const override {
    if (stats.unique_count != 1) return 0.0;
    return RatioOf(stats.count * sizeof(T), sizeof(T));
  }
  size_t Compress(const T* in, u32 count, ByteBuffer* out,
                  const CompressionContext&) const override {
    BTR_CHECK(count > 0);
    out->AppendValue<T>(in[0]);
    return sizeof(T);
  }
  void Decompress(const u8* in, u32 count, T* out) const override {
    FillValue(layout::ReadOneValue<T>(in), count, out);
  }
};

// Run-Length Encoding with cascaded value and run-length vectors (paper
// Listing 1) and vectorized run expansion (paper Listing 3, top).
//
// Payload: [u32 run_count][u32 values_bytes][values vector][lengths vector]
template <typename T>
class Rle final : public NumericScheme<T> {
 public:
  using Code = typename SchemeTraits<T>::Code;
  Code code() const override { return Code::kRle; }
  const char* name() const override { return "rle"; }
  double EstimateRatio(const NumericStats<T>& stats,
                       const NumericSample<T>& sample,
                       const CompressionContext& ctx) const override {
    if (stats.AverageRunLength() < 2.0) return 0.0;  // paper Section 3.1
    return EstimateBySample(*this, sample, ctx);
  }
  size_t Compress(const T* in, u32 count, ByteBuffer* out,
                  const CompressionContext& ctx) const override {
    size_t start = out->size();
    std::vector<T> values;
    std::vector<i32> lengths;
    u32 i = 0;
    while (i < count) {
      u32 run_start = i;
      auto key = SchemeTraits<T>::KeyOf(in[i]);
      while (i < count && SchemeTraits<T>::KeyOf(in[i]) == key) i++;
      values.push_back(in[run_start]);
      lengths.push_back(static_cast<i32>(i - run_start));
    }
    u32 run_count = static_cast<u32>(values.size());
    out->AppendValue<u32>(run_count);
    size_t size_slot = out->size();
    out->AppendValue<u32>(0);  // patched below
    u32 values_bytes = static_cast<u32>(
        CompressValues(values.data(), run_count, out, ctx.Descend()));
    std::memcpy(out->data() + size_slot, &values_bytes, sizeof(u32));
    CompressValues(lengths.data(), run_count, out, ctx.Descend());
    return out->size() - start;
  }
  void Decompress(const u8* in, u32 count, T* out) const override {
    layout::Runs<T> runs = layout::DecodeRuns<T>(layout::ReadRle(in));
    T* end = ExpandRuns([&](u32 r) { return runs.values[r]; },
                        runs.lengths.data(), runs.count, out);
    BTR_DCHECK(end == out + count);
    (void)end;
    (void)count;
  }
};

// Dictionary encoding: distinct values get dense codes in first-appearance
// order; the code vector cascades. Decoding gathers through the
// dictionary, fused with an RLE code vector (DecodeDictionary).
//
// Payload: [u32 dict_count][u32 codes_bytes][codes vector][raw dict values]
template <typename T>
class Dict final : public NumericScheme<T> {
 public:
  using Code = typename SchemeTraits<T>::Code;
  Code code() const override { return Code::kDict; }
  const char* name() const override { return "dict"; }
  double EstimateRatio(const NumericStats<T>& stats,
                       const NumericSample<T>& sample,
                       const CompressionContext& ctx) const override {
    if (stats.unique_count == stats.count) return 0.0;  // codes would be 1:1
    return EstimateBySample(*this, sample, ctx);
  }
  size_t Compress(const T* in, u32 count, ByteBuffer* out,
                  const CompressionContext& ctx) const override {
    size_t start = out->size();
    std::unordered_map<typename SchemeTraits<T>::Key, i32> code_of;
    code_of.reserve(1024);
    std::vector<T> dict;
    std::vector<i32> codes(count);
    for (u32 i = 0; i < count; i++) {
      auto [it, inserted] = code_of.try_emplace(SchemeTraits<T>::KeyOf(in[i]),
                                                static_cast<i32>(dict.size()));
      if (inserted) dict.push_back(in[i]);
      codes[i] = it->second;
    }
    out->AppendValue<u32>(static_cast<u32>(dict.size()));
    size_t size_slot = out->size();
    out->AppendValue<u32>(0);
    u32 codes_bytes = static_cast<u32>(
        CompressValues(codes.data(), count, out, ctx.Descend()));
    std::memcpy(out->data() + size_slot, &codes_bytes, sizeof(u32));
    out->Append(dict.data(), dict.size() * sizeof(T));
    return out->size() - start;
  }
  void Decompress(const u8* in, u32 count, T* out) const override {
    layout::Dict<T> dict = layout::ReadDict<T>(in);
    DecodeDictionary(dict.codes, count, dict.entries.data(), /*fuse=*/true,
                     out);
  }
};

// Frequency encoding, adapted as in the paper (Section 2.2): the single
// dominant top value, a Roaring bitmap marking exception positions, and
// the exception values, which cascade. The top is the first value with
// the highest count in the key map's iteration order, so the map key type
// is part of the format's determinism.
//
// Payload: [T top][u32 exception_count][u32 bitmap_bytes][roaring bitmap]
//          [exceptions vector]
template <typename T>
class Frequency final : public NumericScheme<T> {
 public:
  using Code = typename SchemeTraits<T>::Code;
  Code code() const override { return Code::kFrequency; }
  const char* name() const override { return "frequency"; }
  double EstimateRatio(const NumericStats<T>& stats,
                       const NumericSample<T>& sample,
                       const CompressionContext& ctx) const override {
    // Paper Section 3.1: excluded when more than 50% of values are unique.
    if (stats.unique_count * 2 > stats.count) return 0.0;
    return EstimateBySample(*this, sample, ctx);
  }
  size_t Compress(const T* in, u32 count, ByteBuffer* out,
                  const CompressionContext& ctx) const override {
    using Key = typename SchemeTraits<T>::Key;
    static_assert(sizeof(Key) == sizeof(T));
    size_t start = out->size();
    std::unordered_map<Key, u32> freq;
    freq.reserve(1024);
    for (u32 i = 0; i < count; i++) freq[SchemeTraits<T>::KeyOf(in[i])]++;
    Key top = SchemeTraits<T>::KeyOf(in[0]);
    u32 top_count = 0;
    for (const auto& [key, n] : freq) {
      if (n > top_count) {
        top_count = n;
        top = key;
      }
    }
    RoaringBitmap exceptions_bitmap;
    std::vector<T> exceptions;
    exceptions.reserve(count - top_count);
    for (u32 i = 0; i < count; i++) {
      if (SchemeTraits<T>::KeyOf(in[i]) != top) {
        exceptions_bitmap.Add(i);
        exceptions.push_back(in[i]);
      }
    }
    exceptions_bitmap.RunOptimize();

    out->AppendValue<Key>(top);  // the key's bytes are the value's
    out->AppendValue<u32>(static_cast<u32>(exceptions.size()));
    out->AppendValue<u32>(
        static_cast<u32>(exceptions_bitmap.SerializedSizeBytes()));
    exceptions_bitmap.SerializeTo(out);
    if (!exceptions.empty()) {
      CompressValues(exceptions.data(), static_cast<u32>(exceptions.size()),
                     out, ctx.Descend());
    }
    return out->size() - start;
  }
  void Decompress(const u8* in, u32 count, T* out) const override {
    // Fill with the top value, then patch the exceptions.
    layout::Frequency<T> f = layout::DecodeFrequency<T>(in);
    FillValue(f.top, count, out);
    u32 e = 0;
    f.positions.ForEach(
        [&](u32 position) { out[position] = f.exceptions[e++]; });
  }
};

}  // namespace btr

#endif  // BTR_BTR_SCHEMES_NUMERIC_SCHEMES_H_
