// Uncompressed, OneValue, RLE, Dictionary and Frequency for doubles.
// All value comparisons are on bit patterns: the format is lossless down
// to NaN payloads and signed zeros.
#include <cstring>
#include <unordered_map>
#include <vector>

#include "bitmap/roaring.h"
#include "btr/scheme_picker.h"
#include "btr/schemes/decode_util.h"
#include "btr/schemes/double_schemes.h"
#include "btr/schemes/estimate_util.h"

namespace btr {

namespace {
inline u64 BitsOf(double d) {
  u64 b;
  std::memcpy(&b, &d, 8);
  return b;
}
inline double DoubleOf(u64 b) {
  double d;
  std::memcpy(&d, &b, 8);
  return d;
}
}  // namespace

// --- Uncompressed ------------------------------------------------------------

double DoubleUncompressed::EstimateRatio(const DoubleStats&, const DoubleSample&,
                                         const CompressionContext&) const {
  return 1.0;
}

size_t DoubleUncompressed::Compress(const double* in, u32 count, ByteBuffer* out,
                                    const CompressionContext&) const {
  out->Append(in, count * sizeof(double));
  return count * sizeof(double);
}

void DoubleUncompressed::Decompress(const u8* in, u32 count, double* out) const {
  std::memcpy(out, in, count * sizeof(double));
}

// --- OneValue -------------------------------------------------------------------

double DoubleOneValue::EstimateRatio(const DoubleStats& stats, const DoubleSample&,
                                     const CompressionContext&) const {
  if (stats.unique_count != 1) return 0.0;
  return RatioOf(stats.count * sizeof(double), sizeof(double));
}

size_t DoubleOneValue::Compress(const double* in, u32 count, ByteBuffer* out,
                                const CompressionContext&) const {
  BTR_CHECK(count > 0);
  out->AppendValue<double>(in[0]);
  return sizeof(double);
}

void DoubleOneValue::Decompress(const u8* in, u32 count, double* out) const {
  FillValue(layout::ReadOneValue<double>(in), count, out);
}

// --- RLE -------------------------------------------------------------------------
// Payload: [u32 run_count][u32 values_bytes][values vector][lengths vector]

double DoubleRle::EstimateRatio(const DoubleStats& stats,
                                const DoubleSample& sample,
                                const CompressionContext& ctx) const {
  if (stats.AverageRunLength() < 2.0) return 0.0;
  return EstimateDoubleBySample(*this, sample, ctx);
}

size_t DoubleRle::Compress(const double* in, u32 count, ByteBuffer* out,
                           const CompressionContext& ctx) const {
  size_t start = out->size();
  std::vector<double> values;
  std::vector<i32> lengths;
  u32 i = 0;
  while (i < count) {
    u32 run_start = i;
    u64 bits = BitsOf(in[i]);
    while (i < count && BitsOf(in[i]) == bits) i++;
    values.push_back(DoubleOf(bits));
    lengths.push_back(static_cast<i32>(i - run_start));
  }
  u32 run_count = static_cast<u32>(values.size());
  out->AppendValue<u32>(run_count);
  size_t size_slot = out->size();
  out->AppendValue<u32>(0);
  u32 values_bytes = static_cast<u32>(
      CompressDoubles(values.data(), run_count, out, ctx.Descend()));
  std::memcpy(out->data() + size_slot, &values_bytes, sizeof(u32));
  CompressInts(lengths.data(), run_count, out, ctx.Descend());
  return out->size() - start;
}

void DoubleRle::Decompress(const u8* in, u32 count, double* out) const {
  layout::Runs<double> runs = layout::DecodeRuns<double>(layout::ReadRle(in));
  double* end = ExpandRuns([&](u32 r) { return runs.values[r]; },
                           runs.lengths.data(), runs.count, out);
  BTR_DCHECK(end == out + count);
  (void)end;
  (void)count;
}

// --- Dictionary -------------------------------------------------------------------
// Payload: [u32 dict_count][u32 codes_bytes][codes vector][raw dict doubles]

double DoubleDict::EstimateRatio(const DoubleStats& stats,
                                 const DoubleSample& sample,
                                 const CompressionContext& ctx) const {
  if (stats.unique_count == stats.count) return 0.0;
  return EstimateDoubleBySample(*this, sample, ctx);
}

size_t DoubleDict::Compress(const double* in, u32 count, ByteBuffer* out,
                            const CompressionContext& ctx) const {
  size_t start = out->size();
  std::unordered_map<u64, i32> code_of;
  code_of.reserve(1024);
  std::vector<double> dict;
  std::vector<i32> codes(count);
  for (u32 i = 0; i < count; i++) {
    auto [it, inserted] =
        code_of.try_emplace(BitsOf(in[i]), static_cast<i32>(dict.size()));
    if (inserted) dict.push_back(in[i]);
    codes[i] = it->second;
  }
  out->AppendValue<u32>(static_cast<u32>(dict.size()));
  size_t size_slot = out->size();
  out->AppendValue<u32>(0);
  u32 codes_bytes =
      static_cast<u32>(CompressInts(codes.data(), count, out, ctx.Descend()));
  std::memcpy(out->data() + size_slot, &codes_bytes, sizeof(u32));
  out->Append(dict.data(), dict.size() * sizeof(double));
  return out->size() - start;
}

void DoubleDict::Decompress(const u8* in, u32 count, double* out) const {
  layout::Dict<double> dict = layout::ReadDict<double>(in);
  DecodeDictionary(dict.codes, count, dict.entries.data(), /*fuse=*/true, out);
}

// --- Frequency ----------------------------------------------------------------------
// Payload: [double top][u32 exception_count][u32 bitmap_bytes][bitmap]
//          [exceptions vector]

double DoubleFrequency::EstimateRatio(const DoubleStats& stats,
                                      const DoubleSample& sample,
                                      const CompressionContext& ctx) const {
  if (stats.unique_count * 2 > stats.count) return 0.0;
  return EstimateDoubleBySample(*this, sample, ctx);
}

size_t DoubleFrequency::Compress(const double* in, u32 count, ByteBuffer* out,
                                 const CompressionContext& ctx) const {
  size_t start = out->size();
  std::unordered_map<u64, u32> freq;
  freq.reserve(1024);
  for (u32 i = 0; i < count; i++) freq[BitsOf(in[i])]++;
  u64 top_bits = BitsOf(in[0]);
  u32 top_count = 0;
  for (const auto& [bits, n] : freq) {
    if (n > top_count) {
      top_count = n;
      top_bits = bits;
    }
  }
  RoaringBitmap exceptions_bitmap;
  std::vector<double> exceptions;
  exceptions.reserve(count - top_count);
  for (u32 i = 0; i < count; i++) {
    if (BitsOf(in[i]) != top_bits) {
      exceptions_bitmap.Add(i);
      exceptions.push_back(in[i]);
    }
  }
  exceptions_bitmap.RunOptimize();

  out->AppendValue<double>(DoubleOf(top_bits));
  out->AppendValue<u32>(static_cast<u32>(exceptions.size()));
  out->AppendValue<u32>(static_cast<u32>(exceptions_bitmap.SerializedSizeBytes()));
  exceptions_bitmap.SerializeTo(out);
  if (!exceptions.empty()) {
    CompressDoubles(exceptions.data(), static_cast<u32>(exceptions.size()), out,
                    ctx.Descend());
  }
  return out->size() - start;
}

void DoubleFrequency::Decompress(const u8* in, u32 count, double* out) const {
  layout::Frequency<double> f = layout::DecodeFrequency<double>(in);
  FillValue(f.top, count, out);
  u32 e = 0;
  f.positions.ForEach([&](u32 position) { out[position] = f.exceptions[e++]; });
}

}  // namespace btr
