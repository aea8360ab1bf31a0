// Frequency encoding, adapted as in the paper (Section 2.2): store (1) the
// single dominant top value, (2) a Roaring bitmap marking exception
// positions, and (3) the exception values, which cascade.
//
// Payload: [i32 top][u32 exception_count][u32 bitmap_bytes][roaring bitmap]
//          [exceptions vector]
#include <unordered_map>
#include <vector>

#include "bitmap/roaring.h"
#include "btr/scheme_picker.h"
#include "btr/schemes/decode_util.h"
#include "btr/schemes/estimate_util.h"
#include "btr/schemes/int_schemes.h"

namespace btr {

double IntFrequency::EstimateRatio(const IntStats& stats,
                                   const IntSample& sample,
                                   const CompressionContext& ctx) const {
  // Paper Section 3.1: excluded when more than 50% of values are unique.
  if (stats.unique_count * 2 > stats.count) return 0.0;
  return EstimateIntBySample(*this, sample, ctx);
}

size_t IntFrequency::Compress(const i32* in, u32 count, ByteBuffer* out,
                              const CompressionContext& ctx) const {
  size_t start = out->size();
  // Find the dominant value.
  std::unordered_map<i32, u32> freq;
  freq.reserve(1024);
  for (u32 i = 0; i < count; i++) freq[in[i]]++;
  i32 top = in[0];
  u32 top_count = 0;
  for (const auto& [value, n] : freq) {
    if (n > top_count) {
      top_count = n;
      top = value;
    }
  }
  RoaringBitmap exceptions_bitmap;
  std::vector<i32> exceptions;
  exceptions.reserve(count - top_count);
  for (u32 i = 0; i < count; i++) {
    if (in[i] != top) {
      exceptions_bitmap.Add(i);
      exceptions.push_back(in[i]);
    }
  }
  exceptions_bitmap.RunOptimize();

  out->AppendValue<i32>(top);
  out->AppendValue<u32>(static_cast<u32>(exceptions.size()));
  out->AppendValue<u32>(static_cast<u32>(exceptions_bitmap.SerializedSizeBytes()));
  exceptions_bitmap.SerializeTo(out);
  if (!exceptions.empty()) {
    CompressInts(exceptions.data(), static_cast<u32>(exceptions.size()), out,
                 ctx.Descend());
  }
  return out->size() - start;
}

void IntFrequency::Decompress(const u8* in, u32 count, i32* out) const {
  // Fill with the top value, then patch the exceptions.
  layout::Frequency<i32> f = layout::DecodeFrequency<i32>(in);
  FillValue(f.top, count, out);
  u32 e = 0;
  f.positions.ForEach([&](u32 position) { out[position] = f.exceptions[e++]; });
}

}  // namespace btr
