// Run-Length Encoding for integers with cascaded value and run-length
// vectors (paper Listing 1) and vectorized run expansion (paper Listing 3,
// top): AVX2 stores intentionally overrun short runs and the cursor is
// corrected afterwards, relying on the caller's kDecodeSlack.
//
// Payload: [u32 run_count][u32 values_bytes][values vector][lengths vector]
#include <cstring>
#include <vector>

#include "btr/scheme_picker.h"
#include "btr/schemes/decode_util.h"
#include "btr/schemes/estimate_util.h"
#include "btr/schemes/int_schemes.h"

namespace btr {

double IntRle::EstimateRatio(const IntStats& stats, const IntSample& sample,
                             const CompressionContext& ctx) const {
  if (stats.AverageRunLength() < 2.0) return 0.0;  // paper Section 3.1
  return EstimateIntBySample(*this, sample, ctx);
}

size_t IntRle::Compress(const i32* in, u32 count, ByteBuffer* out,
                        const CompressionContext& ctx) const {
  size_t start = out->size();
  std::vector<i32> values;
  std::vector<i32> lengths;
  u32 i = 0;
  while (i < count) {
    u32 run_start = i;
    i32 value = in[i];
    while (i < count && in[i] == value) i++;
    values.push_back(value);
    lengths.push_back(static_cast<i32>(i - run_start));
  }
  u32 run_count = static_cast<u32>(values.size());
  out->AppendValue<u32>(run_count);
  size_t size_slot = out->size();
  out->AppendValue<u32>(0);  // patched below
  u32 values_bytes = static_cast<u32>(
      CompressInts(values.data(), run_count, out, ctx.Descend()));
  std::memcpy(out->data() + size_slot, &values_bytes, sizeof(u32));
  CompressInts(lengths.data(), run_count, out, ctx.Descend());
  return out->size() - start;
}

void IntRle::Decompress(const u8* in, u32 count, i32* out) const {
  layout::Runs<i32> runs = layout::DecodeRuns<i32>(layout::ReadRle(in));
  i32* end = ExpandRuns([&](u32 r) { return runs.values[r]; },
                        runs.lengths.data(), runs.count, out);
  BTR_DCHECK(end == out + count);
  (void)end;
  (void)count;
}

}  // namespace btr
