// Dictionary encoding for integers: distinct values get dense codes in
// first-appearance order; the code vector cascades (paper Figure 3).
// Decompression gathers through the dictionary (DecodeDictionary).
//
// Payload: [u32 dict_count][u32 codes_bytes][codes vector][raw dict i32s]
#include <cstring>
#include <unordered_map>
#include <vector>

#include "btr/scheme_picker.h"
#include "btr/schemes/decode_util.h"
#include "btr/schemes/estimate_util.h"
#include "btr/schemes/int_schemes.h"

namespace btr {

double IntDict::EstimateRatio(const IntStats& stats, const IntSample& sample,
                              const CompressionContext& ctx) const {
  if (stats.unique_count == stats.count) return 0.0;  // codes would be 1:1
  return EstimateIntBySample(*this, sample, ctx);
}

size_t IntDict::Compress(const i32* in, u32 count, ByteBuffer* out,
                         const CompressionContext& ctx) const {
  size_t start = out->size();
  std::unordered_map<i32, i32> code_of;
  code_of.reserve(1024);
  std::vector<i32> dict;
  std::vector<i32> codes(count);
  for (u32 i = 0; i < count; i++) {
    auto [it, inserted] = code_of.try_emplace(in[i], static_cast<i32>(dict.size()));
    if (inserted) dict.push_back(in[i]);
    codes[i] = it->second;
  }
  out->AppendValue<u32>(static_cast<u32>(dict.size()));
  size_t size_slot = out->size();
  out->AppendValue<u32>(0);
  u32 codes_bytes =
      static_cast<u32>(CompressInts(codes.data(), count, out, ctx.Descend()));
  std::memcpy(out->data() + size_slot, &codes_bytes, sizeof(u32));
  out->Append(dict.data(), dict.size() * sizeof(i32));
  return out->size() - start;
}

void IntDict::Decompress(const u8* in, u32 count, i32* out) const {
  layout::Dict<i32> dict = layout::ReadDict<i32>(in);
  DecodeDictionary(dict.codes, count, dict.entries.data(), /*fuse=*/true, out);
}

}  // namespace btr
