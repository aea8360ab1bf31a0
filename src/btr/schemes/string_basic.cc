// Uncompressed and OneValue string schemes.
//
// Uncompressed payload: [u32 total_bytes][u32 lengths_bytes][lengths vector]
//                       [raw bytes]
// OneValue payload:     [u32 length][bytes]
#include <cstring>
#include <vector>

#include "btr/layout.h"
#include "btr/scheme_picker.h"
#include "btr/schemes/estimate_util.h"
#include "btr/schemes/string_schemes.h"

namespace btr {

// --- Uncompressed -------------------------------------------------------------

double StringUncompressed::EstimateRatio(const StringStats&, const StringSample&,
                                         const CompressionContext&) const {
  return 1.0;
}

size_t StringUncompressed::Compress(const StringsView& in, ByteBuffer* out,
                                    const CompressionContext& ctx) const {
  size_t start = out->size();
  out->AppendValue<u32>(in.TotalBytes());
  std::vector<i32> lengths(in.count);
  for (u32 i = 0; i < in.count; i++) lengths[i] = static_cast<i32>(in.Length(i));
  size_t size_slot = out->size();
  out->AppendValue<u32>(0);
  u32 lengths_bytes = static_cast<u32>(
      CompressInts(lengths.data(), in.count, out, ctx.Descend()));
  std::memcpy(out->data() + size_slot, &lengths_bytes, sizeof(u32));
  out->Append(in.data + in.offsets[0], in.TotalBytes());
  return out->size() - start;
}

void StringUncompressed::Decompress(const u8* in, u32 count,
                                    DecodedStrings* out,
                                    const CompressionConfig&) const {
  u32 total_bytes, lengths_bytes;
  std::memcpy(&total_bytes, in, sizeof(u32));
  std::memcpy(&lengths_bytes, in + 4, sizeof(u32));
  const u8* lengths_blob = in + 8;
  const u8* raw = lengths_blob + lengths_bytes;

  std::vector<i32> lengths(count + kDecodeSlack);
  DecompressInts(lengths_blob, count, lengths.data());

  u32 base = static_cast<u32>(out->pool.size());
  out->pool.Append(raw, total_bytes);
  size_t slot_base = out->slots.size();
  out->slots.resize(slot_base + count);
  u32 offset = base;
  for (u32 i = 0; i < count; i++) {
    out->slots[slot_base + i] = StringSlot{offset, static_cast<u32>(lengths[i])};
    offset += static_cast<u32>(lengths[i]);
  }
}

// --- OneValue -------------------------------------------------------------------

double StringOneValue::EstimateRatio(const StringStats& stats,
                                     const StringSample&,
                                     const CompressionContext&) const {
  if (stats.unique_count != 1) return 0.0;
  return RatioOf(stats.total_bytes + stats.count * sizeof(u32),
                 sizeof(u32) + stats.max_length);
}

size_t StringOneValue::Compress(const StringsView& in, ByteBuffer* out,
                                const CompressionContext&) const {
  BTR_CHECK(in.count > 0);
  size_t start = out->size();
  std::string_view value = in.Get(0);
  out->AppendValue<u32>(static_cast<u32>(value.size()));
  out->Append(value.data(), value.size());
  return out->size() - start;
}

void StringOneValue::Decompress(const u8* in, u32 count, DecodedStrings* out,
                                const CompressionConfig&) const {
  std::string_view value = layout::ReadOneString(in);
  u32 base = static_cast<u32>(out->pool.size());
  out->pool.Append(value.data(), value.size());
  size_t slot_base = out->slots.size();
  out->slots.resize(slot_base + count);
  const StringSlot slot{base, static_cast<u32>(value.size())};
  for (u32 i = 0; i < count; i++) out->slots[slot_base + i] = slot;
}

}  // namespace btr
