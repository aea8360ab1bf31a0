// FSST applied directly to the string block (paper Figure 3, right; the
// input strings are concatenated and compressed against one symbol table).
// Per the paper's Section 5 optimization, compressed per-string offsets
// are not stored: the whole blob is decompressed with one call and slots
// are rebuilt from the *uncompressed* lengths, which cascade as integers.
//
// Payload: [u32 total_bytes][u32 lengths_bytes][lengths vector]
//          [fsst table][u32 compressed_bytes][compressed blob]
#include <cstring>
#include <vector>

#include "fsst/fsst.h"
#include "btr/scheme_picker.h"
#include "btr/schemes/estimate_util.h"
#include "btr/schemes/string_schemes.h"

namespace btr {

double StringFsst::EstimateRatio(const StringStats& stats,
                                 const StringSample& sample,
                                 const CompressionContext& ctx) const {
  if (stats.total_bytes < 256) return 0.0;  // nothing to learn from
  return EstimateBySample(*this, sample, ctx);
}

size_t StringFsst::Compress(const StringsView& in, ByteBuffer* out,
                            const CompressionContext& ctx) const {
  size_t start = out->size();
  const u8* raw = in.data + in.offsets[0];
  u32 total_bytes = in.TotalBytes();
  out->AppendValue<u32>(total_bytes);

  std::vector<i32> lengths(in.count);
  for (u32 i = 0; i < in.count; i++) lengths[i] = static_cast<i32>(in.Length(i));
  size_t lens_slot = out->size();
  out->AppendValue<u32>(0);
  u32 lengths_bytes = static_cast<u32>(
      CompressValues(lengths.data(), in.count, out, ctx.Descend()));
  std::memcpy(out->data() + lens_slot, &lengths_bytes, sizeof(u32));

  // During ratio estimation a smaller training sample is plenty; keeps
  // scheme selection cheap (paper Section 3.1).
  size_t train_bytes =
      ctx.estimating ? std::min<size_t>(total_bytes, 2048) : total_bytes;
  fsst::SymbolTable table = fsst::SymbolTable::Build(raw, train_bytes);
  table.SerializeTo(out);
  size_t compressed_slot = out->size();
  out->AppendValue<u32>(0);
  u32 compressed_bytes =
      static_cast<u32>(fsst::CompressBlock(table, raw, total_bytes, out));
  std::memcpy(out->data() + compressed_slot, &compressed_bytes, sizeof(u32));
  return out->size() - start;
}

void StringFsst::Decompress(const u8* in, u32 count, DecodedStrings* out,
                            const CompressionConfig&) const {
  u32 total_bytes, lengths_bytes;
  std::memcpy(&total_bytes, in, sizeof(u32));
  std::memcpy(&lengths_bytes, in + 4, sizeof(u32));
  const u8* lengths_blob = in + 8;
  const u8* cursor = lengths_blob + lengths_bytes;
  size_t table_bytes;
  fsst::SymbolTable table = fsst::SymbolTable::Deserialize(cursor, &table_bytes);
  cursor += table_bytes;
  u32 compressed_bytes;
  std::memcpy(&compressed_bytes, cursor, sizeof(u32));
  const u8* blob = cursor + 4;

  u32 base = static_cast<u32>(out->pool.size());
  out->pool.Resize(base + total_bytes);
  size_t produced = table.Decompress(blob, compressed_bytes, out->pool.data() + base);
  BTR_CHECK(produced == total_bytes);

  std::vector<i32> lengths(count + kDecodeSlack);
  DecompressInts(lengths_blob, count, lengths.data());
  size_t slot_base = out->slots.size();
  out->slots.resize(slot_base + count);
  u32 offset = base;
  for (u32 i = 0; i < count; i++) {
    out->slots[slot_base + i] = StringSlot{offset, static_cast<u32>(lengths[i])};
    offset += static_cast<u32>(lengths[i]);
  }
}

}  // namespace btr
