// Dictionary string schemes. Decompression replaces each code with a
// fixed-size (offset, length) slot into the shared pool — no string copies
// (paper Section 5, "String Dictionaries": >10x on low-cardinality
// columns). The code vector cascades into the integer pool; when it lands
// on RLE with average run length > 3, the fused RLE+Dict path writes slot
// runs directly, skipping the intermediate code array.
//
// Dict payload:      [u32 dict_count][u32 pool_bytes][u32 codes_bytes]
//                    [codes vector][dict tuples][dict pool]
// DictFsst payload:  [u32 dict_count][u32 pool_bytes][u32 codes_bytes]
//                    [codes vector][u32 lens_bytes][dict lengths vector]
//                    [fsst table][u32 compressed_pool_bytes][compressed pool]
#include <cstring>
#include <unordered_map>
#include <vector>

#include "fsst/fsst.h"
#include "btr/scheme_picker.h"
#include "btr/schemes/decode_util.h"
#include "btr/schemes/estimate_util.h"
#include "btr/schemes/string_schemes.h"

namespace btr {

namespace string_detail {

DictBuild BuildDictionary(const StringsView& in) {
  DictBuild build;
  build.codes.resize(in.count);
  build.entry_offsets.push_back(0);
  std::unordered_map<std::string_view, i32> code_of;
  code_of.reserve(1024);
  for (u32 i = 0; i < in.count; i++) {
    std::string_view s = in.Get(i);
    auto [it, inserted] =
        code_of.try_emplace(s, static_cast<i32>(build.entry_offsets.size() - 1));
    if (inserted) {
      build.pool.insert(build.pool.end(), s.begin(), s.end());
      build.entry_offsets.push_back(static_cast<u32>(build.pool.size()));
    }
    build.codes[i] = it->second;
  }
  return build;
}

}  // namespace string_detail

using string_detail::BuildDictionary;
using string_detail::DictBuild;

namespace {

// Appends one slot per row: the row's entry of `entries`, whose offsets
// already point into out->pool.
void AppendSlots(const u8* codes, u32 count,
                 const std::vector<StringSlot>& entries,
                 const CompressionConfig& config, DecodedStrings* out) {
  size_t slot_base = out->slots.size();
  out->slots.resize(slot_base + count + kDecodeSlack);
  DecodeDictionary(codes, count, entries.data(), config.fused_rle_dict,
                   out->slots.data() + slot_base);
  out->slots.resize(slot_base + count);
}

}  // namespace

// --- Dict ------------------------------------------------------------------------

double StringDict::EstimateRatio(const StringStats& stats,
                                 const StringSample& sample,
                                 const CompressionContext& ctx) const {
  if (stats.unique_count == stats.count) return 0.0;
  return EstimateStringBySample(*this, sample, ctx);
}

size_t StringDict::Compress(const StringsView& in, ByteBuffer* out,
                            const CompressionContext& ctx) const {
  size_t start = out->size();
  DictBuild dict = BuildDictionary(in);
  out->AppendValue<u32>(dict.dict_count());
  out->AppendValue<u32>(static_cast<u32>(dict.pool.size()));
  size_t size_slot = out->size();
  out->AppendValue<u32>(0);
  u32 codes_bytes = static_cast<u32>(
      CompressInts(dict.codes.data(), in.count, out, ctx.Descend()));
  std::memcpy(out->data() + size_slot, &codes_bytes, sizeof(u32));
  for (u32 d = 0; d < dict.dict_count(); d++) {
    StringSlot tuple{dict.entry_offsets[d],
                     dict.entry_offsets[d + 1] - dict.entry_offsets[d]};
    out->AppendValue<StringSlot>(tuple);
  }
  out->Append(dict.pool.data(), dict.pool.size());
  return out->size() - start;
}

void StringDict::Decompress(const u8* in, u32 count, DecodedStrings* out,
                            const CompressionConfig& config) const {
  layout::StringDict dict = layout::ReadStringDict(in);
  u32 base = static_cast<u32>(out->pool.size());
  out->pool.Append(dict.pool, dict.pool_bytes);
  for (StringSlot& entry : dict.entries) entry.offset += base;
  AppendSlots(dict.codes, count, dict.entries, config, out);
}

// --- DictFsst ----------------------------------------------------------------------

double StringDictFsst::EstimateRatio(const StringStats& stats,
                                     const StringSample& sample,
                                     const CompressionContext& ctx) const {
  if (stats.unique_count == stats.count) return 0.0;
  // FSST needs material to learn from; tiny dictionaries go to plain Dict.
  if (stats.unique_bytes < 256) return 0.0;
  return EstimateStringBySample(*this, sample, ctx);
}

size_t StringDictFsst::Compress(const StringsView& in, ByteBuffer* out,
                                const CompressionContext& ctx) const {
  size_t start = out->size();
  DictBuild dict = BuildDictionary(in);
  out->AppendValue<u32>(dict.dict_count());
  out->AppendValue<u32>(static_cast<u32>(dict.pool.size()));
  size_t size_slot = out->size();
  out->AppendValue<u32>(0);
  u32 codes_bytes = static_cast<u32>(
      CompressInts(dict.codes.data(), in.count, out, ctx.Descend()));
  std::memcpy(out->data() + size_slot, &codes_bytes, sizeof(u32));

  std::vector<i32> lengths(dict.dict_count());
  for (u32 d = 0; d < dict.dict_count(); d++) {
    lengths[d] =
        static_cast<i32>(dict.entry_offsets[d + 1] - dict.entry_offsets[d]);
  }
  size_t lens_slot = out->size();
  out->AppendValue<u32>(0);
  u32 lens_bytes = static_cast<u32>(CompressInts(
      lengths.data(), dict.dict_count(), out, ctx.Descend()));
  std::memcpy(out->data() + lens_slot, &lens_bytes, sizeof(u32));

  size_t train_bytes = ctx.estimating
                           ? std::min<size_t>(dict.pool.size(), 2048)
                           : dict.pool.size();
  fsst::SymbolTable table =
      fsst::SymbolTable::Build(dict.pool.data(), train_bytes);
  table.SerializeTo(out);
  size_t compressed_slot = out->size();
  out->AppendValue<u32>(0);
  u32 compressed_bytes = static_cast<u32>(
      fsst::CompressBlock(table, dict.pool.data(), dict.pool.size(), out));
  std::memcpy(out->data() + compressed_slot, &compressed_bytes, sizeof(u32));
  return out->size() - start;
}

void StringDictFsst::Decompress(const u8* in, u32 count, DecodedStrings* out,
                                const CompressionConfig& config) const {
  u32 dict_count = layout::Load<u32>(in);
  u32 pool_bytes = layout::Load<u32>(in + 4);
  const u8* codes_blob = in + 12;
  const u8* cursor = codes_blob + layout::Load<u32>(in + 8);
  const u8* lens_blob = cursor + 4;
  cursor = lens_blob + layout::Load<u32>(cursor);
  size_t table_bytes;
  fsst::SymbolTable table = fsst::SymbolTable::Deserialize(cursor, &table_bytes);
  cursor += table_bytes;
  u32 compressed_bytes = layout::Load<u32>(cursor);
  const u8* compressed_pool = cursor + 4;

  // Decompress the dictionary pool once (paper Section 5: one block-wise
  // FSST call instead of per-string calls).
  u32 base = static_cast<u32>(out->pool.size());
  out->pool.Resize(base + pool_bytes);
  size_t produced =
      table.Decompress(compressed_pool, compressed_bytes, out->pool.data() + base);
  BTR_CHECK(produced == pool_bytes);

  std::vector<i32> lengths(dict_count + kDecodeSlack);
  DecompressInts(lens_blob, dict_count, lengths.data());
  std::vector<StringSlot> entries(dict_count);
  u32 offset = base;
  for (u32 d = 0; d < dict_count; d++) {
    entries[d] = StringSlot{offset, static_cast<u32>(lengths[d])};
    offset += static_cast<u32>(lengths[d]);
  }
  AppendSlots(codes_blob, count, entries, config, out);
}

}  // namespace btr
