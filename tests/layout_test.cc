// Tests for the stored-layout readers (btr/layout.h, bitpack::Bp128Reader,
// BlockTable): each reader returns exactly what the matching encoder
// wrote, and the shared decode kernels built on them decode every root
// scheme identically with SIMD on and off.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bitpack/bitpack.h"
#include "btr/btrblocks.h"
#include "btr/file_format.h"
#include "btr/layout.h"
#include "btr/scheme.h"
#include "btr/scheme_picker.h"
#include "util/random.h"
#include "util/simd.h"

namespace btr {
namespace {

// Payloads written by one scheme directly (no picker at the root); nested
// vectors still cascade through the full scheme pool.
const CompressionConfig kConfig;
const CompressionContext kCtx{&kConfig, kConfig.max_cascade_depth};

ByteBuffer IntPayload(IntSchemeCode scheme, const std::vector<i32>& values) {
  ByteBuffer out;
  GetScheme(scheme).Compress(values.data(), static_cast<u32>(values.size()),
                             &out, kCtx);
  return out;
}

ByteBuffer DoublePayload(DoubleSchemeCode scheme,
                         const std::vector<double>& values) {
  ByteBuffer out;
  GetScheme(scheme).Compress(values.data(), static_cast<u32>(values.size()),
                             &out, kCtx);
  return out;
}

ByteBuffer StringPayload(StringSchemeCode scheme, const Column& column) {
  std::vector<u32> offsets;
  StringsView view = column.StringBlock(0, column.size(), &offsets);
  ByteBuffer out;
  GetScheme(scheme).Compress(view, &out, kCtx);
  return out;
}

TEST(LayoutTest, ReadBlockReturnsTheWrittenHeader) {
  std::vector<i32> values(3000);
  std::vector<u8> nulls(3000, 0);
  for (u32 i = 0; i < 3000; i++) {
    values[i] = static_cast<i32>(i % 7);
    if (i % 11 == 0) nulls[i] = 1;
  }
  ByteBuffer block;
  BlockCompressionInfo info;
  CompressBlock(values.data(), nulls.data(), 3000, &block,
                CompressionConfig{}, &info);

  layout::Block b = layout::ReadBlock(block.data());
  EXPECT_EQ(b.type, ColumnType::kInteger);
  EXPECT_EQ(b.count, 3000u);
  EXPECT_EQ(b.scheme(), info.root_scheme);
  EXPECT_EQ(b.payload(), b.vector + 1);
  EXPECT_EQ(b.vector, block.data() + layout::kBlockHeaderBytes + b.null_bytes);
  std::vector<u32> null_rows = b.NullRows().ToVector();
  ASSERT_EQ(null_rows.size(), (3000u + 10) / 11);
  for (u32 row : null_rows) EXPECT_EQ(row % 11, 0u);

  ByteBuffer dense;
  CompressBlock(values.data(), nullptr, 3000, &dense, CompressionConfig{});
  layout::Block d = layout::ReadBlock(dense.data());
  EXPECT_EQ(d.null_bytes, 0u);
  EXPECT_TRUE(d.NullRows().Empty());
}

TEST(LayoutTest, PayloadReadersReturnTheEncodedParts) {
  // 40 runs of 50 rows: every fourth run cycles 0 / 40, the rest hold 5.
  std::vector<i32> values(2000);
  for (u32 i = 0; i < 2000; i++) {
    values[i] = (i / 50) % 4 == 0 ? static_cast<i32>(((i / 50) % 8) * 10) : 5;
  }

  ByteBuffer rle = IntPayload(IntSchemeCode::kRle, values);
  layout::Runs<i32> runs = layout::DecodeRuns<i32>(layout::ReadRle(rle.data()));
  std::vector<i32> expanded;
  for (u32 r = 0; r < runs.count; r++) {
    expanded.insert(expanded.end(), runs.lengths[r], runs.values[r]);
  }
  EXPECT_EQ(expanded, values);

  ByteBuffer dict_payload = IntPayload(IntSchemeCode::kDict, values);
  layout::Dict<i32> dict = layout::ReadDict<i32>(dict_payload.data());
  EXPECT_EQ(dict.entries, (std::vector<i32>{0, 5, 40}));  // first appearance

  ByteBuffer freq_payload = IntPayload(IntSchemeCode::kFrequency, values);
  layout::Frequency<i32> freq =
      layout::DecodeFrequency<i32>(freq_payload.data());
  EXPECT_EQ(freq.top, 5);
  u32 e = 0;
  freq.positions.ForEach([&](u32 position) {
    EXPECT_EQ(freq.exceptions[e++], values[position]) << position;
  });
  EXPECT_EQ(e, 500u);

  ByteBuffer one = IntPayload(IntSchemeCode::kOneValue, {-17, -17, -17});
  EXPECT_EQ(layout::ReadOneValue<i32>(one.data()), -17);

  ByteBuffer one_double = DoublePayload(DoubleSchemeCode::kOneValue, {2.5});
  EXPECT_EQ(layout::ReadOneValue<double>(one_double.data()), 2.5);
}

TEST(LayoutTest, StringReadersReturnTheEncodedParts) {
  Column column("s", ColumnType::kString);
  const char* words[] = {"bonn", "", "berlin", "bonn"};
  for (u32 i = 0; i < 400; i++) column.AppendString(words[i % 4]);
  ByteBuffer dict_payload = StringPayload(StringSchemeCode::kDict, column);
  layout::StringDict dict = layout::ReadStringDict(dict_payload.data());
  ASSERT_EQ(dict.entries.size(), 3u);
  EXPECT_EQ(dict.Entry(0), "bonn");
  EXPECT_EQ(dict.Entry(1), "");
  EXPECT_EQ(dict.Entry(2), "berlin");
  EXPECT_EQ(dict.pool_bytes, 10u);

  Column same("s", ColumnType::kString);
  for (u32 i = 0; i < 50; i++) same.AppendString("munich");
  ByteBuffer one = StringPayload(StringSchemeCode::kOneValue, same);
  EXPECT_EQ(layout::ReadOneString(one.data()), "munich");
}

TEST(LayoutTest, Bp128ReaderWalksEveryFrame) {
  Random rng(3);
  for (u32 count : {1u, 127u, 128u, 1000u, 1024u}) {
    std::vector<i32> values(count);
    for (i32& v : values) v = static_cast<i32>(rng.NextRange(-300, 300));
    ByteBuffer stream;
    size_t written = bitpack::Bp128Compress(values.data(), count, &stream);

    bitpack::Bp128Reader reader(stream.data(), count);
    u32 next = 0;
    u32 deltas[bitpack::kBlockSize];
    for (bitpack::Bp128Frame frame; reader.Next(&frame);) {
      EXPECT_EQ(frame.first, next);
      EXPECT_EQ(frame.count, std::min(bitpack::kBlockSize, count - next));
      bitpack::UnpackFrame(frame, deltas);
      for (u32 j = 0; j < frame.count; j++) {
        EXPECT_EQ(static_cast<i32>(deltas[j] + frame.reference),
                  values[frame.first + j]);
      }
      next += frame.count;
    }
    EXPECT_EQ(next, count);
    EXPECT_EQ(reader.consumed(), written) << count;
  }
}

TEST(LayoutTest, BlockTableLocatesAndVerifiesEveryBlock) {
  Column column("c", ColumnType::kInteger);
  for (i32 i = 0; i < 150000; i++) column.AppendInt(i % 1000);
  CompressedRelation relation;
  relation.name = "t";
  relation.row_count = 150000;
  relation.columns.push_back(CompressColumn(column, CompressionConfig{}));
  const CompressedColumn& compressed = relation.columns[0];
  ASSERT_EQ(compressed.blocks.size(), 3u);
  ByteBuffer file;
  SerializeColumnFile(compressed, &file);

  // The block table comes from the table metadata; the column file is
  // the payloads alone, so offsets start at 0.
  ByteBuffer meta_bytes;
  SerializeTableMeta(relation, &meta_bytes);
  TableMeta meta;
  ASSERT_TRUE(ParseTableMeta(meta_bytes.data(), meta_bytes.size(), &meta).ok());
  const BlockTable& blocks = meta.columns[0].blocks;
  ASSERT_EQ(blocks.block_count(), 3u);
  EXPECT_EQ(blocks.block_offsets[0], 0u);
  EXPECT_EQ(blocks.object_size(), file.size());
  for (size_t b = 0; b < 3; b++) {
    const u8* payload = nullptr;
    ASSERT_TRUE(blocks.Locate(file.data(), file.size(), b, &payload).ok());
    ASSERT_EQ(blocks.block_size(b), compressed.blocks[b].size());
    EXPECT_EQ(std::memcmp(payload, compressed.blocks[b].data(),
                          compressed.blocks[b].size()),
              0);
    EXPECT_TRUE(blocks.Intact(b, payload, blocks.block_size(b)));
    EXPECT_FALSE(blocks.Intact(b, payload, blocks.block_size(b) - 1));
  }

  const u8* payload = nullptr;
  Status truncated = blocks.Locate(file.data(), file.size() - 1, 2, &payload);
  EXPECT_TRUE(truncated.IsCorruption()) << truncated.ToString();
  file.data()[blocks.block_offsets[1] + 5] ^= 0x40;
  Status flipped = blocks.Locate(file.data(), file.size(), 1, &payload);
  EXPECT_TRUE(flipped.IsCorruption()) << flipped.ToString();
  EXPECT_TRUE(blocks.Locate(file.data(), file.size(), 0, &payload).ok());
}

// Every scheme decodes through the shared kernels (FillValue, ExpandRuns,
// GatherDict, DecodeDictionary and its fused RLE+Dict path); both SIMD
// policies must reproduce the input exactly.
TEST(LayoutTest, EverySchemeDecodesIdenticallyWithAndWithoutSimd) {
  Random rng(11);
  // Runs of 37 over five values, one row in eight an outlier.
  auto mixed = [&](u32 i) {
    return rng.NextBounded(8) == 0
               ? static_cast<i32>(rng.NextRange(-9000, 9000))
               : static_cast<i32>((i / 37) % 5);
  };

  for (IntSchemeCode scheme :
       {IntSchemeCode::kOneValue, IntSchemeCode::kRle, IntSchemeCode::kDict,
        IntSchemeCode::kFrequency, IntSchemeCode::kBp128,
        IntSchemeCode::kPfor}) {
    std::vector<i32> values(5003);
    for (u32 i = 0; i < values.size(); i++) {
      values[i] = scheme == IntSchemeCode::kOneValue ? 9 : mixed(i);
    }
    ByteBuffer payload = IntPayload(scheme, values);
    for (bool simd : {true, false}) {
      ScopedSimd scoped(simd);
      std::vector<i32> out(values.size() + kDecodeSlack);
      GetScheme(scheme).Decompress(payload.data(), 5003, out.data());
      out.resize(values.size());
      EXPECT_EQ(out, values) << IntSchemeName(scheme) << " simd=" << simd;
    }
  }

  for (DoubleSchemeCode scheme :
       {DoubleSchemeCode::kOneValue, DoubleSchemeCode::kRle,
        DoubleSchemeCode::kDict, DoubleSchemeCode::kFrequency,
        DoubleSchemeCode::kPseudodecimal}) {
    std::vector<double> values(4001);
    for (u32 i = 0; i < values.size(); i++) {
      values[i] = scheme == DoubleSchemeCode::kOneValue
                      ? -0.0
                      : static_cast<double>(mixed(i)) / 4;
    }
    ByteBuffer payload = DoublePayload(scheme, values);
    for (bool simd : {true, false}) {
      ScopedSimd scoped(simd);
      std::vector<double> out(values.size() + kDecodeSlack);
      GetScheme(scheme).Decompress(payload.data(), 4001, out.data());
      EXPECT_EQ(std::memcmp(out.data(), values.data(), values.size() * 8), 0)
          << DoubleSchemeName(scheme) << " simd=" << simd;
    }
  }

  const char* words[] = {"alpha street", "beta avenue", "", "gamma road",
                         "delta lane 17"};
  for (StringSchemeCode scheme :
       {StringSchemeCode::kOneValue, StringSchemeCode::kDict,
        StringSchemeCode::kFsst, StringSchemeCode::kDictFsst}) {
    Column column("s", ColumnType::kString);
    for (u32 i = 0; i < 3001; i++) {
      column.AppendString(scheme == StringSchemeCode::kOneValue
                              ? words[0]
                              : words[(i / 13) % 5]);
    }
    ByteBuffer payload = StringPayload(scheme, column);
    for (bool simd : {true, false}) {
      for (bool fused : {true, false}) {
        ScopedSimd scoped(simd);
        CompressionConfig config;
        config.fused_rle_dict = fused;
        DecodedStrings out;
        out.pool.Append("prefix", 6);  // decoders append behind a base
        GetScheme(scheme).Decompress(payload.data(), 3001, &out, config);
        ASSERT_EQ(out.slots.size(), 3001u);
        for (u32 i = 0; i < 3001; i++) {
          ASSERT_EQ(out.Get(i), column.GetString(i))
              << StringSchemeName(scheme) << " simd=" << simd
              << " fused=" << fused << " row " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace btr
