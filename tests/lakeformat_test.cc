// Tests for the Parquet-like and ORC-like baseline formats: encoding
// building blocks, round trips across codecs, dictionary fallback.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "datagen/public_bi.h"
#include "datagen/tpch.h"
#include "lakeformat/orc_like.h"
#include "lakeformat/parquet_like.h"
#include "util/random.h"

namespace btr::lakeformat {
namespace {

void ExpectRelationsEqual(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.columns().size(), b.columns().size());
  ASSERT_EQ(a.row_count(), b.row_count());
  for (size_t c = 0; c < a.columns().size(); c++) {
    const Column& ca = a.columns()[c];
    const Column& cb = b.columns()[c];
    ASSERT_EQ(ca.type(), cb.type());
    for (u32 r = 0; r < a.row_count(); r++) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r)) << ca.name() << " row " << r;
      switch (ca.type()) {
        case ColumnType::kInteger:
          ASSERT_EQ(ca.ints()[r], cb.ints()[r]) << ca.name() << " row " << r;
          break;
        case ColumnType::kDouble: {
          u64 x, y;
          std::memcpy(&x, &ca.doubles()[r], 8);
          std::memcpy(&y, &cb.doubles()[r], 8);
          ASSERT_EQ(x, y) << ca.name() << " row " << r;
          break;
        }
        case ColumnType::kString:
          ASSERT_EQ(ca.GetString(r), cb.GetString(r)) << ca.name() << " row " << r;
          break;
      }
    }
  }
}

// --- building blocks ---------------------------------------------------------

class HybridTest : public ::testing::TestWithParam<u32> {};

TEST_P(HybridTest, RoundTripAcrossBitWidths) {
  u32 bit_width = GetParam();
  Random rng(bit_width + 1);
  u32 bound = bit_width >= 32 ? 0xFFFFFFFFu : ((1u << bit_width) - 1);
  std::vector<u32> values(3000);
  for (size_t i = 0; i < values.size(); i++) {
    // Mix runs and noise to hit both hybrid modes.
    if (rng.NextBounded(4) == 0 && i > 0) {
      values[i] = values[i - 1];
    } else {
      values[i] = bound == 0 ? 0 : static_cast<u32>(rng.Next()) & bound;
    }
  }
  // Inject a long run for the RLE branch.
  for (size_t i = 500; i < 700; i++) values[i] = values[500];
  ByteBuffer encoded;
  HybridEncode(values.data(), static_cast<u32>(values.size()), bit_width,
               &encoded);
  std::vector<u32> decoded(values.size());
  HybridDecode(encoded.data(), static_cast<u32>(values.size()), bit_width,
               decoded.data());
  EXPECT_EQ(decoded, values);
}

INSTANTIATE_TEST_SUITE_P(Widths, HybridTest,
                         ::testing::Values(0u, 1u, 2u, 5u, 8u, 13u, 20u, 32u));

TEST(OrcIntTest, RoundTripMixedModes) {
  Random rng(9);
  std::vector<i64> values;
  // Repeats.
  for (int i = 0; i < 100; i++) values.push_back(42);
  // Deltas.
  for (int i = 0; i < 100; i++) values.push_back(1000 + i * 7);
  // Noise including negatives and 64-bit magnitudes.
  for (int i = 0; i < 1000; i++) {
    values.push_back(static_cast<i64>(rng.Next()));
  }
  // Short runs that stay in direct mode.
  for (int i = 0; i < 100; i++) {
    values.push_back(i % 3);
    values.push_back(i % 3);
  }
  ByteBuffer encoded;
  OrcIntEncode(values.data(), static_cast<u32>(values.size()), &encoded);
  std::vector<i64> decoded(values.size());
  OrcIntDecode(encoded.data(), static_cast<u32>(values.size()), decoded.data());
  EXPECT_EQ(decoded, values);
}

TEST(HybridTest, RleRunAfterPartialGroupStaysAligned) {
  // The writer may only start an RLE run at an 8-value boundary of the
  // pending bit-packed buffer; a long run arriving mid-group must decode
  // correctly either way.
  std::vector<u32> values;
  for (u32 i = 0; i < 5; i++) values.push_back(i % 3);  // partial group
  for (u32 i = 0; i < 100; i++) values.push_back(2);    // long run mid-group
  for (u32 i = 0; i < 11; i++) values.push_back(i % 3);
  ByteBuffer encoded;
  HybridEncode(values.data(), static_cast<u32>(values.size()), 2, &encoded);
  std::vector<u32> decoded(values.size());
  HybridDecode(encoded.data(), static_cast<u32>(values.size()), 2,
               decoded.data());
  EXPECT_EQ(decoded, values);
}

TEST(OrcIntTest, LongDirectWindowAndWideValues) {
  // > 512 values without runs forces multiple direct windows; 64-bit
  // magnitudes exercise the cross-byte spill in the packer.
  Random rng(77);
  std::vector<i64> values;
  for (int i = 0; i < 1300; i++) {
    values.push_back(static_cast<i64>(rng.Next()) >> (i % 48));
  }
  ByteBuffer encoded;
  OrcIntEncode(values.data(), static_cast<u32>(values.size()), &encoded);
  std::vector<i64> decoded(values.size());
  OrcIntDecode(encoded.data(), static_cast<u32>(values.size()), decoded.data());
  EXPECT_EQ(decoded, values);
}

TEST(OrcIntTest, RepeatAndDeltaCompress) {
  std::vector<i64> repeats(10000, 7);
  ByteBuffer encoded;
  OrcIntEncode(repeats.data(), 10000, &encoded);
  EXPECT_LT(encoded.size(), 100u);

  std::vector<i64> sequence(10000);
  for (int i = 0; i < 10000; i++) sequence[i] = i;
  ByteBuffer encoded2;
  OrcIntEncode(sequence.data(), 10000, &encoded2);
  EXPECT_LT(encoded2.size(), 100u);
}

// --- file round trips -----------------------------------------------------------

class FormatRoundTripTest : public ::testing::TestWithParam<gpc::CodecKind> {};

TEST_P(FormatRoundTripTest, ParquetLike) {
  Relation table = datagen::MakePublicBiTable("t", 50000, 77);
  ParquetOptions options;
  options.codec = GetParam();
  options.rowgroup_rows = 20000;  // force multiple rowgroups
  ByteBuffer file = WriteParquetLike(table, options);
  EXPECT_LT(file.size(), table.UncompressedBytes());

  Relation back("t");
  Status status = ReadParquetLike(file.data(), file.size(), &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectRelationsEqual(table, back);

  u64 bytes = 0;
  ASSERT_TRUE(DecodeParquetLikeBytes(file.data(), file.size(), &bytes).ok());
  EXPECT_GT(bytes, 0u);

  // Corruption surfaces as a Status, not an abort.
  u64 ignored = 0;
  EXPECT_FALSE(DecodeParquetLikeBytes(file.data(), 4, &ignored).ok());
}

TEST_P(FormatRoundTripTest, OrcLike) {
  Relation table = datagen::MakePublicBiTable("t", 50000, 78);
  OrcOptions options;
  options.codec = GetParam();
  options.stripe_rows = 20000;
  ByteBuffer file = WriteOrcLike(table, options);
  EXPECT_LT(file.size(), table.UncompressedBytes());

  Relation back("t");
  Status status = ReadOrcLike(file.data(), file.size(), &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectRelationsEqual(table, back);

  u64 bytes = 0;
  ASSERT_TRUE(DecodeOrcLikeBytes(file.data(), file.size(), &bytes).ok());
  EXPECT_GT(bytes, 0u);

  // Corruption surfaces as a Status, not an abort.
  u64 ignored = 0;
  EXPECT_FALSE(DecodeOrcLikeBytes(file.data(), 4, &ignored).ok());
}

INSTANTIATE_TEST_SUITE_P(Codecs, FormatRoundTripTest,
                         ::testing::Values(gpc::CodecKind::kNone,
                                           gpc::CodecKind::kLz77,
                                           gpc::CodecKind::kEntropyLz));

TEST(ParquetLikeTest, DictionaryFallbackOnHighCardinality) {
  // Every value distinct and a dictionary past 1 MiB: Parquet's heuristic
  // must fall back to PLAIN (paper Section 2.1) and the file stays ~input
  // size.
  Relation table("t");
  Column& c = table.AddColumn("s", ColumnType::kString);
  for (int i = 0; i < 50000; i++) {
    c.AppendString("unique_value_with_padding_" + std::to_string(i) +
                   std::string(32, 'x'));
  }
  ByteBuffer file = WriteParquetLike(table, ParquetOptions{});
  EXPECT_GT(file.size(), table.UncompressedBytes() * 9 / 10);
  Relation back("t");
  ASSERT_TRUE(ReadParquetLike(file.data(), file.size(), &back).ok());
  ExpectRelationsEqual(table, back);
}

// Fills 64 KiB of the stack below the caller with `byte`, so a writer that
// copies uninitialized stack bytes into its file writes a different file
// after each call.
__attribute__((noinline)) void DirtyStack(u8 byte) {
  volatile u8 scratch[64 * 1024];
  for (size_t i = 0; i < sizeof(scratch); i++) scratch[i] = byte;
}

void ExpectSameBytes(const ByteBuffer& a, const ByteBuffer& b) {
  ASSERT_EQ(a.size(), b.size());
  size_t differing = 0;
  for (size_t i = 0; i < a.size(); i++) differing += a.data()[i] != b.data()[i];
  EXPECT_EQ(differing, 0u) << "of " << a.size() << " bytes";
}

TEST(LakeFormatTest, FilesDoNotDependOnStackContents) {
  Relation table = datagen::MakePublicBiTable("t", 5000, 80);
  ParquetOptions popts;
  popts.rowgroup_rows = 1000;
  DirtyStack(0x00);
  ByteBuffer parquet_a = WriteParquetLike(table, popts);
  DirtyStack(0xFF);
  ByteBuffer parquet_b = WriteParquetLike(table, popts);
  ExpectSameBytes(parquet_a, parquet_b);

  OrcOptions oopts;
  oopts.stripe_rows = 1000;
  DirtyStack(0x5A);
  ByteBuffer orc_a = WriteOrcLike(table, oopts);
  DirtyStack(0xA5);
  ByteBuffer orc_b = WriteOrcLike(table, oopts);
  ExpectSameBytes(orc_a, orc_b);
}

// --- corrupt containers ----------------------------------------------------

struct Format {
  const char* name;
  ByteBuffer (*write)(const Relation&, gpc::CodecKind);
  Status (*decode)(const u8*, size_t, u64*);
  Status (*read)(const u8*, size_t, Relation*);
};

const Format kFormats[] = {
    {"parquet-like",
     [](const Relation& r, gpc::CodecKind codec) {
       ParquetOptions options;
       options.codec = codec;
       options.rowgroup_rows = 1000;
       return WriteParquetLike(r, options);
     },
     DecodeParquetLikeBytes, ReadParquetLike},
    {"orc-like",
     [](const Relation& r, gpc::CodecKind codec) {
       OrcOptions options;
       options.codec = codec;
       options.stripe_rows = 1000;
       return WriteOrcLike(r, options);
     },
     DecodeOrcLikeBytes, ReadOrcLike},
};

size_t FooterStart(const ByteBuffer& file) {
  u32 footer_bytes = 0;
  std::memcpy(&footer_bytes, file.data() + file.size() - 8, 4);
  return file.size() - 8 - footer_bytes;
}

// Footer layout: u32 columns, rows, group rows; per column a u16 name
// length, the name and a type byte; u32 groups; then the 24-byte chunk
// records (u64 offset, u32 stored bytes, u32 raw bytes, ...).
size_t FirstChunkRecord(const ByteBuffer& file) {
  size_t p = FooterStart(file);
  u32 columns = 0;
  std::memcpy(&columns, file.data() + p, 4);
  p += 12;
  for (u32 c = 0; c < columns; c++) {
    u16 name_length = 0;
    std::memcpy(&name_length, file.data() + p, 2);
    p += 2 + name_length + 1;
  }
  return p + 4;
}

template <typename T>
ByteBuffer Mutate(const ByteBuffer& file, size_t at, T value) {
  ByteBuffer copy;
  copy.Append(file.data(), file.size());
  std::memcpy(copy.data() + at, &value, sizeof(T));
  return copy;
}

void ExpectCorruption(const Format& format, const ByteBuffer& file,
                      const char* mutation) {
  u64 bytes = 0;
  Status decoded = format.decode(file.data(), file.size(), &bytes);
  EXPECT_TRUE(decoded.IsCorruption())
      << format.name << ", " << mutation << ": " << decoded.ToString();
  Relation back("t");
  Status read = format.read(file.data(), file.size(), &back);
  EXPECT_TRUE(read.IsCorruption())
      << format.name << ", " << mutation << ": " << read.ToString();
}

TEST(LakeFormatTest, CorruptFooterAndChunkFramingAreAStatus) {
  Relation table = datagen::MakePublicBiTable("t", 3000, 82);
  for (const Format& format : kFormats) {
    ByteBuffer plain = format.write(table, gpc::CodecKind::kNone);
    ByteBuffer packed = format.write(table, gpc::CodecKind::kLz77);
    size_t record = FirstChunkRecord(plain);
    for (u32 footer_bytes : {static_cast<u32>(plain.size()), 0xFFFFFFF0u}) {
      ExpectCorruption(format, Mutate(plain, plain.size() - 8, footer_bytes),
                       "footer length > file size");
    }
    ExpectCorruption(format, Mutate(plain, record, u64{1} << 40),
                     "chunk offset 2^40");
    // The first chunk starts at offset 0; with a codec its stored bytes
    // differ from its raw bytes, so only the extent check can catch this.
    ExpectCorruption(format,
                     Mutate(packed, FirstChunkRecord(packed) + 8,
                            static_cast<u32>(FooterStart(packed) + 1)),
                     "chunk ends past the footer start");
    u32 raw_bytes = 0;
    std::memcpy(&raw_bytes, plain.data() + record + 12, 4);
    ExpectCorruption(format, Mutate(plain, 0, raw_bytes),
                     "null prefix longer than its chunk");
    // The unmutated files decode.
    u64 bytes = 0;
    EXPECT_TRUE(format.decode(plain.data(), plain.size(), &bytes).ok());
    EXPECT_TRUE(format.decode(packed.data(), packed.size(), &bytes).ok());
  }
}

TEST(LakeFormatTest, CompressionRatioOrderingOnPbi) {
  // Paper Table 2 shape: parquet < parquet+lz4/snappy-class <
  // parquet+zstd-class in compression ratio.
  Relation table = datagen::MakePublicBiTable("t", 100000, 79);
  u64 uncompressed = table.UncompressedBytes();
  ParquetOptions plain_opts;
  ParquetOptions lz_opts;
  lz_opts.codec = gpc::CodecKind::kLz77;
  ParquetOptions zstd_opts;
  zstd_opts.codec = gpc::CodecKind::kEntropyLz;
  u64 plain = WriteParquetLike(table, plain_opts).size();
  u64 lz = WriteParquetLike(table, lz_opts).size();
  u64 entropy = WriteParquetLike(table, zstd_opts).size();
  EXPECT_LT(plain, uncompressed);
  EXPECT_LT(lz, plain);
  EXPECT_LE(entropy, lz);
}

TEST(LakeFormatTest, TpchRoundTrip) {
  datagen::TpchOptions options;
  options.lineitem_rows = 30000;
  Relation lineitem = datagen::MakeLineitem(options);
  ParquetOptions popts;
  popts.codec = gpc::CodecKind::kLz77;
  ByteBuffer pfile = WriteParquetLike(lineitem, popts);
  Relation pback("lineitem");
  ASSERT_TRUE(ReadParquetLike(pfile.data(), pfile.size(), &pback).ok());
  ExpectRelationsEqual(lineitem, pback);

  OrcOptions oopts;
  oopts.codec = gpc::CodecKind::kEntropyLz;
  ByteBuffer ofile = WriteOrcLike(lineitem, oopts);
  Relation oback("lineitem");
  ASSERT_TRUE(ReadOrcLike(ofile.data(), ofile.size(), &oback).ok());
  ExpectRelationsEqual(lineitem, oback);
}

}  // namespace
}  // namespace btr::lakeformat
