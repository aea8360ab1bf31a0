// String scheme tests: round trips per scheme, the fused RLE+Dict slot
// path, scheme selection on realistic string shapes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "btr/scheme_picker.h"
#include "btr/schemes/string_schemes.h"
#include "util/random.h"
#include "util/simd.h"

namespace btr {
namespace {

struct StringBlock {
  std::vector<u32> offsets{0};
  std::vector<u8> data;

  void Add(std::string_view s) {
    data.insert(data.end(), s.begin(), s.end());
    offsets.push_back(static_cast<u32>(data.size()));
  }
  StringsView View() const {
    return StringsView{offsets.data(), data.data(),
                       static_cast<u32>(offsets.size() - 1)};
  }
};

std::vector<std::string> Materialize(const DecodedStrings& decoded) {
  std::vector<std::string> out;
  out.reserve(decoded.slots.size());
  for (u32 i = 0; i < decoded.slots.size(); i++) {
    out.emplace_back(decoded.Get(i));
  }
  return out;
}

std::vector<std::string> Expected(const StringBlock& block) {
  std::vector<std::string> out;
  StringsView view = block.View();
  for (u32 i = 0; i < view.count; i++) out.emplace_back(view.Get(i));
  return out;
}

std::vector<std::string> RoundTripPicked(const StringBlock& block,
                                         const CompressionConfig& config,
                                         StringSchemeCode* chosen = nullptr) {
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  StringsView view = block.View();
  CompressValues(view, &compressed, ctx, chosen);
  DecodedStrings decoded;
  DecompressStrings(compressed.data(), view.count, &decoded, config);
  return Materialize(decoded);
}

std::vector<std::string> RoundTripWithScheme(StringSchemeCode code,
                                             const StringBlock& block,
                                             const CompressionConfig& config) {
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  StringsView view = block.View();
  GetScheme(code).Compress(view, &compressed, ctx);
  DecodedStrings decoded;
  GetScheme(code).Decompress(compressed.data(), view.count, &decoded,
                                   config);
  return Materialize(decoded);
}

StringBlock MakeCityColumn(u64 seed, u32 count, u32 run_max = 1) {
  const char* cities[] = {"PHOENIX",  "RALEIGH", "BETHESDA", "ATHENS",
                          "BERLIN",   "",        "SEATTLE",  "01 BRONX",
                          "04 BRONX", "Curitiba"};
  Random rng(seed);
  StringBlock block;
  while (block.View().count < count) {
    const char* city = cities[rng.NextBounded(10)];
    u64 run = 1 + rng.NextBounded(run_max);
    for (u64 i = 0; i < run && block.View().count < count; i++) block.Add(city);
  }
  return block;
}

TEST(StringSchemeTest, UncompressedRoundTrip) {
  StringBlock block = MakeCityColumn(1, 5000);
  CompressionConfig config;
  EXPECT_EQ(RoundTripWithScheme(StringSchemeCode::kUncompressed, block, config),
            Expected(block));
}

TEST(StringSchemeTest, OneValueRoundTrip) {
  StringBlock block;
  for (int i = 0; i < 3000; i++) block.Add("CABLE,CABLE");
  CompressionConfig config;
  EXPECT_EQ(RoundTripWithScheme(StringSchemeCode::kOneValue, block, config),
            Expected(block));
  StringSchemeCode chosen;
  RoundTripPicked(block, config, &chosen);
  EXPECT_EQ(chosen, StringSchemeCode::kOneValue);
}

TEST(StringSchemeTest, DictRoundTripAndCompression) {
  StringBlock block = MakeCityColumn(2, 64000);
  CompressionConfig config;
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  size_t bytes = GetScheme(StringSchemeCode::kDict)
                     .Compress(block.View(), &compressed, ctx);
  EXPECT_LT(bytes, block.data.size() / 4);
  EXPECT_EQ(RoundTripWithScheme(StringSchemeCode::kDict, block, config),
            Expected(block));
}

TEST(StringSchemeTest, DictWithEmptyStringsAndEmbeddedZeros) {
  StringBlock block;
  std::string weird("a\0b\xff", 4);
  for (int i = 0; i < 2000; i++) {
    block.Add(i % 3 == 0 ? "" : (i % 3 == 1 ? weird : "normal"));
  }
  CompressionConfig config;
  EXPECT_EQ(RoundTripWithScheme(StringSchemeCode::kDict, block, config),
            Expected(block));
  EXPECT_EQ(RoundTripWithScheme(StringSchemeCode::kFsst, block, config),
            Expected(block));
  EXPECT_EQ(RoundTripWithScheme(StringSchemeCode::kDictFsst, block, config),
            Expected(block));
}

TEST(StringSchemeTest, FusedRleDictMatchesUnfused) {
  // Long runs of few values: codes cascade to RLE, fusion kicks in.
  StringBlock block = MakeCityColumn(3, 64000, /*run_max=*/40);
  CompressionConfig fused;
  fused.fused_rle_dict = true;
  CompressionConfig unfused;
  unfused.fused_rle_dict = false;
  auto a = RoundTripWithScheme(StringSchemeCode::kDict, block, fused);
  auto b = RoundTripWithScheme(StringSchemeCode::kDict, block, unfused);
  EXPECT_EQ(a, Expected(block));
  EXPECT_EQ(b, Expected(block));
  EXPECT_EQ(a, b);
}

TEST(StringSchemeTest, FsstRoundTripOnUrls) {
  Random rng(4);
  StringBlock block;
  for (int i = 0; i < 20000; i++) {
    block.Add("https://www.tableau.com/public/workbook/" +
              std::to_string(rng.NextBounded(100000)));
  }
  CompressionConfig config;
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  size_t bytes = GetScheme(StringSchemeCode::kFsst)
                     .Compress(block.View(), &compressed, ctx);
  // Structured URLs: FSST must get at least 2x on the byte payload.
  EXPECT_LT(bytes, block.data.size() / 2);
  EXPECT_EQ(RoundTripWithScheme(StringSchemeCode::kFsst, block, config),
            Expected(block));
}

TEST(StringSchemeTest, DictFsstBeatsDictOnStructuredDictionary) {
  // Many distinct but structured values (paper: Dict+FSST adds 51% on top
  // of Dictionary for strings).
  Random rng(5);
  StringBlock block;
  for (int i = 0; i < 64000; i++) {
    block.Add("5777 E MAYO BLVD APT " + std::to_string(rng.NextBounded(20000)));
  }
  CompressionConfig config;
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer dict_out, dict_fsst_out;
  size_t dict_bytes = GetScheme(StringSchemeCode::kDict)
                          .Compress(block.View(), &dict_out, ctx);
  size_t dict_fsst_bytes = GetScheme(StringSchemeCode::kDictFsst)
                               .Compress(block.View(), &dict_fsst_out, ctx);
  EXPECT_LT(dict_fsst_bytes, dict_bytes);
  EXPECT_EQ(RoundTripWithScheme(StringSchemeCode::kDictFsst, block, config),
            Expected(block));
}

TEST(StringSchemeTest, ScalarSimdEquivalence) {
  StringBlock block = MakeCityColumn(6, 64000, 10);
  CompressionConfig config;
  CompressionContext ctx{&config, config.max_cascade_depth};
  ByteBuffer compressed;
  CompressValues(block.View(), &compressed, ctx);
  std::vector<std::string> simd, scalar;
  {
    ScopedSimd on(true);
    DecodedStrings decoded;
    DecompressStrings(compressed.data(), block.View().count, &decoded, config);
    simd = Materialize(decoded);
  }
  {
    ScopedSimd off(false);
    DecodedStrings decoded;
    DecompressStrings(compressed.data(), block.View().count, &decoded, config);
    scalar = Materialize(decoded);
  }
  EXPECT_EQ(simd, Expected(block));
  EXPECT_EQ(simd, scalar);
}

class StringPickerTest : public ::testing::TestWithParam<u64> {};

TEST_P(StringPickerTest, PropertyPickedSchemeRoundTrips) {
  Random rng(GetParam());
  u32 shape = static_cast<u32>(rng.NextBounded(4));
  u32 count = 100 + static_cast<u32>(rng.NextBounded(20000));
  StringBlock block;
  for (u32 i = 0; i < count; i++) {
    switch (shape) {
      case 0: {  // random short strings
        std::string s;
        for (u64 j = 0; j < rng.NextBounded(12); j++) {
          s.push_back(static_cast<char>(rng.Next() & 0xFF));
        }
        block.Add(s);
        break;
      }
      case 1: block.Add("constant"); break;
      case 2: block.Add("id-" + std::to_string(rng.NextBounded(40))); break;
      case 3:
        block.Add("http://host/" + std::to_string(i) + "/" +
                  std::to_string(rng.NextBounded(3)));
        break;
    }
  }
  EXPECT_EQ(RoundTripPicked(block, CompressionConfig{}), Expected(block))
      << "shape=" << shape;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringPickerTest,
                         ::testing::Range<u64>(300, 320));

}  // namespace
}  // namespace btr
