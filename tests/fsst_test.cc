// FSST substrate tests: symbol-table construction, round trips on
// structured and adversarial inputs, serialization, compression wins.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fsst/fsst.h"
#include "util/random.h"

namespace btr::fsst {
namespace {

std::string RoundTrip(const SymbolTable& table, const std::string& input) {
  std::vector<u8> compressed(2 * input.size() + 16);
  size_t compressed_len = table.Compress(
      reinterpret_cast<const u8*>(input.data()), input.size(), compressed.data());
  EXPECT_EQ(table.DecompressedSize(compressed.data(), compressed_len),
            input.size());
  std::vector<u8> decompressed(input.size() + 8);
  size_t out_len =
      table.Decompress(compressed.data(), compressed_len, decompressed.data());
  return std::string(reinterpret_cast<char*>(decompressed.data()), out_len);
}

TEST(FsstTest, EmptyInput) {
  SymbolTable table = SymbolTable::Build(nullptr, 0);
  EXPECT_EQ(RoundTrip(table, ""), "");
}

TEST(FsstTest, RepetitiveTextCompressesAndRoundTrips) {
  std::string input;
  for (int i = 0; i < 500; i++) {
    input += "http://www.example.com/products/item";
    input += std::to_string(i % 50);
  }
  SymbolTable table =
      SymbolTable::Build(reinterpret_cast<const u8*>(input.data()), input.size());
  EXPECT_GT(table.symbol_count(), 50u);

  std::vector<u8> compressed(2 * input.size() + 16);
  size_t compressed_len = table.Compress(
      reinterpret_cast<const u8*>(input.data()), input.size(), compressed.data());
  // Structured URLs must compress by at least 2x.
  EXPECT_LT(compressed_len, input.size() / 2);
  EXPECT_EQ(RoundTrip(table, input), input);
}

TEST(FsstTest, RandomBytesRoundTrip) {
  // Incompressible data must still round-trip (worst case all escapes).
  Random rng(42);
  std::string input;
  for (int i = 0; i < 5000; i++) {
    input.push_back(static_cast<char>(rng.Next() & 0xFF));
  }
  SymbolTable table =
      SymbolTable::Build(reinterpret_cast<const u8*>(input.data()), input.size());
  EXPECT_EQ(RoundTrip(table, input), input);
}

TEST(FsstTest, InputWithEmbeddedZerosAndEscapeBytes) {
  std::string input;
  for (int i = 0; i < 1000; i++) {
    input.push_back('\0');
    input.push_back('\xff');  // the escape code byte as a literal
    input.push_back('a');
  }
  SymbolTable table =
      SymbolTable::Build(reinterpret_cast<const u8*>(input.data()), input.size());
  EXPECT_EQ(RoundTrip(table, input), input);
}

TEST(FsstTest, TableTrainedOnSampleHandlesUnseenData) {
  std::string sample = "BERLIN,MUNICH,HAMBURG,COLOGNE,";
  SymbolTable table = SymbolTable::Build(
      reinterpret_cast<const u8*>(sample.data()), sample.size());
  // Data with bytes the table never saw must escape, not corrupt.
  std::string unseen = "zurich|vienna|PRAGUE~42";
  EXPECT_EQ(RoundTrip(table, unseen), unseen);
}

TEST(FsstTest, SerializationRoundTrip) {
  std::string input;
  for (int i = 0; i < 300; i++) input += "SIGMOD2023_btrblocks_";
  SymbolTable table =
      SymbolTable::Build(reinterpret_cast<const u8*>(input.data()), input.size());
  ByteBuffer serialized;
  table.SerializeTo(&serialized);
  EXPECT_EQ(serialized.size(), table.SerializedSizeBytes());

  size_t consumed = 0;
  SymbolTable restored = SymbolTable::Deserialize(serialized.data(), &consumed);
  EXPECT_EQ(consumed, serialized.size());
  EXPECT_EQ(restored.symbol_count(), table.symbol_count());

  // The restored table must decode output of the original encoder.
  std::vector<u8> compressed(2 * input.size() + 16);
  size_t compressed_len = table.Compress(
      reinterpret_cast<const u8*>(input.data()), input.size(), compressed.data());
  std::vector<u8> decompressed(input.size() + 8);
  size_t out_len = restored.Decompress(compressed.data(), compressed_len,
                                       decompressed.data());
  EXPECT_EQ(std::string(reinterpret_cast<char*>(decompressed.data()), out_len),
            input);
}

TEST(FsstTest, CompressBlockHelper) {
  std::string input = "aaaaaaaabbbbbbbbaaaaaaaabbbbbbbb";
  SymbolTable table =
      SymbolTable::Build(reinterpret_cast<const u8*>(input.data()), input.size());
  ByteBuffer out;
  size_t written = CompressBlock(
      table, reinterpret_cast<const u8*>(input.data()), input.size(), &out);
  EXPECT_EQ(written, out.size());
  std::vector<u8> decompressed(input.size() + 8);
  size_t n = table.Decompress(out.data(), out.size(), decompressed.data());
  EXPECT_EQ(std::string(reinterpret_cast<char*>(decompressed.data()), n), input);
}

class FsstPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(FsstPropertyTest, RandomStructuredRoundTrip) {
  // Property: any mixture of dictionary words round-trips bit-exactly.
  Random rng(GetParam());
  const char* words[] = {"alpha", "beta", "gamma", "delta-9", "ZZ", "",
                         "longlonglongword", "x"};
  std::string input;
  for (int i = 0; i < 2000; i++) {
    input += words[rng.NextBounded(8)];
    if (rng.NextBounded(4) == 0) input.push_back(',');
  }
  SymbolTable table =
      SymbolTable::Build(reinterpret_cast<const u8*>(input.data()), input.size());
  EXPECT_EQ(RoundTrip(table, input), input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsstPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Brute-force greedy encoder over a table's serialized symbols: at each
// position the longest symbol that matches the remaining bytes (the lowest
// code among equals), or an escape.
std::vector<u8> GreedyEncode(const SymbolTable& table, const std::string& input) {
  ByteBuffer serialized;
  table.SerializeTo(&serialized);
  const u8* cursor = serialized.data();
  u32 count = *cursor++;
  const u8* lengths = cursor;
  cursor += count;
  std::vector<std::string> symbols;
  for (u32 i = 0; i < count; i++) {
    symbols.emplace_back(reinterpret_cast<const char*>(cursor), lengths[i]);
    cursor += lengths[i];
  }
  std::vector<u8> out;
  for (size_t pos = 0; pos < input.size();) {
    int best = -1;
    for (u32 code = 0; code < count; code++) {
      const std::string& symbol = symbols[code];
      if (symbol.size() <= input.size() - pos &&
          input.compare(pos, symbol.size(), symbol) == 0 &&
          (best < 0 || symbol.size() > symbols[best].size())) {
        best = static_cast<int>(code);
      }
    }
    if (best >= 0) {
      out.push_back(static_cast<u8>(best));
      pos += symbols[best].size();
    } else {
      out.push_back(kEscapeCode);
      out.push_back(static_cast<u8>(input[pos]));
      pos++;
    }
  }
  return out;
}

std::vector<u8> Encode(const SymbolTable& table, const std::string& input) {
  std::vector<u8> out(2 * input.size());
  out.resize(table.Compress(reinterpret_cast<const u8*>(input.data()),
                            input.size(), out.data()));
  return out;
}

TEST(FsstTest, CompressMatchesGreedyReference) {
  Random rng(77);
  std::string random_bytes, urls, addresses, repeated, zeros_and_ff;
  const char* streets[] = {"MAIN ST", "E MAYO BLVD", "OAK AVE", "W 42ND ST"};
  for (int i = 0; i < 600; i++) {
    random_bytes.push_back(static_cast<char>(rng.Next() & 0xFF));
    urls += "https://www.example.com/products/item/";
    urls += std::to_string(rng.NextBounded(100000));
    addresses += std::to_string(rng.NextBounded(9999)) + " " +
                 streets[rng.NextBounded(4)] + ",";
    repeated += "abcab";
    const char bytes[] = {'\0', '\xff', 'a', '\0', '\0', '\xff', '\xff', 'b'};
    zeros_and_ff.push_back(bytes[rng.NextBounded(8)]);
  }
  for (const std::string* text :
       {&random_bytes, &urls, &addresses, &repeated, &zeros_and_ff}) {
    SymbolTable table = SymbolTable::Build(
        reinterpret_cast<const u8*>(text->data()), text->size());
    EXPECT_EQ(Encode(table, *text), GreedyEncode(table, *text));
    // Tails of 1-7 bytes, where fewer than 8 bytes remain to be matched.
    for (size_t tail = 1; tail <= 7; tail++) {
      for (size_t begin : {size_t{0}, size_t{5}, text->size() - tail}) {
        std::string piece = text->substr(begin, tail);
        EXPECT_EQ(Encode(table, piece), GreedyEncode(table, piece));
      }
      std::string cut = text->substr(0, text->size() - tail);
      EXPECT_EQ(Encode(table, cut), GreedyEncode(table, cut));
    }
  }
}

}  // namespace
}  // namespace btr::fsst
