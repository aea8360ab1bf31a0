// Encoder golden test: pins the byte count and CRC32C of compressed blocks
// and scheme payloads, so a change to any encoder, estimator or picker that
// alters a single scheme decision or output byte fails here. Covers seeded
// Public-BI-like tables, hand-built int and double edge blocks (negative
// values, INT32_MIN/MAX, NaN payloads, -0.0, +-inf, 1-7 value blocks,
// all-NULL blocks), Frequency blocks whose top value is a tie, cascade
// depths 0/1/3 and a restricted scheme mask. Compression has no SIMD path,
// so the constants hold in every build flavour.
//
// On a mismatch the failure message prints the table line to paste.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "btr/btrblocks.h"
#include "btr/scheme.h"
#include "datagen/public_bi.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace btr {
namespace {

struct Golden {
  const char* name;
  u64 bytes;
  u32 crc;
};

struct Actual {
  std::string name;
  u64 bytes;
  u32 crc;
};

std::string Line(const Actual& a) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "    {\"%s\", %" PRIu64 ", 0x%08xu},",
                a.name.c_str(), a.bytes, a.crc);
  return buf;
}

void Record(std::vector<Actual>* out, std::string name, const ByteBuffer& b) {
  out->push_back({std::move(name), b.size(), Crc32c(b.data(), b.size())});
}

void ExpectGolden(const std::vector<Actual>& actual,
                  const std::vector<Golden>& expected) {
  std::string table;
  for (const Actual& a : actual) table += Line(a) + "\n";
  ASSERT_EQ(actual.size(), expected.size()) << "actual table:\n" << table;
  for (size_t i = 0; i < actual.size(); i++) {
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_TRUE(actual[i].bytes == expected[i].bytes &&
                actual[i].crc == expected[i].crc)
        << "expected " << expected[i].bytes << " bytes, got\n"
        << Line(actual[i]);
  }
}

// --- configurations ----------------------------------------------------------

struct NamedConfig {
  const char* name;
  CompressionConfig config;
};

std::vector<NamedConfig> Configs() {
  std::vector<NamedConfig> configs(4);
  configs[0].name = "d0";
  configs[0].config.max_cascade_depth = 0;
  configs[1].name = "d1";
  configs[1].config.max_cascade_depth = 1;
  configs[2].name = "d3";
  configs[3].name = "mask";
  // No bit-packing for ints and no Pseudodecimal for doubles: cascades end
  // in the shared schemes or Uncompressed.
  configs[3].config.int_schemes = (1u << 5) - 1;
  configs[3].config.double_schemes = (1u << 5) - 1;
  return configs;
}

// --- hand-built inputs -------------------------------------------------------

template <typename T>
struct Input {
  std::string name;
  std::vector<T> values;
  std::vector<u8> nulls;  // empty: no NULLs
};

double DoubleOfBits(u64 bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Two values tied for the top count, spread over the block, plus a tail of
// random exceptions: Frequency's top is the first of the two in its
// unordered_map's iteration order. The tails are seeded so that another
// map key (u32 instead of i32, the double instead of its bit pattern)
// picks the other top.
template <typename T, typename Make>
std::vector<T> FrequencyTie(T a, T b, Make exception) {
  std::vector<T> v;
  u32 tied = 0;
  for (u32 i = 0; i < 12000; i++) {
    if (i % 8 == 7) {
      v.push_back(exception());
    } else {
      v.push_back((tied++ / 3) % 2 == 0 ? a : b);
    }
  }
  u32 a_count = 0, b_count = 0;
  for (const T& x : v) {
    if (std::memcmp(&x, &a, sizeof(T)) == 0) a_count++;
    if (std::memcmp(&x, &b, sizeof(T)) == 0) b_count++;
  }
  EXPECT_EQ(a_count, b_count);
  return v;
}

std::vector<Input<i32>> IntInputs() {
  std::vector<Input<i32>> inputs;
  Random rng(7);
  {
    Input<i32> in{"negative", {}, {}};
    for (u32 i = 0; i < 5000; i++) {
      i32 base = -1000000 + static_cast<i32>(i / 40) * 37;
      in.values.push_back(i % 5 == 0 ? base
                                     : -static_cast<i32>(rng.NextBounded(300)));
    }
    inputs.push_back(std::move(in));
  }
  {
    Input<i32> in{"extremes", {}, {}};
    const i32 kMin = std::numeric_limits<i32>::min();
    const i32 kMax = std::numeric_limits<i32>::max();
    const i32 pool[] = {kMin, kMax, 0, -1, 1, kMin + 1, kMax - 1};
    for (u32 i = 0; i < 4000; i++) {
      u32 run = static_cast<u32>(rng.NextBounded(6));
      i32 v = pool[rng.NextBounded(std::size(pool))];
      for (u32 r = 0; r <= run; r++) in.values.push_back(v);
    }
    inputs.push_back(std::move(in));
  }
  for (u32 n = 1; n <= 7; n++) {
    Input<i32> in{"tiny" + std::to_string(n), {}, {}};
    for (u32 i = 0; i < n; i++) {
      in.values.push_back(i % 3 == 0 ? -5 : static_cast<i32>(i * 1000003));
    }
    inputs.push_back(std::move(in));
  }
  inputs.push_back({"all_null", std::vector<i32>(2000, 0),
                    std::vector<u8>(2000, 1)});
  Random tail(2);
  inputs.push_back(
      {"freq_tie",
       FrequencyTie<i32>(7, -3, [&] { return static_cast<i32>(tail.Next()); }),
       {}});
  return inputs;
}

std::vector<Input<double>> DoubleInputs() {
  std::vector<Input<double>> inputs;
  Random rng(11);
  const double kInf = std::numeric_limits<double>::infinity();
  {
    // Quiet, signalling and negative NaNs with distinct payloads.
    const double nans[] = {
        DoubleOfBits(0x7FF8000000000000ull), DoubleOfBits(0x7FF8000000000001ull),
        DoubleOfBits(0x7FF0000000000001ull), DoubleOfBits(0xFFF8000000000000ull),
        DoubleOfBits(0x7FFFFFFFFFFFFFFFull), DoubleOfBits(0xFFF00000DEADBEEFull)};
    Input<double> in{"nan_payloads", {}, {}};
    for (u32 i = 0; i < 6000; i++) {
      if (i % 3 == 0) {
        in.values.push_back(nans[rng.NextBounded(std::size(nans))]);
      } else {
        in.values.push_back(static_cast<double>(rng.NextBounded(10000)) / 100.0);
      }
    }
    inputs.push_back(std::move(in));
  }
  {
    Input<double> in{"signed_zero_inf", {}, {}};
    const double pool[] = {0.0, -0.0, kInf, -kInf, 1.5, -2.25};
    for (u32 i = 0; i < 5000; i++) {
      u32 run = static_cast<u32>(rng.NextBounded(4));
      double v = pool[rng.NextBounded(std::size(pool))];
      for (u32 r = 0; r <= run; r++) in.values.push_back(v);
    }
    inputs.push_back(std::move(in));
  }
  {
    Input<double> in{"decimals", {}, {}};
    for (u32 i = 0; i < 8000; i++) {
      double v = static_cast<double>(rng.NextRange(-500000, 500000)) / 100.0;
      if (i % 97 == 0) v = 1.0 / 3.0 + i;  // patches
      in.values.push_back(v);
    }
    inputs.push_back(std::move(in));
  }
  for (u32 n = 1; n <= 7; n++) {
    Input<double> in{"tiny" + std::to_string(n), {}, {}};
    for (u32 i = 0; i < n; i++) {
      in.values.push_back(i % 3 == 0 ? -0.0 : 0.1 * i - 1e300 * (i % 2));
    }
    inputs.push_back(std::move(in));
  }
  inputs.push_back({"all_null", std::vector<double>(2000, 0.0),
                    std::vector<u8>(2000, 1)});
  Random tail(3);
  inputs.push_back({"freq_tie", FrequencyTie<double>(2.5, -0.0, [&] {
                      return tail.NextBounded(1000000) / 1000.0 + 3.0;
                    }),
                    {}});
  return inputs;
}

// --- tables -------------------------------------------------------------------

const std::vector<Golden> kPublicBiBlocks = {
    {"pbi2023.s_urls_0.b0", 530553, 0x3646a614u},
    {"pbi2023.s_urls_0.b1", 26430, 0xe5d38dceu},
    {"pbi2023.s_category_runs_1.b0", 5214, 0x83e9f7fbu},
    {"pbi2023.s_category_runs_1.b1", 388, 0x6bac078du},
    {"pbi2023.s_segmented_2.b0", 307002, 0x6d73e60bu},
    {"pbi2023.s_segmented_2.b1", 14812, 0x03a706ebu},
    {"pbi2023.s_one_value_3.b0", 25, 0xd3ee28dfu},
    {"pbi2023.s_one_value_3.b1", 25, 0x99686842u},
    {"pbi2023.s_street_addresses_4.b0", 337181, 0x6776ea8eu},
    {"pbi2023.s_street_addresses_4.b1", 17213, 0x0bb96370u},
    {"pbi2023.s_urls_5.b0", 526737, 0x7b8621e0u},
    {"pbi2023.s_urls_5.b1", 26327, 0x057ce294u},
    {"pbi2023.s_null_heavy_6.b0", 25031, 0x262df4fau},
    {"pbi2023.s_null_heavy_6.b1", 1649, 0x8fa5e010u},
    {"pbi2023.s_null_heavy_7.b0", 24858, 0x4c31b402u},
    {"pbi2023.s_null_heavy_7.b1", 1673, 0xaa43c50eu},
    {"pbi2023.d_price_2dec_0.b0", 189455, 0x8755726bu},
    {"pbi2023.d_price_2dec_0.b1", 9047, 0x509c1b33u},
    {"pbi2023.d_price_runs_1.b0", 32308, 0x5f3324d3u},
    {"pbi2023.d_price_runs_1.b1", 1632, 0xbb4ec151u},
    {"pbi2023.d_price_2dec_2.b0", 189859, 0xac23ddd9u},
    {"pbi2023.d_price_2dec_2.b1", 8934, 0x67547e4au},
    {"pbi2023.i_all_zero_0.b0", 14, 0x2468efadu},
    {"pbi2023.i_all_zero_0.b1", 14, 0x3da4b31du},
    {"pbi2023.i_skewed_category_1.b0", 31046, 0x2c2e84ecu},
    {"pbi2023.i_skewed_category_1.b1", 1585, 0xc0c52f6du},
    {"pbi2023.i_fk_runs_2.b0", 19804, 0x645e6aa0u},
    {"pbi2023.i_fk_runs_2.b1", 908, 0xc616613au},
    {"pbi4242.s_urls_0.b0", 528108, 0xcc3fb878u},
    {"pbi4242.s_urls_0.b1", 26487, 0xecc97a4du},
    {"pbi4242.s_null_heavy_1.b0", 24974, 0x0494db5eu},
    {"pbi4242.s_null_heavy_1.b1", 1667, 0x85758dc6u},
    {"pbi4242.s_street_addresses_2.b0", 335279, 0x9f380ce9u},
    {"pbi4242.s_street_addresses_2.b1", 16930, 0x88c07798u},
    {"pbi4242.s_category_runs_3.b0", 5632, 0x32c942b3u},
    {"pbi4242.s_category_runs_3.b1", 400, 0x3dcbbfc2u},
    {"pbi4242.s_low_cardinality_4.b0", 18615, 0xff4d1d84u},
    {"pbi4242.s_low_cardinality_4.b1", 986, 0xaf2c5528u},
    {"pbi4242.s_null_heavy_5.b0", 24694, 0x9a520e0eu},
    {"pbi4242.s_null_heavy_5.b1", 1610, 0xb2829dcau},
    {"pbi4242.s_urls_6.b0", 538072, 0x12cbe53au},
    {"pbi4242.s_urls_6.b1", 26565, 0x166f9c92u},
    {"pbi4242.s_city_names_7.b0", 34697, 0xd61dd4ebu},
    {"pbi4242.s_city_names_7.b1", 1818, 0x850d5db2u},
    {"pbi4242.d_coordinates_0.b0", 512010, 0xc513d65bu},
    {"pbi4242.d_coordinates_0.b1", 24018, 0x66199467u},
    {"pbi4242.d_segmented_1.b0", 232187, 0x2b962811u},
    {"pbi4242.d_segmented_1.b1", 2366, 0x676644cdu},
    {"pbi4242.d_price_runs_2.b0", 32818, 0x6cf6b135u},
    {"pbi4242.d_price_runs_2.b1", 1633, 0x9eb03629u},
    {"pbi4242.i_sequential_0.b0", 66510, 0x93a94002u},
    {"pbi4242.i_sequential_0.b1", 3117, 0xfac2d6acu},
    {"pbi4242.i_supply_amounts_1.b0", 119759, 0x78776363u},
    {"pbi4242.i_supply_amounts_1.b1", 5559, 0xb898c7f3u},
    {"pbi4242.i_seven_digit_codes_2.b0", 77459, 0xa76d1ff1u},
    {"pbi4242.i_seven_digit_codes_2.b1", 4676, 0xd81f9882u},
};

const std::vector<Golden> kIntBlocks = {
    {"int.negative.d0", 20010, 0xf533963bu},
    {"int.negative.d1", 11590, 0x40fae498u},
    {"int.negative.d3", 11590, 0x40fae498u},
    {"int.negative.mask", 20010, 0xf533963bu},
    {"int.extremes.d0", 55770, 0x76075b97u},
    {"int.extremes.d1", 27268, 0xaed33f74u},
    {"int.extremes.d3", 3884, 0xc7a550e8u},
    {"int.extremes.mask", 24376, 0xe4b4c80du},
    {"int.tiny1.d0", 14, 0x8a038a5fu},
    {"int.tiny1.d1", 14, 0x8a038a5fu},
    {"int.tiny1.d3", 14, 0x8a038a5fu},
    {"int.tiny1.mask", 14, 0x8a038a5fu},
    {"int.tiny2.d0", 18, 0x82d1b475u},
    {"int.tiny2.d1", 18, 0x82d1b475u},
    {"int.tiny2.d3", 18, 0x82d1b475u},
    {"int.tiny2.mask", 18, 0x82d1b475u},
    {"int.tiny3.d0", 22, 0xf18e776cu},
    {"int.tiny3.d1", 22, 0xf18e776cu},
    {"int.tiny3.d3", 22, 0xf18e776cu},
    {"int.tiny3.mask", 22, 0xf18e776cu},
    {"int.tiny4.d0", 26, 0x93d8438du},
    {"int.tiny4.d1", 25, 0x6c58e4cau},
    {"int.tiny4.d3", 25, 0x6c58e4cau},
    {"int.tiny4.mask", 26, 0x93d8438du},
    {"int.tiny5.d0", 30, 0x278d26c3u},
    {"int.tiny5.d1", 29, 0xf1ba941bu},
    {"int.tiny5.d3", 29, 0xf1ba941bu},
    {"int.tiny5.mask", 30, 0x278d26c3u},
    {"int.tiny6.d0", 34, 0xbf04904fu},
    {"int.tiny6.d1", 33, 0xf1057b58u},
    {"int.tiny6.d3", 33, 0xf1057b58u},
    {"int.tiny6.mask", 34, 0xbf04904fu},
    {"int.tiny7.d0", 38, 0x66531e9du},
    {"int.tiny7.d1", 33, 0x1dc71eceu},
    {"int.tiny7.d3", 33, 0x1dc71eceu},
    {"int.tiny7.mask", 38, 0x66531e9du},
    {"int.all_null.d0", 8029, 0x11b9e36eu},
    {"int.all_null.d1", 33, 0x2ec062e3u},
    {"int.all_null.d3", 33, 0x2ec062e3u},
    {"int.all_null.mask", 33, 0x2ec062e3u},
    {"int.freq_tie.d0", 48010, 0x06d8c8f5u},
    {"int.freq_tie.d1", 39293, 0xdfcac1a8u},
    {"int.freq_tie.d3", 12808, 0xe7100f67u},
    {"int.freq_tie.mask", 17254, 0xeb4a2282u},
};

const std::vector<Golden> kDoubleBlocks = {
    {"double.nan_payloads.d0", 48010, 0x83d1c4c0u},
    {"double.nan_payloads.d1", 48010, 0x83d1c4c0u},
    {"double.nan_payloads.d3", 34284, 0x14bcc491u},
    {"double.nan_payloads.mask", 48010, 0x83d1c4c0u},
    {"double.signed_zero_inf.d0", 100474, 0x539cc070u},
    {"double.signed_zero_inf.d1", 50299, 0xb54bf110u},
    {"double.signed_zero_inf.d3", 4476, 0xc8e61cfbu},
    {"double.signed_zero_inf.mask", 28629, 0x65280e3bu},
    {"double.decimals.d0", 64010, 0x8e14135fu},
    {"double.decimals.d1", 64010, 0x8e14135fu},
    {"double.decimals.d3", 31186, 0xd19720d0u},
    {"double.decimals.mask", 64010, 0x8e14135fu},
    {"double.tiny1.d0", 18, 0x1b5e2828u},
    {"double.tiny1.d1", 18, 0x1b5e2828u},
    {"double.tiny1.d3", 18, 0x1b5e2828u},
    {"double.tiny1.mask", 18, 0x1b5e2828u},
    {"double.tiny2.d0", 26, 0x8c33cb39u},
    {"double.tiny2.d1", 26, 0x8c33cb39u},
    {"double.tiny2.d3", 26, 0x8c33cb39u},
    {"double.tiny2.mask", 26, 0x8c33cb39u},
    {"double.tiny3.d0", 34, 0x657ce5bcu},
    {"double.tiny3.d1", 34, 0x657ce5bcu},
    {"double.tiny3.d3", 34, 0x657ce5bcu},
    {"double.tiny3.mask", 34, 0x657ce5bcu},
    {"double.tiny4.d0", 42, 0xe1e5e830u},
    {"double.tiny4.d1", 42, 0xe1e5e830u},
    {"double.tiny4.d3", 42, 0xe1e5e830u},
    {"double.tiny4.mask", 42, 0xe1e5e830u},
    {"double.tiny5.d0", 50, 0xc3ec40cbu},
    {"double.tiny5.d1", 50, 0xc3ec40cbu},
    {"double.tiny5.d3", 50, 0xc3ec40cbu},
    {"double.tiny5.mask", 50, 0xc3ec40cbu},
    {"double.tiny6.d0", 58, 0x155b3213u},
    {"double.tiny6.d1", 58, 0x155b3213u},
    {"double.tiny6.d3", 58, 0x155b3213u},
    {"double.tiny6.mask", 58, 0x155b3213u},
    {"double.tiny7.d0", 66, 0x0c615163u},
    {"double.tiny7.d1", 66, 0x0c615163u},
    {"double.tiny7.d3", 58, 0xa85da460u},
    {"double.tiny7.mask", 66, 0x0c615163u},
    {"double.all_null.d0", 16029, 0x6fa4623fu},
    {"double.all_null.d1", 37, 0x1a5c15cbu},
    {"double.all_null.d3", 37, 0x1a5c15cbu},
    {"double.all_null.mask", 37, 0x1a5c15cbu},
    {"double.freq_tie.d0", 96010, 0xa289c037u},
    {"double.freq_tie.d1", 60027, 0xa880c109u},
    {"double.freq_tie.d3", 18808, 0x450fc389u},
    {"double.freq_tie.mask", 23262, 0x641f7004u},
};

const std::vector<Golden> kSchemePayloads = {
    {"int.negative.uncompressed", 20000, 0x3cf7e54eu},
    {"int.negative.rle", 11692, 0x959ed941u},
    {"int.negative.dict", 7998, 0xde56837du},
    {"int.negative.frequency", 11604, 0x0a775174u},
    {"int.negative.fastbp128", 12700, 0x2fd0f322u},
    {"int.negative.fastpfor", 11580, 0xef5b21b5u},
    {"int.extremes.uncompressed", 55760, 0xcaf05ad4u},
    {"int.extremes.rle", 3874, 0x2c2ddd4au},
    {"int.extremes.dict", 3874, 0x11ce6f70u},
    {"int.extremes.frequency", 8432, 0x33a3d74du},
    {"int.extremes.fastbp128", 56305, 0xc13feef1u},
    {"int.extremes.fastpfor", 50432, 0x023da0b9u},
    {"int.tiny1.one_value", 4, 0x84ddce0cu},
    {"int.tiny2.uncompressed", 8, 0x78157365u},
    {"int.tiny2.rle", 22, 0x881f8fa7u},
    {"int.tiny2.dict", 23, 0xa3933becu},
    {"int.tiny2.frequency", 34, 0x266d4610u},
    {"int.tiny2.fastbp128", 10, 0x20b980c6u},
    {"int.tiny2.fastpfor", 11, 0xb4fc41d8u},
    {"int.tiny3.uncompressed", 12, 0xff803223u},
    {"int.tiny3.rle", 26, 0xe40e2fccu},
    {"int.tiny3.dict", 27, 0xa7b6abb7u},
    {"int.tiny3.frequency", 40, 0x09cb1d7du},
    {"int.tiny3.fastbp128", 13, 0x917d3806u},
    {"int.tiny3.fastpfor", 15, 0x6f687cb3u},
    {"int.tiny4.uncompressed", 16, 0xb9ed2e85u},
    {"int.tiny4.rle", 29, 0x8e6315b9u},
    {"int.tiny4.dict", 27, 0xa7b6abb7u},
    {"int.tiny4.frequency", 40, 0xaa4d559cu},
    {"int.tiny4.fastbp128", 16, 0xa23f9c19u},
    {"int.tiny4.fastpfor", 15, 0xe7f0a966u},
    {"int.tiny5.uncompressed", 20, 0x55c4b0a2u},
    {"int.tiny5.rle", 33, 0x80141fbcu},
    {"int.tiny5.dict", 32, 0xc3aff33eu},
    {"int.tiny5.frequency", 46, 0xcf9e08d3u},
    {"int.tiny5.fastbp128", 19, 0xc4004a31u},
    {"int.tiny5.fastpfor", 19, 0x70c597bcu},
    {"int.tiny6.uncompressed", 24, 0x3bbf4905u},
    {"int.tiny6.rle", 37, 0x508c750au},
    {"int.tiny6.dict", 37, 0x8eeee4cbu},
    {"int.tiny6.frequency", 52, 0x1b875ebbu},
    {"int.tiny6.fastbp128", 23, 0xf8265aaau},
    {"int.tiny6.fastpfor", 23, 0xe27ede94u},
    {"int.tiny7.uncompressed", 28, 0x8d517928u},
    {"int.tiny7.rle", 37, 0x5063a846u},
    {"int.tiny7.dict", 37, 0x8eeee4cbu},
    {"int.tiny7.frequency", 52, 0x1b875ebbu},
    {"int.tiny7.fastbp128", 26, 0x01a6eef8u},
    {"int.tiny7.fastpfor", 23, 0xe27ede94u},
    {"int.all_null.one_value", 4, 0x48674bc7u},
    {"int.freq_tie.uncompressed", 48000, 0x20c9aa23u},
    {"int.freq_tie.rle", 12724, 0xd677defau},
    {"int.freq_tie.dict", 12798, 0x35d33813u},
    {"int.freq_tie.frequency", 17244, 0x5e0cfb52u},
    {"int.freq_tie.fastbp128", 48470, 0x3264cf7cu},
    {"int.freq_tie.fastpfor", 39283, 0xb4241cb3u},
    {"double.nan_payloads.uncompressed", 48000, 0x94895be3u},
    {"double.nan_payloads.rle", 37087, 0x18bcdb7cu},
    {"double.nan_payloads.dict", 34820, 0x98fc0226u},
    {"double.nan_payloads.frequency", 34138, 0x6239ebfbu},
    {"double.nan_payloads.pseudodecimal", 34274, 0x5dfbd81cu},
    {"double.signed_zero_inf.uncompressed", 100464, 0xe990f3c2u},
    {"double.signed_zero_inf.rle", 4466, 0xe251a2c9u},
    {"double.signed_zero_inf.dict", 4466, 0x4a529eb1u},
    {"double.signed_zero_inf.frequency", 8484, 0x4f0a96f8u},
    {"double.signed_zero_inf.pseudodecimal", 61477, 0x8dfc975bu},
    {"double.decimals.uncompressed", 64000, 0x9ebbc188u},
    {"double.decimals.rle", 32763, 0x01d9d1f9u},
    {"double.decimals.dict", 72357, 0xde5efbb3u},
    {"double.decimals.frequency", 32788, 0xabbe6927u},
    {"double.decimals.pseudodecimal", 31176, 0x93288178u},
    {"double.tiny1.one_value", 8, 0x0ede89f2u},
    {"double.tiny2.uncompressed", 16, 0x6f129b70u},
    {"double.tiny2.rle", 30, 0x85c9e8c9u},
    {"double.tiny2.dict", 31, 0x4a7acbe6u},
    {"double.tiny2.frequency", 42, 0xa976d4ecu},
    {"double.tiny2.pseudodecimal", 61, 0xf18afe2fu},
    {"double.tiny3.uncompressed", 24, 0xa8024645u},
    {"double.tiny3.rle", 38, 0x631d55cdu},
    {"double.tiny3.dict", 39, 0x038587ecu},
    {"double.tiny3.frequency", 52, 0x9e1d91ebu},
    {"double.tiny3.pseudodecimal", 66, 0x43742a0bu},
    {"double.tiny4.uncompressed", 32, 0x184fede8u},
    {"double.tiny4.rle", 46, 0x9cc10091u},
    {"double.tiny4.dict", 39, 0x038587ecu},
    {"double.tiny4.frequency", 52, 0x311898e9u},
    {"double.tiny4.pseudodecimal", 77, 0xa85b93b3u},
    {"double.tiny5.uncompressed", 40, 0x33bc5124u},
    {"double.tiny5.rle", 54, 0x6b66222bu},
    {"double.tiny5.dict", 48, 0x162adfc8u},
    {"double.tiny5.frequency", 62, 0xe764284cu},
    {"double.tiny5.pseudodecimal", 79, 0x0369bd32u},
    {"double.tiny6.uncompressed", 48, 0xf26a5a66u},
    {"double.tiny6.rle", 62, 0x4dd68143u},
    {"double.tiny6.dict", 48, 0x7b220585u},
    {"double.tiny6.frequency", 72, 0xf15f3583u},
    {"double.tiny6.pseudodecimal", 90, 0x68f58e80u},
    {"double.tiny7.uncompressed", 56, 0x5f5d47f1u},
    {"double.tiny7.rle", 62, 0x73bfc193u},
    {"double.tiny7.dict", 48, 0x7b220585u},
    {"double.tiny7.frequency", 72, 0xf7e79b8au},
    {"double.tiny7.pseudodecimal", 101, 0x2eef5ac5u},
    {"double.all_null.one_value", 8, 0x8c28b28au},
    {"double.freq_tie.uncompressed", 96000, 0x248a8265u},
    {"double.freq_tie.rle", 18724, 0x3b898b0au},
    {"double.freq_tie.dict", 18798, 0x7f531125u},
    {"double.freq_tie.frequency", 23942, 0x3e8552aau},
    {"double.freq_tie.pseudodecimal", 68555, 0x5fff4176u},
};

// --- tests --------------------------------------------------------------------

TEST(EncoderGoldenTest, PublicBiTableBlocks) {
  std::vector<Actual> actual;
  for (u64 seed : {2023u, 4242u}) {
    // One full block and one partial block per column.
    Relation table = datagen::MakePublicBiTable("golden", 67001, seed);
    for (const Column& column : table.columns()) {
      CompressedColumn compressed = CompressColumn(column, CompressionConfig{});
      for (size_t b = 0; b < compressed.blocks.size(); b++) {
        Record(&actual,
               "pbi" + std::to_string(seed) + "." + column.name() + ".b" +
                   std::to_string(b),
               compressed.blocks[b]);
      }
    }
  }
  ExpectGolden(actual, kPublicBiBlocks);
}

TEST(EncoderGoldenTest, IntBlocks) {
  std::vector<Actual> actual;
  for (const Input<i32>& in : IntInputs()) {
    for (const NamedConfig& c : Configs()) {
      ByteBuffer block;
      CompressBlock(in.values.data(),
                    in.nulls.empty() ? nullptr : in.nulls.data(),
                    static_cast<u32>(in.values.size()), &block, c.config);
      Record(&actual, "int." + in.name + "." + c.name, block);
    }
  }
  ExpectGolden(actual, kIntBlocks);
}

TEST(EncoderGoldenTest, DoubleBlocks) {
  std::vector<Actual> actual;
  for (const Input<double>& in : DoubleInputs()) {
    for (const NamedConfig& c : Configs()) {
      ByteBuffer block;
      CompressBlock(in.values.data(),
                    in.nulls.empty() ? nullptr : in.nulls.data(),
                    static_cast<u32>(in.values.size()), &block, c.config);
      Record(&actual, "double." + in.name + "." + c.name, block);
    }
  }
  ExpectGolden(actual, kDoubleBlocks);
}

// Each scheme's encoder called directly at the root (nested vectors still
// cascade through the picker), so a scheme the picker never chooses for
// these inputs is pinned too.
TEST(EncoderGoldenTest, SchemePayloads) {
  const CompressionConfig config;
  const CompressionContext ctx{&config, config.max_cascade_depth};
  std::vector<Actual> actual;
  for (const Input<i32>& in : IntInputs()) {
    const bool constant = in.name == "all_null" || in.name == "tiny1";
    for (u32 c = 0; c < kIntSchemeCount; c++) {
      const IntSchemeCode code = static_cast<IntSchemeCode>(c);
      if ((code == IntSchemeCode::kOneValue) != constant) continue;
      ByteBuffer payload;
      GetScheme(code).Compress(in.values.data(),
                               static_cast<u32>(in.values.size()), &payload,
                               ctx);
      Record(&actual,
             "int." + in.name + "." + IntSchemeName(code), payload);
    }
  }
  for (const Input<double>& in : DoubleInputs()) {
    const bool constant = in.name == "all_null" || in.name == "tiny1";
    for (u32 c = 0; c < kDoubleSchemeCount; c++) {
      const DoubleSchemeCode code = static_cast<DoubleSchemeCode>(c);
      if ((code == DoubleSchemeCode::kOneValue) != constant) continue;
      ByteBuffer payload;
      GetScheme(code).Compress(in.values.data(),
                               static_cast<u32>(in.values.size()), &payload,
                               ctx);
      Record(&actual,
             "double." + in.name + "." + DoubleSchemeName(code), payload);
    }
  }
  ExpectGolden(actual, kSchemePayloads);
}

}  // namespace
}  // namespace btr
