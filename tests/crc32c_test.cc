// CRC32C: known-answer vectors (RFC 3720 / the values every other CRC32C
// implementation agrees on), hardware/software cross-check, and the
// Extend composition the file format relies on.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/crc32c.h"
#include "util/random.h"

namespace btr {
namespace internal {
u32 Crc32cSoftwareForTest(const void* data, size_t n);
}  // namespace internal

namespace {

TEST(Crc32cTest, KnownAnswerVectors) {
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  // "123456789" — the canonical CRC check string.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // 32 zero bytes (RFC 3720 Appendix B.4).
  std::vector<u8> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // 32 0xFF bytes.
  std::vector<u8> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  // 0x00..0x1F ascending.
  std::vector<u8> ascending(32);
  for (size_t i = 0; i < 32; i++) ascending[i] = static_cast<u8>(i);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, HardwareAndSoftwareAgree) {
  Random rng(123);
  // Odd lengths and offsets exercise the head/tail handling of both the
  // slice-by-8 and the u64-at-a-time SSE paths.
  for (size_t n : {0ul, 1ul, 3ul, 7ul, 8ul, 9ul, 63ul, 64ul, 65ul, 1000ul,
                   4096ul, 100001ul}) {
    std::vector<u8> data(n + 3);
    for (u8& b : data) b = static_cast<u8>(rng.Next());
    for (size_t shift = 0; shift < 3; shift++) {
      EXPECT_EQ(Crc32c(data.data() + shift, n),
                internal::Crc32cSoftwareForTest(data.data() + shift, n))
          << "n=" << n << " shift=" << shift;
    }
  }
}

TEST(Crc32cTest, ExtendComposesLikeOneShot) {
  Random rng(7);
  std::vector<u8> data(10000);
  for (u8& b : data) b = static_cast<u8>(rng.Next());
  u32 whole = Crc32c(data.data(), data.size());
  for (size_t split : {0ul, 1ul, 8ul, 4999ul, 9999ul, 10000ul}) {
    u32 part = Crc32c(data.data(), split);
    u32 combined = Crc32cExtend(part, data.data() + split, data.size() - split);
    EXPECT_EQ(combined, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, SingleBitFlipAlwaysChangesChecksum) {
  // The property the scan path depends on: any 1-bit corruption in a block
  // payload is detected (CRCs detect all 1-bit errors by construction).
  std::vector<u8> data(257);
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<u8>(i * 31);
  u32 clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 13) {
    for (int bit = 0; bit < 8; bit++) {
      data[byte] ^= static_cast<u8>(1 << bit);
      EXPECT_NE(Crc32c(data.data(), data.size()), clean)
          << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<u8>(1 << bit);
    }
  }
  EXPECT_EQ(Crc32c(data.data(), data.size()), clean);
}

}  // namespace
}  // namespace btr
