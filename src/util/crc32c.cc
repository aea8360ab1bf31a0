#include "util/crc32c.h"

#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#define BTR_HAS_HW_CRC32C 1
#else
#define BTR_HAS_HW_CRC32C 0
#endif

namespace btr {

namespace {

// Slice-by-8 tables for the reflected Castagnoli polynomial, generated at
// static-init time (256*8 u32 = 8 KiB, cheaper than shipping the table).
constexpr u32 kPoly = 0x82F63B78u;

struct Tables {
  u32 t[8][256];

  Tables() {
    for (u32 i = 0; i < 256; i++) {
      u32 crc = i;
      for (int bit = 0; bit < 8; bit++) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (u32 i = 0; i < 256; i++) {
      for (int slice = 1; slice < 8; slice++) {
        t[slice][i] = (t[slice - 1][i] >> 8) ^ t[0][t[slice - 1][i] & 0xFF];
      }
    }
  }
};

const Tables& tables() {
  static const Tables tables;
  return tables;
}

u32 ExtendSoftware(u32 state, const u8* p, size_t n) {
  const Tables& tb = tables();
  while (n >= 8) {
    u64 word;
    std::memcpy(&word, p, 8);
    word ^= state;
    state = tb.t[7][word & 0xFF] ^ tb.t[6][(word >> 8) & 0xFF] ^
            tb.t[5][(word >> 16) & 0xFF] ^ tb.t[4][(word >> 24) & 0xFF] ^
            tb.t[3][(word >> 32) & 0xFF] ^ tb.t[2][(word >> 40) & 0xFF] ^
            tb.t[1][(word >> 48) & 0xFF] ^ tb.t[0][word >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    state = (state >> 8) ^ tb.t[0][(state ^ *p++) & 0xFF];
  }
  return state;
}

#if BTR_HAS_HW_CRC32C
u32 ExtendHardware(u32 state, const u8* p, size_t n) {
  u64 state64 = state;
  while (n >= 8) {
    u64 word;
    std::memcpy(&word, p, 8);
    state64 = _mm_crc32_u64(state64, word);
    p += 8;
    n -= 8;
  }
  u32 state32 = static_cast<u32>(state64);
  while (n-- > 0) {
    state32 = _mm_crc32_u8(state32, *p++);
  }
  return state32;
}
#endif

}  // namespace

u32 Crc32cExtend(u32 crc, const void* data, size_t n) {
  const u8* p = static_cast<const u8*>(data);
  u32 state = ~crc;
#if BTR_HAS_HW_CRC32C
  return ~ExtendHardware(state, p, n);
#else
  return ~ExtendSoftware(state, p, n);
#endif
}

u32 Crc32c(const void* data, size_t n) { return Crc32cExtend(0, data, n); }

namespace internal {
// Exposed for the cross-check test only (declared locally there).
u32 Crc32cSoftwareForTest(const void* data, size_t n) {
  return ~ExtendSoftware(~0u, static_cast<const u8*>(data), n);
}
}  // namespace internal

}  // namespace btr
