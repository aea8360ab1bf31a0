// Helpers for feeding hostile metadata frames to a parser. A parser
// handed damaged or hostile bytes returns Status::Corruption: it never
// throws, never reads past the bytes it was given (each input is an
// exactly-sized copy, so ASan sees an overread) and never allocates for a
// count those bytes cannot hold.
#ifndef BTR_TESTS_HOSTILE_BYTES_H_
#define BTR_TESTS_HOSTILE_BYTES_H_

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/crc32c.h"
#include "util/status.h"

namespace btr {

using Bytes = std::vector<u8>;
using ParseFn = Status (*)(const u8* data, size_t size);

inline Bytes ToBytes(const ByteBuffer& buffer) {
  return Bytes(buffer.data(), buffer.data() + buffer.size());
}

// Writes `value` at `offset` and re-stamps the trailing CRC32C, so the
// damage reaches the field checks behind the CRC.
template <typename T>
Bytes Restamped(Bytes frame, size_t offset, T value) {
  std::memcpy(frame.data() + offset, &value, sizeof(T));
  u32 crc = Crc32c(frame.data(), frame.size() - 4);
  std::memcpy(frame.data() + frame.size() - 4, &crc, 4);
  return frame;
}

inline void ExpectCorruption(ParseFn parse, const Bytes& bytes,
                             const std::string& what) {
  Status status;
  EXPECT_NO_THROW(status = parse(bytes.data(), bytes.size())) << what;
  EXPECT_TRUE(status.IsCorruption()) << what << ": " << status.ToString();
}

// Every proper prefix and every flipped magic byte.
inline void ExpectTruncationsAndMagicCorrupt(ParseFn parse,
                                             const Bytes& frame) {
  for (size_t n = 0; n < frame.size(); n++) {
    ExpectCorruption(parse, Bytes(frame.begin(), frame.begin() + n),
                     "prefix of " + std::to_string(n) + " bytes");
  }
  for (size_t i = 0; i < 4; i++) {
    Bytes bad = frame;
    bad[i] ^= 0x20;
    ExpectCorruption(parse, bad, "magic byte " + std::to_string(i));
  }
}

}  // namespace btr

#endif  // BTR_TESTS_HOSTILE_BYTES_H_
