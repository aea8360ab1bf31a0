// Framing of the small metadata objects stored next to the data: the
// manifest ("BTRV"), write intents ("BTRI"), table metadata ("BTRT") and
// zone maps ("BTRZ"). Each one is
//
//   4-byte magic | fields | u32 CRC32C of every byte before it
//
// (docs/FORMAT.md §1). Writers bracket their fields with BeginFrame and
// EndFrame; readers check the frame with OpenFrame and take the fields
// through a ByteReader. A CRC only proves the bytes are the ones a writer
// stored, not that a writer got them right, so the reader also bounds
// every length and count by the bytes present: a hostile count fails as
// Status::Corruption before anything is allocated for it. The baseline
// formats' footer (lakeformat/container.cc) is not CRC-framed but reads
// through the same ByteReader.
#ifndef BTR_UTIL_FRAMING_H_
#define BTR_UTIL_FRAMING_H_

#include <cstring>
#include <string>

#include "util/buffer.h"
#include "util/crc32c.h"
#include "util/status.h"
#include "util/types.h"

namespace btr {

// Bounds-checked cursor over [data, data + size). A read that would pass
// the end returns false and consumes nothing.
class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const u8* data, size_t size) : p_(data), end_(data + size) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  [[nodiscard]] bool ReadBytes(void* dst, size_t n) {
    if (n > remaining()) return false;
    if (n > 0) std::memcpy(dst, p_, n);
    p_ += n;
    return true;
  }
  [[nodiscard]] bool Skip(size_t n) {
    if (n > remaining()) return false;
    p_ += n;
    return true;
  }
  // A fixed-width value in the format's (little-endian) byte order.
  template <typename T>
  [[nodiscard]] bool Read(T* value) {
    return ReadBytes(value, sizeof(T));
  }
  // A u16 length, then that many bytes.
  [[nodiscard]] bool ReadString(std::string* out) {
    u16 length = 0;
    if (!Read(&length) || length > remaining()) return false;
    out->assign(reinterpret_cast<const char*>(p_), length);
    p_ += length;
    return true;
  }
  // A u32 count of items that take at least `min_item_bytes` each,
  // accepted only when the bytes left can hold that many: a caller may
  // size a container by it.
  [[nodiscard]] bool ReadCount(u32* count, size_t min_item_bytes) {
    u32 n = 0;
    if (!Read(&n) || n > remaining() / min_item_bytes) return false;
    *count = n;
    return true;
  }

 private:
  const u8* p_ = nullptr;
  const u8* end_ = nullptr;
};

// Appends `magic` and returns the frame's start offset for EndFrame.
inline size_t BeginFrame(const char (&magic)[4], ByteBuffer* out) {
  size_t start = out->size();
  out->Append(magic, 4);
  return start;
}

// Appends the CRC32C of everything from `start` on.
inline void EndFrame(size_t start, ByteBuffer* out) {
  out->AppendValue<u32>(Crc32c(out->data() + start, out->size() - start));
}

// Checks that [data, data + size) is one whole frame: room for the magic
// and the trailer, the expected magic, and a trailer equal to the CRC32C
// of the bytes before it. Then points *fields at the bytes between the
// magic and the trailer. `what` names the object in the error.
inline Status OpenFrame(const u8* data, size_t size, const char (&magic)[4],
                        const char* what, ByteReader* fields) {
  if (size < 8) return Status::Corruption(std::string(what) + " truncated");
  if (std::memcmp(data, magic, 4) != 0) {
    return Status::Corruption(std::string("bad ") + what + " magic");
  }
  u32 stored_crc = 0;
  std::memcpy(&stored_crc, data + size - 4, 4);
  if (Crc32c(data, size - 4) != stored_crc) {
    return Status::Corruption(std::string(what) + " CRC mismatch");
  }
  *fields = ByteReader(data + 4, size - 8);
  return Status::Ok();
}

}  // namespace btr

#endif  // BTR_UTIL_FRAMING_H_
