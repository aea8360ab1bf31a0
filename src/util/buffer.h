// ByteBuffer: an owning, growable byte buffer with SIMD write padding.
//
// Decompression routines in this library are allowed to write up to
// kSimdPadding bytes past the logical end of their output (paper Section 5:
// AVX2 RLE decoding intentionally overshoots run boundaries and corrects the
// cursor afterwards). ByteBuffer always over-allocates by kSimdPadding so
// such stores are safe.
#ifndef BTR_UTIL_BUFFER_H_
#define BTR_UTIL_BUFFER_H_

#include <cstring>
#include <memory>

#include "util/types.h"

namespace btr {

// Bytes of slack kept past size() in every allocation. 32 bytes covers one
// AVX2 register; we use 64 to also cover two-register unrolled stores.
inline constexpr size_t kSimdPadding = 64;

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(size_t size) { Resize(size); }

  ByteBuffer(const ByteBuffer&) = delete;
  ByteBuffer& operator=(const ByteBuffer&) = delete;
  ByteBuffer(ByteBuffer&&) = default;
  ByteBuffer& operator=(ByteBuffer&&) = default;

  u8* data() { return data_.get(); }
  const u8* data() const { return data_.get(); }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  // Grows (or shrinks) the logical size. Contents up to min(old,new) size
  // are preserved. Always keeps kSimdPadding writable bytes past size().
  void Resize(size_t new_size) {
    if (new_size + kSimdPadding > capacity_) {
      size_t new_capacity = new_size + new_size / 2 + kSimdPadding;
      std::unique_ptr<u8[]> grown(new u8[new_capacity]);
      if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_);
      data_ = std::move(grown);
      capacity_ = new_capacity;
    }
    size_ = new_size;
  }

  void Clear() { size_ = 0; }

  // Appends raw bytes. src may be null when n == 0.
  void Append(const void* src, size_t n) {
    if (n == 0) return;
    size_t offset = size_;
    Resize(size_ + n);
    std::memcpy(data_.get() + offset, src, n);
  }

  template <typename T>
  void AppendValue(const T& value) {
    Append(&value, sizeof(T));
  }

 private:
  std::unique_ptr<u8[]> data_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace btr

#endif  // BTR_UTIL_BUFFER_H_
