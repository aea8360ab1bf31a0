// From-scratch Roaring bitmap (Lemire et al., "Roaring Bitmaps:
// Implementation of an Optimized Software Library"). BtrBlocks uses Roaring
// bitmaps for NULL tracking and for exception positions inside encodings
// (Frequency, Pseudodecimal) — paper Section 2.2 — and as the selection
// vector a row block's predicate evaluation hands to its caller.
//
// A bitmap over u32 keys is split into 2^16-value chunks addressed by the
// high 16 bits. Each chunk is stored in whichever container is smallest:
//   - ArrayContainer:  sorted u16 list (cardinality <= 4096)
//   - BitsetContainer: 8 KiB bitset   (cardinality  > 4096)
//   - RunContainer:    sorted (start, length) runs, chosen by RunOptimize()
//                      or FromWords()
//
// The predicate engine evaluates a row block into dense words (bit i of
// words[i / 64], util/bits.h) and crosses to and from this type only
// through FromWords and OrInto; there is no set algebra here.
#ifndef BTR_BITMAP_ROARING_H_
#define BTR_BITMAP_ROARING_H_

#include <memory>
#include <vector>

#include "util/buffer.h"
#include "util/types.h"

namespace btr {

class RoaringBitmap {
 public:
  RoaringBitmap() = default;

  // --- Construction -------------------------------------------------------
  // Values may be added in any order; ascending order is the fast path.
  void Add(u32 value);

  // Converts containers to run containers where that representation is
  // smaller. Call once after construction, before Serialize().
  void RunOptimize();

  // The set bits of words[0, word_count): value v is bit v % 64 of
  // words[v / 64]. One counting sweep over each 1024-word chunk picks the
  // smallest of an array, bitset or run container (ties go to array /
  // bitset, as in RunOptimize) and only that one is built; all-zero
  // chunks get none.
  static RoaringBitmap FromWords(const u64* words, u32 word_count);

  // --- Queries -------------------------------------------------------------
  bool Contains(u32 value) const;
  u64 Cardinality() const;
  bool Empty() const { return containers_.empty(); }

  // ORs every value below word_count * 64 into words (same bit layout as
  // FromWords), a container at a time; larger values are ignored.
  void OrInto(u64* words, u32 word_count) const;

  // Calls fn(value) for every set value in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Container& c : containers_) {
      u32 base = static_cast<u32>(c.key) << 16;
      switch (c.type) {
        case ContainerType::kArray:
          for (u16 v : c.array) fn(base | v);
          break;
        case ContainerType::kBitset:
          for (u32 word = 0; word < kBitsetWords; word++) {
            u64 bits = c.bitset[word];
            while (bits != 0) {
              u32 bit = static_cast<u32>(__builtin_ctzll(bits));
              fn(base | (word * 64 + bit));
              bits &= bits - 1;
            }
          }
          break;
        case ContainerType::kRun:
          for (const Run& run : c.runs) {
            for (u32 v = run.start; v <= static_cast<u32>(run.start) + run.length; v++) {
              fn(base | v);
            }
          }
          break;
      }
    }
  }

  // Materializes all set values in ascending order.
  std::vector<u32> ToVector() const;

  // --- Serialization -------------------------------------------------------
  void SerializeTo(ByteBuffer* out) const;
  // Returns bytes consumed; aborts on structurally impossible input (the
  // format is internal, produced only by SerializeTo).
  static RoaringBitmap Deserialize(const u8* data, size_t* bytes_consumed);
  size_t SerializedSizeBytes() const;

 private:
  static constexpr u32 kBitsetWords = 1024;          // 65536 bits
  static constexpr u32 kArrayMaxCardinality = 4096;  // switch point

  enum class ContainerType : u8 { kArray = 0, kBitset = 1, kRun = 2 };

  struct Run {
    u16 start;
    u16 length;  // run covers [start, start+length], inclusive
  };

  struct Container {
    u16 key = 0;
    ContainerType type = ContainerType::kArray;
    u32 cardinality = 0;
    std::vector<u16> array;
    std::vector<u64> bitset;
    std::vector<Run> runs;
  };

  Container* FindOrCreate(u16 key);
  const Container* Find(u16 key) const;
  static bool ContainerFromWords(const u64* words, u32 word_count,
                                 Container* c);
  static void AddToContainer(Container* c, u16 low);
  static bool ContainerContains(const Container& c, u16 low);
  static void ToBitset(Container* c);

  // Sorted by key.
  std::vector<Container> containers_;
};

}  // namespace btr

#endif  // BTR_BITMAP_ROARING_H_
