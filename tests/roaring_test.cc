// Unit and property tests for the Roaring bitmap substrate.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bitmap/roaring.h"
#include "util/bits.h"
#include "util/random.h"

namespace btr {
namespace {

TEST(RoaringTest, EmptyBitmap) {
  RoaringBitmap bitmap;
  EXPECT_TRUE(bitmap.Empty());
  EXPECT_EQ(bitmap.Cardinality(), 0u);
  EXPECT_FALSE(bitmap.Contains(0));
}

TEST(RoaringTest, AddAndContains) {
  RoaringBitmap bitmap;
  bitmap.Add(5);
  bitmap.Add(100000);
  bitmap.Add(5);  // duplicate
  EXPECT_EQ(bitmap.Cardinality(), 2u);
  EXPECT_TRUE(bitmap.Contains(5));
  EXPECT_TRUE(bitmap.Contains(100000));
  EXPECT_FALSE(bitmap.Contains(6));
}

TEST(RoaringTest, ArrayToBitsetPromotion) {
  RoaringBitmap bitmap;
  // > 4096 values in one 64k chunk forces the bitset container.
  for (u32 i = 0; i < 10000; i++) bitmap.Add(i * 3);
  EXPECT_EQ(bitmap.Cardinality(), 10000u);
  for (u32 i = 0; i < 10000; i++) {
    EXPECT_TRUE(bitmap.Contains(i * 3));
    if (i * 3 + 1 < 29999) {
      EXPECT_FALSE(bitmap.Contains(i * 3 + 1));
    }
  }
}

TEST(RoaringTest, RunOptimizeDense) {
  RoaringBitmap bitmap;
  for (u32 v = 100; v < 20000; v++) bitmap.Add(v);  // one long run
  u64 before = bitmap.SerializedSizeBytes();
  bitmap.RunOptimize();
  u64 after = bitmap.SerializedSizeBytes();
  EXPECT_LT(after, before);
  EXPECT_EQ(bitmap.Cardinality(), 19900u);
  EXPECT_FALSE(bitmap.Contains(99));
  EXPECT_TRUE(bitmap.Contains(100));
  EXPECT_TRUE(bitmap.Contains(19999));
  EXPECT_FALSE(bitmap.Contains(20000));
}

TEST(RoaringTest, ForEachIsAscending) {
  RoaringBitmap bitmap;
  std::set<u32> expected;
  Random rng(11);
  for (int i = 0; i < 5000; i++) {
    u32 v = static_cast<u32>(rng.NextBounded(1 << 20));
    bitmap.Add(v);
    expected.insert(v);
  }
  std::vector<u32> got = bitmap.ToVector();
  std::vector<u32> want(expected.begin(), expected.end());
  EXPECT_EQ(got, want);
}

// Type byte of the first container in SerializeTo's layout
// (docs/FORMAT.md §3.3): 0 array, 1 bitset, 2 run.
u8 FirstContainerType(const RoaringBitmap& bitmap) {
  ByteBuffer serialized;
  bitmap.SerializeTo(&serialized);
  return serialized.data()[sizeof(u32) + sizeof(u16)];
}

// FromWords builds the same bitmap, container for container, as Add +
// RunOptimize over the words' set bits.
void ExpectFromWordsMatchesAdd(const std::vector<u64>& words,
                               const char* what) {
  RoaringBitmap reference;
  for (u32 v = 0; v < words.size() * 64; v++) {
    if ((words[v / 64] >> (v % 64)) & 1) reference.Add(v);
  }
  reference.RunOptimize();
  RoaringBitmap built =
      RoaringBitmap::FromWords(words.data(), static_cast<u32>(words.size()));
  EXPECT_EQ(built.ToVector(), reference.ToVector()) << what;
  EXPECT_EQ(built.Cardinality(), reference.Cardinality()) << what;
  EXPECT_EQ(built.Empty(), reference.Empty()) << what;
  ByteBuffer a, b;
  built.SerializeTo(&a);
  reference.SerializeTo(&b);
  EXPECT_EQ(std::vector<u8>(a.data(), a.data() + a.size()),
            std::vector<u8>(b.data(), b.data() + b.size()))
      << what << ": container choice differs";
}

TEST(RoaringTest, FromWordsPicksEachContainerType) {
  Random rng(21);
  // 1000 words: one 64,000-row block, which ends inside the first
  // 1024-word container.
  std::vector<u64> sparse(1000, 0), dense(1000, 0), runs(1000, 0);
  for (int i = 0; i < 300; i++) {
    SetBit(sparse.data(), static_cast<u32>(rng.NextBounded(64000)));
  }
  for (u64& w : dense) w = rng.Next();
  SetBits(runs.data(), 100, 20000);
  SetBits(runs.data(), 30000, 63983);  // ends mid-word
  ExpectFromWordsMatchesAdd(sparse, "array");
  ExpectFromWordsMatchesAdd(dense, "bitset");
  ExpectFromWordsMatchesAdd(runs, "run");
  auto build = [](const std::vector<u64>& words) {
    return RoaringBitmap::FromWords(words.data(),
                                    static_cast<u32>(words.size()));
  };
  EXPECT_EQ(FirstContainerType(build(sparse)), 0);
  EXPECT_EQ(FirstContainerType(build(dense)), 1);
  EXPECT_EQ(FirstContainerType(build(runs)), 2);

  // A dense block whose few gaps make runs the smallest form, and run
  // counts on both sides of the point where runs stop being smaller than
  // the bitset (2,048 runs take 8 KiB, as much as the bitset).
  std::vector<u64> gaps(1000, ~u64{0});
  for (u32 i = 0; i < 50; i++) gaps[i * 20] &= ~(u64{1} << (i % 64));
  ExpectFromWordsMatchesAdd(gaps, "dense with gaps");
  std::vector<u64> alternating(1024, 0);
  for (u32 i = 0; i < 2048; i++) {
    SetBits(alternating.data(), i * 32, i * 32 + 4);
  }
  ExpectFromWordsMatchesAdd(alternating, "2048 runs");
  alternating.back() &= 0xF;  // drops the last run
  ExpectFromWordsMatchesAdd(alternating, "2047 runs");

  // A run crossing a word boundary counts once: 1,025 runs (4,100 bytes)
  // beat the 8 KiB bitset; counted per word they would be 2,048 and lose.
  std::vector<u64> straddling(1024, 0xF00000000000000Full);
  ExpectFromWordsMatchesAdd(straddling, "runs across words");
  EXPECT_EQ(FirstContainerType(build(straddling)), 2);
}

TEST(RoaringTest, FromWordsEmptyAndMultiContainer) {
  EXPECT_TRUE(RoaringBitmap::FromWords(nullptr, 0).Empty());
  std::vector<u64> zeros(1000, 0);
  EXPECT_TRUE(RoaringBitmap::FromWords(zeros.data(), 1000).Empty());

  // 2500 words span three containers, the last cut mid-container: an
  // array, an empty chunk (no container), and runs.
  std::vector<u64> words(2500, 0);
  for (u32 v = 7; v < 65536; v += 1000) SetBit(words.data(), v);
  SetBits(words.data(), 2 * 65536 + 10, 2500 * 64 - 3);
  ExpectFromWordsMatchesAdd(words, "three chunks");
  RoaringBitmap built = RoaringBitmap::FromWords(words.data(), 2500);
  EXPECT_FALSE(built.Contains(65536 + 7));
  EXPECT_TRUE(built.Contains(2500 * 64 - 4));
  EXPECT_FALSE(built.Contains(2500 * 64 - 3));
}

TEST(RoaringTest, OrIntoEachContainerTypeClipsAtWordCount) {
  // Container 0 an array, 1 a bitset, 2 runs (the last ending mid-word).
  RoaringBitmap bitmap;
  std::vector<u32> values;
  for (u32 v = 5; v < 65536; v += 1000) values.push_back(v);
  for (u32 v = 65536; v < 2 * 65536; v += 3) values.push_back(v);
  for (u32 v = 2 * 65536 + 5; v < 2 * 65536 + 40001; v++) values.push_back(v);
  for (u32 v : values) bitmap.Add(v);
  bitmap.RunOptimize();

  // Word counts ending mid-container 0, at its end, mid-container 2 (and
  // mid-run), and past the last value.
  for (u32 word_count : {0u, 1u, 1000u, 1024u, 2048u + 300u, 3072u}) {
    const u64 pattern = 0x8000000000000002ull;  // ORed into, never cleared
    std::vector<u64> words(word_count + 4, pattern);
    bitmap.OrInto(words.data(), word_count);
    std::vector<u64> want(word_count + 4, pattern);
    for (u32 v : values) {
      if (v < word_count * 64) SetBit(want.data(), v);
    }
    EXPECT_EQ(words, want) << "word_count " << word_count;
  }
  std::vector<u64> untouched(8, 0);
  RoaringBitmap().OrInto(untouched.data(), 8);
  EXPECT_EQ(untouched, std::vector<u64>(8, 0));
}

class RoaringSerializationTest : public ::testing::TestWithParam<int> {};

TEST_P(RoaringSerializationTest, RoundTrip) {
  // Parameterized over density regimes to hit all three container kinds.
  int mode = GetParam();
  RoaringBitmap bitmap;
  std::set<u32> expected;
  Random rng(mode);
  auto add = [&](u32 v) {
    bitmap.Add(v);
    expected.insert(v);
  };
  switch (mode) {
    case 0:  // sparse
      for (int i = 0; i < 100; i++) add(static_cast<u32>(rng.NextBounded(1u << 30)));
      break;
    case 1:  // dense single chunk
      for (u32 i = 0; i < 30000; i++) add(i * 2);
      break;
    case 2:  // runs
      for (u32 base : {0u, 70000u, 200000u}) {
        for (u32 i = 0; i < 5000; i++) add(base + i);
      }
      break;
    case 3:  // mixed
      for (u32 i = 0; i < 6000; i++) add(i);
      for (int i = 0; i < 50; i++) add(static_cast<u32>(rng.NextBounded(1u << 25)));
      break;
  }
  bitmap.RunOptimize();
  ByteBuffer serialized;
  bitmap.SerializeTo(&serialized);
  EXPECT_EQ(serialized.size(), bitmap.SerializedSizeBytes());

  size_t consumed = 0;
  RoaringBitmap restored = RoaringBitmap::Deserialize(serialized.data(), &consumed);
  EXPECT_EQ(consumed, serialized.size());
  EXPECT_EQ(restored.Cardinality(), expected.size());
  std::vector<u32> got = restored.ToVector();
  std::vector<u32> want(expected.begin(), expected.end());
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Regimes, RoaringSerializationTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(RoaringTest, PropertyRandomVsReference) {
  // Property: RoaringBitmap behaves exactly like std::set<u32> under a
  // random add workload, across chunk boundaries.
  Random rng(77);
  RoaringBitmap bitmap;
  std::set<u32> reference;
  for (int i = 0; i < 20000; i++) {
    u32 v = static_cast<u32>(rng.NextBounded(1u << 18));
    bitmap.Add(v);
    reference.insert(v);
  }
  EXPECT_EQ(bitmap.Cardinality(), reference.size());
  for (int i = 0; i < 5000; i++) {
    u32 v = static_cast<u32>(rng.NextBounded(1u << 18));
    EXPECT_EQ(bitmap.Contains(v), reference.count(v) > 0) << "value " << v;
  }
}

TEST(RoaringTest, OutOfOrderAddsIntoRunContainerStaySorted) {
  // Regression: Add() into a RunOptimize()d container used to append a
  // fresh run at the end regardless of position, corrupting the sorted
  // order that Contains() binary-searches and ForEach() iterates. The
  // predicate engine hits this when patching exception positions into a
  // run-compressed selection (Frequency blocks).
  RoaringBitmap bitmap;
  for (u32 v = 0; v < 10000; v++) {
    if (v % 97 != 0) bitmap.Add(v);  // gaps at multiples of 97
  }
  bitmap.RunOptimize();

  std::set<u32> reference;
  for (u32 v = 0; v < 10000; v++) {
    if (v % 97 != 0) reference.insert(v);
  }
  // Fill some gaps back in descending order — the non-append path.
  Random rng(13);
  for (int i = 0; i < 60; i++) {
    u32 v = static_cast<u32>(rng.NextBounded(10000 / 97)) * 97;
    bitmap.Add(v);
    reference.insert(v);
    bitmap.Add(v);  // idempotent re-add
  }
  EXPECT_EQ(bitmap.Cardinality(), reference.size());
  EXPECT_EQ(bitmap.ToVector(), std::vector<u32>(reference.begin(),
                                                reference.end()));
  for (u32 v = 0; v < 10000; v++) {
    EXPECT_EQ(bitmap.Contains(v), reference.count(v) > 0) << "value " << v;
  }
}

}  // namespace
}  // namespace btr
