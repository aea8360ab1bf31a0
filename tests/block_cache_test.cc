// Unit tests for the verified block cache (exec/block_cache.h): entries
// are keyed by block identity (key, offset, length, CRC32C), and each
// shard evicts LRU-first under its byte budget. The concurrent test
// doubles as the TSan workload in CI.
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/block_cache.h"
#include "util/crc32c.h"

namespace btr::exec {
namespace {

std::vector<u8> MakePayload(size_t size, u8 salt) {
  std::vector<u8> payload(size);
  for (size_t i = 0; i < size; i++) {
    payload[i] = static_cast<u8>((i * 31 + salt) & 0xFF);
  }
  return payload;
}

TEST(BlockCacheTest, RoundTripReturnsTheExactBytes) {
  BlockCache cache;
  std::vector<u8> payload = MakePayload(4096, 7);
  u32 crc = Crc32c(payload.data(), payload.size());

  EXPECT_EQ(cache.LookupShared("lake/t.0.btr", 128, payload.size(), crc),
            nullptr);
  ASSERT_TRUE(cache.Insert("lake/t.0.btr", 128, payload.size(), crc,
                           payload.data()));
  BlockCache::Payload out =
      cache.LookupShared("lake/t.0.btr", 128, payload.size(), crc);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->size(), payload.size());
  EXPECT_EQ(0, std::memcmp(out->data(), payload.data(), payload.size()));

  BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, payload.size());
}

// A block rewritten under the same key, offset and length has a new
// CRC32C in its new table metadata: a lookup under that CRC misses instead
// of returning the old bytes.
TEST(BlockCacheTest, KeyIdentityIncludesTheCrc) {
  BlockCache cache;
  std::vector<u8> old_bytes = MakePayload(1024, 3);
  std::vector<u8> new_bytes = MakePayload(1024, 4);
  const u32 old_crc = Crc32c(old_bytes.data(), old_bytes.size());
  const u32 new_crc = Crc32c(new_bytes.data(), new_bytes.size());
  ASSERT_NE(old_crc, new_crc);
  ASSERT_TRUE(cache.Insert("k", 0, old_bytes.size(), old_crc,
                           old_bytes.data()));

  EXPECT_EQ(cache.LookupShared("k", 0, new_bytes.size(), new_crc), nullptr)
      << "a different CRC is a different block";
  ASSERT_TRUE(cache.Insert("k", 0, new_bytes.size(), new_crc,
                           new_bytes.data()));
  BlockCache::Payload out = cache.LookupShared("k", 0, 1024, new_crc);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), new_bytes.data(), new_bytes.size()));
  out = cache.LookupShared("k", 0, 1024, old_crc);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), old_bytes.data(), old_bytes.size()));
}

TEST(BlockCacheTest, KeyIdentityIncludesOffsetAndLength) {
  BlockCache cache;
  std::vector<u8> a = MakePayload(256, 1);
  std::vector<u8> b = MakePayload(512, 2);
  const u32 a_crc = Crc32c(a.data(), a.size());
  const u32 b_crc = Crc32c(b.data(), b.size());
  ASSERT_TRUE(cache.Insert("k", 0, a.size(), a_crc, a.data()));
  ASSERT_TRUE(cache.Insert("k", 256, b.size(), b_crc, b.data()));

  EXPECT_EQ(cache.LookupShared("k", 0, 512, a_crc), nullptr)
      << "different length";
  EXPECT_EQ(cache.LookupShared("k", 128, 256, a_crc), nullptr)
      << "different offset";
  EXPECT_EQ(cache.LookupShared("other", 0, 256, a_crc), nullptr)
      << "different key";
  BlockCache::Payload out = cache.LookupShared("k", 0, 256, a_crc);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), a.data(), a.size()));
  out = cache.LookupShared("k", 256, 512, b_crc);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), b.data(), b.size()));
}

TEST(BlockCacheTest, ReinsertReplacesInsteadOfDoubleCounting) {
  BlockCache cache;
  std::vector<u8> payload = MakePayload(2048, 9);
  u32 crc = Crc32c(payload.data(), payload.size());
  ASSERT_TRUE(cache.Insert("k", 0, 2048, crc, payload.data()));
  ASSERT_TRUE(cache.Insert("k", 0, 2048, crc, payload.data()));
  BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, payload.size());
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsedUnderTheShardBudget) {
  // One shard so LRU order is global and deterministic; room for exactly
  // two payloads.
  BlockCacheConfig config;
  config.shards = 1;
  config.capacity_bytes = 2048;
  BlockCache cache(config);

  std::vector<u8> p0 = MakePayload(1024, 0);
  std::vector<u8> p1 = MakePayload(1024, 1);
  std::vector<u8> p2 = MakePayload(1024, 2);
  const u32 c0 = Crc32c(p0.data(), p0.size());
  const u32 c1 = Crc32c(p1.data(), p1.size());
  const u32 c2 = Crc32c(p2.data(), p2.size());
  ASSERT_TRUE(cache.Insert("k0", 0, 1024, c0, p0.data()));
  ASSERT_TRUE(cache.Insert("k1", 0, 1024, c1, p1.data()));

  // Touch k0 so k1 becomes the LRU victim.
  ASSERT_NE(cache.LookupShared("k0", 0, 1024, c0), nullptr);
  ASSERT_TRUE(cache.Insert("k2", 0, 1024, c2, p2.data()));

  EXPECT_NE(cache.LookupShared("k0", 0, 1024, c0), nullptr)
      << "recently used survives";
  EXPECT_EQ(cache.LookupShared("k1", 0, 1024, c1), nullptr)
      << "LRU entry evicted";
  EXPECT_NE(cache.LookupShared("k2", 0, 1024, c2), nullptr);
  EXPECT_LE(cache.GetStats().bytes, config.capacity_bytes);
}

TEST(BlockCacheTest, OversizedAndEmptyPayloadsAreRejected) {
  BlockCacheConfig config;
  config.shards = 4;
  config.capacity_bytes = 4096;  // 1 KiB per shard
  BlockCache cache(config);

  std::vector<u8> big = MakePayload(2048, 5);  // exceeds any shard budget
  EXPECT_FALSE(cache.Insert("k", 0, big.size(), Crc32c(big.data(), big.size()),
                            big.data()));
  EXPECT_FALSE(cache.Insert("k", 0, 0, 0, big.data()));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

// Concurrency hammer: many threads inserting, looking up and replacing
// overlapping keys on a small cache (constant eviction). Run under TSan in
// CI; correctness here is "no data race, no crash, every hit verifies".
TEST(BlockCacheTest, ConcurrentHammerStaysConsistent) {
  BlockCacheConfig config;
  config.shards = 4;
  config.capacity_bytes = 64 * 1024;
  BlockCache cache(config);

  constexpr u32 kThreads = 4;
  constexpr u32 kOpsPerThread = 400;
  constexpr u32 kKeys = 16;

  std::vector<std::vector<u8>> payloads;
  std::vector<u32> crcs;
  for (u32 k = 0; k < kKeys; k++) {
    payloads.push_back(MakePayload(1024 + 64 * k, static_cast<u8>(k)));
    crcs.push_back(Crc32c(payloads[k].data(), payloads[k].size()));
  }

  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (u32 i = 0; i < kOpsPerThread; i++) {
        u32 k = (i * 7 + t) % kKeys;
        const std::vector<u8>& payload = payloads[k];
        std::string key = "obj" + std::to_string(k);
        if (i % 2 == 0) {
          cache.Insert(key, k, payload.size(), crcs[k], payload.data());
        } else if (BlockCache::Payload out =
                       cache.LookupShared(key, k, payload.size(), crcs[k])) {
          ASSERT_EQ(out->size(), payload.size());
          EXPECT_EQ(Crc32c(out->data(), out->size()), crcs[k])
              << "a hit must always return verified bytes";
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  BlockCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, config.capacity_bytes);
  for (u32 k = 0; k < kKeys; k++) {
    if (BlockCache::Payload out = cache.LookupShared(
            "obj" + std::to_string(k), k, payloads[k].size(), crcs[k])) {
      EXPECT_EQ(Crc32c(out->data(), out->size()), crcs[k]);
    }
  }
}

}  // namespace
}  // namespace btr::exec
