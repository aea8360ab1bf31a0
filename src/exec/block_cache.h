// In-memory cache of verified block payloads for the scan read path.
//
// Repeated scans of the same table re-GET the same compressed block
// payloads; since decompression is cheap (the paper's premise), those GETs
// *are* the scan cost. An entry is keyed by its block's identity: (object
// key, offset, length, CRC32C), the CRC32C being the one the block table
// (table metadata) that located the block promises. A warm scan skips the object store for
// every cached block.
//
// Trust contract (docs/ROBUSTNESS.md, "What a cache hit is trusted
// with"): the cache computes no checksum. Its caller inserts only bytes it
// verified against that CRC32C when they arrived, so a hit is as good as
// a verified GET. A block rewritten under the same key, offset and length
// carries a new CRC32C in its new metadata, so a reader of that metadata
// misses instead of being served the old bytes. Entries are immutable
// refcounted payloads: `LookupShared` hands out a
// `std::shared_ptr<const ByteBuffer>` without copying, so the shard mutex
// covers only LRU bookkeeping.
//
// Concurrency: the cache is sharded by key hash. Each shard owns a mutex,
// an LRU list and a byte budget (capacity_bytes / shards), so concurrent
// fetch threads mostly touch different locks. Metrics (process-wide):
//   cache.block.hits / cache.block.misses      lookup outcomes
//   cache.block.inserts / cache.block.evictions admissions and LRU victims
//   cache.block.bytes                          gauge, bytes currently held
//   cache.block.bytes_evicted                  payload bytes LRU-evicted
#ifndef BTR_EXEC_BLOCK_CACHE_H_
#define BTR_EXEC_BLOCK_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/buffer.h"
#include "util/types.h"

namespace btr::exec {

struct BlockCacheConfig {
  u64 capacity_bytes = 64ull << 20;  // total payload bytes across shards
  u32 shards = 8;                    // independent LRU partitions

  bool operator==(const BlockCacheConfig&) const = default;
};

class BlockCache {
 public:
  using Payload = std::shared_ptr<const ByteBuffer>;

  explicit BlockCache(const BlockCacheConfig& config = BlockCacheConfig());

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Returns the refcounted immutable payload cached for block (key,
  // offset, length, crc), or nullptr on miss. The payload stays valid for
  // as long as the caller holds the pointer, even across eviction.
  Payload LookupShared(const std::string& key, u64 offset, u64 length,
                       u32 crc);

  // Admits the `length` bytes at `data` as block (key, offset, length,
  // crc). The caller must have verified that they hash to `crc`; the cache
  // does not check. Returns false without caching when the payload alone
  // exceeds a shard's budget, or on length 0. An existing entry of the
  // same block is replaced.
  bool Insert(const std::string& key, u64 offset, u64 length, u32 crc,
              const u8* data);

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 inserts = 0;
    u64 evictions = 0;
    u64 bytes_evicted = 0;  // payload bytes dropped by LRU eviction
    u64 bytes = 0;     // payload bytes currently cached
    u64 entries = 0;   // entries currently cached
  };
  Stats GetStats() const;

 private:
  struct Entry {
    std::string composite_key;
    Payload payload;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    u64 bytes = 0;
  };

  Shard& ShardFor(const std::string& composite_key);
  // Evicts LRU entries of `shard` (mutex held) until it fits its budget.
  void EvictLocked(Shard* shard);

  u64 shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace btr::exec

#endif  // BTR_EXEC_BLOCK_CACHE_H_
