#include "exec/block_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/metrics.h"

namespace btr::exec {

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Counter& evictions;
  obs::Counter& bytes_evicted;
  obs::Gauge& bytes;

  static CacheMetrics& Get() {
    static CacheMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new CacheMetrics{r.GetCounter("cache.block.hits"),
                              r.GetCounter("cache.block.misses"),
                              r.GetCounter("cache.block.inserts"),
                              r.GetCounter("cache.block.evictions"),
                              r.GetCounter("cache.block.bytes_evicted"),
                              r.GetGauge("cache.block.bytes")};
    }();
    return *m;
  }
};

// The block identity (key, offset, length, crc) folded into one map key:
// the object key, then the three numbers as fixed-width bytes, so the
// split is unambiguous.
std::string CompositeKey(const std::string& key, u64 offset, u64 length,
                         u32 crc) {
  std::string composite;
  composite.reserve(key.size() + 2 * sizeof(u64) + sizeof(u32));
  composite.append(key);
  composite.append(reinterpret_cast<const char*>(&offset), sizeof(offset));
  composite.append(reinterpret_cast<const char*>(&length), sizeof(length));
  composite.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return composite;
}

}  // namespace

BlockCache::BlockCache(const BlockCacheConfig& config)
    : shards_(std::max<u32>(1, config.shards)) {
  shard_capacity_ = std::max<u64>(1, config.capacity_bytes / shards_.size());
}

BlockCache::Shard& BlockCache::ShardFor(const std::string& composite_key) {
  size_t h = std::hash<std::string>()(composite_key);
  return shards_[h % shards_.size()];
}

BlockCache::Payload BlockCache::LookupShared(const std::string& key,
                                             u64 offset, u64 length,
                                             u32 crc) {
  CacheMetrics& metrics = CacheMetrics::Get();
  std::string composite = CompositeKey(key, offset, length, crc);
  Shard& shard = ShardFor(composite);
  Payload payload;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(composite);
    if (it != shard.index.end()) {
      // Move to MRU position; iterators stay valid across splice.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      payload = it->second->payload;
    }
  }
  if (payload == nullptr) {
    metrics.misses.Add();
  } else {
    metrics.hits.Add();
  }
  return payload;
}

bool BlockCache::Insert(const std::string& key, u64 offset, u64 length,
                        u32 crc, const u8* data) {
  CacheMetrics& metrics = CacheMetrics::Get();
  if (length == 0 || length > shard_capacity_) return false;
  auto owned = std::make_shared<ByteBuffer>();
  owned->Append(data, length);
  std::string composite = CompositeKey(key, offset, length, crc);
  Shard& shard = ShardFor(composite);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(composite);
  if (it != shard.index.end()) {
    u64 old_size = it->second->payload->size();
    shard.bytes -= old_size;
    metrics.bytes.Add(-static_cast<i64>(old_size));
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{composite, std::move(owned)});
  shard.index[composite] = shard.lru.begin();
  shard.bytes += length;
  metrics.bytes.Add(static_cast<i64>(length));
  metrics.inserts.Add();
  EvictLocked(&shard);
  return true;
}

void BlockCache::EvictLocked(Shard* shard) {
  CacheMetrics& metrics = CacheMetrics::Get();
  while (shard->bytes > shard_capacity_ && !shard->lru.empty()) {
    Entry& victim = shard->lru.back();
    u64 victim_size = victim.payload->size();
    shard->bytes -= victim_size;
    metrics.bytes.Add(-static_cast<i64>(victim_size));
    metrics.bytes_evicted.Add(victim_size);
    shard->index.erase(victim.composite_key);
    shard->lru.pop_back();
    metrics.evictions.Add();
  }
}

BlockCache::Stats BlockCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.bytes += shard.bytes;
    stats.entries += shard.lru.size();
  }
  // Process-wide counters: meaningful when one cache dominates (the
  // scanner's), indicative otherwise.
  CacheMetrics& metrics = CacheMetrics::Get();
  stats.hits = metrics.hits.Value();
  stats.misses = metrics.misses.Value();
  stats.inserts = metrics.inserts.Value();
  stats.evictions = metrics.evictions.Value();
  stats.bytes_evicted = metrics.bytes_evicted.Value();
  return stats;
}

}  // namespace btr::exec
