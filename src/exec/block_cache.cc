#include "exec/block_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/metrics.h"
#include "util/crc32c.h"

namespace btr::exec {

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Counter& evictions;
  obs::Counter& bytes_evicted;
  obs::Counter& crc_rejects;
  obs::Gauge& bytes;

  static CacheMetrics& Get() {
    static CacheMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new CacheMetrics{r.GetCounter("cache.block.hits"),
                              r.GetCounter("cache.block.misses"),
                              r.GetCounter("cache.block.inserts"),
                              r.GetCounter("cache.block.evictions"),
                              r.GetCounter("cache.block.bytes_evicted"),
                              r.GetCounter("cache.block.crc_rejects"),
                              r.GetGauge("cache.block.bytes")};
    }();
    return *m;
  }
};

// (key, offset, length) folded into one map key. Object keys are
// path-like and never contain NUL, so the separator is unambiguous.
std::string CompositeKey(const std::string& key, u64 offset, u64 length) {
  std::string composite;
  composite.reserve(key.size() + 24);
  composite.append(key);
  composite.push_back('\0');
  composite.append(std::to_string(offset));
  composite.push_back('\0');
  composite.append(std::to_string(length));
  return composite;
}

}  // namespace

BlockCache::BlockCache(const BlockCacheConfig& config)
    : config_(config), shards_(std::max<u32>(1, config.shards)) {
  shard_capacity_ = std::max<u64>(1, config_.capacity_bytes / shards_.size());
}

BlockCache::Shard& BlockCache::ShardFor(const std::string& composite_key) {
  size_t h = std::hash<std::string>()(composite_key);
  return shards_[h % shards_.size()];
}

BlockCache::Payload BlockCache::LookupShared(const std::string& key,
                                             u64 offset, u64 length) {
  CacheMetrics& metrics = CacheMetrics::Get();
  std::string composite = CompositeKey(key, offset, length);
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
                        const u8* data, size_t size, u32 expected_crc,
                        u32 owner) {
  CacheMetrics& metrics = CacheMetrics::Get();
  if (size == 0 || size > shard_capacity_) return false;
  // Admission gate: only bytes that match the column header's checksum
  // may be cached — a wire-corrupt GET must never become a "hit".
  if (Crc32c(data, size) != expected_crc) {
    metrics.crc_rejects.Add();
    return false;
  }
  auto owned = std::make_shared<ByteBuffer>();
  owned->Append(data, size);
  std::string composite = CompositeKey(key, offset, length);
  Shard& shard = ShardFor(composite);
  std::vector<Dropped> dropped;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(composite);
    if (it != shard.index.end()) {
      u64 old_size = it->second->payload->size();
      shard.bytes -= old_size;
      metrics.bytes.Add(-static_cast<i64>(old_size));
      if (it->second->owner != 0) {
        dropped.push_back(Dropped{it->second->owner, old_size});
      }
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.lru.push_front(Entry{composite, std::move(owned), owner});
    shard.index[composite] = shard.lru.begin();
    shard.bytes += size;
    metrics.bytes.Add(static_cast<i64>(size));
    metrics.inserts.Add();
    EvictLocked(&shard, &dropped);
  }
  NotifyDropped(dropped);
  return true;
}

void BlockCache::EvictLocked(Shard* shard, std::vector<Dropped>* dropped) {
  CacheMetrics& metrics = CacheMetrics::Get();
  while (shard->bytes > shard_capacity_ && !shard->lru.empty()) {
    Entry& victim = shard->lru.back();
    u64 victim_size = victim.payload->size();
    shard->bytes -= victim_size;
    metrics.bytes.Add(-static_cast<i64>(victim_size));
    metrics.bytes_evicted.Add(victim_size);
    if (victim.owner != 0) {
      dropped->push_back(Dropped{victim.owner, victim_size});
    }
    shard->index.erase(victim.composite_key);
    shard->lru.pop_back();
    metrics.evictions.Add();
  }
}

void BlockCache::NotifyDropped(const std::vector<Dropped>& dropped) {
  if (!eviction_callback_ || dropped.empty()) return;
  for (const Dropped& d : dropped) {
    eviction_callback_(d.owner, d.bytes);
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
  stats.crc_rejects = metrics.crc_rejects.Value();
  return stats;
}

}  // namespace btr::exec
