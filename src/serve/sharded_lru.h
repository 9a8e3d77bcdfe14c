// Generic thread-safe sharded LRU — the core of the serving layer's one
// result cache, the BGP join cache (BgpResultCache, serve/bgp.h). Single
// patterns are never cached: KbView answers each with two binary
// searches, which is cheaper than a cache lookup.
//
// Keys hash to one of `num_shards` (power of two) independent LRU lists,
// each behind its own mutex with an equal slice of the byte budget, so
// concurrent callers only contend when they collide on a shard. Values
// are shared immutable pointers: a hit hands out a reference with no
// copy, and eviction never invalidates a result a caller still holds.
//
// The template owns the mechanics (sharding, LRU order, byte accounting,
// stat counters); policy — entry byte charges, obs counters, trace
// hooks — lives in the typed wrapper, which is why Put takes the
// pre-computed byte charge instead of inspecting the value.
//
// Stats are exact and internally consistent: every Get counts as exactly
// one hit or one miss under the shard mutex, so across any set of
// concurrent callers hits + misses == lookups and
// entries == insertions - evictions.
#ifndef AKB_SERVE_SHARDED_LRU_H_
#define AKB_SERVE_SHARDED_LRU_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace akb::serve {

struct ResultCacheConfig {
  /// Independent LRU shards (rounded up to a power of two, minimum 1).
  size_t num_shards = 16;
  /// Total byte budget across all shards. Entries are charged their
  /// payload plus a fixed bookkeeping overhead; an entry bigger than a
  /// whole shard's slice is not admitted (counted under `oversize`).
  size_t max_bytes = 64u << 20;
};

/// Aggregated cache counters. Monotonic counters are cumulative since
/// construction; entries/bytes are the current residency.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t oversize = 0;  ///< Put() calls rejected as larger than a shard
  uint64_t entries = 0;   ///< currently cached entries
  uint64_t bytes = 0;     ///< currently charged bytes
};

template <typename Key, typename Value, typename Hash>
class ShardedLru {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  /// `num_shards` is rounded up to a power of two (minimum 1); each shard
  /// gets `max_bytes / shards`, floored at `min_entry_bytes` so a budget
  /// smaller than one entry still admits something.
  ShardedLru(size_t num_shards, size_t max_bytes, size_t min_entry_bytes) {
    size_t shards = 1;
    while (shards < std::max<size_t>(1, num_shards)) shards <<= 1;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    shard_mask_ = shards - 1;
    shard_budget_ = std::max(min_entry_bytes, max_bytes / shards);
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// Returns the cached value or nullptr; a hit refreshes LRU recency.
  ValuePtr Get(const Key& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return nullptr;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Inserts (or refreshes) `value` charged at `bytes`, evicting from the
  /// shard's LRU tail until its slice fits the budget. Returns the number
  /// of entries evicted; an entry bigger than the whole shard budget is
  /// rejected (counted under `oversize`).
  uint64_t Put(const Key& key, ValuePtr value, size_t bytes) {
    if (!value) return 0;
    Shard& shard = ShardFor(key);
    uint64_t evicted = 0;
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (bytes > shard_budget_) {
      ++shard.oversize;
      return 0;
    }
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh in place (a concurrent filler raced us; same KB, so the
      // values are equal anyway) and bump recency.
      shard.bytes -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      shard.bytes += bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), bytes});
      shard.index.emplace(key, shard.lru.begin());
      shard.bytes += bytes;
      ++shard.insertions;
    }
    while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.evictions;
      ++evicted;
    }
    return evicted;
  }

  CacheStats Stats() const {
    CacheStats stats;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      stats.hits += shard->hits;
      stats.misses += shard->misses;
      stats.insertions += shard->insertions;
      stats.evictions += shard->evictions;
      stats.oversize += shard->oversize;
      stats.entries += shard->lru.size();
      stats.bytes += shard->bytes;
    }
    return stats;
  }

  /// Drops every entry (stats counters are kept).
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->lru.clear();
      shard->index.clear();
      shard->bytes = 0;
    }
  }

  size_t num_shards() const { return shards_.size(); }
  size_t shard_budget_bytes() const { return shard_budget_; }

 private:
  struct Entry {
    Key key;
    ValuePtr value;
    size_t bytes = 0;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t oversize = 0;
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[Hash{}(key) & shard_mask_];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  size_t shard_budget_ = 0;
};

}  // namespace akb::serve

#endif  // AKB_SERVE_SHARDED_LRU_H_
