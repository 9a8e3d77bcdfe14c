// ShardedLru unit tests: hit/miss accounting, LRU order, byte-budgeted
// eviction, oversize rejection, and refresh semantics. ShardedLru is the
// core of the engine's result cache (the BGP join cache, configured by
// ResultCacheConfig), so the suite keeps the name ResultCacheTest; the
// join cache's own policy (canonical keys, entry charges, counters) is
// tested in bgp_test.cc.
#include "serve/sharded_lru.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace akb::serve {
namespace {

using Lru = ShardedLru<uint32_t, std::vector<size_t>, std::hash<uint32_t>>;

// The byte charge these tests put on a value of `n` indices.
size_t Bytes(size_t n) { return 128 + n * sizeof(size_t); }

Lru::ValuePtr MakeValue(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return std::make_shared<const std::vector<size_t>>(std::move(v));
}

void Put(Lru& lru, uint32_t key, size_t n) {
  lru.Put(key, MakeValue(n), Bytes(n));
}

TEST(ResultCacheTest, MissThenHit) {
  Lru lru(16, 64u << 20, Bytes(0));
  EXPECT_EQ(lru.Get(1), nullptr);
  auto value = MakeValue(3);
  lru.Put(1, value, Bytes(3));
  auto got = lru.Get(1);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), value.get());  // shared, not copied

  CacheStats stats = lru.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, Bytes(3));
}

TEST(ResultCacheTest, HitsPlusMissesEqualLookups) {
  Lru lru(16, 64u << 20, Bytes(0));
  for (uint32_t i = 0; i < 50; ++i) {
    if (!lru.Get(i % 10)) Put(lru, i % 10, 1);
  }
  CacheStats stats = lru.Stats();
  EXPECT_EQ(stats.hits + stats.misses, 50u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedWithinBudget) {
  // One shard whose budget fits exactly two empty-value entries.
  const size_t max_bytes = 2 * Bytes(0);
  Lru lru(1, max_bytes, Bytes(0));
  ASSERT_EQ(lru.num_shards(), 1u);

  Put(lru, 1, 0);
  Put(lru, 2, 0);
  EXPECT_EQ(lru.Put(3, MakeValue(0), Bytes(0)), 1u);  // evicts key 1
  EXPECT_EQ(lru.Get(1), nullptr);
  EXPECT_NE(lru.Get(2), nullptr);
  EXPECT_NE(lru.Get(3), nullptr);

  CacheStats stats = lru.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, max_bytes);
}

TEST(ResultCacheTest, GetRefreshesRecency) {
  Lru lru(1, 2 * Bytes(0), Bytes(0));

  Put(lru, 1, 0);
  Put(lru, 2, 0);
  EXPECT_NE(lru.Get(1), nullptr);  // 1 becomes most recent
  Put(lru, 3, 0);                  // evicts 2, not 1
  EXPECT_NE(lru.Get(1), nullptr);
  EXPECT_EQ(lru.Get(2), nullptr);
  EXPECT_NE(lru.Get(3), nullptr);
}

TEST(ResultCacheTest, RejectsEntriesLargerThanAShard) {
  Lru lru(1, Bytes(10), Bytes(0));

  Put(lru, 1, 1000);
  EXPECT_EQ(lru.Get(1), nullptr);
  CacheStats stats = lru.Stats();
  EXPECT_EQ(stats.oversize, 1u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ResultCacheTest, RefreshUpdatesBytesWithoutDoubleCount) {
  Lru lru(1, 1u << 20, Bytes(0));

  Put(lru, 1, 10);
  Put(lru, 1, 100);
  CacheStats stats = lru.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.bytes, Bytes(100));
  auto got = lru.Get(1);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size(), 100u);
}

TEST(ResultCacheTest, ClearDropsEntriesKeepsCounters) {
  Lru lru(16, 64u << 20, Bytes(0));
  Put(lru, 1, 5);
  EXPECT_NE(lru.Get(1), nullptr);
  lru.Clear();
  EXPECT_EQ(lru.Get(1), nullptr);
  CacheStats stats = lru.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  Lru lru(5, 64u << 20, Bytes(0));
  EXPECT_EQ(lru.num_shards(), 8u);

  Lru single(0, 64u << 20, Bytes(0));
  EXPECT_EQ(single.num_shards(), 1u);
}

}  // namespace
}  // namespace akb::serve
