// Concurrent-read stress: many threads hammer one KbView, the BGP join
// path, and its join cache with overlapping queries (run under TSAN in
// CI via the `stress` label).
// Asserts: every thread sees the reference answer for every query, join
// cache stats stay internally consistent (hits + misses == lookups,
// residency == insertions - evictions), and repeated batched runs are
// identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "rdf/mmap_file.h"
#include "rdf/snapshot.h"
#include "rdf/triple_store.h"
#include "serve/kb_view.h"
#include "serve/query_engine.h"
#include "synth/query_workload.h"

namespace akb::serve {
namespace {

using rdf::TriplePattern;

std::vector<size_t> Sorted(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

rdf::TripleStore BuildStore(size_t claims, uint64_t seed) {
  Rng rng(seed);
  rdf::TripleStore store;
  std::vector<rdf::TermId> subjects, predicates, objects;
  for (int i = 0; i < 200; ++i) {
    subjects.push_back(
        store.dictionary().InternIri("http://e/s" + std::to_string(i)));
  }
  for (int i = 0; i < 25; ++i) {
    predicates.push_back(
        store.dictionary().InternIri("http://p/p" + std::to_string(i)));
  }
  for (int i = 0; i < 400; ++i) {
    objects.push_back(
        store.dictionary().InternLiteral("o" + std::to_string(i)));
  }
  for (size_t c = 0; c < claims; ++c) {
    store.Insert({rng.Pick(subjects), rng.Pick(predicates), rng.Pick(objects)},
                 rdf::Provenance{});
  }
  return store;
}

TEST(ServeStressTest, ThreadsHammerSharedEngineAndAgree) {
  rdf::TripleStore store = BuildStore(4000, 21);
  KbView view(store);

  synth::QueryWorkloadConfig workload_config;
  workload_config.num_queries = 400;
  workload_config.seed = 33;
  auto patterns = synth::GenerateQueryWorkload(store, workload_config);
  ASSERT_FALSE(patterns.empty());

  // Reference answers, computed serially before any concurrency starts.
  std::vector<std::vector<size_t>> expected;
  expected.reserve(patterns.size());
  for (const TriplePattern& pattern : patterns) {
    expected.push_back(view.Match(pattern));
  }

  QueryEngineConfig config;
  config.num_workers = 2;
  QueryEngine engine(view, config);

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 3;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the same query set from a different offset, so
      // threads constantly overlap on hot keys.
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < patterns.size(); ++i) {
          size_t q = (i + t * 37) % patterns.size();
          QueryResult result = engine.Execute(patterns[q]);
          if (!result.matches || *result.matches != expected[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ServeStressTest, ConcurrentBatchesAreIdenticalAcrossRuns) {
  rdf::TripleStore store = BuildStore(2500, 77);
  KbView view(store);

  synth::QueryWorkloadConfig workload_config;
  workload_config.num_queries = 600;
  workload_config.seed = 91;
  auto patterns = synth::GenerateQueryWorkload(store, workload_config);

  QueryEngineConfig config;
  config.num_workers = 8;
  QueryEngine engine(view, config);

  auto reference = engine.ExecuteBatch(patterns);
  for (int run = 0; run < 4; ++run) {
    auto results = engine.ExecuteBatch(patterns);
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(*results[i].matches, *reference[i].matches)
          << "run " << run << " query " << i;
    }
  }
}

TEST(BgpStressTest, ThreadsHammerSharedEngineWithJoins) {
  rdf::TripleStore store = BuildStore(3000, 45);
  KbView view(store);

  synth::BgpWorkloadConfig workload_config;
  workload_config.num_queries = 120;
  workload_config.seed = 19;
  auto queries = synth::GenerateBgpWorkload(store, workload_config);
  ASSERT_FALSE(queries.empty());

  BgpOptions options;
  options.limit = 5000;

  // Reference answers, computed serially before any concurrency starts.
  // A query may legitimately hit the row limit; then every concurrent
  // execution must return the same kOutOfRange.
  std::vector<Result<BgpRows>> expected;
  expected.reserve(queries.size());
  for (const BgpQuery& query : queries) {
    expected.push_back(ExecuteBgp(view, query, options));
  }

  QueryEngineConfig config;
  config.num_workers = 4;
  config.cache.num_shards = 4;
  // Small enough that eviction happens under load.
  config.cache.max_bytes = 64u << 10;
  QueryEngine engine(view, config);

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 2;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          size_t q = (i + t * 17) % queries.size();
          BgpExecResult result = engine.ExecuteBgp(queries[q], options);
          bool match;
          if (expected[q].ok()) {
            match = result.status.ok() && result.rows != nullptr &&
                    result.rows->data == expected[q]->data;
          } else {
            match = result.status.code() == expected[q].status().code();
          }
          if (!match) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Exactly one cache lookup per valid ExecuteBgp: books must balance.
  ASSERT_NE(engine.bgp_cache(), nullptr);
  CacheStats stats = engine.bgp_cache()->Stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * queries.size());
  EXPECT_EQ(stats.entries, stats.insertions - stats.evictions);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.bytes, engine.bgp_cache()->shard_budget_bytes() *
                             engine.bgp_cache()->num_shards());
}

TEST(BgpStressTest, ConcurrentJoinBatchesAreIdenticalAcrossRuns) {
  rdf::TripleStore store = BuildStore(2000, 63);
  KbView view(store);
  synth::BgpWorkloadConfig workload_config;
  workload_config.num_queries = 150;
  workload_config.seed = 55;
  auto queries = synth::GenerateBgpWorkload(store, workload_config);

  BgpOptions options;
  options.limit = 5000;
  QueryEngineConfig config;
  config.num_workers = 8;
  QueryEngine engine(view, config);

  auto reference = engine.ExecuteBgpBatch(queries, options);
  for (int run = 0; run < 3; ++run) {
    auto results = engine.ExecuteBgpBatch(queries, options);
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status.code(), reference[i].status.code())
          << "run " << run << " query " << i;
      if (reference[i].status.ok()) {
        EXPECT_EQ(results[i].rows->data, reference[i].rows->data)
            << "run " << run << " query " << i;
      }
    }
  }
}

TEST(ServeStressTest, ManyEnginesShareOneView) {
  rdf::TripleStore store = BuildStore(1500, 13);
  KbView view(store);
  synth::QueryWorkloadConfig workload_config;
  workload_config.num_queries = 200;
  workload_config.seed = 7;
  auto patterns = synth::GenerateQueryWorkload(store, workload_config);

  std::vector<std::vector<size_t>> expected;
  for (const TriplePattern& pattern : patterns) {
    expected.push_back(view.Match(pattern));
  }

  // Engines (and their join caches and pools) come and go while others read.
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int lifetime = 0; lifetime < 3; ++lifetime) {
        QueryEngineConfig config;
        config.num_workers = 2;
        QueryEngine engine(view, config);
        auto results = engine.ExecuteBatch(patterns);
        for (size_t i = 0; i < results.size(); ++i) {
          if (*results[i].matches != expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------------------------- mmap lifetime

TEST(MmapStressTest, ReadersHammerMappedViewWhileViewsChurn) {
  rdf::TripleStore store = BuildStore(3000, 97);
  std::string path = ::testing::TempDir() + "/mmap_stress.akbsnap";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  const int64_t baseline = rdf::MmapFile::active_mappings();
  {
    auto shared = KbView::FromSnapshot(path);
    ASSERT_TRUE(shared.ok()) << shared.status();
    ASSERT_TRUE(shared->mapped());

    synth::QueryWorkloadConfig workload_config;
    workload_config.num_queries = 300;
    workload_config.seed = 11;
    auto patterns = synth::GenerateQueryWorkload(store, workload_config);
    ASSERT_FALSE(patterns.empty());
    std::vector<std::vector<size_t>> expected;
    expected.reserve(patterns.size());
    for (const TriplePattern& pattern : patterns) {
      expected.push_back(shared->Match(pattern));
    }

    // 8 readers hammer the long-lived mapped view while a churn thread
    // opens, queries, and destroys fresh views of the same file — each
    // open is its own mapping, so map/unmap churn runs concurrently with
    // reads of the shared mapping (TSAN watches the handoffs; in debug
    // builds each destruction poisons its pages first).
    std::atomic<size_t> mismatches{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    constexpr size_t kThreads = 8;
    constexpr size_t kRounds = 3;
    readers.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        for (size_t round = 0; round < kRounds; ++round) {
          for (size_t i = 0; i < patterns.size(); ++i) {
            size_t q = (i + t * 41) % patterns.size();
            if (shared->Match(patterns[q]) != expected[q]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    std::thread churn([&] {
      size_t opened = 0;
      while (!stop.load(std::memory_order_relaxed) || opened == 0) {
        auto view = KbView::FromSnapshot(path);
        if (!view.ok() || !view->mapped()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        for (size_t q = 0; q < patterns.size(); q += 29) {
          if (Sorted(view->Match(patterns[q])) != Sorted(expected[q])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++opened;  // view destroyed here: poison + munmap under readers
      }
      EXPECT_GT(opened, 0u);
    });
    for (auto& thread : readers) thread.join();
    stop.store(true, std::memory_order_relaxed);
    churn.join();
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(rdf::MmapFile::active_mappings(), baseline + 1);
  }
  // Every view is gone: no leaked mappings.
  EXPECT_EQ(rdf::MmapFile::active_mappings(), baseline);
  std::remove(path.c_str());
}

TEST(MmapStressTest, DestroyingEngineAndViewUnmapsCleanly) {
  rdf::TripleStore store = BuildStore(800, 29);
  std::string path = ::testing::TempDir() + "/mmap_unmap.akbsnap";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  const int64_t baseline = rdf::MmapFile::active_mappings();
  {
    auto view = KbView::FromSnapshot(path);
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_EQ(rdf::MmapFile::active_mappings(), baseline + 1);

    // Moving the view moves the mapping, never duplicates or drops it.
    KbView moved = std::move(*view);
    EXPECT_EQ(rdf::MmapFile::active_mappings(), baseline + 1);
    EXPECT_TRUE(moved.mapped());

    synth::QueryWorkloadConfig workload_config;
    workload_config.num_queries = 100;
    workload_config.seed = 3;
    auto patterns = synth::GenerateQueryWorkload(store, workload_config);
    QueryEngineConfig config;
    config.num_workers = 4;
    {
      QueryEngine engine(moved, config);
      auto results = engine.ExecuteBatch(patterns);
      for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(Sorted(*results[i].matches), Sorted(store.Match(patterns[i])))
            << "query " << i;
      }
      // Engine teardown (worker pool, caches) must not touch the mapping.
    }
    EXPECT_EQ(rdf::MmapFile::active_mappings(), baseline + 1);
  }
  EXPECT_EQ(rdf::MmapFile::active_mappings(), baseline);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace akb::serve
