// Differential property test — the contract that makes the serving index
// trustworthy: for randomized stores and every one of the 8 triple-pattern
// shapes, KbView (directly, and through a QueryEngine with its join cache
// on and off) returns exactly the same match set as the write-side
// TripleStore::Match reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "rdf/triple_store.h"
#include "serve/kb_view.h"
#include "serve/query_engine.h"
#include "synth/query_workload.h"

#include "random_store.h"

namespace akb::serve {
namespace {

using rdf::TermId;
using rdf::TriplePattern;

std::vector<size_t> Sorted(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// One base (s,p,o) id triple masked into all 8 shapes.
std::vector<TriplePattern> AllShapes(TermId s, TermId p, TermId o) {
  return {
      {s, p, o}, {s, p, 0}, {s, 0, o}, {0, p, o},
      {s, 0, 0}, {0, p, 0}, {0, 0, o}, {0, 0, 0},
  };
}

TEST(ServePropertyTest, KbViewEqualsMatchOnRandomStores) {
  constexpr uint64_t kSeeds = 200;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    rdf::TripleStore store = RandomStore(seed);
    KbView view(store);
    ASSERT_EQ(view.num_triples(), store.num_triples());

    Rng rng(seed * 977 + 1);
    std::vector<TriplePattern> patterns;
    // Bases drawn from existing triples (guaranteed hits at every shape)...
    for (int i = 0; i < 6 && store.num_triples() > 0; ++i) {
      const rdf::Triple& t = store.triple(rng.Index(store.num_triples()));
      auto shapes = AllShapes(t.subject, t.predicate, t.object);
      patterns.insert(patterns.end(), shapes.begin(), shapes.end());
    }
    // ...and from random ids (interned or ghost, so partial/total misses).
    TermId id_limit = TermId(store.dictionary().size() + 4);
    for (int i = 0; i < 4; ++i) {
      auto shapes = AllShapes(TermId(rng.Index(id_limit) + 1),
                              TermId(rng.Index(id_limit) + 1),
                              TermId(rng.Index(id_limit) + 1));
      patterns.insert(patterns.end(), shapes.begin(), shapes.end());
    }

    for (const TriplePattern& pattern : patterns) {
      // The store returns ascending distinct indices; the view returns
      // the same distinct indices in permutation-key order. Sorting the
      // view side makes vector equality exactly set equality.
      auto expected = store.Match(pattern);
      EXPECT_EQ(Sorted(view.Match(pattern)), expected)
          << "seed " << seed << " pattern (" << pattern.subject << " "
          << pattern.predicate << " " << pattern.object << ")";
      EXPECT_EQ(view.Count(pattern), expected.size());
    }
  }
}

TEST(ServePropertyTest, EngineCacheOnAndOffAgreeWithMatch) {
  constexpr uint64_t kSeeds = 40;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    rdf::TripleStore store = RandomStore(seed + 5000);
    if (store.num_triples() == 0) continue;
    KbView view(store);

    synth::QueryWorkloadConfig workload_config;
    workload_config.num_queries = 120;
    workload_config.seed = seed;
    auto patterns = synth::GenerateQueryWorkload(store, workload_config);

    QueryEngineConfig cached_config;
    cached_config.num_workers = 2;
    QueryEngine cached(view, cached_config);

    QueryEngineConfig uncached_config;
    uncached_config.num_workers = 2;
    uncached_config.enable_cache = false;
    QueryEngine uncached(view, uncached_config);

    auto cold = cached.ExecuteBatch(patterns);
    auto direct = uncached.ExecuteBatch(patterns);
    for (size_t i = 0; i < patterns.size(); ++i) {
      auto expected = store.Match(patterns[i]);
      EXPECT_EQ(Sorted(*cold[i].matches), expected)
          << "seed " << seed << " q " << i;
      EXPECT_EQ(Sorted(*direct[i].matches), expected)
          << "seed " << seed << " q " << i;
    }
  }
}

}  // namespace
}  // namespace akb::serve
