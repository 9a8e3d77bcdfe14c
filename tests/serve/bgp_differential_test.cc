// BGP differential property suite — the correctness backbone of the join
// executor: over hundreds of random stores and random 2..4-pattern BGPs,
// the planned index-nested-loop join, the same join under EVERY valid
// join order, and the independent NaiveBgpEval oracle (nested
// TripleStore::Match loops, written order, no planner) must produce
// identical binding multisets; the engine with its canonical-key cache
// (cold, warm, and disabled) must agree too. Every assertion carries the
// seed, so a failure is a one-line repro through RandomStore.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "rdf/triple_store.h"
#include "serve/bgp.h"
#include "serve/kb_view.h"
#include "serve/query_engine.h"
#include "synth/query_workload.h"

#include "random_store.h"

namespace akb::serve {
namespace {

using rdf::TermId;

std::vector<std::vector<TermId>> SortedRows(const BgpRows& rows) {
  std::vector<std::vector<TermId>> out;
  out.reserve(rows.num_rows);
  for (size_t r = 0; r < rows.num_rows; ++r) {
    std::vector<TermId> row;
    for (size_t c = 0; c < rows.num_cols(); ++c) row.push_back(rows.at(r, c));
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A random 2..4-pattern query biased toward star shapes around one
// anchor subject (so most queries are variable-connected and the engine
// accepts them), with bound/variable positions chosen independently:
// occasional predicate variables, all-variable patterns, repeated
// variables (?x p ?x), and bound-everywhere filter patterns all occur.
BgpQuery RandomQuery(const rdf::TripleStore& store, Rng* rng) {
  BgpQuery q;
  const size_t num_patterns = 2 + rng->Index(3);
  static const char* kVarPool[] = {"b", "c", "d"};
  const rdf::Triple& anchor = store.triple(rng->Index(store.num_triples()));
  std::vector<size_t> anchor_arms = store.Match({anchor.subject, 0, 0});
  for (size_t i = 0; i < num_patterns; ++i) {
    const rdf::Triple& base =
        rng->Bernoulli(0.7)
            ? store.triple(anchor_arms[rng->Index(anchor_arms.size())])
            : store.triple(rng->Index(store.num_triples()));
    BgpTerm s =
        rng->Bernoulli(0.75) ? q.Var("a") : BgpQuery::Bound(base.subject);
    BgpTerm p = rng->Bernoulli(0.1) ? q.Var(kVarPool[rng->Index(3)])
                                    : BgpQuery::Bound(base.predicate);
    BgpTerm o;
    const double roll = rng->NextDouble();
    if (roll < 0.35) {
      o = q.Var(kVarPool[rng->Index(3)]);
    } else if (roll < 0.45) {
      o = s;  // repeated variable (or a bound self-reference)
    } else {
      o = BgpQuery::Bound(base.object);
    }
    q.Add(s, p, o);
  }
  return q;
}

TEST(BgpDifferentialTest, PlannedJoinAndEveryOrderEqualNaiveOracle) {
  constexpr uint64_t kSeeds = 200;
  BgpOptions options;
  options.limit = 500;  // bounds both evaluators' work on blow-up shapes
  size_t compared = 0;
  size_t rejected = 0;
  size_t limited = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    rdf::TripleStore store = RandomStore(seed);
    if (store.num_triples() == 0) continue;
    KbView view(store);
    Rng rng(seed * 7919 + 3);
    for (int qi = 0; qi < 6; ++qi) {
      BgpQuery q = RandomQuery(store, &rng);
      auto planned = ExecuteBgp(view, q, options);
      if (!planned.ok() &&
          planned.status().code() == StatusCode::kInvalidArgument) {
        // Cross-product policy: the engine declines what the naive
        // evaluator would happily enumerate. Nothing to compare.
        ++rejected;
        continue;
      }
      auto naive = NaiveBgpEval(store, q, options);
      if (!planned.ok()) {
        // The row count is a property of the query, not the join order,
        // so a limit error must reproduce under the oracle.
        EXPECT_EQ(planned.status().code(), StatusCode::kOutOfRange)
            << "seed " << seed << " query " << qi;
        ASSERT_FALSE(naive.ok()) << "seed " << seed << " query " << qi;
        EXPECT_EQ(naive.status().code(), StatusCode::kOutOfRange)
            << "seed " << seed << " query " << qi;
        ++limited;
        continue;
      }
      ASSERT_TRUE(naive.ok())
          << "seed " << seed << " query " << qi << ": " << naive.status();
      EXPECT_EQ(planned->vars, naive->vars)
          << "seed " << seed << " query " << qi;
      const auto expected = SortedRows(*naive);
      EXPECT_EQ(SortedRows(*planned), expected)
          << "seed " << seed << " query " << qi << " bgp "
          << DecodeBgp(view, q);
      ++compared;

      // Binding multisets are join-order invariant: sweep every valid
      // permutation (invalid ones — disconnected prefixes — are exactly
      // the ones ValidateBgpOrder rejects).
      std::vector<size_t> order(q.patterns().size());
      std::iota(order.begin(), order.end(), size_t{0});
      size_t valid_orders = 0;
      do {
        if (!ValidateBgpOrder(q, order).ok()) continue;
        ++valid_orders;
        BgpPlan plan;
        plan.order = order;
        auto rows = ExecuteBgpWithPlan(view, q, plan, options);
        ASSERT_TRUE(rows.ok()) << "seed " << seed << " query " << qi
                               << " order[0] " << order[0];
        EXPECT_EQ(SortedRows(*rows), expected)
            << "seed " << seed << " query " << qi << " order[0] " << order[0];
      } while (std::next_permutation(order.begin(), order.end()));
      // The engine accepted the query, so its own plan is one valid order.
      EXPECT_GE(valid_orders, 1u) << "seed " << seed << " query " << qi;
    }
  }
  // The generator must actually exercise the comparison path; if the
  // rejection/limit balance drifts, tighten the generator, not this bound.
  EXPECT_GT(compared, 400u) << "rejected " << rejected << " limited "
                            << limited;
}

TEST(BgpDifferentialTest, EngineCacheColdWarmAndOffAgreeWithNaive) {
  constexpr uint64_t kSeeds = 30;
  BgpOptions options;
  options.limit = 2000;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    rdf::TripleStore store = RandomStore(seed + 9000);
    if (store.num_triples() == 0) continue;
    KbView view(store);
    synth::BgpWorkloadConfig workload_config;
    workload_config.num_queries = 60;
    workload_config.seed = seed;
    auto queries = synth::GenerateBgpWorkload(store, workload_config);

    QueryEngineConfig cached_config;
    cached_config.num_workers = 2;
    // A small budget keeps evictions in play while entries still recur.
    cached_config.cache.num_shards = 2;
    cached_config.cache.max_bytes = 32u << 10;
    QueryEngine cached(view, cached_config);

    QueryEngineConfig uncached_config;
    uncached_config.num_workers = 2;
    uncached_config.enable_cache = false;
    QueryEngine uncached(view, uncached_config);

    auto cold = cached.ExecuteBgpBatch(queries, options);
    auto warm = cached.ExecuteBgpBatch(queries, options);
    auto direct = uncached.ExecuteBgpBatch(queries, options);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto naive = NaiveBgpEval(store, queries[i], options);
      if (!cold[i].status.ok()) {
        // Workload joins are always planner-valid, so the only error a
        // batch can surface is the row limit — and the oracle must agree.
        EXPECT_EQ(cold[i].status.code(), StatusCode::kOutOfRange)
            << "seed " << seed << " q " << i;
        ASSERT_FALSE(naive.ok()) << "seed " << seed << " q " << i;
        EXPECT_EQ(warm[i].status.code(), cold[i].status.code());
        EXPECT_EQ(direct[i].status.code(), cold[i].status.code());
        continue;
      }
      ASSERT_TRUE(naive.ok()) << "seed " << seed << " q " << i;
      const auto expected = SortedRows(*naive);
      EXPECT_EQ(SortedRows(*cold[i].rows), expected)
          << "seed " << seed << " q " << i;
      EXPECT_EQ(SortedRows(*warm[i].rows), expected)
          << "seed " << seed << " q " << i;
      EXPECT_EQ(SortedRows(*direct[i].rows), expected)
          << "seed " << seed << " q " << i;
    }
    if (!queries.empty()) {
      // The cache must have seen lookups across both cached batches, and
      // its bookkeeping must balance.
      auto stats = cached.bgp_cache()->Stats();
      EXPECT_EQ(stats.hits + stats.misses, 2 * queries.size())
          << "seed " << seed;
      EXPECT_EQ(stats.entries, stats.insertions - stats.evictions)
          << "seed " << seed;
    }
  }
}

TEST(BgpDifferentialTest, WorkloadGeneratorProducesOnlyValidJoins) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    rdf::TripleStore store = RandomStore(seed + 17000);
    KbView view(store);
    synth::BgpWorkloadConfig config;
    config.num_queries = 50;
    config.seed = seed;
    auto queries = synth::GenerateBgpWorkload(store, config);
    if (store.num_triples() == 0) {
      EXPECT_TRUE(queries.empty()) << "seed " << seed;
      continue;
    }
    EXPECT_EQ(queries.size(), config.num_queries) << "seed " << seed;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(ValidateBgp(queries[i]).ok()) << "seed " << seed << " q "
                                                << i;
      auto plan = PlanBgp(view, queries[i]);
      EXPECT_TRUE(plan.ok()) << "seed " << seed << " q " << i << ": "
                             << plan.status() << " bgp "
                             << DecodeBgp(view, queries[i]);
      EXPECT_GE(queries[i].patterns().size(), 2u) << "seed " << seed;
      EXPECT_LE(queries[i].patterns().size(), kMaxBgpPatterns)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace akb::serve
