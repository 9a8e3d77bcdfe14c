// QueryEngine unit tests: execution correctness against KbView::Match,
// answers with the join cache off, batch alignment, worker-count
// independence, and the obs metrics wiring.
#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rdf/triple_store.h"

namespace akb::serve {
namespace {

using rdf::TriplePattern;

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int s = 0; s < 20; ++s) {
      auto sid =
          store_.dictionary().InternIri("http://e/s" + std::to_string(s));
      for (int p = 0; p < 5; ++p) {
        auto pid =
            store_.dictionary().InternIri("http://p/p" + std::to_string(p));
        store_.Insert(
            {sid, pid,
             store_.dictionary().InternLiteral(std::to_string(s * 5 + p))},
            rdf::Provenance{});
      }
    }
    view_ = std::make_unique<KbView>(store_);
  }

  std::vector<TriplePattern> SomePatterns() {
    std::vector<TriplePattern> patterns;
    for (uint32_t id = 1; id < 40; ++id) {
      patterns.push_back({id, 0, 0});
      patterns.push_back({0, id, 0});
      patterns.push_back({id, id + 1, 0});
    }
    patterns.push_back({0, 0, 0});
    return patterns;
  }

  rdf::TripleStore store_;
  std::unique_ptr<KbView> view_;
};

TEST_F(QueryEngineTest, ExecuteMatchesView) {
  QueryEngine engine(*view_);
  for (const TriplePattern& pattern : SomePatterns()) {
    QueryResult result = engine.Execute(pattern);
    ASSERT_NE(result.matches, nullptr);
    EXPECT_EQ(*result.matches, view_->Match(pattern));
  }
}

TEST_F(QueryEngineTest, CacheDisabledStillAnswers) {
  QueryEngineConfig config;
  config.enable_cache = false;
  QueryEngine engine(*view_, config);
  EXPECT_EQ(engine.bgp_cache(), nullptr);
  TriplePattern pattern{1, 0, 0};
  QueryResult first = engine.Execute(pattern);
  QueryResult second = engine.Execute(pattern);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(*first.matches, *second.matches);
}

TEST_F(QueryEngineTest, BatchResultsAlignWithPatterns) {
  QueryEngineConfig config;
  config.num_workers = 4;
  QueryEngine engine(*view_, config);
  auto patterns = SomePatterns();
  auto results = engine.ExecuteBatch(patterns);
  ASSERT_EQ(results.size(), patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    ASSERT_NE(results[i].matches, nullptr);
    EXPECT_EQ(*results[i].matches, view_->Match(patterns[i])) << "query " << i;
  }
}

TEST_F(QueryEngineTest, BatchIdenticalAcrossWorkerCounts) {
  auto patterns = SomePatterns();
  QueryEngineConfig serial;
  serial.num_workers = 1;
  QueryEngine one(*view_, serial);
  auto base = one.ExecuteBatch(patterns);
  for (size_t workers : {2u, 8u}) {
    QueryEngineConfig config;
    config.num_workers = workers;
    QueryEngine engine(*view_, config);
    auto results = engine.ExecuteBatch(patterns);
    ASSERT_EQ(results.size(), base.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(*results[i].matches, *base[i].matches)
          << "workers=" << workers << " query " << i;
    }
  }
}

TEST_F(QueryEngineTest, EmptyBatch) {
  QueryEngine engine(*view_);
  EXPECT_TRUE(engine.ExecuteBatch({}).empty());
}

TEST_F(QueryEngineTest, RecordsQueryMetrics) {
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  QueryEngine engine(*view_);
  auto patterns = SomePatterns();
  engine.ExecuteBatch(patterns);
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  obs::MetricsSnapshot delta = after.DiffFrom(before);

  const auto* queries = delta.Find("akb.serve.queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->value, int64_t(patterns.size()));
  const auto* batches = delta.Find("akb.serve.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->value, 1);
  const auto* latency = delta.Find("akb.serve.query.nanos");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, int64_t(patterns.size()));
  EXPECT_GE(latency->p99, latency->p50);
}

TEST_F(QueryEngineTest, WorkerCountDefaultsToHardware) {
  QueryEngine engine(*view_);
  EXPECT_GE(engine.num_workers(), 1u);
  QueryEngineConfig config;
  config.num_workers = 3;
  QueryEngine three(*view_, config);
  EXPECT_EQ(three.num_workers(), 3u);
}

}  // namespace
}  // namespace akb::serve
