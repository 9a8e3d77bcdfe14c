#include "serve/query_trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "rdf/triple_store.h"
#include "serve/kb_view.h"
#include "serve/query_engine.h"

namespace akb::serve {
namespace {

QueryTrace MakeTrace(uint64_t id, int64_t total_nanos) {
  QueryTrace trace;
  trace.query_id = id;
  trace.total_nanos = total_nanos;
  return trace;
}

TEST(QueryTraceTest, ShapeNamesTheBoundPositions) {
  QueryTrace trace;
  trace.pattern = {7, 9, rdf::kInvalidTermId};
  trace.SetShape();
  EXPECT_STREQ(trace.shape, "sp?");
  trace.pattern = {rdf::kInvalidTermId, rdf::kInvalidTermId, 3};
  trace.SetShape();
  EXPECT_STREQ(trace.shape, "??o");
}

TEST(QueryTraceTest, JsonCarriesStagesAndParses) {
  QueryTrace trace;
  trace.query_id = 42;
  trace.pattern = {1, 2, rdf::kInvalidTermId};
  trace.SetShape();
  trace.pattern_text = "<s> <p> ?";
  trace.cache_hit = false;
  trace.range_size = 17;
  trace.cache_get_nanos = 100;
  trace.index_nanos = 2000;
  trace.cache_put_nanos = 300;
  trace.total_nanos = 2500;

  obs::Json parsed;
  ASSERT_TRUE(obs::Json::Parse(trace.ToJson().Dump(), &parsed).ok());
  EXPECT_EQ(parsed.Find("query_id")->AsInt(), 42);
  EXPECT_EQ(parsed.Find("shape")->AsString(), "sp?");
  EXPECT_EQ(parsed.Find("pattern")->AsString(), "<s> <p> ?");
  EXPECT_EQ(parsed.Find("range_size")->AsInt(), 17);
  const obs::Json* stages = parsed.Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->Find("index_nanos")->AsInt(), 2000);
  EXPECT_EQ(stages->Find("cache_put_nanos")->AsInt(), 300);
}

TEST(SlowQueryLogTest, RejectsTracesUnderTheThreshold) {
  SlowQueryLog log(4, /*threshold_nanos=*/1000);
  EXPECT_FALSE(log.Offer(MakeTrace(1, 999)));
  EXPECT_TRUE(log.Offer(MakeTrace(2, 1000)));
  EXPECT_EQ(log.size(), 1u);
}

TEST(SlowQueryLogTest, KeepsTheWorstNWorstFirst) {
  SlowQueryLog log(3, 0);
  for (uint64_t id = 0; id < 6; ++id) {
    // Totals 10, 20, ..., 60: only 40/50/60 survive a capacity of 3.
    log.Offer(MakeTrace(id, int64_t(id + 1) * 10));
  }
  EXPECT_EQ(log.size(), 3u);
  std::vector<QueryTrace> worst = log.Snapshot();
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_EQ(worst[0].total_nanos, 60);
  EXPECT_EQ(worst[1].total_nanos, 50);
  EXPECT_EQ(worst[2].total_nanos, 40);
}

TEST(SlowQueryLogTest, FullLogIgnoresTracesNoWorseThanItsMinimum) {
  SlowQueryLog log(2, 0);
  EXPECT_TRUE(log.Offer(MakeTrace(1, 100)));
  EXPECT_TRUE(log.Offer(MakeTrace(2, 200)));
  EXPECT_FALSE(log.Offer(MakeTrace(3, 100)));  // ties lose to incumbents
  EXPECT_FALSE(log.Offer(MakeTrace(4, 50)));
  EXPECT_TRUE(log.Offer(MakeTrace(5, 150)));  // displaces the 100
  std::vector<QueryTrace> worst = log.Snapshot();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].total_nanos, 200);
  EXPECT_EQ(worst[1].total_nanos, 150);
}

TEST(SlowQueryLogTest, JsonListsTracesWorstFirst) {
  SlowQueryLog log(4, 5);
  log.Offer(MakeTrace(1, 10));
  log.Offer(MakeTrace(2, 30));
  obs::Json parsed;
  ASSERT_TRUE(obs::Json::Parse(log.ToJson().Dump(), &parsed).ok());
  EXPECT_EQ(parsed.Find("threshold_nanos")->AsInt(), 5);
  EXPECT_EQ(parsed.Find("capacity")->AsInt(), 4);
  const obs::Json* traces = parsed.Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->size(), 2u);
  EXPECT_EQ(traces->at(0).Find("total_nanos")->AsInt(), 30);
  EXPECT_EQ(traces->at(1).Find("total_nanos")->AsInt(), 10);
}

// ------------------------------------------------ engine sampling plumbing

class TracedEngineTest : public ::testing::Test {
 protected:
  TracedEngineTest() {
    rdf::Dictionary& dict = store_.dictionary();
    rdf::TermId alice = dict.InternIri("http://kb/alice");
    rdf::TermId bob = dict.InternIri("http://kb/bob");
    knows_ = dict.InternIri("http://kb/knows");
    for (int i = 0; i < 8; ++i) {
      rdf::TermId other =
          dict.InternIri("http://kb/friend" + std::to_string(i));
      store_.Insert({alice, knows_, other},
                    rdf::Provenance{"test", rdf::ExtractorKind::kOther, 1.0});
      store_.Insert({bob, knows_, other},
                    rdf::Provenance{"test", rdf::ExtractorKind::kOther, 1.0});
    }
    alice_ = alice;
  }

  rdf::TripleStore store_;
  rdf::TermId alice_ = rdf::kInvalidTermId;
  rdf::TermId knows_ = rdf::kInvalidTermId;
};

TEST_F(TracedEngineTest, FullSamplingTracesEveryQueryIntoTheSlowLog) {
  KbView view(store_);
  QueryEngineConfig config;
  config.num_workers = 1;
  config.trace_sample_rate = 1.0;
  config.slow_log_threshold_nanos = 0;  // keep the worst N of everything
  config.slow_log_capacity = 16;
  QueryEngine engine(view, config);

  rdf::TriplePattern by_subject{alice_, rdf::kInvalidTermId,
                                rdf::kInvalidTermId};
  QueryResult result = engine.Execute(by_subject);
  EXPECT_EQ(engine.sampled_queries(), 1u);

  std::vector<QueryTrace> traces = engine.slow_log().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const QueryTrace& trace = traces[0];
  EXPECT_STREQ(trace.shape, "s??");
  EXPECT_FALSE(trace.cache_hit);
  EXPECT_EQ(trace.range_size, result.matches->size());
  EXPECT_GT(trace.total_nanos, 0);
  EXPECT_GT(trace.index_nanos, 0);
  // Slow-log candidates carry the decoded pattern.
  EXPECT_NE(trace.pattern_text.find("alice"), std::string::npos);
}

TEST_F(TracedEngineTest, SecondExecutionTracesTheCacheHit) {
  KbView view(store_);
  QueryEngineConfig config;
  config.num_workers = 1;
  config.trace_sample_rate = 1.0;
  config.slow_log_threshold_nanos = 0;
  QueryEngine engine(view, config);

  // Single patterns are never cached: a repeat is answered by the index.
  rdf::TriplePattern by_predicate{rdf::kInvalidTermId, knows_,
                                  rdf::kInvalidTermId};
  engine.Execute(by_predicate);
  EXPECT_FALSE(engine.Execute(by_predicate).cache_hit);

  // Joins are: the second run of the same join is a traced cache hit.
  BgpQuery join;
  BgpTerm friend_of = join.Var("f");
  join.Add(BgpQuery::Bound(alice_), BgpQuery::Bound(knows_), friend_of);
  join.Add(join.Var("x"), BgpQuery::Bound(knows_), friend_of);
  engine.ExecuteBgp(join);
  BgpExecResult hit = engine.ExecuteBgp(join);
  ASSERT_TRUE(hit.status.ok()) << hit.status;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(engine.sampled_queries(), 4u);

  bool saw_cache_hit_trace = false;
  for (const QueryTrace& trace : engine.slow_log().Snapshot()) {
    if (!trace.cache_hit) continue;
    saw_cache_hit_trace = true;
    EXPECT_STREQ(trace.shape, "bgp");
    EXPECT_EQ(trace.range_size, hit.rows->num_rows);
    // A hit answers from the cache: the join never ran.
    EXPECT_EQ(trace.index_nanos, 0);
    EXPECT_EQ(trace.cache_put_nanos, 0);
  }
  EXPECT_TRUE(saw_cache_hit_trace);
}

TEST_F(TracedEngineTest, ZeroRateDisablesSamplingEntirely) {
  KbView view(store_);
  QueryEngineConfig config;
  config.num_workers = 1;
  config.trace_sample_rate = 0.0;
  config.slow_log_threshold_nanos = 0;
  QueryEngine engine(view, config);
  for (int i = 0; i < 50; ++i) {
    engine.Execute({alice_, rdf::kInvalidTermId, rdf::kInvalidTermId});
  }
  EXPECT_EQ(engine.sampled_queries(), 0u);
  EXPECT_EQ(engine.slow_log().size(), 0u);
}

TEST_F(TracedEngineTest, FractionalRateSamplesEveryNthQueryPerThread) {
  KbView view(store_);
  QueryEngineConfig config;
  config.num_workers = 1;
  config.trace_sample_rate = 0.01;
  config.slow_log_threshold_nanos = 0;
  QueryEngine engine(view, config);
  // The sampling sequence is thread-local; a fresh thread starts at zero,
  // so 1000 queries at 1% sample exactly 10 (queries 0, 100, ..., 900).
  std::thread worker([&] {
    for (int i = 0; i < 1000; ++i) {
      engine.Execute({alice_, rdf::kInvalidTermId, rdf::kInvalidTermId});
    }
  });
  worker.join();
  EXPECT_EQ(engine.sampled_queries(), 10u);
}

TEST_F(TracedEngineTest, BatchedQueriesKeepRegistryCounterTotals) {
  KbView view(store_);
  QueryEngineConfig config;
  config.num_workers = 2;
  QueryEngine engine(view, config);
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  std::vector<rdf::TriplePattern> batch(
      10, {alice_, rdf::kInvalidTermId, rdf::kInvalidTermId});
  std::vector<QueryResult> results = engine.ExecuteBatch(batch);
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DiffFrom(before);
  // Batch-amortized counters must agree with per-query accounting.
  ASSERT_NE(delta.Find("akb.serve.queries"), nullptr);
  EXPECT_EQ(delta.Find("akb.serve.queries")->value, 10);
  int64_t total_matches = 0;
  for (const QueryResult& r : results) {
    total_matches += int64_t(r.matches->size());
  }
  ASSERT_NE(delta.Find("akb.serve.results"), nullptr);
  EXPECT_EQ(delta.Find("akb.serve.results")->value, total_matches);
}

}  // namespace
}  // namespace akb::serve
