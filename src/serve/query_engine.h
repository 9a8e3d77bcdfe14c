// Concurrent query execution over a KbView, batched onto the shared
// mapreduce thread pool.
//
// The engine is the serving layer's front door. Execute() answers one
// pattern straight from KbView::Match (usable concurrently from any
// number of threads); ExecuteBatch() fans a batch out across the
// engine's ThreadPool, one task per query, with results positionally
// aligned to the input. ExecuteBgp() answers a join: join cache ->
// plan -> index-nested-loop join -> cache fill. Per-query latency is
// recorded into the process-global obs registry:
//
//   akb.serve.queries            counter, one per executed pattern
//   akb.serve.batches            counter, one per ExecuteBatch call
//   akb.serve.results            counter, total matches returned
//   akb.serve.query.nanos        histogram (p50/p90/p99 in the dump)
//   akb.serve.batch.micros       histogram, wall time per batch
//
// The join cache counts its own hits, misses and evictions
// (bgp_cache()->Stats(), the statusz "bgp_cache" section); they are not
// duplicated in the registry.
//
// Beyond the process-lifetime registry, every engine owns an SloTracker
// whose rolling windows answer "QPS / p99 / error rate right now", and a
// head-sampled request-scoped tracing path: every Nth query (configured
// by trace_sample_rate) carries a QueryTrace through the index (and, for
// a join, the join cache), and traces at or over the slow-log threshold
// land in a bounded in-memory SlowQueryLog with per-stage timings and
// the decoded pattern. Unsampled queries pay one thread-local increment
// for the sampling decision and nothing else; see serve/query_trace.h.
//
// Determinism: results depend only on the view, so any worker count (and
// join cache on or off) returns identical matches and rows; only a
// join's cache_hit flag is timing-dependent.
#ifndef AKB_SERVE_QUERY_ENGINE_H_
#define AKB_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "mapreduce/thread_pool.h"
#include "obs/slo.h"
#include "serve/bgp.h"
#include "serve/kb_view.h"
#include "serve/query_trace.h"
#include "serve/sharded_lru.h"

namespace akb::serve {

struct QueryEngineConfig {
  /// Worker threads for ExecuteBatch; 0 = one per hardware thread.
  size_t num_workers = 0;
  /// Serve repeated BGP joins from the join cache (keyed by the
  /// canonicalized pattern set, see serve/bgp.h). Single patterns are
  /// always answered from the index.
  bool enable_cache = true;
  /// Budget/sharding for the join cache.
  ResultCacheConfig cache;
  /// Head-based sampling: the fraction of queries that carry a QueryTrace
  /// (0 = tracing off, 1 = every query, 0.01 = every 100th). Sampled
  /// traces feed the slow-query log.
  double trace_sample_rate = 0.0;
  /// Bounded slow-query log: keep the `slow_log_capacity` worst sampled
  /// traces whose total latency is >= `slow_log_threshold_nanos`. A
  /// threshold of 0 keeps the worst N of all sampled traces.
  size_t slow_log_capacity = 32;
  int64_t slow_log_threshold_nanos = 1'000'000;
  /// Latency / error objectives evaluated over the rolling windows.
  obs::SloConfig slo;
};

/// One answered query. `matches` is never null; treat it as immutable.
/// `cache_hit` is always false: single patterns are never cached (the
/// field mirrors BgpExecResult's for callers that report both).
struct QueryResult {
  std::shared_ptr<const std::vector<size_t>> matches;
  bool cache_hit = false;
};

/// One answered BGP join query. `rows` is non-null exactly when `status`
/// is OK; it may be shared with the cache (columns are in canonical
/// variable order — see serve/bgp.h — and `rows->vars` carries the names
/// from the query that filled the entry).
struct BgpExecResult {
  Status status;
  std::shared_ptr<const BgpRows> rows;
  bool cache_hit = false;
};

class QueryEngine {
 public:
  /// `view` must outlive the engine.
  explicit QueryEngine(const KbView& view, QueryEngineConfig config = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answers one pattern. Thread-safe.
  QueryResult Execute(const rdf::TriplePattern& pattern) {
    return ExecuteInternal(pattern, /*in_batch=*/false);
  }

  /// Answers a batch concurrently on the engine's pool; results[i] answers
  /// patterns[i]. Not reentrant (one batch at a time per engine).
  std::vector<QueryResult> ExecuteBatch(
      const std::vector<rdf::TriplePattern>& patterns);

  /// Answers one BGP join query: cache (canonical key) -> plan -> index-
  /// nested-loop join -> cache fill. Errors come back as the typed Status
  /// taxonomy of serve/bgp.h. Thread-safe.
  BgpExecResult ExecuteBgp(const BgpQuery& query,
                           const BgpOptions& options = {}) {
    return ExecuteBgpInternal(query, options, /*in_batch=*/false);
  }

  /// Answers a batch of join queries on the engine's pool; results[i]
  /// answers queries[i]. Not reentrant (shares the pool with
  /// ExecuteBatch; one batch at a time per engine).
  std::vector<BgpExecResult> ExecuteBgpBatch(
      const std::vector<BgpQuery>& queries, const BgpOptions& options = {});

  const KbView& view() const { return view_; }
  /// Null when the cache is disabled.
  const BgpResultCache* bgp_cache() const { return bgp_cache_.get(); }
  size_t num_workers() const { return pool_->num_threads(); }

  /// The worst sampled traces seen so far (see QueryEngineConfig).
  const SlowQueryLog& slow_log() const { return slow_log_; }
  /// Rolling request/latency windows every query records into.
  const obs::SloTracker& slo() const { return slo_; }
  /// Evaluates the configured objectives over the trailing window, now.
  obs::SloState EvaluateSlo() const;
  /// Latency WindowStats for an arbitrary trailing window ending now
  /// (statusz reports 10 s / 1 m / 5 m off the same rolling data).
  obs::WindowStats LatencyOver(int64_t window_micros) const;

  /// Queries that carried a QueryTrace (for overhead accounting).
  uint64_t sampled_queries() const {
    return sampled_.load(std::memory_order_relaxed);
  }

 private:
  /// Batch-issued queries skip the per-query akb.serve.{queries,results}
  /// counter RMWs; ExecuteBatch adds the same totals once per batch.
  QueryResult ExecuteInternal(const rdf::TriplePattern& pattern,
                              bool in_batch);
  BgpExecResult ExecuteBgpInternal(const BgpQuery& query,
                                   const BgpOptions& options, bool in_batch);

  const KbView& view_;
  QueryEngineConfig config_;
  std::unique_ptr<BgpResultCache> bgp_cache_;
  std::unique_ptr<mapreduce::ThreadPool> pool_;
  /// 0 = tracing off; otherwise every `sample_interval_`th query is traced.
  uint64_t sample_interval_ = 0;
  std::atomic<uint64_t> sampled_{0};
  SlowQueryLog slow_log_;
  obs::SloTracker slo_;
};

}  // namespace akb::serve

#endif  // AKB_SERVE_QUERY_ENGINE_H_
