#include "serve/query_engine.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/rolling.h"

namespace akb::serve {

namespace {

// trace_sample_rate -> "trace every Nth query". 0 disables; anything at
// or above 1 traces everything.
uint64_t SampleInterval(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return 1;
  return uint64_t(std::llround(1.0 / rate));
}

}  // namespace

QueryEngine::QueryEngine(const KbView& view, QueryEngineConfig config)
    : view_(view),
      config_(config),
      sample_interval_(SampleInterval(config.trace_sample_rate)),
      slow_log_(config.slow_log_capacity, config.slow_log_threshold_nanos),
      slo_(config.slo) {
  if (config_.enable_cache) {
    bgp_cache_ = std::make_unique<BgpResultCache>(config_.cache);
  }
  size_t workers =
      config_.num_workers != 0
          ? config_.num_workers
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  pool_ = std::make_unique<mapreduce::ThreadPool>(workers);
  AKB_GAUGE_SET("akb.serve.workers", int64_t(pool_->num_threads()));
}

QueryResult QueryEngine::ExecuteInternal(const rdf::TriplePattern& pattern,
                                         bool in_batch) {
  Stopwatch watch;
  // Head-based sampling decision: a thread-local sequence, so the
  // unsampled hot path never touches a shared cache line. Each thread
  // independently traces every Nth of its own queries, which preserves
  // the aggregate rate; only sampled queries pay the shared fetch_add
  // that hands out the query id.
  QueryTrace trace;
  QueryTrace* t = nullptr;
  if (sample_interval_ != 0 && obs::MetricsEnabled()) {
    thread_local uint64_t seq = 0;
    if (seq++ % sample_interval_ == 0) {
      t = &trace;
      trace.query_id = sampled_.fetch_add(1, std::memory_order_relaxed);
      trace.pattern = pattern;
      trace.start_micros = watch.StartMicros();
    }
  }
  QueryResult result;
  result.matches =
      std::make_shared<const std::vector<size_t>>(view_.Match(pattern, t));
  const int64_t nanos = watch.ElapsedNanos();
  if (!in_batch) {
    // Batched queries amortize these two counters in ExecuteBatch.
    AKB_COUNTER_INC("akb.serve.queries");
    AKB_COUNTER_ADD("akb.serve.results", int64_t(result.matches->size()));
  }
  AKB_HISTOGRAM_RECORD("akb.serve.query.nanos", nanos);
  if (obs::MetricsEnabled()) {
    // Derive "now" from the stopwatch instead of a second clock read.
    slo_.RecordRequest(nanos / 1000, /*error=*/false,
                       watch.StartMicros() + nanos / 1000);
  }
  if (t != nullptr) {
    trace.total_nanos = nanos;
    trace.SetShape();
    if (nanos >= slow_log_.threshold_nanos()) {
      // Decode only for slow-log candidates: dictionary lookups are too
      // costly for every sampled trace.
      trace.pattern_text = view_.DecodePattern(pattern);
      slow_log_.Offer(std::move(trace));
    }
  }
  return result;
}

BgpExecResult QueryEngine::ExecuteBgpInternal(const BgpQuery& query,
                                              const BgpOptions& options,
                                              bool in_batch) {
  Stopwatch watch;
  // Same head-based sampling scheme as the single-pattern path: a
  // thread-local sequence, shared query-id counter only for the sampled.
  QueryTrace trace;
  QueryTrace* t = nullptr;
  if (sample_interval_ != 0 && obs::MetricsEnabled()) {
    thread_local uint64_t seq = 0;
    if (seq++ % sample_interval_ == 0) {
      t = &trace;
      trace.query_id = sampled_.fetch_add(1, std::memory_order_relaxed);
      trace.start_micros = watch.StartMicros();
    }
  }
  BgpExecResult result;
  const Status valid = ValidateBgp(query);
  std::string key;
  if (valid.ok() && bgp_cache_) {
    // Canonical key: pattern reorderings and variable renamings of the
    // same join share one entry. The row limit changes the outcome
    // (rows vs kOutOfRange), so it is part of the key.
    key = CanonicalizeBgp(query).key + "|L" + std::to_string(options.limit);
    result.rows = bgp_cache_->Get(key, t);
    result.cache_hit = result.rows != nullptr;
  }
  if (!result.rows) {
    if (!valid.ok()) {
      result.status = valid;
    } else {
      Stopwatch join_watch;
      // Qualified: the member ExecuteBgp shadows the free executor.
      Result<BgpRows> rows = akb::serve::ExecuteBgp(view_, query, options);
      if (t != nullptr) t->index_nanos = join_watch.ElapsedNanos();
      if (!rows.ok()) {
        result.status = rows.status();
      } else {
        result.rows = std::make_shared<const BgpRows>(std::move(*rows));
        if (bgp_cache_) bgp_cache_->Put(key, result.rows, t);
      }
    }
  }
  const int64_t nanos = watch.ElapsedNanos();
  const bool error = !result.status.ok();
  if (!in_batch) {
    // Batched joins amortize these counters in ExecuteBgpBatch.
    AKB_COUNTER_INC("akb.serve.bgp.queries");
    if (result.rows) {
      AKB_COUNTER_ADD("akb.serve.bgp.rows", int64_t(result.rows->num_rows));
    }
    if (error) AKB_COUNTER_INC("akb.serve.bgp.errors");
  }
  AKB_HISTOGRAM_RECORD("akb.serve.bgp.query.nanos", nanos);
  if (obs::MetricsEnabled()) {
    slo_.RecordRequest(nanos / 1000, error,
                       watch.StartMicros() + nanos / 1000);
  }
  if (t != nullptr) {
    trace.total_nanos = nanos;
    trace.shape[0] = 'b';
    trace.shape[1] = 'g';
    trace.shape[2] = 'p';
    trace.shape[3] = '\0';
    trace.bgp_patterns = uint32_t(query.patterns().size());
    trace.range_size = result.rows ? result.rows->num_rows : 0;
    if (nanos >= slow_log_.threshold_nanos()) {
      trace.pattern_text = DecodeBgp(view_, query);
      slow_log_.Offer(std::move(trace));
    }
  }
  return result;
}

std::vector<BgpExecResult> QueryEngine::ExecuteBgpBatch(
    const std::vector<BgpQuery>& queries, const BgpOptions& options) {
  Stopwatch watch;
  std::vector<BgpExecResult> results(queries.size());
  mapreduce::ParallelFor(pool_.get(), queries.size(), [&](size_t i) {
    results[i] = ExecuteBgpInternal(queries[i], options, /*in_batch=*/true);
  });
  int64_t total_rows = 0;
  int64_t errors = 0;
  for (const BgpExecResult& r : results) {
    if (r.rows) total_rows += int64_t(r.rows->num_rows);
    if (!r.status.ok()) ++errors;
  }
  AKB_COUNTER_ADD("akb.serve.bgp.queries", int64_t(queries.size()));
  AKB_COUNTER_ADD("akb.serve.bgp.rows", total_rows);
  if (errors > 0) AKB_COUNTER_ADD("akb.serve.bgp.errors", errors);
  AKB_COUNTER_INC("akb.serve.batches");
  AKB_HISTOGRAM_RECORD("akb.serve.batch.micros", watch.ElapsedMicros());
  return results;
}

obs::SloState QueryEngine::EvaluateSlo() const {
  return slo_.Evaluate(obs::NowMicros());
}

obs::WindowStats QueryEngine::LatencyOver(int64_t window_micros) const {
  return slo_.latency().Over(window_micros, obs::NowMicros());
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(
    const std::vector<rdf::TriplePattern>& patterns) {
  Stopwatch watch;
  std::vector<QueryResult> results(patterns.size());
  // One task per query; tasks write disjoint slots, so no synchronization
  // beyond the pool's completion barrier is needed.
  mapreduce::ParallelFor(pool_.get(), patterns.size(), [&](size_t i) {
    results[i] = ExecuteInternal(patterns[i], /*in_batch=*/true);
  });
  // The per-query counter totals, amortized to two RMWs per batch.
  int64_t total_matches = 0;
  for (const QueryResult& r : results) {
    total_matches += int64_t(r.matches->size());
  }
  AKB_COUNTER_ADD("akb.serve.queries", int64_t(patterns.size()));
  AKB_COUNTER_ADD("akb.serve.results", total_matches);
  AKB_COUNTER_INC("akb.serve.batches");
  AKB_HISTOGRAM_RECORD("akb.serve.batch.micros", watch.ElapsedMicros());
  return results;
}

}  // namespace akb::serve
