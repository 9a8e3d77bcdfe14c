// Request-scoped query tracing for the serve path.
//
// The global obs::TraceSession records one hierarchical span tree behind
// one mutex — right for a pipeline run, wrong for a query engine doing
// millions of lookups per second from many threads. A QueryTrace is the
// serve-path alternative: a small value object the engine fills on the
// stack of the query it describes and hands through KbView::Match and
// BgpResultCache::Get/Put by pointer. No global state, no locks, no
// allocation on the untraced path; sampled queries (head-based,
// QueryEngineConfig::trace_sample_rate) pay a few clock reads.
//
// Traces worth keeping land in the SlowQueryLog: a bounded in-memory
// ring of the N worst traces at or over a latency threshold, dumpable as
// JSON — "why was *this* query slow" without restarting the process.
#ifndef AKB_SERVE_QUERY_TRACE_H_
#define AKB_SERVE_QUERY_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "rdf/triple_store.h"

namespace akb::serve {

/// One traced query, carried by value. Stage timings are nanoseconds;
/// zero means the stage did not run (e.g. no cache fill after a join
/// cache hit; single patterns never touch a cache).
struct QueryTrace {
  uint64_t query_id = 0;
  rdf::TriplePattern pattern;
  /// Decoded pattern ("<s> <p> ?"), filled only for traces offered to the
  /// slow-query log (decoding costs dictionary lookups).
  std::string pattern_text;
  /// Shape as bound positions, e.g. "sp?" for (s p ?); "bgp" for a
  /// multi-pattern join query.
  char shape[4] = {0, 0, 0, 0};
  /// Pattern count for join queries; 0 for single-pattern lookups.
  uint32_t bgp_patterns = 0;
  bool cache_hit = false;
  /// Size of the contiguous index range the pattern resolved to (equals
  /// the match count; the interesting signal for "why slow").
  uint64_t range_size = 0;
  int64_t cache_get_nanos = 0;
  int64_t index_nanos = 0;
  int64_t cache_put_nanos = 0;
  int64_t total_nanos = 0;
  /// obs::NowMicros() when the query started.
  int64_t start_micros = 0;

  /// Fills `shape` from the pattern's bound positions.
  void SetShape();

  obs::Json ToJson() const;
};

/// Bounded, thread-safe log of the worst traces. Offer() admits a trace
/// when its total latency is at or over the threshold AND it beats the
/// current minimum once the log is full (so the log converges on the N
/// worst, not the N most recent). Only over-threshold queries ever touch
/// the mutex, so the hot path stays contention-free.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 32,
                        int64_t threshold_nanos = 1'000'000);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Returns true when the trace was admitted.
  bool Offer(QueryTrace trace);

  /// Worst first.
  std::vector<QueryTrace> Snapshot() const;

  /// {"threshold_nanos": ..., "traces": [...worst first...]}.
  obs::Json ToJson() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  int64_t threshold_nanos() const { return threshold_nanos_; }

 private:
  const size_t capacity_;
  const int64_t threshold_nanos_;
  mutable std::mutex mutex_;
  /// Min-heap on total_nanos (entries_[0] = cheapest to evict).
  std::vector<QueryTrace> entries_;
};

}  // namespace akb::serve

#endif  // AKB_SERVE_QUERY_TRACE_H_
