// In-memory span log for the harness's traced runs. Spans are recorded
// around calls into the program's public functions (and, for the build
// flow, imported from obs::TraceSession), kept in memory, and written as
// Chrome trace_event JSON when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Span {
  std::string name;
  uint64_t request = 0;  ///< spans of one request share this id
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  uint32_t tid = 0;
};

class SpanLog {
 public:
  /// Opens a span and returns its index; close it with End().
  size_t Begin(std::string name, uint64_t request, int64_t parent = -1);
  void End(size_t index);
  /// Records an already-finished span.
  size_t Add(std::string name, uint64_t request, int64_t start_ns,
             int64_t end_ns, int64_t parent = -1, uint32_t tid = 0);
  /// Appends the spans of an obs::TraceSession snapshot, keeping their
  /// parent links; `origin_ns` is the session's start on this clock.
  void Import(const std::vector<akb::obs::TraceSpan>& spans,
              int64_t origin_ns);

  /// Reserves room for `n` more spans, so a traced phase does not pause
  /// to grow the log.
  void Reserve(size_t n) { spans_.reserve(spans_.size() + n); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in seconds: each span's duration minus the
  /// union of its children's intervals.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes Chrome trace_event JSON ("X" events, microseconds) of at
  /// most the first `max_spans` spans, so a long run stays loadable.
  /// Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path, size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
