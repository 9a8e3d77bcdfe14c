#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "harness.h"
#include "obs/json.h"

namespace perfbench {

size_t SpanLog::Begin(std::string name, uint64_t request, int64_t parent) {
  int64_t now = NowNanos();
  return Add(std::move(name), request, now, now, parent);
}

void SpanLog::End(size_t index) { spans_[index].end_ns = NowNanos(); }

size_t SpanLog::Add(std::string name, uint64_t request, int64_t start_ns,
                    int64_t end_ns, int64_t parent, uint32_t tid) {
  spans_.push_back(
      Span{std::move(name), request, start_ns, end_ns, parent, tid});
  return spans_.size() - 1;
}

void SpanLog::Import(const std::vector<akb::obs::TraceSpan>& spans,
                     int64_t origin_ns) {
  const int64_t base = int64_t(spans_.size());
  for (const akb::obs::TraceSpan& span : spans) {
    int64_t start = origin_ns + int64_t(span.start_us) * 1000;
    int64_t parent = span.parent == SIZE_MAX ? -1 : base + int64_t(span.parent);
    Add(span.name, 0, start, start + int64_t(span.dur_us) * 1000, parent,
        span.tid);
  }
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[size_t(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0, cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[span.name] += double(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              size_t max_spans) const {
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::string out = "[\n";
  size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"request\":%llu}}",
                  span.tid, double(span.start_ns - origin) / 1e3,
                  double(span.end_ns - span.start_ns) / 1e3,
                  (unsigned long long)span.request);
    out += "{\"name\":\"" + akb::obs::JsonEscape(span.name) + "\"," + buf;
    out += i + 1 < n ? ",\n" : "\n";
  }
  out += "]\n";
  std::ofstream file(path);
  file << out;
  return bool(file);
}

}  // namespace perfbench
