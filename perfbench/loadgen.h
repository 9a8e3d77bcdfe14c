// Open-loop load generator for a serve-net process over loopback.
//
// One thread drives every connection with non-blocking sockets: request i
// of a phase is due at t0 + i / rate and goes to connection i % C,
// whatever the state of earlier requests, so a stalled server builds a
// queue instead of slowing the generator. Latency is timed from each
// request's scheduled send time; the generator's own lateness (actual
// send minus scheduled) is reported, and a phase where it ran late is
// marked invalid rather than charged to the server.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "spans.h"

namespace perfbench {

/// Order-sensitive for pattern matches, order-insensitive over BGP rows
/// (a row multiset), so a reference answer can be compared by hash.
uint64_t ResponseHash(const akb::net::WireResponse& response);

/// One request of a phase. Times are steady-clock nanoseconds.
struct Sample {
  int64_t scheduled = 0;
  int64_t sent = 0;
  int64_t received = 0;  ///< 0 = no response
  uint64_t hash = 0;
  uint32_t workload_index = 0;
  uint32_t body_bytes = 0;
  uint8_t status = kNoResponse;  ///< akb::StatusCode, or kNoResponse
  bool cache_hit = false;
  bool coalesced = false;

  static constexpr uint8_t kNoResponse = 255;
  bool ok() const { return status == uint8_t(akb::StatusCode::kOk); }
};

struct PhaseStats {
  double rate = 0.0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  ///< non-OK responses + missing responses
  uint64_t shed = 0;    ///< kUnavailable / kDeadlineExceeded responses
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  /// Latency from scheduled send to response; a failed request counts as
  /// the phase's whole span, so it misses any limit.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double tail_p99_ms = 0.0;  ///< over the last quarter of the schedule
  double lag_p99_ms = 0.0;   ///< generator lateness
  double resp_bytes = 0.0;   ///< mean response frame bytes
  /// False when the generator itself fell behind its schedule.
  bool valid = true;
};

class LoadGenerator {
 public:
  /// `requests[i]` is sent for workload index i; request ids are set by
  /// the generator.
  LoadGenerator(std::vector<akb::net::WireRequest> requests,
                size_t connections, double lag_limit_ms);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  akb::Status Connect(uint16_t port);

  /// Sends `rate` requests/s for `seconds`, continuing the workload
  /// sequence where the previous phase stopped, and waits up to
  /// `drain_seconds` for the last responses. With `spans`, records a
  /// span per request (scheduled -> sent -> received).
  PhaseStats Run(double rate, double seconds, double drain_seconds,
                 SpanLog* spans = nullptr);

  /// Every sample of every phase so far, for the correctness check.
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  struct Conn;
  std::vector<akb::net::WireRequest> requests_;
  std::vector<std::unique_ptr<Conn>> conns_;
  double lag_limit_ms_;
  size_t next_index_ = 0;
  uint64_t next_id_ = 1;
  std::vector<Sample> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
