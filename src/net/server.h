// akb::net server — the epoll front door over serve::QueryEngine.
//
// One IO thread owns every socket: it accepts loopback/TCP connections,
// reads frames (net/wire.h), and flushes responses, all non-blocking
// behind a level-triggered epoll. Decoded requests are routed through the
// single-flight table (net/single_flight.h) and executed by a small pool
// of worker threads; workers never touch a socket — they append encoded
// responses to per-connection outboxes and wake the IO thread through an
// eventfd.
//
// Request lifecycle and the points where work is shed:
//
//   accept ──► read frame ──► decode ──► admission ──► queue ──► execute
//                               │            │            │
//                        kParseError    kUnavailable  kDeadlineExceeded
//                        (respond, then (queue full;   (expired while
//                        close the      retry-after    queued; backend
//                        connection)    hint attached) never runs)
//
// Single-flight coalescing: identical concurrent requests — same
// canonical triple pattern, or BGP joins with the same CanonicalizeBgp
// key and row limit — share one queued execution. The first request
// leads; the rest attach as waiters and are fanned the leader's result,
// so a hot-key cache-miss stampede costs one index scan. Results are a
// pure function of the immutable KbView, which is what makes fan-out
// byte-identical to executing each request alone.
//
// Admission control: the work queue is bounded (max_queue_depth pending
// executions). A request that would create a flight beyond the bound is
// shed with kUnavailable and a retry-after hint — attaching to an
// existing flight is always admitted, because it adds no backend work.
// Connections beyond max_connections are accepted and immediately closed.
//
// Deadlines are enforced on both sides of the queue: the budget rides the
// wire with the request, and a worker re-checks every waiter's deadline
// when it claims a flight — expired waiters get kDeadlineExceeded without
// the backend ever running for them (if every waiter expired, the whole
// flight is skipped).
//
// Every event is counted once, in the server's own counters (stats(),
// NetStats), and always before the answer it accounts for is queued: a
// client holding its response reads stats() that include it.
// FillNetStatusReport exposes them as the "net" statusz section. The
// process-global registry gets only the akb.net.request.nanos latency
// histogram, which has no NetStats twin.
#ifndef AKB_NET_SERVER_H_
#define AKB_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/single_flight.h"
#include "net/wire.h"
#include "obs/statusz.h"
#include "serve/query_engine.h"

namespace akb::net {

/// Steady-clock nanoseconds — the time base for deadlines server-side.
int64_t NowNanos();

struct ServerConfig {
  /// Listen address. Port 0 binds an ephemeral port (read it back with
  /// Server::port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Worker threads executing queued flights.
  size_t num_workers = 4;
  /// Accepted connections beyond this are immediately closed.
  size_t max_connections = 1024;
  /// Pending (queued, not yet executing) flights; one more is shed with
  /// kUnavailable.
  size_t max_queue_depth = 1024;
  /// Backoff hint attached to kUnavailable sheds.
  int64_t retry_after_nanos = 20'000'000;  // 20 ms
  /// Frames larger than this are a protocol error.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// A connection whose outbox exceeds this (client not reading) is
  /// dropped instead of buffering unboundedly.
  size_t max_outbox_bytes = 64u << 20;
  /// Single-flight coalescing of identical concurrent requests. Off,
  /// every request is its own flight (the bench's baseline mode).
  bool enable_coalescing = true;
  /// Test hook: runs on the worker thread after a flight is dequeued and
  /// before its deadline re-check — lets tests hold the queue busy to
  /// pin shed/coalescing behavior deterministically.
  std::function<void()> worker_hook_for_testing;
};

/// Monotonic server counters (snapshot; internally consistent with the
/// single-flight invariants — see net/single_flight.h).
struct NetStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_rejected = 0;  ///< over max_connections
  uint64_t connections_open = 0;  ///< accepted - closed
  uint64_t requests = 0;   ///< decoded frames, pings included
  uint64_t responses = 0;  ///< frames queued for write
  uint64_t responses_dropped = 0;  ///< waiter's connection died first
  uint64_t protocol_errors = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t shed_unavailable = 0;    ///< queue full at admission
  uint64_t shed_deadline_queue = 0; ///< deadline expired while queued
  uint64_t shed_shutdown = 0;       ///< queued work answered during Stop()
  uint64_t flights_executed = 0;    ///< backend executions
  uint64_t flights_shed = 0;        ///< flights skipped, backend untouched
  uint64_t queue_depth = 0;         ///< pending right now
  SingleFlightStats singleflight;
};

class Server {
 public:
  /// `engine` (and its KbView) must outlive the server.
  explicit Server(serve::QueryEngine* engine);
  ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the IO + worker threads. kIoError when
  /// the socket can't be bound; kAlreadyExists when already started.
  Status Start(const ServerConfig& config);

  /// The bound port (valid after Start succeeded).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stops accepting, sheds queued work with kUnavailable, flushes what
  /// it can, closes every connection, and joins all threads. Idempotent.
  void Stop();

  NetStats stats() const;

 private:
  struct Connection;
  struct Waiter;
  struct WorkItem;

  void IoLoop();
  void WorkerLoop();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void AcceptPending();
  /// Decode + admission for one frame payload. Returns false when the
  /// connection must be closed (protocol error).
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   std::string_view payload);
  void ExecuteFlight(const WorkItem& item);
  void Respond(const std::shared_ptr<Connection>& conn,
               const WireResponse& response);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void FlushConnection(const std::shared_ptr<Connection>& conn);
  void UpdateWriteInterest(const std::shared_ptr<Connection>& conn);

  serve::QueryEngine* engine_;
  ServerConfig config_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> io_stop_{false};
  std::mutex lifecycle_mutex_;
  bool started_ = false;
  bool stopped_ = false;

  // IO-thread-owned connection registry (fd -> connection).
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  // Bounded work queue of flights awaiting a worker.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;

  // Connections with freshly appended outbox bytes, handed from workers
  // to the IO thread (paired with an eventfd wakeup).
  std::mutex write_pending_mutex_;
  std::vector<std::shared_ptr<Connection>> write_pending_;

  SingleFlightTable<Waiter> flights_;
  /// Distinguishes coalescing-off flights (unique keys).
  std::atomic<uint64_t> unique_seq_{0};

  // Counters behind stats(). Plain atomics: single writers per event.
  struct Counters;
  std::unique_ptr<Counters> counters_;
};

/// Contributes the "net" section (connections, queue, sheds,
/// single-flight coalescing) to a statusz report.
void FillNetStatusReport(const Server& server, obs::StatusReport* report);

}  // namespace akb::net

#endif  // AKB_NET_SERVER_H_
