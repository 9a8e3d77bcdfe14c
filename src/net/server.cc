#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "serve/bgp.h"

namespace akb::net {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

}  // namespace

struct Server::Connection {
  int fd = -1;
  /// Read accumulator; frames are extracted from the front.
  std::string inbuf;
  /// Encoded responses awaiting the IO thread. Workers append under the
  /// mutex; only the IO thread writes the socket.
  std::mutex out_mutex;
  std::string outbox;
  /// EPOLLOUT currently armed (IO thread only).
  bool epollout = false;
  /// Set by the IO thread when the fd is closed; workers check it before
  /// appending (late appends are harmless — the bytes are never sent).
  std::atomic<bool> closed{false};
  /// Set by workers to ask the IO thread to drop the connection (outbox
  /// overflow: the client stopped reading).
  std::atomic<bool> close_requested{false};
};

struct Server::Waiter {
  std::shared_ptr<Connection> conn;
  uint64_t request_id = 0;
  int64_t deadline_abs_nanos = kNoDeadline;
  int64_t receipt_nanos = 0;
  MsgType type = MsgType::kPing;
  /// BGP only: this waiter's variable names in canonical column order,
  /// so a coalesced waiter's response names columns in its own terms.
  std::vector<std::string> bgp_vars;
};

struct Server::WorkItem {
  std::string key;
  WireRequest request;
  /// Decoded + validated at admission (kBgp only).
  serve::BgpQuery bgp_query;
};

struct Server::Counters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> responses_dropped{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> shed_unavailable{0};
  std::atomic<uint64_t> shed_deadline_queue{0};
  std::atomic<uint64_t> shed_shutdown{0};
  std::atomic<uint64_t> flights_executed{0};
  std::atomic<uint64_t> flights_shed{0};
};

Server::Server(serve::QueryEngine* engine)
    : engine_(engine), counters_(std::make_unique<Counters>()) {}

Server::~Server() { Stop(); }

Status Server::Start(const ServerConfig& config) {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) {
    return Status::AlreadyExists("server already started");
  }
  config_ = config;
  if (config_.num_workers == 0) config_.num_workers = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address '" + config_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::IoError("bind " + config_.host + ":" +
                                    std::to_string(config_.port) + ": " +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status status =
        Status::IoError("listen: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status status =
        Status::IoError("epoll/eventfd: " + std::string(std::strerror(errno)));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return status;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stopping_.store(false, std::memory_order_release);
  io_stop_.store(false, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void Server::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!started_ || stopped_) return;
  stopped_ = true;
  running_.store(false, std::memory_order_release);

  // Phase 1: workers drain the queue, shedding every remaining flight
  // with kUnavailable so no client is left hanging on a silent drop.
  // The flag is stored under the queue lock: a worker between its wait
  // predicate and its block would otherwise miss the notify and never
  // be joined.
  {
    std::lock_guard<std::mutex> queue_lock(queue_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // Phase 2: the IO thread makes a final best-effort flush of every
  // outbox, then closes all sockets and exits.
  io_stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  io_thread_.join();

  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
}

NetStats Server::stats() const {
  NetStats stats;
  const Counters& c = *counters_;
  // Closed first: each close follows its accept, so open cannot
  // underflow.
  stats.connections_closed = c.connections_closed.load();
  stats.connections_accepted = c.connections_accepted.load();
  stats.connections_open =
      stats.connections_accepted - stats.connections_closed;
  stats.connections_rejected = c.connections_rejected.load();
  stats.requests = c.requests.load();
  stats.responses = c.responses.load();
  stats.responses_dropped = c.responses_dropped.load();
  stats.protocol_errors = c.protocol_errors.load();
  stats.bytes_read = c.bytes_read.load();
  stats.bytes_written = c.bytes_written.load();
  stats.shed_unavailable = c.shed_unavailable.load();
  stats.shed_deadline_queue = c.shed_deadline_queue.load();
  stats.shed_shutdown = c.shed_shutdown.load();
  stats.flights_executed = c.flights_executed.load();
  stats.flights_shed = c.flights_shed.load();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.queue_depth = queue_.size();
  }
  stats.singleflight = flights_.Stats();
  return stats;
}

// ---------------------------------------------------------------- IO side

void Server::IoLoop() {
  epoll_event events[64];
  while (!io_stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        std::vector<std::shared_ptr<Connection>> pending;
        {
          std::lock_guard<std::mutex> lock(write_pending_mutex_);
          pending.swap(write_pending_);
        }
        for (const auto& conn : pending) {
          if (conn->close_requested.load(std::memory_order_acquire)) {
            CloseConnection(conn);
          } else {
            FlushConnection(conn);
          }
        }
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) {
        CloseConnection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      // A no-op when the read side just closed the connection.
      if (events[i].events & EPOLLOUT) FlushConnection(conn);
    }
  }
  // Final flush: answer what we still can, then tear everything down.
  {
    std::lock_guard<std::mutex> lock(write_pending_mutex_);
    write_pending_.clear();
  }
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) remaining.push_back(conn);
  for (const auto& conn : remaining) {
    FlushConnection(conn);
    CloseConnection(conn);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::AcceptPending() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (connections_.size() >= config_.max_connections) {
      counters_->connections_rejected.fetch_add(1);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    connections_.emplace(fd, std::move(conn));
    counters_->connections_accepted.fetch_add(1);
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  while (true) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf.append(buf, size_t(n));
      counters_->bytes_read.fetch_add(uint64_t(n));
      continue;
    }
    if (n == 0) {  // orderly EOF
      CloseConnection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);
    return;
  }
  size_t consumed = 0;
  while (true) {
    std::string_view payload;
    Result<size_t> frame = ExtractFrame(
        std::string_view(conn->inbuf).substr(consumed),
        config_.max_frame_bytes, &payload);
    if (!frame.ok()) {
      counters_->protocol_errors.fetch_add(1);
      CloseConnection(conn);
      return;
    }
    if (*frame == 0) break;
    bool keep = HandleFrame(conn, payload);
    consumed += *frame;
    if (!keep) {
      // Protocol error: flush the error response we just queued, then
      // drop the connection.
      FlushConnection(conn);
      CloseConnection(conn);
      return;
    }
  }
  if (consumed > 0) conn->inbuf.erase(0, consumed);
}

bool Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         std::string_view payload) {
  counters_->requests.fetch_add(1);
  const int64_t now = NowNanos();

  WireRequest request;
  Status decoded = DecodeRequest(payload, &request);
  if (!decoded.ok()) {
    counters_->protocol_errors.fetch_add(1);
    WireResponse response;
    response.type = MsgType::kPing;
    response.request_id = request.request_id;
    response.status = decoded;
    Respond(conn, response);
    return false;
  }

  Waiter waiter;
  waiter.conn = conn;
  waiter.request_id = request.request_id;
  waiter.receipt_nanos = now;
  waiter.deadline_abs_nanos = request.deadline_nanos > 0
                                  ? now + request.deadline_nanos
                                  : kNoDeadline;
  waiter.type = request.type;

  WorkItem item;
  item.request = request;

  switch (request.type) {
    case MsgType::kPing: {
      WireResponse response;
      response.type = MsgType::kPing;
      response.request_id = request.request_id;
      Respond(conn, response);
      return true;
    }
    case MsgType::kPattern: {
      // Canonical pattern key: the three term ids are the pattern.
      item.key.reserve(1 + 3 * sizeof(uint32_t));
      item.key.push_back('P');
      char bytes[3 * sizeof(uint32_t)];
      std::memcpy(bytes, &request.pattern.subject, sizeof(uint32_t));
      std::memcpy(bytes + 4, &request.pattern.predicate, sizeof(uint32_t));
      std::memcpy(bytes + 8, &request.pattern.object, sizeof(uint32_t));
      item.key.append(bytes, sizeof(bytes));
      break;
    }
    case MsgType::kBgp: {
      serve::BgpQuery query;
      for (const WireBgpPattern& pattern : request.bgp_patterns) {
        serve::BgpTerm terms[3];
        const WireBgpTerm* wire[3] = {&pattern.s, &pattern.p, &pattern.o};
        for (int i = 0; i < 3; ++i) {
          if (wire[i]->is_var) {
            std::string name("v");
            name.append(std::to_string(wire[i]->value));
            terms[i] = query.Var(name);
          } else {
            terms[i] = serve::BgpQuery::Bound(wire[i]->value);
          }
        }
        query.Add(terms[0], terms[1], terms[2]);
      }
      Status valid = serve::ValidateBgp(query);
      if (!valid.ok()) {
        WireResponse response;
        response.type = MsgType::kBgp;
        response.request_id = request.request_id;
        response.status = valid;
        Respond(conn, response);
        return true;
      }
      // Coalesce on the canonical join key: pattern reorderings and
      // variable renamings of the same join share one flight (and the
      // row limit changes the outcome, so it is part of the key). Each
      // waiter keeps its own names in canonical column order, so the
      // fan-out labels columns in every requester's own terms.
      serve::BgpCanonical canon = serve::CanonicalizeBgp(query);
      item.key.reserve(1 + canon.key.size() + 16);
      item.key.push_back('B');
      item.key.append(canon.key);
      item.key.append("|L");
      item.key.append(std::to_string(request.row_limit));
      waiter.bgp_vars.resize(query.num_vars());
      for (size_t slot = 0; slot < query.num_vars(); ++slot) {
        waiter.bgp_vars[canon.var_rank[slot]] = query.var_names()[slot];
      }
      item.bgp_query = std::move(query);
      break;
    }
  }

  if (!config_.enable_coalescing) {
    // Every request is its own flight: unique keys never collide.
    item.key.append("#");
    item.key.append(
        std::to_string(unique_seq_.fetch_add(1, std::memory_order_relaxed)));
  }

  if (flights_.Attach(item.key, std::move(waiter)) ==
      SingleFlightTable<Waiter>::Role::kWaiter) {
    // Coalesced onto a pending flight: no new backend work, nothing to
    // queue, and admission control does not apply.
    return true;
  }

  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= config_.max_queue_depth) {
      lock.unlock();
      // Shed the flight we just created (any waiter that managed to
      // attach in between is shed with it — it joined a doomed flight).
      std::vector<Waiter> shed = flights_.Take(item.key);
      // The flight was taken back unexecuted: account it with the other
      // skipped flights so executed + shed == taken stays exact.
      counters_->shed_unavailable.fetch_add(shed.size());
      counters_->flights_shed.fetch_add(1);
      WireResponse response;
      response.type = request.type;
      response.status = Status::Unavailable(
          "work queue full (" + std::to_string(config_.max_queue_depth) +
          " pending executions); retry after backoff");
      response.retry_after_nanos = config_.retry_after_nanos;
      for (const Waiter& w : shed) {
        response.request_id = w.request_id;
        Respond(w.conn, response);
      }
      return true;
    }
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::FlushConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  bool write_error = false;
  bool want_write;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    while (!conn->outbox.empty()) {
      // MSG_NOSIGNAL: a peer that vanished mid-write is a close, not a
      // process-wide SIGPIPE.
      ssize_t n = ::send(conn->fd, conn->outbox.data(),
                         std::min<size_t>(conn->outbox.size(), 256 * 1024),
                         MSG_NOSIGNAL);
      if (n > 0) {
        conn->outbox.erase(0, size_t(n));
        counters_->bytes_written.fetch_add(uint64_t(n));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      write_error = true;
      break;
    }
    want_write = !conn->outbox.empty() && !write_error;
  }
  if (write_error) {
    CloseConnection(conn);
    return;
  }
  if (want_write != conn->epollout) {
    conn->epollout = want_write;
    UpdateWriteInterest(conn);
  }
}

void Server::UpdateWriteInterest(const std::shared_ptr<Connection>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (conn->epollout ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->fd);
  counters_->connections_closed.fetch_add(1);
}

// ------------------------------------------------------------ worker side

void Server::WorkerLoop() {
  while (true) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecuteFlight(item);
  }
}

void Server::ExecuteFlight(const WorkItem& item) {
  if (config_.worker_hook_for_testing) config_.worker_hook_for_testing();

  // Every count below lands before the first answer goes out, so a
  // client holding its response reads stats() that include it.
  std::vector<Waiter> waiters = flights_.Take(item.key);

  if (stopping_.load(std::memory_order_acquire)) {
    counters_->shed_shutdown.fetch_add(waiters.size());
    counters_->flights_shed.fetch_add(1);
    WireResponse response;
    response.type = item.request.type;
    response.status = Status::Unavailable("server shutting down");
    for (const Waiter& waiter : waiters) {
      response.request_id = waiter.request_id;
      Respond(waiter.conn, response);
    }
    return;
  }

  // Queue-side deadline enforcement: expired waiters are answered with
  // kDeadlineExceeded and never reach the backend. If every waiter
  // expired, the whole flight is skipped (pinned by
  // tests/net/net_deadline_test.cc). Fan-out order keeps attach order,
  // so waiters[0] is the flight's leader.
  const int64_t now = NowNanos();
  std::vector<size_t> live;
  live.reserve(waiters.size());
  for (size_t i = 0; i < waiters.size(); ++i) {
    if (waiters[i].deadline_abs_nanos > now) live.push_back(i);
  }
  counters_->shed_deadline_queue.fetch_add(waiters.size() - live.size());
  (live.empty() ? counters_->flights_shed : counters_->flights_executed)
      .fetch_add(1);
  for (size_t i = 0; i < waiters.size(); ++i) {
    const Waiter& waiter = waiters[i];
    if (waiter.deadline_abs_nanos > now) continue;
    WireResponse response;
    response.type = waiter.type;
    response.request_id = waiter.request_id;
    response.coalesced = i != 0;
    response.status = Status::DeadlineExceeded(
        "deadline expired after " +
        std::to_string(now - waiter.receipt_nanos) + " ns in queue");
    Respond(waiter.conn, response);
  }
  if (live.empty()) return;

  WireResponse response;
  response.type = item.request.type;
  switch (item.request.type) {
    case MsgType::kPattern: {
      serve::QueryResult result = engine_->Execute(item.request.pattern);
      response.cache_hit = result.cache_hit;
      response.matches.assign(result.matches->begin(), result.matches->end());
      break;
    }
    case MsgType::kBgp: {
      serve::BgpOptions options;
      options.limit = size_t(item.request.row_limit);
      serve::BgpExecResult result =
          engine_->ExecuteBgp(item.bgp_query, options);
      response.status = result.status;
      response.cache_hit = result.cache_hit;
      if (result.rows) {
        response.rows = result.rows->data;
        response.num_rows = result.rows->num_rows;
      }
      break;
    }
    case MsgType::kPing:
      break;
  }

  const int64_t done = NowNanos();
  for (size_t i : live) {
    const Waiter& waiter = waiters[i];
    response.request_id = waiter.request_id;
    response.coalesced = i != 0;
    if (waiter.type == MsgType::kBgp) response.vars = waiter.bgp_vars;
    AKB_HISTOGRAM_RECORD("akb.net.request.nanos",
                         done - waiter.receipt_nanos);
    Respond(waiter.conn, response);
  }
}

void Server::Respond(const std::shared_ptr<Connection>& conn,
                     const WireResponse& response) {
  if (conn->closed.load(std::memory_order_acquire)) {
    counters_->responses_dropped.fetch_add(1);
    return;
  }
  std::string bytes;
  EncodeResponse(response, &bytes);
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->outbox.size() + bytes.size() > config_.max_outbox_bytes) {
      overflow = true;
    } else {
      // Counted before the append: once the bytes are in the outbox the
      // IO thread may send them.
      counters_->responses.fetch_add(1);
      conn->outbox.append(bytes);
    }
  }
  if (overflow) {
    // The client stopped reading; drop it rather than buffer unboundedly.
    counters_->responses_dropped.fetch_add(1);
    conn->close_requested.store(true, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(write_pending_mutex_);
    write_pending_.push_back(conn);
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void FillNetStatusReport(const Server& server, obs::StatusReport* report) {
  NetStats stats = server.stats();
  obs::Json net = obs::Json::Object();
  net.Set("running", server.running());
  net.Set("port", int64_t(server.port()));

  obs::Json connections = obs::Json::Object();
  connections.Set("open", int64_t(stats.connections_open));
  connections.Set("accepted", int64_t(stats.connections_accepted));
  connections.Set("closed", int64_t(stats.connections_closed));
  connections.Set("rejected", int64_t(stats.connections_rejected));
  net.Set("connections", std::move(connections));

  obs::Json traffic = obs::Json::Object();
  traffic.Set("requests", int64_t(stats.requests));
  traffic.Set("responses", int64_t(stats.responses));
  traffic.Set("responses_dropped", int64_t(stats.responses_dropped));
  traffic.Set("protocol_errors", int64_t(stats.protocol_errors));
  traffic.Set("bytes_read", int64_t(stats.bytes_read));
  traffic.Set("bytes_written", int64_t(stats.bytes_written));
  net.Set("traffic", std::move(traffic));

  obs::Json queue = obs::Json::Object();
  queue.Set("depth", int64_t(stats.queue_depth));
  queue.Set("flights_executed", int64_t(stats.flights_executed));
  queue.Set("flights_shed", int64_t(stats.flights_shed));
  net.Set("queue", std::move(queue));

  obs::Json sheds = obs::Json::Object();
  sheds.Set("unavailable", int64_t(stats.shed_unavailable));
  sheds.Set("deadline_queue", int64_t(stats.shed_deadline_queue));
  sheds.Set("shutdown", int64_t(stats.shed_shutdown));
  net.Set("sheds", std::move(sheds));

  obs::Json coalescing = obs::Json::Object();
  coalescing.Set("attaches", int64_t(stats.singleflight.attaches));
  coalescing.Set("leaders", int64_t(stats.singleflight.leaders));
  coalescing.Set("coalesced_waiters",
                 int64_t(stats.singleflight.coalesced_waiters));
  coalescing.Set("flights_inflight",
                 int64_t(stats.singleflight.flights_inflight));
  coalescing.Set("peak_inflight", int64_t(stats.singleflight.peak_inflight));
  net.Set("singleflight", std::move(coalescing));

  report->AddSection("net", std::move(net));
}

}  // namespace akb::net
