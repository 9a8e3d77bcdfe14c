#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

#include "harness.h"

namespace perfbench {

using akb::Status;
using akb::StatusCode;
using akb::net::WireResponse;

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Combine(uint64_t h, uint64_t v) { return SplitMix(h ^ SplitMix(v)); }

}  // namespace

uint64_t ResponseHash(const WireResponse& response) {
  uint64_t h = Combine(uint64_t(response.type),
                       uint64_t(response.status.code()));
  if (!response.status.ok()) return h;
  h = Combine(h, response.matches.size());
  for (uint64_t match : response.matches) h = Combine(h, match);
  for (const std::string& var : response.vars) {
    for (char c : var) h = Combine(h, uint8_t(c));
    h = Combine(h, 0x100);
  }
  h = Combine(h, response.num_rows);
  const size_t cols = response.vars.size();
  uint64_t rows = 0;
  for (size_t r = 0; cols > 0 && r < response.num_rows; ++r) {
    uint64_t row = 0x51ed;
    for (size_t c = 0; c < cols; ++c) {
      row = Combine(row, response.rows[r * cols + c]);
    }
    rows += SplitMix(row);  // a sum: row order does not matter
  }
  return Combine(h, rows);
}

struct LoadGenerator::Conn {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  /// (end offset in `out`, sample index) of frames not yet fully written.
  std::deque<std::pair<size_t, size_t>> pending;
  std::string in;
  bool dead = false;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

LoadGenerator::LoadGenerator(std::vector<akb::net::WireRequest> requests,
                             size_t connections, double lag_limit_ms)
    : requests_(std::move(requests)), lag_limit_ms_(lag_limit_ms) {
  for (size_t i = 0; i < std::max<size_t>(1, connections); ++i) {
    conns_.push_back(std::make_unique<Conn>());
  }
}

LoadGenerator::~LoadGenerator() = default;

Status LoadGenerator::Connect(uint16_t port) {
  for (auto& conn : conns_) {
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) return Status::IoError(std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      return Status::IoError("connect: " + std::string(std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  }
  return Status::OK();
}

PhaseStats LoadGenerator::Run(double rate, double seconds,
                              double drain_seconds, SpanLog* spans) {
  const size_t count = std::max<size_t>(1, size_t(rate * seconds + 0.5));
  const size_t base = samples_.size();
  const uint64_t first_id = next_id_;
  next_id_ += count;
  samples_.resize(base + count);
  const double interval = 1e9 / rate;
  const int64_t t0 = NowNanos() + 1'000'000;
  for (size_t i = 0; i < count; ++i) {
    Sample& sample = samples_[base + i];
    sample.scheduled = t0 + int64_t(double(i) * interval);
    sample.workload_index = uint32_t(next_index_);
    next_index_ = (next_index_ + 1) % requests_.size();
  }
  if (spans != nullptr) spans->Reserve(3 * count);
  const int64_t last_due = samples_.back().scheduled;
  const int64_t give_up = last_due + int64_t(drain_seconds * 1e9);

  size_t next = 0, answered = 0;
  std::vector<pollfd> fds(conns_.size());
  std::string frame;
  while (answered < count) {
    int64_t now = NowNanos();
    if (now > give_up) break;
    // Queue every request that is due, then write what the sockets take.
    while (next < count && samples_[base + next].scheduled <= now) {
      Conn& conn = *conns_[next % conns_.size()];
      akb::net::WireRequest& request =
          requests_[samples_[base + next].workload_index];
      request.request_id = first_id + next;
      akb::net::EncodeRequest(request, &conn.out);
      conn.pending.emplace_back(conn.out.size(), base + next);
      ++next;
    }
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      while (conn->out_offset < conn->out.size()) {
        ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_offset,
                           conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          conn->out_offset += size_t(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            conn->dead = true;
          }
          break;
        }
      }
      int64_t sent_at = NowNanos();
      while (!conn->pending.empty() &&
             conn->pending.front().first <= conn->out_offset) {
        samples_[conn->pending.front().second].sent = sent_at;
        conn->pending.pop_front();
      }
      if (conn->out_offset == conn->out.size()) {
        conn->out.clear();
        conn->out_offset = 0;
      }
    }

    // Spin while requests are still to be sent: waking from a sleep on
    // a virtual machine can take milliseconds, which would be charged to
    // the server as latency. Only the drain after the last send sleeps.
    int64_t wait_ns = next < count ? 0 : std::min<int64_t>(
                                             give_up - NowNanos(), 1'000'000);
    if (wait_ns < 0) wait_ns = 0;
    for (size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c]->dead ? -1 : conns_[c]->fd;
      fds[c].events = POLLIN;
      if (conns_[c]->out_offset < conns_[c]->out.size()) {
        fds[c].events |= POLLOUT;
      }
      fds[c].revents = 0;
    }
    timespec timeout{time_t(wait_ns / 1'000'000'000),
                     long(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;

    for (size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = *conns_[c];
      if (conn.dead || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char buf[1 << 16];
      int64_t received_at = 0;
      while (true) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          received_at = NowNanos();
          conn.in.append(buf, size_t(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.dead = true;
        }
        break;
      }
      size_t consumed = 0;
      while (true) {
        std::string_view payload;
        auto size = akb::net::ExtractFrame(
            std::string_view(conn.in).substr(consumed),
            akb::net::kDefaultMaxFrameBytes, &payload);
        if (!size.ok()) {
          conn.dead = true;
          break;
        }
        if (*size == 0) break;
        consumed += *size;
        WireResponse response;
        if (!akb::net::DecodeResponse(payload, &response).ok() ||
            response.request_id >= first_id + count) {
          conn.dead = true;
          break;
        }
        // A late answer to an earlier phase, which already counted it as
        // missing.
        if (response.request_id < first_id) continue;
        Sample& sample = samples_[base + (response.request_id - first_id)];
        if (sample.received != 0) continue;
        sample.received = received_at;
        sample.status = uint8_t(response.status.code());
        sample.cache_hit = response.cache_hit;
        sample.coalesced = response.coalesced;
        sample.hash = ResponseHash(response);
        sample.body_bytes = uint32_t(*size);
        ++answered;
        if (spans != nullptr) {
          size_t root = spans->Add("gen.request", response.request_id,
                                   sample.scheduled, sample.received);
          spans->Add("gen.send_wait", response.request_id, sample.scheduled,
                     sample.sent, int64_t(root));
          spans->Add("gen.in_flight", response.request_id, sample.sent,
                     sample.received, int64_t(root));
        }
      }
      conn.in.erase(0, consumed);
    }
    bool all_dead = true;
    for (auto& conn : conns_) all_dead = all_dead && conn->dead;
    if (all_dead) break;
  }

  PhaseStats stats;
  stats.rate = rate;
  stats.sent = next;
  const int64_t miss_ns = give_up - t0;
  std::vector<int64_t> latency, tail, lag;
  latency.reserve(count);
  lag.reserve(count);
  double bytes = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const Sample& sample = samples_[base + i];
    int64_t value = miss_ns;
    if (sample.ok()) {
      ++stats.ok;
      value = sample.received - sample.scheduled;
      bytes += sample.body_bytes;
    } else {
      ++stats.failed;
      if (sample.status == uint8_t(StatusCode::kUnavailable) ||
          sample.status == uint8_t(StatusCode::kDeadlineExceeded)) {
        ++stats.shed;
      }
    }
    stats.cache_hits += sample.cache_hit;
    stats.coalesced += sample.coalesced;
    latency.push_back(value);
    if (i >= count - count / 4) tail.push_back(value);
    lag.push_back(sample.sent > 0 ? sample.sent - sample.scheduled
                                  : miss_ns);
  }
  stats.p50_ms = Percentile(latency, 0.50) * 1e-6;
  stats.p99_ms = Percentile(latency, 0.99) * 1e-6;
  stats.tail_p99_ms = Percentile(tail, 0.99) * 1e-6;
  stats.lag_p99_ms = Percentile(lag, 0.99) * 1e-6;
  stats.resp_bytes = stats.ok > 0 ? bytes / double(stats.ok) : 0.0;
  stats.valid = stats.sent == count && stats.lag_p99_ms <= lag_limit_ms_;
  return stats;
}

}  // namespace perfbench
