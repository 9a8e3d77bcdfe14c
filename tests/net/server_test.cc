// End-to-end server tests over a real loopback socket: responses are
// byte-identical to direct QueryEngine execution, single-flight
// coalescing is pinned deterministically with a stalled worker, admission
// control sheds with kUnavailable + retry-after, and protocol errors are
// answered then closed.
#include "net/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "rdf/triple_store.h"
#include "serve/bgp.h"
#include "serve/query_engine.h"

namespace akb::net {
namespace {

using rdf::TriplePattern;

// Blocks the worker thread inside worker_hook_for_testing on its first
// call only. While stalled, flights pile up in the queue and waiters
// attach to them — the lever every determinism test here pulls.
struct StallHook {
  std::mutex mutex;
  std::condition_variable cv;
  int calls = 0;
  bool entered = false;
  bool release = false;

  std::function<void()> Fn() {
    return [this] {
      std::unique_lock<std::mutex> lock(mutex);
      if (calls++ == 0) {
        entered = true;
        cv.notify_all();
        cv.wait(lock, [this] { return release; });
      }
    };
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
  }
};

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 10000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

int64_t QueriesCounter() {
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricSnapshotEntry* entry = snapshot.Find("akb.serve.queries");
  return entry ? entry->value : 0;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int s = 0; s < 20; ++s) {
      auto sid =
          store_.dictionary().InternIri("http://e/s" + std::to_string(s));
      if (s == 0) subject0_ = sid;
      for (int p = 0; p < 5; ++p) {
        auto pid =
            store_.dictionary().InternIri("http://p/p" + std::to_string(p));
        if (p == 0) predicate0_ = pid;
        store_.Insert(
            {sid, pid,
             store_.dictionary().InternLiteral(std::to_string(s * 5 + p))},
            rdf::Provenance{});
      }
    }
    view_ = std::make_unique<serve::KbView>(store_);
  }

  // Starts a server over a fresh engine; both live until the test ends.
  Server* StartServer(ServerConfig config,
                      serve::QueryEngineConfig engine_config = {}) {
    engine_config.num_workers = 2;
    engine_ = std::make_unique<serve::QueryEngine>(*view_, engine_config);
    server_ = std::make_unique<Server>(engine_.get());
    Status status = server_->Start(config);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return server_.get();
  }

  WireRequest PatternRequest(uint64_t id, TriplePattern pattern,
                             int64_t deadline_nanos = 0) {
    WireRequest request;
    request.type = MsgType::kPattern;
    request.request_id = id;
    request.deadline_nanos = deadline_nanos;
    request.pattern = pattern;
    return request;
  }

  rdf::TripleStore store_;
  std::unique_ptr<serve::KbView> view_;
  std::unique_ptr<serve::QueryEngine> engine_;
  std::unique_ptr<Server> server_;
  rdf::TermId subject0_ = 0;
  rdf::TermId predicate0_ = 0;
};

TEST_F(ServerTest, PingRoundTrip) {
  Server* server = StartServer({});
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  WireRequest request;
  request.type = MsgType::kPing;
  request.request_id = 123;
  WireResponse response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.type, MsgType::kPing);
  EXPECT_EQ(response.request_id, 123u);
}

TEST_F(ServerTest, PatternResponsesMatchDirectExecution) {
  Server* server = StartServer({});
  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server->port(), 10'000'000'000).ok());

  std::vector<TriplePattern> patterns = {
      {subject0_, 0, 0},            // one subject's 5 triples
      {0, predicate0_, 0},          // one predicate across all subjects
      {subject0_, predicate0_, 0},  // fully selective
      {0, 0, 0},                    // full scan
      {99999, 0, 0},                // no matches
  };
  uint64_t id = 0;
  for (const TriplePattern& pattern : patterns) {
    WireResponse response;
    ASSERT_TRUE(client.Call(PatternRequest(++id, pattern), &response).ok());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    // The wire response carries exactly the match vector a direct
    // engine execution returns, in the same order.
    const std::vector<size_t> direct = view_->Match(pattern);
    EXPECT_EQ(response.matches,
              std::vector<uint64_t>(direct.begin(), direct.end()));
  }
}

TEST_F(ServerTest, BgpResponseMatchesDirectExecution) {
  Server* server = StartServer({});
  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server->port(), 10'000'000'000).ok());

  // ?v0 p0 ?v1 over the wire.
  WireRequest request;
  request.type = MsgType::kBgp;
  request.request_id = 7;
  request.bgp_patterns = {
      {{true, 0}, {false, predicate0_}, {true, 1}},
  };
  WireResponse response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  // The same join executed directly (server names wire var slots
  // "v<slot>"; columns come back in canonical order either way).
  serve::BgpQuery query;
  auto v0 = query.Var("v0");
  auto v1 = query.Var("v1");
  query.Add(v0, serve::BgpQuery::Bound(predicate0_), v1);
  serve::QueryEngine direct(*view_);
  serve::BgpExecResult expected = direct.ExecuteBgp(query, {});
  ASSERT_TRUE(expected.status.ok());
  ASSERT_NE(expected.rows, nullptr);
  EXPECT_EQ(response.num_rows, expected.rows->num_rows);
  EXPECT_EQ(response.rows, expected.rows->data);
  EXPECT_EQ(response.vars.size(), 2u);
  EXPECT_EQ(response.vars, expected.rows->vars);
}

TEST_F(ServerTest, InvalidBgpRejectedAtAdmission) {
  Server* server = StartServer({});
  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server->port(), 10'000'000'000).ok());

  WireRequest request;
  request.type = MsgType::kBgp;
  request.request_id = 1;
  request.bgp_patterns = {};  // zero patterns: invalid, not a parse error
  WireResponse response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);

  // The connection survives a semantically invalid (well-framed) query.
  WireRequest ping;
  ping.type = MsgType::kPing;
  ping.request_id = 2;
  ASSERT_TRUE(client.Call(ping, &response).ok());
  EXPECT_TRUE(response.status.ok());
}

// The coalescing determinism test: with the single worker stalled inside
// the test hook, eight identical requests pile onto one pending flight.
// Releasing the worker must execute the backend exactly twice (stall
// dummy + one shared flight) and fan byte-identical results to all eight.
TEST_F(ServerTest, CoalescedStormExecutesBackendOnce) {
  StallHook hook;
  ServerConfig config;
  config.num_workers = 1;
  config.worker_hook_for_testing = hook.Fn();
  serve::QueryEngineConfig engine_config;
  engine_config.enable_cache = false;
  Server* server = StartServer(config, engine_config);

  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server->port(), 10'000'000'000).ok());
  const int64_t queries_before = QueriesCounter();

  // A unique dummy occupies the worker inside the hook.
  ASSERT_TRUE(client.Send(PatternRequest(1, {99999, 0, 0})).ok());
  hook.WaitEntered();

  // Eight identical requests: one leads, seven attach as waiters.
  const TriplePattern hot = {subject0_, 0, 0};
  for (uint64_t id = 2; id <= 9; ++id) {
    ASSERT_TRUE(client.Send(PatternRequest(id, hot)).ok());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return server->stats().singleflight.attaches == 9; }));
  hook.Release();

  const std::vector<size_t> direct = view_->Match(hot);
  const std::vector<uint64_t> expected(direct.begin(), direct.end());
  std::map<uint64_t, WireResponse> responses;
  for (int i = 0; i < 9; ++i) {
    WireResponse response;
    ASSERT_TRUE(client.Receive(&response).ok());
    responses[response.request_id] = response;
  }
  int coalesced = 0;
  for (uint64_t id = 2; id <= 9; ++id) {
    ASSERT_TRUE(responses.count(id));
    const WireResponse& response = responses[id];
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.matches, expected) << "request " << id;
    if (response.coalesced) ++coalesced;
  }
  // Exactly the leader is non-coalesced; the other seven were fanned out.
  EXPECT_EQ(coalesced, 7);

  NetStats stats = server->stats();
  EXPECT_EQ(stats.singleflight.attaches, 9u);
  EXPECT_EQ(stats.singleflight.leaders, 2u);
  EXPECT_EQ(stats.singleflight.coalesced_waiters, 7u);
  EXPECT_EQ(stats.singleflight.flights_taken, 2u);
  EXPECT_EQ(stats.flights_executed, 2u);
  EXPECT_EQ(stats.flights_shed, 0u);
  // The headline property: nine requests, two backend executions.
  EXPECT_EQ(QueriesCounter() - queries_before, 2);
}

TEST_F(ServerTest, CoalescingOffEveryRequestIsItsOwnFlight) {
  StallHook hook;
  ServerConfig config;
  config.num_workers = 1;
  config.enable_coalescing = false;
  config.worker_hook_for_testing = hook.Fn();
  serve::QueryEngineConfig engine_config;
  engine_config.enable_cache = false;
  Server* server = StartServer(config, engine_config);

  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server->port(), 10'000'000'000).ok());
  const int64_t queries_before = QueriesCounter();

  ASSERT_TRUE(client.Send(PatternRequest(1, {99999, 0, 0})).ok());
  hook.WaitEntered();
  const TriplePattern hot = {subject0_, 0, 0};
  for (uint64_t id = 2; id <= 5; ++id) {
    ASSERT_TRUE(client.Send(PatternRequest(id, hot)).ok());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return server->stats().singleflight.attaches == 5; }));
  hook.Release();

  for (int i = 0; i < 5; ++i) {
    WireResponse response;
    ASSERT_TRUE(client.Receive(&response).ok());
    ASSERT_TRUE(response.status.ok());
    EXPECT_FALSE(response.coalesced);
  }
  NetStats stats = server->stats();
  EXPECT_EQ(stats.singleflight.leaders, 5u);
  EXPECT_EQ(stats.singleflight.coalesced_waiters, 0u);
  // Identical requests, but five backend executions: the OFF baseline.
  EXPECT_EQ(QueriesCounter() - queries_before, 5);
}

TEST_F(ServerTest, QueueFullShedsWithRetryAfter) {
  StallHook hook;
  ServerConfig config;
  config.num_workers = 1;
  config.max_queue_depth = 1;
  config.retry_after_nanos = 5'000'000;
  config.worker_hook_for_testing = hook.Fn();
  Server* server = StartServer(config);

  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server->port(), 10'000'000'000).ok());

  // Dummy stalls the worker; X fills the queue; Y must be shed.
  ASSERT_TRUE(client.Send(PatternRequest(1, {99999, 0, 0})).ok());
  hook.WaitEntered();
  ASSERT_TRUE(client.Send(PatternRequest(2, {subject0_, 0, 0})).ok());
  ASSERT_TRUE(client.Send(PatternRequest(3, {0, predicate0_, 0})).ok());

  // Y's shed response is written by the IO thread while the worker is
  // still stalled — load shedding never waits in line.
  WireResponse shed;
  ASSERT_TRUE(client.Receive(&shed).ok());
  EXPECT_EQ(shed.request_id, 3u);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.retry_after_nanos, 5'000'000);

  hook.Release();
  std::map<uint64_t, Status> statuses;
  for (int i = 0; i < 2; ++i) {
    WireResponse response;
    ASSERT_TRUE(client.Receive(&response).ok());
    statuses[response.request_id] = response.status;
  }
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(server->stats().shed_unavailable, 1u);
}

TEST_F(ServerTest, MalformedFrameAnsweredThenClosed) {
  Server* server = StartServer({});

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A well-framed payload with a bad version byte.
  WireRequest request;
  request.type = MsgType::kPing;
  request.request_id = 42;
  std::string frame;
  EncodeRequest(request, &frame);
  frame[4] = 99;  // payload byte 0 is the version
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            ssize_t(frame.size()));

  // The server answers with a kParseError response, then EOF.
  std::string inbuf;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) inbuf.append(buf, size_t(n));
  EXPECT_EQ(n, 0) << "expected orderly EOF after the error response";
  std::string_view payload;
  Result<size_t> used = ExtractFrame(inbuf, kDefaultMaxFrameBytes, &payload);
  ASSERT_TRUE(used.ok());
  ASSERT_GT(*used, 0u);
  WireResponse response;
  ASSERT_TRUE(DecodeResponse(payload, &response).ok());
  EXPECT_EQ(response.status.code(), StatusCode::kParseError);
  ::close(fd);

  ASSERT_TRUE(WaitFor([&] { return server->stats().protocol_errors >= 1; }));
  ASSERT_TRUE(
      WaitFor([&] { return server->stats().connections_open == 0; }));
}

TEST_F(ServerTest, StatuszNetSection) {
  Server* server = StartServer({});
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  WireRequest ping;
  ping.type = MsgType::kPing;
  ping.request_id = 1;
  WireResponse response;
  ASSERT_TRUE(client.Call(ping, &response).ok());

  obs::StatusReport report;
  FillNetStatusReport(*server, &report);
  const obs::Json* net = report.FindSection("net");
  ASSERT_NE(net, nullptr);
  std::string json = report.ToJson();
  for (const char* key : {"\"connections\"", "\"traffic\"", "\"queue\"",
                          "\"sheds\"", "\"singleflight\"", "\"requests\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }

  // The section reports the server's own counters, not a second copy.
  // Nothing is in flight: the ping was answered and the client is idle.
  NetStats stats = server->stats();
  const obs::Json* connections = net->Find("connections");
  const obs::Json* traffic = net->Find("traffic");
  ASSERT_NE(connections, nullptr);
  ASSERT_NE(traffic, nullptr);
  ASSERT_NE(connections->Find("open"), nullptr);
  ASSERT_NE(connections->Find("accepted"), nullptr);
  ASSERT_NE(traffic->Find("requests"), nullptr);
  EXPECT_EQ(connections->Find("open")->AsInt(-1),
            int64_t(stats.connections_open));
  EXPECT_EQ(connections->Find("accepted")->AsInt(-1),
            int64_t(stats.connections_accepted));
  EXPECT_EQ(traffic->Find("requests")->AsInt(-1), int64_t(stats.requests));
  EXPECT_EQ(stats.connections_open, 1u);
  EXPECT_EQ(stats.requests, 1u);
}

// connections_open is derived as accepted - closed; it tracks live
// connections up and down, not only the final zero.
TEST_F(ServerTest, ConnectionsOpenTracksLiveConnections) {
  Server* server = StartServer({});
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server->port()).ok());
  }
  ASSERT_TRUE(WaitFor([&] { return server->stats().connections_open == 3; }));
  clients.pop_back();
  clients.pop_back();
  ASSERT_TRUE(WaitFor([&] { return server->stats().connections_open == 1; }));
  clients.clear();
  ASSERT_TRUE(WaitFor([&] { return server->stats().connections_open == 0; }));
  NetStats stats = server->stats();
  EXPECT_EQ(stats.connections_accepted, 3u);
  EXPECT_EQ(stats.connections_closed, 3u);
}

TEST_F(ServerTest, LifecycleStartTwiceFailsStopIsIdempotent) {
  Server* server = StartServer({});
  EXPECT_TRUE(server->running());
  EXPECT_EQ(server->Start({}).code(), StatusCode::kAlreadyExists);
  server->Stop();
  EXPECT_FALSE(server->running());
  server->Stop();  // idempotent

  // A connection attempt after Stop must fail outright.
  Client client;
  EXPECT_FALSE(client.Connect("127.0.0.1", server->port()).ok());
}

}  // namespace
}  // namespace akb::net
