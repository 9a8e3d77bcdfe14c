// Network front door benchmark — the coalescing headline plus a
// sustained-QPS run over the wire.
//
// Phase 1 (hot-key storm): many clients hammer a handful of identical
// patterns through the epoll server (single patterns are never cached,
// so each execution is an index scan), once with single-flight
// coalescing on and once off, at equal concurrency. The acceptance
// headline: coalescing must cut backend index scans (the
// akb.serve.queries delta) by >= 10x, and every response must be
// byte-identical to a direct QueryEngine execution of the same pattern.
// Enforced when AKB_REQUIRE_NET_DEDUP is set (CI sets it; interactive
// runs just report).
//
// Phase 2 (sustained Zipf): a realistic mixed workload (per-request
// deadline) measuring client-observed sustained QPS, p50/p99
// latency, and shed rate.
//
// Emits the common "akb-bench-v1" file (BENCH_net.json) with both modes
// merged, so bench-merge and check_json treat it like every other suite.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/bench_io.h"
#include "obs/metrics.h"
#include "rdf/triple_store.h"
#include "serve/kb_view.h"
#include "serve/query_engine.h"
#include "synth/query_workload.h"

namespace {

using namespace akb;

constexpr size_t kTargetTriples = 300000;

// Skewed KB: a few hot subjects carry thousands of facts, so subject
// scans are real work for the backend (contiguous SPO ranges, but big).
const rdf::TripleStore& BigStore() {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    Rng rng(131);
    std::vector<rdf::TermId> subjects, predicates, objects;
    for (int i = 0; i < 256; ++i) {
      subjects.push_back(
          s->dictionary().InternIri("http://e/s" + std::to_string(i)));
    }
    for (int i = 0; i < 48; ++i) {
      predicates.push_back(
          s->dictionary().InternIri("http://p/p" + std::to_string(i)));
    }
    for (int i = 0; i < 30000; ++i) {
      objects.push_back(
          s->dictionary().InternLiteral("o" + std::to_string(i)));
    }
    while (s->num_triples() < kTargetTriples) {
      s->Insert(
          {rng.Pick(subjects), rng.Pick(predicates), rng.Pick(objects)},
          rdf::Provenance{});
    }
    return s;
  }();
  return *store;
}

const serve::KbView& BigView() {
  static serve::KbView* view = new serve::KbView(BigStore());
  return *view;
}

// The storm's hot set: a handful of subject scans over the hottest
// subjects — expensive enough that flights linger, few enough that every
// concurrent request collides with a pending flight.
std::vector<rdf::TriplePattern> HotPatterns(size_t count) {
  const auto& dict = BigStore().dictionary();
  std::vector<rdf::TriplePattern> patterns;
  for (size_t i = 0; i < count; ++i) {
    rdf::TermId s =
        dict.Find(rdf::Term::Iri("http://e/s" + std::to_string(i)));
    patterns.push_back({s, 0, 0});
  }
  return patterns;
}

struct ClientResult {
  uint64_t ok = 0;
  uint64_t shed_unavailable = 0;
  uint64_t shed_deadline = 0;
  uint64_t transport_errors = 0;
  uint64_t mismatches = 0;  ///< responses differing from direct execution
  std::vector<int64_t> latencies_nanos;
};

// One client thread: pipelined requests from `patterns` (round-robin
// starting at `offset`), `total` requests deep overall. When `expected`
// is set (storm phase), EVERY OK response is compared against the
// direct-execution answer for its pattern — coalesced fan-out must be
// indistinguishable from executing each request alone.
void DriveClient(uint16_t port, const std::vector<rdf::TriplePattern>& patterns,
                 size_t offset, size_t total, size_t depth,
                 int64_t deadline_nanos,
                 const std::vector<std::vector<uint64_t>>* expected,
                 ClientResult* result) {
  net::Client client;
  if (!client.Connect("127.0.0.1", port, 30'000'000'000).ok()) {
    result->transport_errors += total;
    return;
  }
  std::vector<int64_t> sent_at(depth * 2, 0);
  size_t sent = 0, received = 0;
  while (received < total) {
    while (sent < total && sent - received < depth) {
      net::WireRequest request;
      request.type = net::MsgType::kPattern;
      // id encodes the pattern index so responses map back to patterns.
      size_t pattern_index = (offset + sent) % patterns.size();
      request.request_id = (uint64_t(sent) << 16) | pattern_index;
      request.deadline_nanos = deadline_nanos;
      request.pattern = patterns[pattern_index];
      sent_at[sent % sent_at.size()] = net::NowNanos();
      if (!client.Send(request).ok()) {
        result->transport_errors += total - received;
        return;
      }
      ++sent;
    }
    net::WireResponse response;
    if (!client.Receive(&response).ok()) {
      result->transport_errors += total - received;
      return;
    }
    uint64_t seq = response.request_id >> 16;
    result->latencies_nanos.push_back(net::NowNanos() -
                                      sent_at[seq % sent_at.size()]);
    switch (response.status.code()) {
      case StatusCode::kOk: {
        ++result->ok;
        size_t pattern_index = size_t(response.request_id & 0xffff);
        if (expected != nullptr &&
            response.matches != (*expected)[pattern_index]) {
          ++result->mismatches;
        }
        break;
      }
      case StatusCode::kUnavailable:
        ++result->shed_unavailable;
        break;
      case StatusCode::kDeadlineExceeded:
        ++result->shed_deadline;
        break;
      default:
        break;
    }
    ++received;
  }
}

struct RunStats {
  double seconds = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t transport_errors = 0;
  uint64_t backend_scans = 0;
  uint64_t coalesced_waiters = 0;
  uint64_t mismatches = 0;
  double p50_nanos = 0;
  double p99_nanos = 0;
  std::vector<ClientResult> clients;
};

RunStats RunClients(net::Server* server,
                    const std::vector<rdf::TriplePattern>& patterns,
                    size_t num_clients, size_t per_client, size_t depth,
                    int64_t deadline_nanos,
                    const std::vector<std::vector<uint64_t>>* expected) {
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  RunStats stats;
  stats.clients.resize(num_clients);
  std::vector<std::thread> threads;
  Stopwatch watch;
  for (size_t c = 0; c < num_clients; ++c) {
    threads.emplace_back(DriveClient, server->port(), std::cref(patterns),
                         c * 7, per_client, depth, deadline_nanos, expected,
                         &stats.clients[c]);
  }
  for (std::thread& thread : threads) thread.join();
  stats.seconds = watch.ElapsedSeconds();

  std::vector<int64_t> latencies;
  for (const ClientResult& client : stats.clients) {
    stats.ok += client.ok;
    stats.shed += client.shed_unavailable + client.shed_deadline;
    stats.transport_errors += client.transport_errors;
    stats.mismatches += client.mismatches;
    latencies.insert(latencies.end(), client.latencies_nanos.begin(),
                     client.latencies_nanos.end());
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    stats.p50_nanos = double(latencies[latencies.size() / 2]);
    stats.p99_nanos =
        double(latencies[size_t(0.99 * double(latencies.size() - 1))]);
  }
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DiffFrom(before);
  const auto* scans = delta.Find("akb.serve.queries");
  stats.backend_scans = scans ? uint64_t(scans->value) : 0;
  stats.coalesced_waiters = server->stats().singleflight.coalesced_waiters;
  return stats;
}

// Phase 1: the coalescing headline — the classic stampede: every client
// hammering the SAME pattern. Same concurrency, same request stream;
// only enable_coalescing differs.
void RunStormPhase(obs::BenchSuite* suite) {
  constexpr size_t kHotKeys = 1;
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 2048;
  constexpr size_t kDepth = 64;
  auto patterns = HotPatterns(kHotKeys);

  serve::QueryEngineConfig engine_config;
  engine_config.num_workers = 1;

  // The reference answers, from direct engine execution with no server
  // in the loop; every wire response is compared against these.
  std::vector<std::vector<uint64_t>> expected;
  {
    serve::QueryEngine reference(BigView(), engine_config);
    for (const rdf::TriplePattern& pattern : patterns) {
      serve::QueryResult direct = reference.Execute(pattern);
      expected.emplace_back(direct.matches->begin(), direct.matches->end());
    }
  }

  double scans[2] = {0, 0};
  double qps[2] = {0, 0};
  bool identical = true;
  for (int mode = 0; mode < 2; ++mode) {
    bool coalescing = mode == 0;
    serve::QueryEngine engine(BigView(), engine_config);
    net::Server server(&engine);
    net::ServerConfig config;
    // One worker keeps the execution path saturated, so pending flights
    // accumulate waiters — the regime coalescing exists for. Both modes
    // run the identical configuration; only the coalescing flag differs.
    config.num_workers = 1;
    config.max_queue_depth = 1u << 16;
    config.enable_coalescing = coalescing;
    if (!server.Start(config).ok()) {
      std::fprintf(stderr, "FATAL: server failed to start\n");
      std::abort();
    }
    RunStats stats = RunClients(&server, patterns, kClients, kPerClient,
                                kDepth, /*deadline_nanos=*/0, &expected);
    server.Stop();
    if (stats.transport_errors != 0 ||
        stats.ok != kClients * kPerClient) {
      std::fprintf(stderr, "FATAL: storm lost responses (%llu ok)\n",
                   (unsigned long long)stats.ok);
      std::abort();
    }
    if (stats.mismatches != 0) identical = false;
    scans[mode] = double(stats.backend_scans);
    qps[mode] = stats.seconds > 0 ? double(stats.ok) / stats.seconds : 0;

  }

  double dedup = scans[0] > 0 ? scans[1] / scans[0] : 0.0;
  TextTable table({"Coalescing", "Backend scans", "Wire QPS", "Reduction"});
  table.set_title(
      "Hot-key storm: " + std::to_string(kClients) +
      " clients x pipeline " + std::to_string(kDepth) + ", " +
      std::to_string(kHotKeys) + " hot patterns");
  table.AddRow({"off", FormatDouble(scans[1], 0), FormatDouble(qps[1], 0),
                "1.0x"});
  table.AddRow({"on", FormatDouble(scans[0], 0), FormatDouble(qps[0], 0),
                FormatDouble(dedup, 1) + "x"});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Responses byte-identical to direct execution: %s\n",
              identical ? "yes" : "NO");
  std::printf("Budget: >= 10x fewer backend scans — %s\n\n",
              dedup >= 10.0 ? "within budget" : "OVER BUDGET");

  suite->Add({"net_storm_backend_scans_coalescing_off", scans[1], "scans", 1,
              {{"clients", double(kClients)}, {"pipeline", double(kDepth)}}});
  suite->Add({"net_storm_backend_scans_coalescing_on", scans[0], "scans", 1,
              {{"clients", double(kClients)}, {"pipeline", double(kDepth)}}});
  suite->Add({"net_storm_scan_reduction", dedup, "x", 1,
              {{"budget_min", 10.0},
               {"responses_identical", identical ? 1.0 : 0.0}}});

  if (const char* required = std::getenv("AKB_REQUIRE_NET_DEDUP")) {
    double minimum = std::strtod(required, nullptr);
    if (minimum <= 0) minimum = 10.0;
    if (dedup < minimum || !identical) {
      std::fprintf(stderr,
                   "FAILED: AKB_REQUIRE_NET_DEDUP=%s but reduction=%.1fx "
                   "identical=%d\n",
                   required, dedup, identical ? 1 : 0);
      std::exit(1);
    }
  }
}

// Phase 2: sustained mixed Zipf workload over the wire, per-request
// deadline — the numbers a capacity plan would use.
void RunSustainedPhase(obs::BenchSuite* suite) {
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 8192;
  constexpr size_t kDepth = 32;
  synth::QueryWorkloadConfig workload_config;
  workload_config.num_queries = 16384;
  workload_config.seed = 57;
  workload_config.zipf = 1.1;
  auto patterns = synth::GenerateQueryWorkload(BigStore(), workload_config);

  serve::QueryEngineConfig engine_config;
  serve::QueryEngine engine(BigView(), engine_config);
  net::Server server(&engine);
  net::ServerConfig config;
  config.num_workers = 4;
  config.max_queue_depth = 1u << 16;
  if (!server.Start(config).ok()) {
    std::fprintf(stderr, "FATAL: server failed to start\n");
    std::abort();
  }
  RunStats stats =
      RunClients(&server, patterns, kClients, kPerClient, kDepth,
                 /*deadline_nanos=*/2'000'000'000, /*expected=*/nullptr);
  server.Stop();

  uint64_t responses = stats.ok + stats.shed;
  double qps = stats.seconds > 0 ? double(responses) / stats.seconds : 0;
  double shed_rate = responses > 0 ? double(stats.shed) / double(responses)
                                   : 0.0;
  TextTable table({"Metric", "Value"});
  table.set_title("Sustained Zipf workload over the wire (" +
                  std::to_string(kClients) + " clients x pipeline " +
                  std::to_string(kDepth) + ", 2s deadline)");
  table.AddRow({"Sustained QPS", FormatDouble(qps, 0)});
  table.AddRow({"p50 latency (us)", FormatDouble(stats.p50_nanos / 1e3, 1)});
  table.AddRow({"p99 latency (us)", FormatDouble(stats.p99_nanos / 1e3, 1)});
  table.AddRow({"Shed rate", FormatDouble(shed_rate, 4)});
  table.AddRow({"Coalesced waiters",
                FormatDouble(double(stats.coalesced_waiters), 0)});
  std::printf("%s\n", table.ToString().c_str());

  suite->Add({"net_sustained_qps", qps, "qps", 1,
              {{"p50_nanos", stats.p50_nanos},
               {"p99_nanos", stats.p99_nanos},
               {"shed_rate", shed_rate},
               {"clients", double(kClients)},
               {"pipeline", double(kDepth)},
               {"coalesced_waiters", double(stats.coalesced_waiters)},
               {"triples", double(BigStore().num_triples())}}});
}

}  // namespace

int main() {
  obs::BenchSuite suite("net");
  RunStormPhase(&suite);
  RunSustainedPhase(&suite);
  suite.WriteDefaultFile();
  return 0;
}
