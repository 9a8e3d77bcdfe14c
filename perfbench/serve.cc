// serve_lookup / serve_join: `akb_cli serve-net` over loopback, driven by
// the open-loop generator, plus (traced runs) an in-process replay of the
// same request sequence through the public serve and net functions.
//
// Before timing, the harness writes a seeded ~1M-triple KB as a v2
// snapshot and generates the request sequence from it. Set-up is the
// spawn of serve-net until its first OK response (median of three
// spawns). The timed part is a fixed-rate phase at the workload's nominal
// rate, then a search over a fixed geometric rate ladder for the highest
// rate that meets the workload's p99 limit. After the server has exited,
// every OK response is compared with the answer KbView gives in-process.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/wire.h"
#include "rdf/triple_store.h"
#include "serve/bgp.h"
#include "serve/kb_view.h"
#include "serve/query_engine.h"
#include "spans.h"
#include "synth/query_workload.h"

namespace perfbench {
namespace {

using namespace akb;
namespace fs = std::filesystem;

// Per-workload traffic. The nominal rates sit about half-way to the
// capacity of serve-net (two net workers, 4-core virtual machine) when
// other tenants load the machine, so a busy host does not make the
// nominal phase shed; on a quiet host capacity is 3-7x higher. The
// ladder starts at a tenth of the nominal rate and reaches 100x above
// its base in steps of 2.5%. The p99 limit sits above the millisecond scheduling stalls
// of a shared virtual machine, so a probe misses it on overload (backlog
// growth or refusals), not on a stall.
struct Traffic {
  double nominal_qps;
  double ladder_base_qps;
  double p99_limit_ms;
  size_t distinct_requests;
};
constexpr Traffic kLookup{40000, 4000, 100.0, 400000};
constexpr Traffic kJoin{6000, 600, 100.0, 200000};
constexpr double kLadderRatio = 1.025;
constexpr size_t kLadderSteps = 200;

// The served KB: the shape of `akb_cli serve-bench`'s synthetic KB (about
// 60 facts per subject, few predicates, many objects), seeded per run.
rdf::TripleStore BuildKb(size_t claims, uint64_t seed) {
  rdf::TripleStore store;
  Rng rng(seed);
  size_t num_subjects = std::max<size_t>(16, claims / 60);
  size_t num_predicates = std::max<size_t>(8, claims / 2500);
  size_t num_objects = std::max<size_t>(16, claims / 15);
  std::vector<rdf::TermId> subjects, predicates, objects;
  for (size_t i = 0; i < num_subjects; ++i) {
    subjects.push_back(
        store.dictionary().InternIri("http://e/s" + std::to_string(i)));
  }
  for (size_t i = 0; i < num_predicates; ++i) {
    predicates.push_back(
        store.dictionary().InternIri("http://p/p" + std::to_string(i)));
  }
  for (size_t i = 0; i < num_objects; ++i) {
    objects.push_back(
        store.dictionary().InternLiteral(std::string("v") +
                                         std::to_string(i)));
  }
  for (size_t c = 0; c < claims; ++c) {
    store.Insert({rng.Pick(subjects), rng.Pick(predicates), rng.Pick(objects)},
                 rdf::Provenance{"bench", rdf::ExtractorKind::kOther, 1.0});
  }
  return store;
}

net::WireRequest ToWire(const rdf::TriplePattern& pattern) {
  net::WireRequest request;
  request.type = net::MsgType::kPattern;
  request.pattern = pattern;
  return request;
}

net::WireRequest ToWire(const serve::BgpQuery& query) {
  net::WireRequest request;
  request.type = net::MsgType::kBgp;
  for (const serve::BgpPattern& pattern : query.patterns()) {
    net::WireBgpPattern wire;
    net::WireBgpTerm* out[3] = {&wire.s, &wire.p, &wire.o};
    for (size_t pos = 0; pos < 3; ++pos) {
      const serve::BgpTerm& term = pattern.at(pos);
      out[pos]->is_var = term.is_var();
      out[pos]->value = term.is_var() ? uint32_t(term.var) : term.term;
    }
    request.bgp_patterns.push_back(wire);
  }
  return request;
}

// The query serve-net builds from a wire BGP request (variables named
// "v<slot>"), so in-process answers carry the same column names.
serve::BgpQuery FromWire(const net::WireRequest& request) {
  serve::BgpQuery query;
  for (const net::WireBgpPattern& pattern : request.bgp_patterns) {
    serve::BgpTerm terms[3];
    const net::WireBgpTerm* wire[3] = {&pattern.s, &pattern.p, &pattern.o};
    for (int i = 0; i < 3; ++i) {
      terms[i] = wire[i]->is_var
                     ? query.Var(std::string("v") +
                                 std::to_string(wire[i]->value))
                     : serve::BgpQuery::Bound(wire[i]->value);
    }
    query.Add(terms[0], terms[1], terms[2]);
  }
  return query;
}

net::WireResponse PatternResponse(const std::vector<size_t>& matches) {
  net::WireResponse response;
  response.type = net::MsgType::kPattern;
  response.matches.assign(matches.begin(), matches.end());
  return response;
}

net::WireResponse BgpResponse(const Result<serve::BgpRows>& rows) {
  net::WireResponse response;
  response.type = net::MsgType::kBgp;
  if (!rows.ok()) {
    response.status = rows.status();
    return response;
  }
  response.vars = rows->vars;
  response.rows = rows->data;
  response.num_rows = rows->num_rows;
  return response;
}

// The answer KbView gives in-process, hashed like a wire response.
uint64_t ReferenceHash(const serve::KbView& view,
                       const net::WireRequest& request) {
  if (request.type == net::MsgType::kPattern) {
    return ResponseHash(PatternResponse(view.Match(request.pattern)));
  }
  serve::BgpOptions options;
  options.limit = request.row_limit;
  return ResponseHash(
      BgpResponse(serve::ExecuteBgp(view, FromWire(request), options)));
}

// One `akb_cli serve-net` child. The destructor kills a child that is
// still running, so no exit path of the harness leaves one behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Status Start(const std::vector<std::string>& args, const std::string& log) {
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return Status::IoError(std::strerror(errno));
    if (pid_ == 0) {
      // The child dies with the harness, even if the harness is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    return Status::OK();
  }

  bool running() {
    if (pid_ > 0 && ::waitpid(pid_, &status_, WNOHANG) == pid_) pid_ = -1;
    return pid_ > 0;
  }

  /// SIGTERM, then waits (up to 30 s) for the exit; returns its status
  /// and fills the child's peak RSS in MiB.
  Status Stop(double* peak_rss_mb) {
    if (pid_ <= 0) return Status::Internal("serve-net is not running");
    ::kill(pid_, SIGTERM);
    rusage usage{};
    for (int i = 0; i < 3000; ++i) {
      pid_t done = ::wait4(pid_, &status_, WNOHANG, &usage);
      if (done == pid_) {
        pid_ = -1;
        *peak_rss_mb = double(usage.ru_maxrss) / 1024.0;
        if (WIFEXITED(status_) && WEXITSTATUS(status_) == 0) {
          return Status::OK();
        }
        return Status::Internal(
            "serve-net did not exit 0 on SIGTERM (wait status " +
            std::to_string(status_) + ")");
      }
      ::usleep(10000);
    }
    return Status::Internal("serve-net did not exit within 30 s of SIGTERM");
  }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
};

struct Setup {
  double seconds = 0.0;
  uint16_t port = 0;
};

// Spawns serve-net and waits for its port file and a first OK answer.
Result<Setup> StartServer(const Options& options, const std::string& kb,
                          const net::WireRequest& probe,
                          ServerProcess* server) {
  const fs::path dir(options.workdir);
  const std::string port_file = (dir / "serve.port").string();
  fs::remove(port_file);
  const int64_t start = NowNanos();
  Status started = server->Start(
      {options.akb_cli, "serve-net", "--load-kb=" + kb, "--net-workers=2",
       "--queue-depth=65536", "--port-file=" + port_file},
      (dir / "serve-net.log").string());
  if (!started.ok()) return started;
  const int64_t give_up = start + 120'000'000'000;
  Setup setup;
  while (NowNanos() < give_up) {
    if (!server->running()) {
      return Status::Internal("serve-net exited during start-up; see " +
                              (dir / "serve-net.log").string());
    }
    if (setup.port == 0) {
      std::ifstream in(port_file);
      std::string line;
      if (std::getline(in, line) && in.good()) {
        setup.port = uint16_t(std::stoi(line));
      }
    }
    if (setup.port != 0) {
      net::Client client;
      net::WireResponse response;
      if (client.Connect("127.0.0.1", setup.port, 5'000'000'000).ok() &&
          client.Call(probe, &response).ok() && response.status.ok()) {
        setup.seconds = double(NowNanos() - start) * 1e-9;
        return setup;
      }
    }
    ::usleep(1000);
  }
  return Status::Internal("serve-net gave no OK answer within 120 s");
}

struct LadderStep {
  PhaseStats stats;
  bool met = false;
};

// A failed or refused request counts as missing the limit: it enters the
// p99 as the probe's whole span, so more than 1% of them misses it.
bool Meets(const PhaseStats& stats, double limit_ms) {
  return stats.valid && stats.p99_ms <= limit_ms &&
         stats.tail_p99_ms <= limit_ms;
}

void PrintStep(const char* phase, const PhaseStats& stats, double limit_ms) {
  std::fprintf(stderr,
               "  %-8s rate=%9.0f sent=%8llu ok=%8llu failed=%6llu "
               "p50=%8.3fms p99=%8.3fms lag_p99=%6.3fms %s%s\n",
               phase, stats.rate, (unsigned long long)stats.sent,
               (unsigned long long)stats.ok,
               (unsigned long long)stats.failed, stats.p50_ms, stats.p99_ms,
               stats.lag_p99_ms, stats.valid ? "" : "INVALID (generator late) ",
               Meets(stats, limit_ms) ? "meets limit" : "misses limit");
}

// Checks every OK sample against the in-process answer; counts the rest.
// Returns the number of wrong answers.
uint64_t VerifySamples(const std::vector<Sample>& samples,
                       const serve::KbView& view,
                       const std::vector<net::WireRequest>& requests,
                       const std::string& inject) {
  std::vector<char> used(requests.size(), 0);
  for (const Sample& sample : samples) {
    if (sample.ok()) used[sample.workload_index] = 1;
  }
  std::vector<uint64_t> reference(requests.size(), 0);
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < requests.size(); i += threads) {
        if (used[i]) reference[i] = ReferenceHash(view, requests[i]);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  uint64_t wrong = 0;
  bool injected = false;
  for (const Sample& sample : samples) {
    if (!sample.ok()) continue;
    uint64_t hash = sample.hash;
    if (inject == "response" && !injected) {
      hash ^= 1;  // one corrupted response
      injected = true;
    }
    if (hash != reference[sample.workload_index]) ++wrong;
  }
  return wrong;
}

// Traced in-process replay of the first `count` requests: decode the wire
// bytes, execute on a QueryEngine configured like serve-net's, answer
// straight from the view (index scan, or plan + join), encode the reply.
void Replay(const serve::KbView& view,
            const std::vector<net::WireRequest>& requests, size_t count,
            SpanLog* spans, RunResult* result) {
  serve::QueryEngineConfig config;
  config.num_workers = 1;
  config.cache.max_bytes = size_t(64) << 20;
  serve::QueryEngine engine(view, config);
  std::vector<int64_t> decode, exec, index, plan, join, encode;
  uint64_t hits = 0, results = 0;
  std::string frame, reply;
  auto timed = [&](const char* name, uint64_t id, size_t root,
                   std::vector<int64_t>* out, auto&& fn) {
    int64_t start = NowNanos();
    fn();
    int64_t end = NowNanos();
    spans->Add(name, id, start, end, int64_t(root));
    out->push_back(end - start);
  };
  for (size_t i = 0; i < count; ++i) {
    const uint64_t id = i + 1;
    net::WireRequest request = requests[i % requests.size()];
    request.request_id = id;
    frame.clear();
    net::EncodeRequest(request, &frame);
    size_t root = spans->Begin("replay.request", id);
    net::WireRequest decoded;
    timed("net.decode_req", id, root, &decode, [&] {
      std::string_view payload;
      (void)net::ExtractFrame(frame, net::kDefaultMaxFrameBytes, &payload);
      (void)net::DecodeRequest(payload, &decoded);
    });
    net::WireResponse response;
    if (decoded.type == net::MsgType::kPattern) {
      serve::QueryResult answer;
      timed("serve.execute", id, root, &exec,
            [&] { answer = engine.Execute(decoded.pattern); });
      std::vector<size_t> direct;
      timed("serve.index", id, root, &index,
            [&] { direct = view.Match(decoded.pattern); });
      hits += answer.cache_hit;
      results += answer.matches->size();
      response = PatternResponse(*answer.matches);
    } else {
      serve::BgpQuery query = FromWire(decoded);
      serve::BgpOptions options;
      options.limit = decoded.row_limit;
      serve::BgpExecResult answer;
      timed("serve.execute", id, root, &exec,
            [&] { answer = engine.ExecuteBgp(query, options); });
      Result<serve::BgpPlan> bgp_plan = Status::Internal("unplanned");
      timed("serve.plan", id, root, &plan,
            [&] { bgp_plan = serve::PlanBgp(view, query); });
      if (bgp_plan.ok()) {
        timed("serve.join", id, root, &join, [&] {
          (void)serve::ExecuteBgpWithPlan(view, query, *bgp_plan, options);
        });
      }
      hits += answer.cache_hit;
      if (answer.status.ok()) {
        results += answer.rows->num_rows;
        response.vars = answer.rows->vars;
        response.rows = answer.rows->data;
        response.num_rows = answer.rows->num_rows;
      }
      response.type = net::MsgType::kBgp;
      response.status = answer.status;
    }
    response.request_id = id;
    timed("net.encode_resp", id, root, &encode, [&] {
      reply.clear();
      net::EncodeResponse(response, &reply);
    });
    spans->End(root);
  }
  auto us = [](const std::vector<int64_t>& v, double p) {
    return Percentile(v, p) * 1e-3;
  };
  result->metrics["net.decode_req_us"] = us(decode, 0.5);
  result->metrics["net.encode_resp_us"] = us(encode, 0.5);
  result->metrics["serve.exec_p50_us"] = us(exec, 0.5);
  result->metrics["serve.exec_p99_us"] = us(exec, 0.99);
  result->metrics["serve.index_p50_us"] = us(index, 0.5);
  result->metrics["serve.plan_p50_us"] = us(plan, 0.5);
  result->metrics["serve.join_p50_us"] = us(join, 0.5);
  result->metrics["serve.join_p99_us"] = us(join, 0.99);
  result->metrics["serve.cache_hit_ratio"] = double(hits) / double(count);
  result->metrics["serve.results_per_req"] = double(results) / double(count);
}

}  // namespace

void RunServe(const Options& options, RunResult* result) {
  const bool join = options.workload == "serve_join";
  const Traffic& traffic = join ? kJoin : kLookup;
  const fs::path dir(options.workdir);
  const std::string kb = (dir / "serve_kb.akbsnap").string();

  // The served KB, written before anything is timed.
  const size_t claims = options.smoke ? 100000 : 1000000;
  std::vector<net::WireRequest> requests;
  size_t kb_triples = 0;
  {
    rdf::TripleStore store = BuildKb(claims, options.seed);
    // The serve flow's build step is publishing the KB as a v2 snapshot:
    // the median of three saves of the same store.
    std::vector<double> saves;
    for (int i = 0; i < 3; ++i) {
      const int64_t start = NowNanos();
      Status saved = store.SaveSnapshot(kb, rdf::SnapshotFormat::kV2);
      saves.push_back(double(NowNanos() - start) * 1e-9);
      if (!saved.ok()) {
        result->errors.push_back("saving the serve KB: " + saved.ToString());
        return;
      }
    }
    // Saving is single-threaded, so the serial build is the same
    // measurement.
    result->metrics["build_s"] = Median(saves);
    result->metrics["build_serial_s"] = Median(saves);
    kb_triples = store.num_triples();

    const size_t distinct =
        options.smoke ? 5000 : traffic.distinct_requests;
    if (join) {
      synth::BgpWorkloadConfig config;
      config.num_queries = distinct;
      config.seed = options.seed * 2 + 1;
      config.zipf = 0.0;
      for (const serve::BgpQuery& query :
           synth::GenerateBgpWorkload(store, config)) {
        requests.push_back(ToWire(query));
      }
    } else {
      synth::QueryWorkloadConfig config;
      config.num_queries = distinct;
      config.seed = options.seed * 2 + 1;
      config.zipf = 1.2;
      // At Zipf 1.2 the hottest key takes about a sixth of the traffic. A
      // (? p ?) scan returns ~2500 triples on this KB, so a seed that made
      // the hottest key a predicate scan halved the capacity; without
      // that shape every seed sends the same mix of small answers.
      config.predicate_scan_weight = 0.0;
      for (const rdf::TriplePattern& pattern :
           synth::GenerateQueryWorkload(store, config)) {
        requests.push_back(ToWire(pattern));
      }
    }
  }
  result->details["kb.triples"] = double(kb_triples);
  result->details["kb.claims"] = double(claims);
  result->details["workload.distinct_requests"] = double(requests.size());

  auto view_or = serve::KbView::FromSnapshot(kb);
  if (!view_or.ok()) {
    result->errors.push_back("opening the serve KB: " +
                             view_or.status().ToString());
    return;
  }
  const serve::KbView view = std::move(*view_or);

  const size_t connections = std::max<size_t>(
      1, std::min<size_t>(2, std::thread::hardware_concurrency()));
  LoadGenerator gen(requests, connections, traffic.p99_limit_ms / 2);
  const double scale = options.smoke ? 0.05 : 1.0;
  const double s = options.seconds;

  // Set-up: spawns to first OK answer (three, or one in a traced run);
  // the last one serves the load.
  std::vector<double> setup;
  ServerProcess server;
  uint16_t port = 0;
  const int spawns = options.trace ? 1 : 3;
  for (int i = 0; i < spawns; ++i) {
    if (i > 0) {
      double rss = 0.0;
      Status stopped = server.Stop(&rss);
      if (!stopped.ok()) result->errors.push_back(stopped.ToString());
    }
    auto started = StartServer(options, kb, requests[0], &server);
    if (!started.ok()) {
      result->errors.push_back(started.status().ToString());
      return;
    }
    setup.push_back(started->seconds);
    port = started->port;
  }
  Status connected = gen.Connect(port);
  if (!connected.ok()) {
    result->errors.push_back("load generator: " + connected.ToString());
    return;
  }

  const double limit = traffic.p99_limit_ms;
  std::fprintf(stderr, "%s: %zu-triple KB, p99 limit %.1f ms\n",
               options.workload.c_str(), kb_triples, limit);
  // Warm the engine cache and the connections before anything is timed.
  PhaseStats warmup =
      gen.Run(traffic.nominal_qps * scale, std::min(1.0, s / 10), 2.0);
  PrintStep("warmup", warmup, limit);
  PhaseStats nominal =
      gen.Run(traffic.nominal_qps * scale, 0.3 * s, 2.0);
  PrintStep("nominal", nominal, limit);
  uint64_t phase_failed = warmup.failed + nominal.failed;

  std::vector<LadderStep> steps;
  SpanLog spans;
  PhaseStats traced;
  if (options.trace) {
    traced = gen.Run(traffic.nominal_qps * scale, 0.3 * s, 2.0, &spans);
    PrintStep("traced", traced, limit);
    phase_failed += traced.failed;
  } else {
    // Search the fixed ladder: gallop up from the nominal rate, then
    // bisect between the highest step met and the lowest step missed.
    const int probes = 9;
    const double probe_seconds = 0.7 * s / probes;
    auto rate_at = [&](int k) {
      return traffic.ladder_base_qps * scale * std::pow(kLadderRatio, k);
    };
    int lo = -1, hi = int(kLadderSteps);
    int k = int(std::floor(std::log(traffic.nominal_qps /
                                     traffic.ladder_base_qps) /
                           std::log(kLadderRatio)));
    for (int probe = 0; probe < probes && hi - lo > 1; ++probe) {
      LadderStep step;
      step.stats = gen.Run(rate_at(k), probe_seconds, 3.0);
      step.met = Meets(step.stats, limit);
      PrintStep("ladder", step.stats, limit);
      steps.push_back(step);
      (step.met ? lo : hi) = k;
      k = hi == int(kLadderSteps) ? std::min(int(kLadderSteps) - 1, lo + 32)
                                  : (lo + hi) / 2;
    }
    result->metrics["max_qps"] = lo >= 0 ? rate_at(lo) : 0.0;
  }

  double rss = 0.0;
  Status stopped = server.Stop(&rss);
  if (!stopped.ok()) result->errors.push_back(stopped.ToString());

  // Output check, outside every timed window.
  uint64_t ok = 0;
  for (const Sample& sample : gen.samples()) ok += sample.ok();
  const uint64_t wrong =
      VerifySamples(gen.samples(), view, requests, options.inject);
  if (wrong > 0) {
    result->errors.push_back(std::to_string(wrong) +
                             " OK responses differ from the in-process "
                             "KbView answer");
  }
  if (phase_failed > 0) {
    std::map<int, uint64_t> by_status;
    for (const Sample& sample : gen.samples()) {
      if (!sample.ok()) ++by_status[sample.status];
    }
    std::fprintf(stderr, "%llu requests failed at the nominal rate;",
                 (unsigned long long)phase_failed);
    for (const auto& [status, n] : by_status) {
      std::fprintf(stderr, " status %d: %llu", status,
                   (unsigned long long)n);
    }
    std::fprintf(stderr, " (255 = no answer)\n");
  }
  result->attempted = gen.samples().size();
  result->failed = phase_failed + wrong;
  result->details["serve.connections"] = double(connections);
  result->details["nominal.rate"] = nominal.rate;
  result->details["nominal.sent"] = double(nominal.sent);
  result->details["nominal.p50_ms"] = nominal.p50_ms;
  result->details["nominal.p99_ms"] = nominal.p99_ms;
  result->details["nominal.lag_p99_ms"] = nominal.lag_p99_ms;
  for (size_t i = 0; i < steps.size(); ++i) {
    const PhaseStats& st = steps[i].stats;
    std::string key = "ladder." + std::to_string(i) + ".";
    result->details[key + "rate"] = st.rate;
    result->details[key + "sent"] = double(st.sent);
    result->details[key + "ok"] = double(st.ok);
    result->details[key + "failed"] = double(st.failed);
    result->details[key + "p99_ms"] = st.p99_ms;
    result->details[key + "lag_p99_ms"] = st.lag_p99_ms;
    result->details[key + "valid"] = st.valid;
    result->details[key + "met"] = steps[i].met;
  }

  if (!options.trace) {
    result->metrics["setup_s"] = Median(setup);
    result->metrics["peak_rss_mb"] = rss;
    // The serve flow's precision: the share of OK answers that equal the
    // in-process answer.
    result->metrics["fused_precision"] =
        ok > 0 ? double(ok - wrong) / double(ok) : 0.0;
    return;
  }

  // Traced run: generator-side numbers from the untraced nominal phase,
  // then the in-process layers.
  const double sent = double(std::max<uint64_t>(1, nominal.sent));
  result->metrics["p50_ms"] = nominal.p50_ms;
  result->metrics["p99_ms"] = nominal.p99_ms;
  result->metrics["gen.lag_p99_ms"] = nominal.lag_p99_ms;
  result->metrics["gen.sent"] = double(nominal.sent);
  result->metrics["gen.ok"] = double(nominal.ok);
  result->metrics["gen.failed"] = double(nominal.failed);
  result->metrics["net.cache_hit_ratio"] = double(nominal.cache_hits) / sent;
  result->metrics["net.coalesced_ratio"] = double(nominal.coalesced) / sent;
  result->metrics["net.shed_ratio"] = double(nominal.shed) / sent;
  result->metrics["net.resp_bytes"] = nominal.resp_bytes;
  result->metrics["trace.overhead_p50_ms"] = traced.p50_ms - nominal.p50_ms;
  result->metrics["fail_ratio"] =
      double(result->failed) / double(std::max<uint64_t>(1, result->attempted));

  {
    rdf::TripleStore store;
    size_t span = spans.Begin("rdf.store_load", 0);
    Status loaded = store.LoadSnapshot(kb);
    spans.End(span);
    if (!loaded.ok()) result->errors.push_back(loaded.ToString());
    const Span& load = spans.spans()[span];
    result->metrics["rdf.store_load_s"] = double(load.end_ns - load.start_ns) * 1e-9;
  }
  std::vector<double> opens;
  for (int i = 0; i < 3; ++i) {
    size_t span = spans.Begin("rdf.view_open", 0);
    auto opened = serve::KbView::FromSnapshot(kb);
    spans.End(span);
    if (!opened.ok()) result->errors.push_back(opened.status().ToString());
    const Span& open = spans.spans()[span];
    opens.push_back(double(open.end_ns - open.start_ns) * 1e-9);
  }
  result->metrics["rdf.view_open_s"] = Median(opens);

  const size_t replay = options.smoke ? 2000 : (join ? 20000 : 200000);
  Replay(view, requests, replay, &spans, result);
  result->metrics["net.overhead_p50_us"] =
      nominal.p50_ms * 1e3 - result->metrics["serve.exec_p50_us"];

  std::map<std::string, double> self = spans.SelfSeconds();
  for (const char* layer :
       {"gen.request", "gen.send_wait", "gen.in_flight", "replay.request",
        "net.decode_req", "serve.execute", "serve.index", "serve.plan",
        "serve.join", "net.encode_resp"}) {
    result->metrics[std::string("self.") + layer + "_s"] = self[layer];
  }

  result->trace_file = (dir / ("trace_" + options.workload + ".json")).string();
  if (!spans.WriteChromeJson(result->trace_file, 100000)) {
    result->errors.push_back("cannot write " + result->trace_file);
  }
}

}  // namespace perfbench
