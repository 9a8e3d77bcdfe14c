// perfbench_harness: runs one benchmark workload and prints one JSON line.
//
//   perfbench_harness --workload=build_paper|serve_lookup|serve_join
//       --seed=N --seconds=S --trace=0|1 --workdir=DIR
//       [--akb-cli=PATH] [--smoke] [--inject=output|response]
//
// With --trace=0 the line carries every end-to-end metric, with
// --trace=1 every per-layer metric; a layer the workload does not run
// reads 0. perfbench/run.py builds this binary and wraps its output.
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common/flags.h"
#include "harness.h"
#include "obs/json.h"

namespace perfbench {

double SelfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

namespace {

enum Flow : unsigned { kBuild = 1, kLookup = 2, kJoin = 4 };
constexpr unsigned kServe = kLookup | kJoin;
constexpr unsigned kAll = kBuild | kServe;

struct MetricDef {
  const char* name;
  const char* unit;
  unsigned flows;  ///< workloads that measure it; the others report 0
};

// Every workload measures every end-to-end metric; see README.md for what
// each one means on each workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", kAll},        {"build_s", "s", kAll},
    {"build_serial_s", "s", kAll}, {"fused_precision", "ratio", kAll},
    {"max_qps", "req/s", kAll},    {"peak_rss_mb", "MiB", kAll},
};

constexpr MetricDef kPerLayer[] = {
    {"synth.render_s.w1", "s", kBuild},
    {"synth.render_s.w4", "s", kBuild},
    {"extract.kb_s.w1", "s", kBuild},
    {"extract.kb_s.w4", "s", kBuild},
    {"extract.query_s.w1", "s", kBuild},
    {"extract.query_s.w4", "s", kBuild},
    {"extract.dom_s.w1", "s", kBuild},
    {"extract.dom_s.w4", "s", kBuild},
    {"extract.text_s.w1", "s", kBuild},
    {"extract.text_s.w4", "s", kBuild},
    {"extract.entity_s.w1", "s", kBuild},
    {"extract.entity_s.w4", "s", kBuild},
    {"extract.taxonomy_s.w1", "s", kBuild},
    {"extract.taxonomy_s.w4", "s", kBuild},
    {"core.claim_assembly_s.w1", "s", kBuild},
    {"core.claim_assembly_s.w4", "s", kBuild},
    {"rdf.snapshot_save_s.w1", "s", kBuild},
    {"rdf.snapshot_save_s.w4", "s", kBuild},
    {"fusion.fuse_s.w1", "s", kBuild},
    {"fusion.fuse_s.w4", "s", kBuild},
    {"core.augment_s.w1", "s", kBuild},
    {"core.augment_s.w4", "s", kBuild},
    {"extract.dom.nodes_classified", "count", kBuild},
    {"extract.dom.patterns_induced", "count", kBuild},
    {"extract.query.lines_matched", "count", kBuild},
    {"extract.text.sentences_matched", "count", kBuild},
    {"core.claims", "count", kBuild},
    {"core.triples_fused", "count", kBuild},
    {"fusion.accu.iterations", "count", kBuild},
    {"mapreduce.tasks_executed.w1", "count", kBuild},
    {"mapreduce.tasks_executed.w4", "count", kBuild},
    {"rdf.snapshot_bytes", "bytes", kBuild},
    {"trace.overhead_build_s", "s", kBuild},
    {"self.bench.world_build_s", "s", kBuild},
    {"self.bench.run_pipeline_s", "s", kBuild},
    {"self.pipeline.run_s", "s", kBuild},
    {"self.pipeline.stages_s", "s", kBuild},
    {"self.extract.dom_s", "s", kBuild},
    {"self.extract.text_s", "s", kBuild},
    {"self.snapshot.save_s", "s", kBuild},
    {"self.fusion.accu_s", "s", kBuild},
    {"rdf.store_load_s", "s", kServe},
    {"rdf.view_open_s", "s", kServe},
    {"serve.exec_p50_us", "us", kServe},
    {"serve.exec_p99_us", "us", kServe},
    {"serve.index_p50_us", "us", kLookup},
    {"serve.plan_p50_us", "us", kJoin},
    {"serve.join_p50_us", "us", kJoin},
    {"serve.join_p99_us", "us", kJoin},
    {"serve.cache_hit_ratio", "ratio", kServe},
    {"serve.results_per_req", "count", kServe},
    {"net.decode_req_us", "us", kServe},
    {"net.encode_resp_us", "us", kServe},
    {"net.resp_bytes", "bytes", kServe},
    {"net.overhead_p50_us", "us", kServe},
    {"net.cache_hit_ratio", "ratio", kServe},
    {"net.coalesced_ratio", "ratio", kServe},
    {"net.shed_ratio", "ratio", kServe},
    {"p50_ms", "ms", kServe},
    {"p99_ms", "ms", kServe},
    {"gen.lag_p99_ms", "ms", kServe},
    {"gen.sent", "count", kServe},
    {"gen.ok", "count", kServe},
    {"gen.failed", "count", kServe},
    {"trace.overhead_p50_ms", "ms", kServe},
    {"self.gen.send_wait_s", "s", kServe},
    {"self.gen.in_flight_s", "s", kServe},
    {"self.replay.request_s", "s", kServe},
    {"self.net.decode_req_s", "s", kServe},
    {"self.serve.execute_s", "s", kServe},
    {"self.serve.index_s", "s", kLookup},
    {"self.serve.plan_s", "s", kJoin},
    {"self.serve.join_s", "s", kJoin},
    {"self.net.encode_resp_s", "s", kServe},
    {"fail_ratio", "ratio", kAll},
};

#if defined(__clang__)
constexpr char kCompiler[] = "clang " __clang_version__;
#else
constexpr char kCompiler[] = "gcc " __VERSION__;
#endif

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Main(int argc, char** argv) {
  akb::FlagSet flags = akb::FlagSet::Parse(argc, argv);
  Options options;
  options.workload = flags.GetString("workload");
  options.seed = uint64_t(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.workdir = flags.GetString("workdir", ".");
  options.akb_cli = flags.GetString("akb-cli");
  options.smoke = flags.GetBool("smoke");
  options.inject = flags.GetString("inject");

  unsigned flow = 0;
  if (options.workload == "build_paper") flow = kBuild;
  if (options.workload == "serve_lookup") flow = kLookup;
  if (options.workload == "serve_join") flow = kJoin;
  if (flow == 0 || options.seconds <= 0) {
    std::fprintf(stderr,
                 "error: --workload must be build_paper, serve_lookup or "
                 "serve_join, and --seconds positive\n");
    return 2;
  }
  if ((flow & kServe) && options.akb_cli.empty()) {
    std::fprintf(stderr, "error: serve workloads need --akb-cli\n");
    return 2;
  }
  std::filesystem::create_directories(options.workdir);

  RunResult result;
  if (flow == kBuild) {
    RunBuildPaper(options, &result);
  } else {
    RunServe(options, &result);
  }

  const MetricDef* begin = options.trace ? std::begin(kPerLayer)
                                         : std::begin(kEndToEnd);
  const MetricDef* end = options.trace ? std::end(kPerLayer)
                                       : std::end(kEndToEnd);
  std::string metrics;
  for (const MetricDef* def = begin; def != end; ++def) {
    auto it = result.metrics.find(def->name);
    double value = 0.0;
    if (it != result.metrics.end()) {
      value = it->second;
    } else if ((def->flows & flow) && result.errors.empty()) {
      result.errors.push_back(std::string("metric not measured: ") +
                              def->name);
    }
    if (!metrics.empty()) metrics += ",";
    metrics += std::string("\"") + def->name + "\":{\"value\":" +
               Number(value) + ",\"unit\":\"" + def->unit + "\"}";
  }
  std::string errors, details;
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
    if (!errors.empty()) errors += ",";
    errors += "\"";
    errors += akb::obs::JsonEscape(error);
    errors += "\"";
  }
  for (const auto& [name, value] : result.details) {
    if (!details.empty()) details += ",";
    details += "\"" + name + "\":" + Number(value);
  }
  if (result.attempted == 0) {  // the workload stopped before any work
    result.attempted = 1;
    result.failed = 1;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"metrics\":{%s},\"errors\":[%s],\"details\":{%s},"
      "\"provenance\":{\"nproc\":%u,\"build_type\":\"%s\","
      "\"compiler\":\"%s\"},\"trace_file\":\"%s\"}\n",
      result.errors.empty() ? "true" : "false",
      (unsigned long long)result.attempted,
      (unsigned long long)result.failed, metrics.c_str(), errors.c_str(),
      details.c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE,
      akb::obs::JsonEscape(kCompiler).c_str(),
      akb::obs::JsonEscape(result.trace_file).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
