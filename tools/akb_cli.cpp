// akb — command-line driver for the KB-construction framework.
//
//   akb_cli pipeline [--world=small|paper] [--classes=Book,Film]
//           [--seed=N] [--sites=N] [--pages=N] [--articles=N]
//           [--queries=N] [--fusion=vote|accu|popaccu|accu_conf|
//            accu_conf_copy|vote_conf|relation] [--output=kb.nt]
//           [--provenance] [--metrics-out=m.json] [--trace-out=t.json]
//   akb_cli extract-dom [--world=...] [--class=Film] [--sites=N]
//           [--pages=N] [--seeds=N] [--seed=N]
//   akb_cli fuse-demo [--items=N] [--seed=N]
//           [--save-kb=kb.akbsnap] [--load-kb=kb.akbsnap]
//   akb_cli serve-bench [--load-kb=kb.akbsnap | --triples=N]
//           [--queries=N] [--workers=N] [--batch=N]
//           [--no-cache] [--seed=N] [--bench-out=b.json]
//           [--metrics-out=m.json] [--trace-sample=F] [--slow-log=N]
//           [--slow-nanos=T] [--statusz-every=N]
//           [--joins [--row-limit=N]]  (BGP join workload instead of
//            single patterns)
//   akb_cli statusz [--load-kb=kb.akbsnap | --triples=N] [--queries=N]
//           [--workers=N] [--json] [--out=statusz.json]
//   akb_cli serve-net [--load-kb=kb.akbsnap | --triples=N] [--host=ADDR]
//           [--port=N] [--port-file=FILE] [--workers=N] [--net-workers=N]
//           [--queue-depth=N] [--max-connections=N] [--no-coalescing]
//           [--no-cache] [--duration=10s] [--seed=N]
//   akb_cli net-bench [--connect=HOST:PORT | --load-kb=... | --triples=N]
//           [--clients=N] [--queries=N] [--deadline=250ms] [--pipeline=N]
//           [--zipf=F] [--no-coalescing] [--no-cache] [--net-workers=N]
//           [--queue-depth=N] [--seed=N] [--bench-out=b.json]
//   akb_cli inspect <file.nt>
//   akb_cli snapshot-info <kb.akbsnap>
//   akb_cli bench-merge [--out=BENCH_pipeline.json] <bench1.json> ...
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "extract/dom_extractor.h"
#include "fusion/accu.h"
#include "fusion/metrics.h"
#include "fusion/vote.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/bench_io.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "obs/trace.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot.h"
#include "serve/kb_view.h"
#include "serve/query_engine.h"
#include "serve/serve_statusz.h"
#include "synth/claim_gen.h"
#include "synth/query_workload.h"
#include "synth/site_gen.h"

namespace {

using namespace akb;

// Reads a command's numeric flags strictly (FlagSet::GetIntStrict and
// GetDoubleStrict). The first malformed value ("--port=abc", which the
// lenient GetInt would replace by the default) or out-of-range one
// ("--queries=-1", which would wrap to ~2^64 as a size_t) is kept, and
// Check() prints it naming the flag, so the command exits 2 before it
// builds a world or a KB or starts a thread.
class NumericFlags {
 public:
  static constexpr int64_t kNoLimit = std::numeric_limits<int64_t>::max();

  explicit NumericFlags(const FlagSet& flags) : flags_(flags) {}

  /// A non-negative count, at most `max`.
  size_t Count(const char* name, size_t fallback, int64_t max = kNoLimit) {
    return size_t(Int(name, int64_t(fallback), 0, max));
  }
  /// --seed takes any int64; a negative one wraps to a uint64 seed.
  uint64_t Seed(uint64_t fallback) {
    return uint64_t(Int("seed", int64_t(fallback),
                        std::numeric_limits<int64_t>::min(), kNoLimit));
  }
  double Double(const char* name, double fallback) {
    return Keep(flags_.GetDoubleStrict(name, fallback), fallback);
  }

  /// Prints the first bad value and returns false, if there was one.
  bool Check() const {
    if (status_.ok()) return true;
    std::fprintf(stderr, "error: %s\n", status_.ToString().c_str());
    return false;
  }

 private:
  int64_t Int(const char* name, int64_t fallback, int64_t min, int64_t max) {
    return Keep(flags_.GetIntStrict(name, fallback, min, max), fallback);
  }

  template <typename T>
  T Keep(const Result<T>& value, T fallback) {
    if (value.ok()) return *value;
    if (status_.ok()) status_ = value.status();
    return fallback;
  }

  const FlagSet& flags_;
  Status status_;
};

synth::WorldConfig WorldConfigFromFlags(const FlagSet& flags,
                                        NumericFlags* nums) {
  std::string kind = flags.GetString("world", "small");
  synth::WorldConfig config = kind == "paper"
                                  ? synth::WorldConfig::PaperDefault()
                                  : synth::WorldConfig::Small();
  config.seed = nums->Seed(config.seed);
  return config;
}

core::FusionMethod ParseFusion(const std::string& name) {
  if (name == "vote") return core::FusionMethod::kVote;
  if (name == "accu") return core::FusionMethod::kAccu;
  if (name == "popaccu") return core::FusionMethod::kPopAccu;
  if (name == "accu_conf") return core::FusionMethod::kAccuConfidence;
  if (name == "vote_conf") return core::FusionMethod::kVoteConfidence;
  if (name == "relation") return core::FusionMethod::kRelation;
  return core::FusionMethod::kAccuConfidenceCopy;
}

// Far above any useful pool size, far below a wrapped negative.
constexpr int64_t kMaxThreads = 1024;

int RunPipelineCommand(const FlagSet& flags) {
  NumericFlags nums(flags);
  synth::WorldConfig world_config = WorldConfigFromFlags(flags, &nums);
  core::PipelineConfig config;
  config.seed = nums.Seed(42);
  config.classes = flags.GetList("classes");
  config.sites_per_class = nums.Count("sites", 3);
  config.pages_per_site = nums.Count("pages", 15);
  config.articles_per_class = nums.Count("articles", 25);
  config.queries_per_class = nums.Count("queries", 1200);
  config.num_workers = nums.Count("workers", 0, kMaxThreads);
  if (!nums.Check()) return 2;
  synth::World world = synth::World::Build(world_config);
  config.fusion = ParseFusion(flags.GetString("fusion", "accu_conf_copy"));
  config.save_kb_path = flags.GetString("save-kb");
  config.load_kb_path = flags.GetString("load-kb");

  std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) obs::TraceSession::Global().Start();

  rdf::TripleStore augmented;
  core::PipelineReport report =
      core::RunPipeline(world, config, &augmented);
  if (!report.status.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ToString().c_str());

  if (!trace_out.empty()) {
    obs::TraceSession::Global().Stop();
    Status status = obs::WriteTextFile(
        trace_out, obs::TraceSession::Global().ToChromeJson() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote %zu trace spans to %s (open in chrome://tracing)\n",
                obs::TraceSession::Global().num_spans(), trace_out.c_str());
  }

  std::string metrics_out = flags.GetString("metrics-out");
  if (!metrics_out.empty()) {
    Status status =
        obs::WriteTextFile(metrics_out, report.metrics.ToJson() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote %zu metrics to %s\n", report.metrics.entries.size(),
                metrics_out.c_str());
  }

  std::string output = flags.GetString("output");
  if (!output.empty()) {
    rdf::NTriplesWriteOptions options;
    options.include_provenance = flags.GetBool("provenance");
    Status status = rdf::WriteNTriplesFile(augmented, output, options);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote %zu triples to %s\n", augmented.num_triples(),
                output.c_str());
  }
  return 0;
}

int RunBenchMergeCommand(const FlagSet& flags) {
  std::vector<std::string> inputs(flags.positional().begin() + 1,
                                  flags.positional().end());
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: akb_cli bench-merge [--out=FILE] <bench.json>...\n");
    return 2;
  }
  std::string out = flags.GetString("out", "BENCH_pipeline.json");
  Status status = obs::MergeBenchFiles(inputs, out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("Merged %zu bench files into %s\n", inputs.size(),
              out.c_str());
  return 0;
}

int RunExtractDomCommand(const FlagSet& flags) {
  NumericFlags nums(flags);
  synth::WorldConfig world_config = WorldConfigFromFlags(flags, &nums);
  synth::SiteConfig site_config;
  site_config.num_sites = nums.Count("sites", 3);
  site_config.pages_per_site = nums.Count("pages", 15);
  site_config.seed = nums.Seed(7) + 1;
  size_t seed_count = nums.Count("seeds", 5);
  if (!nums.Check()) return 2;
  synth::World world = synth::World::Build(world_config);
  std::string cls = flags.GetString("class", "Film");
  auto cls_id = world.FindClass(cls);
  if (!cls_id) {
    std::fprintf(stderr, "error: unknown class '%s'\n", cls.c_str());
    return 1;
  }
  const auto& wc = world.cls(*cls_id);

  site_config.class_name = cls;
  auto sites = synth::GenerateSites(world, site_config);

  std::vector<std::string> entities, seeds;
  for (const auto& entity : wc.entities) entities.push_back(entity.name);
  for (size_t a = 0; a < seed_count && a < wc.attributes.size(); ++a) {
    seeds.push_back(wc.attributes[a].name);
  }

  extract::DomTreeExtractor extractor;
  auto out = extractor.Extract(sites, entities, seeds);
  std::printf("Discovered %zu new attributes, %zu triples, %zu pages used\n",
              out.new_attributes.size(), out.triples.size(),
              out.stats.pages_used);
  for (size_t i = 0; i < out.new_attributes.size() && i < 15; ++i) {
    const auto& attribute = out.new_attributes[i];
    std::printf("  %-30s support=%zu conf=%.2f\n", attribute.surface.c_str(),
                attribute.support, attribute.confidence);
  }
  return 0;
}

int RunFuseDemoCommand(const FlagSet& flags) {
  NumericFlags nums(flags);
  synth::ClaimGenConfig config;
  config.num_items = nums.Count("items", 500);
  config.seed = nums.Seed(9);
  if (!nums.Check()) return 2;
  config.sources = synth::MakeSources(6, 0.5, 0.9, 0.85);
  synth::FusionDataset dataset = synth::GenerateClaims(config);
  fusion::ClaimTable table = fusion::ClaimTable::FromDataset(dataset);
  auto vote = fusion::Evaluate(fusion::Vote(table), table, dataset);
  auto accu = fusion::Evaluate(fusion::Accu(table), table, dataset);
  std::printf("items=%zu claims=%zu\n", table.num_items(),
              table.num_claims());
  std::printf("VOTE  P=%.3f R=%.3f F1=%.3f\n", vote.precision, vote.recall,
              vote.f1);
  std::printf("ACCU  P=%.3f R=%.3f F1=%.3f\n", accu.precision, accu.recall,
              accu.f1);
  return 0;
}

// A synthetic fused-KB stand-in for serve-bench runs without a snapshot:
// skewed like a real entity-centric KB (hot subjects with many facts).
rdf::TripleStore BuildSyntheticKb(size_t claims, uint64_t seed) {
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
    // Built by append: GCC 12 warns (-Wrestrict) on the inlined
    // `"v" + std::to_string(i)`.
    std::string value("v");
    value.append(std::to_string(i));
    objects.push_back(store.dictionary().InternLiteral(value));
  }
  for (size_t c = 0; c < claims; ++c) {
    store.Insert(
        {rng.Pick(subjects), rng.Pick(predicates), rng.Pick(objects)},
        rdf::Provenance{"bench", rdf::ExtractorKind::kOther, 1.0});
  }
  return store;
}

// Maps --load-kb as a view (so statusz sees the snapshot provenance) or
// synthesizes `triples` claims (the --triples flag). Commands that
// generate their workload from the KB pass `store` and get the claims too;
// serve-net passes null and never builds a TripleStore from a snapshot.
// Returns false after printing the error.
bool BuildServeKb(const FlagSet& flags, uint64_t seed, size_t triples,
                  rdf::TripleStore* store,
                  std::optional<serve::KbView>* view, double* build_ms,
                  FILE* info = stdout) {
  std::string load = flags.GetString("load-kb");
  Stopwatch build_watch;
  if (!load.empty()) {
    auto view_or = serve::KbView::FromSnapshot(load);
    Status status = view_or.status();
    if (status.ok() && store != nullptr) status = store->LoadSnapshot(load);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return false;
    }
    view->emplace(std::move(*view_or));
  } else {
    rdf::TripleStore synthesized = BuildSyntheticKb(triples, seed);
    view->emplace(synthesized);
    if (store != nullptr) *store = std::move(synthesized);
  }
  *build_ms = build_watch.ElapsedMillis();
  std::fprintf(info, "%s %s: %zu distinct triples, %zu terms\n",
               load.empty() ? "Synthesized" : "Loaded",
               load.empty() ? "KB" : load.c_str(), (*view)->num_triples(),
               (*view)->num_terms());
  if ((*view)->num_triples() == 0) {
    std::fprintf(stderr, "error: KB is empty, nothing to serve\n");
    return false;
  }
  return true;
}

// Shared engine/server configuration for the serve commands, read through
// `nums`, which range-checks each count before any thread starts: a
// negative count would otherwise wrap to ~2^64 (a request for that many
// threads) and an out-of-range port would wrap to another port. The join
// cache is on by default (--no-cache turns it off); coalescing is on
// unless --no-coalescing. `server` is null for the commands that run no
// server.
void ReadServeConfigs(const FlagSet& flags, NumericFlags* nums,
                      serve::QueryEngineConfig* engine,
                      net::ServerConfig* server = nullptr) {
  engine->num_workers = nums->Count("workers", 0, kMaxThreads);
  engine->enable_cache = !flags.GetBool("no-cache");
  if (server != nullptr) {
    server->host = flags.GetString("host", "127.0.0.1");
    server->port = uint16_t(nums->Count("port", 0, 65535));
    server->num_workers = nums->Count("net-workers", 4, kMaxThreads);
    server->max_connections = nums->Count("max-connections", 1024);
    server->max_queue_depth = nums->Count("queue-depth", 1024);
    server->enable_coalescing = !flags.GetBool("no-coalescing");
  }
}

void PrintTopSlowQueries(const serve::QueryEngine& engine, size_t limit) {
  auto slow = engine.slow_log().Snapshot();
  if (slow.empty()) return;
  std::printf("Slow-query log: %zu traces (of %llu sampled), worst:\n",
              slow.size(), (unsigned long long)engine.sampled_queries());
  for (size_t i = 0; i < slow.size() && i < limit; ++i) {
    const serve::QueryTrace& t = slow[i];
    std::printf(
        "  #%llu [%s] %s: total=%lld ns (cache_get=%lld index=%lld "
        "cache_put=%lld), %llu matches, cache %s\n",
        (unsigned long long)t.query_id, t.shape, t.pattern_text.c_str(),
        (long long)t.total_nanos, (long long)t.cache_get_nanos,
        (long long)t.index_nanos, (long long)t.cache_put_nanos,
        (unsigned long long)t.range_size, t.cache_hit ? "hit" : "miss");
  }
}

// serve-bench --joins: a BGP join workload (star and chain templates from
// GenerateBgpWorkload) through ExecuteBgpBatch, reported in the same
// shape as the single-pattern bench: qps, latency percentiles, join cache
// behavior, and an akb-bench-v1 entry (serve_bgp_qps) for bench-merge.
// `row_limit` caps each join's rows (--row-limit).
int RunJoinBench(const FlagSet& flags, const rdf::TripleStore& store,
                 serve::KbView& view, serve::QueryEngine& engine,
                 uint64_t seed, double build_ms, size_t num_queries,
                 size_t batch, size_t row_limit) {
  synth::BgpWorkloadConfig workload_config;
  workload_config.num_queries = num_queries;
  workload_config.seed = seed + 1;
  auto queries = synth::GenerateBgpWorkload(store, workload_config);

  serve::BgpOptions options;
  options.limit = row_limit;

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  Stopwatch watch;
  size_t total_rows = 0;
  size_t errors = 0;
  for (size_t begin = 0; begin < queries.size(); begin += batch) {
    size_t end = std::min(queries.size(), begin + batch);
    std::vector<serve::BgpQuery> slice(queries.begin() + begin,
                                       queries.begin() + end);
    auto results = engine.ExecuteBgpBatch(slice, options);
    for (const auto& result : results) {
      if (result.rows) total_rows += result.rows->num_rows;
      if (!result.status.ok()) ++errors;
    }
  }
  double seconds = watch.ElapsedSeconds();
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DiffFrom(before);

  double qps = seconds > 0 ? double(queries.size()) / seconds : 0.0;
  const auto* latency = delta.Find("akb.serve.bgp.query.nanos");
  double p50 = latency ? latency->p50 : 0.0;
  double p99 = latency ? latency->p99 : 0.0;
  std::printf(
      "Executed %zu join queries (%zu rows, %zu over-limit) in %.3f s: "
      "%.0f joins/s, p50=%.0f ns p99=%.0f ns\n",
      queries.size(), total_rows, errors, seconds, qps, p50, p99);

  double hit_rate = 0.0;
  if (engine.bgp_cache()) {
    serve::CacheStats stats = engine.bgp_cache()->Stats();
    hit_rate = stats.hits + stats.misses > 0
                   ? double(stats.hits) / double(stats.hits + stats.misses)
                   : 0.0;
    std::printf(
        "Join cache: %.1f%% hit rate (%llu hits, %llu misses), "
        "%llu entries / %.1f MiB resident, %llu evictions\n",
        hit_rate * 100.0, (unsigned long long)stats.hits,
        (unsigned long long)stats.misses, (unsigned long long)stats.entries,
        double(stats.bytes) / (1 << 20), (unsigned long long)stats.evictions);
  }
  PrintTopSlowQueries(engine, 3);

  std::string bench_out = flags.GetString("bench-out");
  if (!bench_out.empty()) {
    obs::BenchSuite suite("serve_bench");
    obs::BenchResult result;
    result.name = "serve_bgp_qps";
    result.value = qps;
    result.unit = "qps";
    result.iterations = int64_t(queries.size());
    result.extra = {{"p50_nanos", p50},
                    {"p99_nanos", p99},
                    {"rows", double(total_rows)},
                    {"over_limit", double(errors)},
                    {"triples", double(view.num_triples())},
                    {"workers", double(engine.num_workers())},
                    {"cache_hit_rate", hit_rate},
                    {"view_build_ms", build_ms}};
    suite.Add(std::move(result));
    Status status = suite.WriteFile(bench_out);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote bench results to %s\n", bench_out.c_str());
  }

  std::string metrics_out = flags.GetString("metrics-out");
  if (!metrics_out.empty()) {
    Status status = obs::WriteTextFile(metrics_out, delta.ToJson() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote %zu metrics to %s\n", delta.entries.size(),
                metrics_out.c_str());
  }
  return 0;
}

int RunServeBenchCommand(const FlagSet& flags) {
  NumericFlags nums(flags);
  serve::QueryEngineConfig engine_config;
  ReadServeConfigs(flags, &nums, &engine_config);
  uint64_t seed = nums.Seed(19);
  size_t triples = nums.Count("triples", 100000);
  // --joins runs the BGP bench, with its own workload defaults.
  const bool joins = flags.GetBool("joins");
  size_t num_queries = nums.Count("queries", joins ? 20000 : 200000);
  size_t batch = std::max<size_t>(1, nums.Count("batch", joins ? 2048 : 8192));
  size_t row_limit = nums.Count("row-limit", 100000);
  // Trace 1% by default; threshold 0 keeps the worst N of the sampled
  // traces, so a bench run always captures its slowest queries.
  engine_config.trace_sample_rate = nums.Double("trace-sample", 0.01);
  engine_config.slow_log_capacity = nums.Count("slow-log", 32);
  engine_config.slow_log_threshold_nanos =
      int64_t(nums.Count("slow-nanos", 0));
  size_t statusz_every = nums.Count("statusz-every", 0);
  if (!nums.Check()) return 2;

  rdf::TripleStore store;
  std::optional<serve::KbView> view_holder;
  double build_ms = 0.0;
  if (!BuildServeKb(flags, seed, triples, &store, &view_holder, &build_ms)) {
    return 1;
  }
  serve::KbView& view = *view_holder;

  serve::QueryEngine engine(view, engine_config);
  std::printf(
      "View ready: %zu triples, %.1f MiB of indexes, built in %.1f ms; "
      "%zu workers\n",
      view.num_triples(), double(view.IndexBytes()) / (1 << 20), build_ms,
      engine.num_workers());

  if (joins) {
    return RunJoinBench(flags, store, view, engine, seed, build_ms,
                        num_queries, batch, row_limit);
  }

  synth::QueryWorkloadConfig workload_config;
  workload_config.num_queries = num_queries;
  workload_config.seed = seed + 1;
  auto patterns = synth::GenerateQueryWorkload(store, workload_config);

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  Stopwatch watch;
  size_t total_matches = 0;
  size_t batch_index = 0;
  for (size_t begin = 0; begin < patterns.size(); begin += batch) {
    size_t end = std::min(patterns.size(), begin + batch);
    std::vector<rdf::TriplePattern> slice(patterns.begin() + begin,
                                          patterns.begin() + end);
    auto results = engine.ExecuteBatch(slice);
    for (const auto& result : results) total_matches += result.matches->size();
    ++batch_index;
    if (statusz_every != 0 && batch_index % statusz_every == 0) {
      obs::StatusReport report;
      serve::FillStatusReport(engine, &report);
      std::printf("%s\n", report.ToText().c_str());
    }
  }
  double seconds = watch.ElapsedSeconds();
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DiffFrom(before);

  double qps = seconds > 0 ? double(patterns.size()) / seconds : 0.0;
  const auto* latency = delta.Find("akb.serve.query.nanos");
  double p50 = latency ? latency->p50 : 0.0;
  double p99 = latency ? latency->p99 : 0.0;
  std::printf(
      "Executed %zu queries (%zu matches) in %.3f s: %.0f queries/s, "
      "p50=%.0f ns p99=%.0f ns\n",
      patterns.size(), total_matches, seconds, qps, p50, p99);

  // Rolling windows (trailing, from the engine's SLO tracker — "right
  // now" as opposed to the whole-run registry aggregates above).
  const int64_t now_micros = obs::NowMicros();
  for (const auto& [label, micros] :
       std::vector<std::pair<const char*, int64_t>>{
           {"10s", 10 * 1'000'000LL}, {"1m", 60 * 1'000'000LL}}) {
    obs::WindowStats lat = engine.slo().latency().Over(micros, now_micros);
    if (lat.count == 0) continue;
    std::printf(
        "Rolling %-3s %.0f qps, latency p50=%.0f us p90=%.0f us "
        "p99=%.0f us max=%lld us\n",
        label, lat.rate_per_sec, lat.p50, lat.p90, lat.p99,
        (long long)lat.max);
  }
  obs::SloState slo = engine.EvaluateSlo();
  std::printf(
      "SLO %s: p99 %.0f us vs target %lld us (budget %.2f), "
      "error rate %.5f vs max %.5f (budget %.2f)\n",
      slo.ok ? "OK" : "VIOLATED", slo.p99_micros,
      (long long)engine.slo().config().p99_target_micros,
      slo.latency_budget_used, slo.error_rate,
      engine.slo().config().max_error_rate, slo.error_budget_used);
  PrintTopSlowQueries(engine, 3);

  std::string bench_out = flags.GetString("bench-out");
  if (!bench_out.empty()) {
    obs::BenchSuite suite("serve_bench");
    obs::BenchResult result;
    result.name = "serve_qps";
    result.value = qps;
    result.unit = "qps";
    result.iterations = int64_t(patterns.size());
    result.extra = {{"p50_nanos", p50},
                    {"p99_nanos", p99},
                    {"triples", double(view.num_triples())},
                    {"workers", double(engine.num_workers())},
                    {"view_build_ms", build_ms}};
    suite.Add(std::move(result));
    Status status = suite.WriteFile(bench_out);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote bench results to %s\n", bench_out.c_str());
  }

  std::string metrics_out = flags.GetString("metrics-out");
  if (!metrics_out.empty()) {
    Status status = obs::WriteTextFile(metrics_out, delta.ToJson() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote %zu metrics to %s\n", delta.entries.size(),
                metrics_out.c_str());
  }
  return 0;
}

// Builds (or loads) a KB, runs a short warmup workload so the rolling
// windows and slow-query log have data, and prints the full statusz page.
int RunStatuszCommand(const FlagSet& flags) {
  NumericFlags nums(flags);
  serve::QueryEngineConfig engine_config;
  ReadServeConfigs(flags, &nums, &engine_config);
  uint64_t seed = nums.Seed(19);
  size_t triples = nums.Count("triples", 50000);
  // Trace every warmup query: this is introspection, not a benchmark.
  engine_config.trace_sample_rate = nums.Double("trace-sample", 1.0);
  engine_config.slow_log_capacity = nums.Count("slow-log", 8);
  engine_config.slow_log_threshold_nanos =
      int64_t(nums.Count("slow-nanos", 0));
  size_t num_queries = nums.Count("queries", 20000);
  if (!nums.Check()) return 2;

  rdf::TripleStore store;
  std::optional<serve::KbView> view_holder;
  double build_ms = 0.0;
  // Progress goes to stderr so `statusz --json` leaves stdout pure JSON.
  if (!BuildServeKb(flags, seed, triples, &store, &view_holder, &build_ms,
                    stderr)) {
    return 1;
  }
  serve::QueryEngine engine(view_holder.value(), engine_config);

  if (num_queries > 0) {
    synth::QueryWorkloadConfig workload_config;
    workload_config.num_queries = num_queries;
    workload_config.seed = seed + 1;
    auto patterns = synth::GenerateQueryWorkload(store, workload_config);
    engine.ExecuteBatch(patterns);
  }

  obs::StatusReport report;
  serve::FillStatusReport(engine, &report);
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  report.AddFusionSourcesFromMetrics(snapshot);
  report.AddMetrics(snapshot);

  if (flags.GetBool("json")) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf("%s", report.ToText().c_str());
  }
  std::string out = flags.GetString("out");
  if (!out.empty()) {
    Status status = obs::WriteTextFile(out, report.ToJson() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote statusz to %s\n", out.c_str());
  }
  return 0;
}

volatile std::sig_atomic_t g_signal_stop = 0;
void HandleStopSignal(int) { g_signal_stop = 1; }

// serve-net: the network front door as a process. Binds (port 0 =
// ephemeral; --port-file publishes the bound port for scripts), serves
// until --duration elapses or SIGINT/SIGTERM, then shuts down cleanly —
// queued work is shed with kUnavailable, connections are flushed and
// closed, and the exit code is 0 so CI can assert a clean stop.
int RunServeNetCommand(const FlagSet& flags) {
  NumericFlags nums(flags);
  serve::QueryEngineConfig engine_config;
  net::ServerConfig server_config;
  ReadServeConfigs(flags, &nums, &engine_config, &server_config);
  uint64_t seed = nums.Seed(19);
  size_t triples = nums.Count("triples", 100000);
  if (!nums.Check()) return 2;
  auto duration = flags.GetDuration("duration", 0);
  if (!duration.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 duration.status().ToString().c_str());
    return 2;
  }

  std::optional<serve::KbView> view_holder;
  double build_ms = 0.0;
  if (!BuildServeKb(flags, seed, triples, nullptr, &view_holder,
                    &build_ms)) {
    return 1;
  }
  serve::QueryEngine engine(*view_holder, engine_config);

  net::Server server(&engine);
  Status started = server.Start(server_config);
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("Serving %zu triples on %s:%u (%s, join cache %s)\n",
              view_holder->num_triples(), server_config.host.c_str(),
              server.port(),
              server_config.enable_coalescing ? "coalescing on"
                                              : "coalescing off",
              engine.bgp_cache() ? "on" : "off");
  std::fflush(stdout);

  std::string port_file = flags.GetString("port-file");
  if (!port_file.empty()) {
    Status status = obs::WriteTextFile(
        port_file, std::to_string(server.port()) + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      server.Stop();
      return 1;
    }
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const int64_t stop_at =
      *duration > 0 ? net::NowNanos() + *duration
                    : std::numeric_limits<int64_t>::max();
  while (g_signal_stop == 0 && net::NowNanos() < stop_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server.Stop();
  net::NetStats stats = server.stats();
  std::printf(
      "Shut down cleanly: %llu requests, %llu responses, "
      "%llu connections, %llu flights executed, %llu coalesced waiters, "
      "shed %llu unavailable / %llu deadline / %llu shutdown\n",
      (unsigned long long)stats.requests,
      (unsigned long long)stats.responses,
      (unsigned long long)stats.connections_accepted,
      (unsigned long long)stats.flights_executed,
      (unsigned long long)stats.singleflight.coalesced_waiters,
      (unsigned long long)stats.shed_unavailable,
      (unsigned long long)stats.shed_deadline_queue,
      (unsigned long long)stats.shed_shutdown);
  return 0;
}

// Per-client-thread tallies for net-bench, merged after join.
struct NetBenchTally {
  uint64_t ok = 0;
  uint64_t unavailable = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other_errors = 0;
  uint64_t transport_errors = 0;
  uint64_t coalesced = 0;
  uint64_t cache_hits = 0;
  uint64_t matches = 0;
  std::vector<int64_t> latencies_nanos;

  void Absorb(const NetBenchTally& other) {
    ok += other.ok;
    unavailable += other.unavailable;
    deadline_exceeded += other.deadline_exceeded;
    other_errors += other.other_errors;
    transport_errors += other.transport_errors;
    coalesced += other.coalesced;
    cache_hits += other.cache_hits;
    matches += other.matches;
    latencies_nanos.insert(latencies_nanos.end(),
                           other.latencies_nanos.begin(),
                           other.latencies_nanos.end());
  }
};

void TallyResponse(const net::WireResponse& response, int64_t latency_nanos,
                   NetBenchTally* tally) {
  tally->latencies_nanos.push_back(latency_nanos);
  if (response.coalesced) ++tally->coalesced;
  if (response.cache_hit) ++tally->cache_hits;
  switch (response.status.code()) {
    case StatusCode::kOk:
      ++tally->ok;
      tally->matches += response.matches.size();
      break;
    case StatusCode::kUnavailable:
      ++tally->unavailable;
      break;
    case StatusCode::kDeadlineExceeded:
      ++tally->deadline_exceeded;
      break;
    default:
      ++tally->other_errors;
      break;
  }
}

// One client thread: its own connection, a slice of the shared workload,
// pipelined up to `depth` requests deep with latencies measured at the
// client (send to matching response).
void RunNetBenchClient(const std::string& host, uint16_t port,
                       const std::vector<rdf::TriplePattern>& patterns,
                       size_t begin, size_t end, size_t depth,
                       int64_t deadline_nanos, uint64_t id_base,
                       NetBenchTally* tally) {
  net::Client client;
  // The receive timeout is a backstop, not the deadline: sheds come back
  // as responses. Generous so a loaded server is not misread as dead.
  int64_t recv_timeout = std::max<int64_t>(10'000'000'000, 4 * deadline_nanos);
  if (!client.Connect(host, port, recv_timeout).ok()) {
    tally->transport_errors += end - begin;
    return;
  }
  std::unordered_map<uint64_t, int64_t> sent_at;
  size_t next = begin;
  uint64_t completed = 0;
  const uint64_t total = end - begin;
  while (completed < total) {
    while (next < end && sent_at.size() < depth) {
      net::WireRequest request;
      request.type = net::MsgType::kPattern;
      request.request_id = id_base + next;
      request.deadline_nanos = deadline_nanos;
      request.pattern = patterns[next];
      int64_t now = net::NowNanos();
      if (!client.Send(request).ok()) {
        tally->transport_errors += total - completed;
        return;
      }
      sent_at.emplace(request.request_id, now);
      ++next;
    }
    net::WireResponse response;
    Status received = client.Receive(&response);
    if (!received.ok()) {
      // A server stopping mid-flight surfaces as EOF/reset here; count
      // the remainder as transport errors and stop.
      tally->transport_errors += total - completed;
      return;
    }
    auto it = sent_at.find(response.request_id);
    int64_t latency =
        it != sent_at.end() ? net::NowNanos() - it->second : 0;
    if (it != sent_at.end()) sent_at.erase(it);
    TallyResponse(response, latency, tally);
    ++completed;
  }
}

double Percentile(std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t index = size_t(p * double(sorted.size() - 1));
  return double(sorted[index]);
}

// net-bench: a multi-threaded load generator for the wire protocol.
// Connects to --connect=HOST:PORT, or starts an in-process server over
// the same KB the workload is generated from. In-process runs also
// report the backend execution count (akb.serve.queries delta) — the
// number the coalescing headline is measured on.
int RunNetBenchCommand(const FlagSet& flags) {
  NumericFlags nums(flags);
  serve::QueryEngineConfig engine_config;
  net::ServerConfig server_config;
  ReadServeConfigs(flags, &nums, &engine_config, &server_config);
  uint64_t seed = nums.Seed(19);
  size_t triples = nums.Count("triples", 100000);
  synth::QueryWorkloadConfig workload_config;
  workload_config.num_queries = nums.Count("queries", 50000);
  workload_config.seed = seed + 1;
  workload_config.zipf = nums.Double("zipf", 0.8);
  // One thread per client.
  size_t clients = std::max<size_t>(1, nums.Count("clients", 8, kMaxThreads));
  size_t depth = std::max<size_t>(1, nums.Count("pipeline", 16));
  if (!nums.Check()) return 2;

  rdf::TripleStore store;
  std::optional<serve::KbView> view_holder;
  double build_ms = 0.0;
  if (!BuildServeKb(flags, seed, triples, &store, &view_holder, &build_ms)) {
    return 1;
  }

  auto patterns = synth::GenerateQueryWorkload(store, workload_config);

  auto deadline = flags.GetDuration("deadline", 0);
  if (!deadline.ok()) {
    std::fprintf(stderr, "error: %s\n", deadline.status().ToString().c_str());
    return 2;
  }

  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::optional<serve::QueryEngine> engine;
  std::optional<net::Server> server;
  std::string connect = flags.GetString("connect");
  if (!connect.empty()) {
    size_t colon = connect.rfind(':');
    char* end = nullptr;
    const long parsed =
        colon == std::string::npos
            ? 0
            : std::strtol(connect.c_str() + colon + 1, &end, 10);
    if (colon == std::string::npos || end == connect.c_str() + colon + 1 ||
        *end != '\0' || parsed < 1 || parsed > 65535) {
      std::fprintf(stderr,
                   "error: --connect takes HOST:PORT with PORT in "
                   "[1, 65535] (got %s)\n",
                   connect.c_str());
      return 2;
    }
    host = connect.substr(0, colon);
    port = uint16_t(parsed);
  } else {
    engine.emplace(*view_holder, engine_config);
    server.emplace(&*engine);
    Status started = server->Start(server_config);
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return 1;
    }
    port = server->port();
  }

  std::printf(
      "net-bench: %zu queries (zipf=%.2f), %zu clients x pipeline %zu, "
      "deadline=%lld ns, %s\n",
      patterns.size(), workload_config.zipf, clients, depth,
      (long long)*deadline,
      connect.empty() ? "in-process server" : connect.c_str());

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  std::vector<NetBenchTally> tallies(clients);
  std::vector<std::thread> threads;
  Stopwatch watch;
  size_t per_client = (patterns.size() + clients - 1) / clients;
  for (size_t c = 0; c < clients; ++c) {
    size_t begin = std::min(patterns.size(), c * per_client);
    size_t end = std::min(patterns.size(), begin + per_client);
    threads.emplace_back(RunNetBenchClient, host, port, std::cref(patterns),
                         begin, end, depth, *deadline,
                         uint64_t(c) << 32, &tallies[c]);
  }
  for (std::thread& thread : threads) thread.join();
  double seconds = watch.ElapsedSeconds();

  NetBenchTally total;
  for (const NetBenchTally& tally : tallies) total.Absorb(tally);
  std::sort(total.latencies_nanos.begin(), total.latencies_nanos.end());
  double p50 = Percentile(total.latencies_nanos, 0.50);
  double p99 = Percentile(total.latencies_nanos, 0.99);
  uint64_t responses = total.latencies_nanos.size();
  double qps = seconds > 0 ? double(responses) / seconds : 0.0;
  double shed_rate =
      responses > 0
          ? double(total.unavailable + total.deadline_exceeded) /
                double(responses)
          : 0.0;

  std::printf(
      "%llu responses in %.3f s: %.0f qps, p50=%.0f ns p99=%.0f ns\n",
      (unsigned long long)responses, seconds, qps, p50, p99);
  std::printf(
      "  ok=%llu (matches=%llu) unavailable=%llu deadline=%llu "
      "errors=%llu transport=%llu\n",
      (unsigned long long)total.ok, (unsigned long long)total.matches,
      (unsigned long long)total.unavailable,
      (unsigned long long)total.deadline_exceeded,
      (unsigned long long)total.other_errors,
      (unsigned long long)total.transport_errors);
  std::printf("  coalesced=%llu cache_hits=%llu shed_rate=%.4f\n",
              (unsigned long long)total.coalesced,
              (unsigned long long)total.cache_hits, shed_rate);

  uint64_t backend_queries = 0;
  if (server.has_value()) {
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().DiffFrom(before);
    const auto* backend = delta.Find("akb.serve.queries");
    backend_queries = backend ? uint64_t(backend->value) : 0;
    net::NetStats stats = server->stats();
    std::printf(
        "  server: %llu backend executions, %llu flights, "
        "%llu coalesced waiters (%.1fx dedup)\n",
        (unsigned long long)backend_queries,
        (unsigned long long)stats.flights_executed,
        (unsigned long long)stats.singleflight.coalesced_waiters,
        backend_queries > 0 ? double(responses) / double(backend_queries)
                            : 0.0);
    server->Stop();
  }

  std::string bench_out = flags.GetString("bench-out");
  if (!bench_out.empty()) {
    obs::BenchSuite suite("net_bench");
    obs::BenchResult result;
    result.name = "net_qps";
    result.value = qps;
    result.unit = "qps";
    result.iterations = int64_t(responses);
    result.extra = {{"p50_nanos", p50},
                    {"p99_nanos", p99},
                    {"clients", double(clients)},
                    {"pipeline", double(depth)},
                    {"ok", double(total.ok)},
                    {"shed_unavailable", double(total.unavailable)},
                    {"shed_deadline", double(total.deadline_exceeded)},
                    {"shed_rate", shed_rate},
                    {"coalesced", double(total.coalesced)},
                    {"cache_hits", double(total.cache_hits)},
                    {"backend_queries", double(backend_queries)},
                    {"triples", double(view_holder->num_triples())}};
    suite.Add(std::move(result));
    Status status = suite.WriteFile(bench_out);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote bench results to %s\n", bench_out.c_str());
  }
  if (responses == 0) {
    std::fprintf(stderr, "error: no responses received\n");
    return 1;
  }
  return 0;
}

int RunSnapshotInfoCommand(const FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: akb_cli snapshot-info <file.akbsnap>\n");
    return 2;
  }
  const std::string& path = flags.positional()[1];
  auto info = rdf::ReadSnapshotInfo(path);
  if (!info.ok()) {
    std::fprintf(stderr, "error: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "%s: format v%u, %llu bytes, %llu terms, %llu triples, %llu claims\n",
      path.c_str(), info->version, (unsigned long long)info->bytes,
      (unsigned long long)info->terms, (unsigned long long)info->triples,
      (unsigned long long)info->claims);
  std::printf(
      "  sections: dict=%llu triples=%llu index=%llu claims=%llu bytes "
      "(zero-copy: mmap + validate, no parse)\n",
      (unsigned long long)info->dict_bytes,
      (unsigned long long)info->triples_bytes,
      (unsigned long long)info->index_bytes,
      (unsigned long long)info->claims_bytes);
  return 0;
}

int RunInspectCommand(const FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: akb_cli inspect <file.nt>\n");
    return 2;
  }
  rdf::TripleStore store;
  Status status = rdf::ReadNTriplesFile(flags.positional()[1], &store);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu distinct triples, %zu claims, %zu terms\n",
              flags.positional()[1].c_str(), store.num_triples(),
              store.num_claims(), store.dictionary().size());
  for (size_t i = 0; i < store.num_triples() && i < 5; ++i) {
    std::printf("  %s\n", store.DecodeToString(i).c_str());
  }
  return 0;
}

void PrintUsage() {
  std::printf(
      "akb_cli — actionable-knowledge-base construction framework\n\n"
      "commands:\n"
      "  pipeline      run the full Figure-1 pipeline (see --output)\n"
      "  extract-dom   run Algorithm 1 on generated sites\n"
      "  fuse-demo     compare VOTE vs ACCU on a synthetic claim set\n"
      "  serve-bench   serve a synthetic query workload from a KB\n"
      "  serve-net     run the epoll network front door over a KB\n"
      "  net-bench     multi-threaded load generator for serve-net\n"
      "  statusz       live introspection report for the serve path\n"
      "  inspect FILE  summarize an N-Triples file\n"
      "  snapshot-info FILE  summarize a binary KB snapshot\n"
      "  bench-merge   merge per-bench JSON results into one file\n\n"
      "common flags: --world=small|paper --seed=N\n"
      "pipeline:     --classes=A,B --sites=N --pages=N --articles=N\n"
      "              --workers=N (0 = one per hardware thread; any value\n"
      "              yields a bit-identical report)\n"
      "              --queries=N --fusion=NAME --output=FILE --provenance\n"
      "              --metrics-out=FILE --trace-out=FILE (chrome://tracing)\n"
      "              --save-kb=FILE (checkpoint the claims KB after\n"
      "              assembly) --load-kb=FILE (warm-start fusion from a\n"
      "              checkpoint; fused output is byte-identical to the\n"
      "              cold run that saved it; snapshots are the zero-copy\n"
      "              serve image, replaced atomically on re-save)\n"
      "extract-dom:  --class=NAME --sites=N --pages=N --seeds=N\n"
      "serve-bench:  --load-kb=FILE (snapshot to serve; else --triples=N\n"
      "              synthesizes a KB) --queries=N --workers=N --batch=N\n"
      "              --no-cache (join cache off) --seed=N\n"
      "              --bench-out=FILE"
      "              (akb-bench-v1 JSON) --metrics-out=FILE\n"
      "              --trace-sample=F (default 0.01) --slow-log=N\n"
      "              --slow-nanos=T (log threshold; 0 keeps the worst N\n"
      "              sampled) --statusz-every=N (print statusz every N\n"
      "              batches) --joins (run a BGP join workload through\n"
      "              the planner instead of single patterns; --row-limit=N\n"
      "              caps rows per join, default 100000)\n"
      "serve-net:    --load-kb=FILE | --triples=N; --host=ADDR --port=N\n"
      "              (0 = ephemeral) --port-file=FILE (publish bound port)\n"
      "              --net-workers=N --queue-depth=N --max-connections=N\n"
      "              --no-coalescing --no-cache (join cache off)\n"
      "              --duration=10s (0 = until SIGINT/SIGTERM; units\n"
      "              ns|us|ms|s|m|h, unit mandatory)\n"
      "net-bench:    --connect=HOST:PORT (else an in-process server over\n"
      "              the same KB) --clients=N --queries=N --pipeline=N\n"
      "              --deadline=250ms (per-request budget; 0 = none)\n"
      "              --zipf=F --no-coalescing --no-cache --bench-out=FILE\n"
      "statusz:      --load-kb=FILE | --triples=N; --queries=N warmup\n"
      "              --workers=N --json --out=FILE (akb-statusz-v1 JSON)\n"
      "bench-merge:  --out=FILE (default BENCH_pipeline.json) inputs...\n");
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc, argv);
  if (flags.positional().empty()) {
    PrintUsage();
    return 2;
  }
  const std::string& command = flags.positional()[0];
  if (command == "pipeline") return RunPipelineCommand(flags);
  if (command == "extract-dom") return RunExtractDomCommand(flags);
  if (command == "fuse-demo") return RunFuseDemoCommand(flags);
  if (command == "serve-bench") return RunServeBenchCommand(flags);
  if (command == "serve-net") return RunServeNetCommand(flags);
  if (command == "net-bench") return RunNetBenchCommand(flags);
  if (command == "statusz") return RunStatuszCommand(flags);
  if (command == "inspect") return RunInspectCommand(flags);
  if (command == "snapshot-info") return RunSnapshotInfoCommand(flags);
  if (command == "bench-merge") return RunBenchMergeCommand(flags);
  PrintUsage();
  return 2;
}
