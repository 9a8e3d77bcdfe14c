// Serving read path — bound-subject latency through KbView's sorted
// permutation indexes (checked against the TripleStore::Match scan
// oracle first), the BGP join planner vs the worst valid join order,
// plus QueryEngine batch throughput across worker counts.
//
// Acceptance budget: planner-ordered star joins must run >= 5x faster
// than the worst valid join order on a skewed 500k-triple KB.
// Emits the common "akb-bench-v1" file (BENCH_bench_serve.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table.h"
#include "obs/bench_io.h"
#include "rdf/triple_store.h"
#include "serve/kb_view.h"
#include "serve/query_engine.h"
#include "synth/query_workload.h"

namespace {

using namespace akb;

constexpr size_t kTargetTriples = 500000;

// Skewed KB: hot subjects with multi-thousand-triple runs whose entries
// are strided across the whole triple array; KbView reads each as one
// contiguous SPO range.
const rdf::TripleStore& BigStore() {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    Rng rng(97);
    std::vector<rdf::TermId> subjects, predicates, objects;
    for (int i = 0; i < 128; ++i) {
      subjects.push_back(
          s->dictionary().InternIri("http://e/s" + std::to_string(i)));
    }
    for (int i = 0; i < 64; ++i) {
      predicates.push_back(
          s->dictionary().InternIri("http://p/p" + std::to_string(i)));
    }
    for (int i = 0; i < 50000; ++i) {
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

// Bound-subject patterns (s p ?) over the hot pools.
std::vector<rdf::TriplePattern> SubjectPatterns(size_t count) {
  const auto& dict = BigStore().dictionary();
  Rng rng(5);
  std::vector<rdf::TriplePattern> patterns;
  patterns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    rdf::TermId s = dict.Find(
        rdf::Term::Iri("http://e/s" + std::to_string(rng.Index(128))));
    rdf::TermId p = dict.Find(
        rdf::Term::Iri("http://p/p" + std::to_string(rng.Index(64))));
    patterns.push_back({s, p, 0});
  }
  return patterns;
}

template <typename MatchFn>
double MinQueryMicros(const std::vector<rdf::TriplePattern>& patterns,
                      int reps, MatchFn&& match) {
  double best = 1e300;
  size_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    for (const rdf::TriplePattern& pattern : patterns) {
      sink += match(pattern).size();
    }
    best = std::min(best, double(watch.ElapsedMicros()) / patterns.size());
  }
  benchmark::DoNotOptimize(sink);
  return best;
}

void PrintSubjectLatencyReport(obs::BenchSuite* suite) {
  const rdf::TripleStore& store = BigStore();
  const serve::KbView& view = BigView();
  auto patterns = SubjectPatterns(2048);
  constexpr int kReps = 5;

  // Correctness gate before timing anything: identical answer sets (the
  // view returns permutation-key order, the store ascending).
  for (size_t i = 0; i < 64; ++i) {
    std::vector<size_t> got = view.Match(patterns[i]);
    std::sort(got.begin(), got.end());
    if (got != store.Match(patterns[i])) {
      std::fprintf(stderr, "FATAL: KbView/Match disagree on pattern %zu\n", i);
      std::abort();
    }
  }

  double view_us = MinQueryMicros(
      patterns, kReps,
      [&](const rdf::TriplePattern& p) { return view.Match(p); });

  TextTable table({"Path", "Per query (us)"});
  table.set_title("Bound-subject (s p ?) patterns, " +
                  std::to_string(store.num_triples()) +
                  " distinct triples, best of " + std::to_string(kReps));
  table.AddRow({"KbView permutation index", FormatDouble(view_us, 3)});
  std::printf("%s\n", table.ToString().c_str());

  suite->Add({"kbview_subject_us", view_us, "us", kReps,
              {{"triples", double(store.num_triples())}}});
}

// BGP join sweep: star joins whose two patterns have wildly different
// index ranges — a selective (?e p o) arm (a handful of subjects carry
// that exact fact) against an open (?e p2 ?v) arm (~triples/predicates
// entries). The planner must lead with the selective arm; leading with
// the open arm instead pays thousands of probes per query. Acceptance
// budget: planner order >= 5x faster than the worst valid order.
void PrintJoinPlanReport(obs::BenchSuite* suite) {
  const rdf::TripleStore& store = BigStore();
  const serve::KbView& view = BigView();
  Rng rng(41);
  struct JoinCase {
    serve::BgpQuery query;
    serve::BgpPlan planned;
    serve::BgpPlan worst;
  };
  std::vector<JoinCase> cases;
  while (cases.size() < 48) {
    const rdf::Triple& t = store.triple(rng.Index(store.num_triples()));
    auto arms = store.Match({t.subject, 0, 0});
    const rdf::Triple& other = store.triple(arms[rng.Index(arms.size())]);
    if (other.predicate == t.predicate) continue;
    serve::BgpQuery q;
    auto e = q.Var("e");
    q.Add(e, serve::BgpQuery::Bound(t.predicate),
          serve::BgpQuery::Bound(t.object));            // selective
    q.Add(e, serve::BgpQuery::Bound(other.predicate), q.Var("v"));  // open
    auto plan = serve::PlanBgp(view, q);
    if (!plan.ok()) continue;
    JoinCase jc;
    jc.planned = *plan;
    // The only other valid order for a two-pattern star: open arm first.
    jc.worst.order = {plan->order[1], plan->order[0]};
    if (!serve::ValidateBgpOrder(q, jc.worst.order).ok()) continue;
    jc.query = std::move(q);
    cases.push_back(std::move(jc));
  }

  // Correctness gate before timing: both orders, same binding multiset.
  for (size_t i = 0; i < 8; ++i) {
    auto a = serve::ExecuteBgpWithPlan(view, cases[i].query, cases[i].planned);
    auto b = serve::ExecuteBgpWithPlan(view, cases[i].query, cases[i].worst);
    if (!a.ok() || !b.ok() || a->num_rows != b->num_rows) {
      std::fprintf(stderr, "FATAL: join orders disagree on case %zu\n", i);
      std::abort();
    }
  }

  constexpr int kReps = 3;
  auto min_join_micros = [&](auto&& plan_of) {
    double best = 1e300;
    size_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
      Stopwatch watch;
      for (const JoinCase& jc : cases) {
        auto rows = serve::ExecuteBgpWithPlan(view, jc.query, plan_of(jc));
        sink += rows.ok() ? rows->num_rows : 0;
      }
      best = std::min(best, double(watch.ElapsedMicros()) / cases.size());
    }
    benchmark::DoNotOptimize(sink);
    return best;
  };
  double planned_us =
      min_join_micros([](const JoinCase& jc) -> const serve::BgpPlan& {
        return jc.planned;
      });
  double worst_us =
      min_join_micros([](const JoinCase& jc) -> const serve::BgpPlan& {
        return jc.worst;
      });
  double speedup = planned_us > 0 ? worst_us / planned_us : 0.0;

  TextTable table({"Join order", "Per query (us)", "Speedup"});
  table.set_title("BGP star joins (selective + open arm), " +
                  std::to_string(store.num_triples()) +
                  " distinct triples, best of " + std::to_string(kReps));
  table.AddRow({"Worst valid order (open arm first)",
                FormatDouble(worst_us, 3), "1.0x"});
  table.AddRow({"Planner order (selective first)",
                FormatDouble(planned_us, 3), FormatDouble(speedup, 1) + "x"});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Budget: >= 5x — %s\n\n",
              speedup >= 5.0 ? "within budget" : "OVER BUDGET");

  suite->Add({"bgp_worst_order_us", worst_us, "us", kReps, {}});
  suite->Add({"bgp_planner_us", planned_us, "us", kReps, {}});
  suite->Add({"bgp_plan_speedup", speedup, "x", kReps,
              {{"budget_min", 5.0},
               {"triples", double(store.num_triples())}}});
}

void PrintThroughputReport(obs::BenchSuite* suite) {
  const rdf::TripleStore& store = BigStore();
  const serve::KbView& view = BigView();
  synth::QueryWorkloadConfig workload_config;
  workload_config.num_queries = 50000;
  workload_config.seed = 23;
  auto patterns = synth::GenerateQueryWorkload(store, workload_config);

  TextTable table({"Workers", "Queries/s"});
  table.set_title("QueryEngine batch throughput, mixed synthetic workload (" +
                  std::to_string(patterns.size()) + " queries)");
  for (size_t workers : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
    serve::QueryEngineConfig config;
    config.num_workers = workers;
    serve::QueryEngine engine(view, config);
    engine.ExecuteBatch(patterns);  // Warm the pool and pages once.
    double best_s = 1e300;
    for (int r = 0; r < 3; ++r) {
      Stopwatch watch;
      auto results = engine.ExecuteBatch(patterns);
      benchmark::DoNotOptimize(results.size());
      best_s = std::min(best_s, double(watch.ElapsedMicros()) / 1e6);
    }
    double qps = best_s > 0 ? patterns.size() / best_s : 0.0;
    table.AddRow({std::to_string(workers), FormatDouble(qps, 0)});
    suite->Add({"engine_qps_w" + std::to_string(workers), qps, "qps", 3,
                {{"workers", double(workers)}}});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void BM_KbViewMatchBoundSubject(benchmark::State& state) {
  const serve::KbView& view = BigView();
  auto patterns = SubjectPatterns(512);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.Match(patterns[i++ % patterns.size()]));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_KbViewMatchBoundSubject);

void BM_EngineExecuteBgpCached(benchmark::State& state) {
  static serve::QueryEngine* engine = [] {
    serve::QueryEngineConfig config;
    config.num_workers = 1;
    return new serve::QueryEngine(BigView(), config);
  }();
  synth::BgpWorkloadConfig workload_config;
  workload_config.num_queries = 128;
  workload_config.seed = 31;
  static auto* queries = new std::vector<serve::BgpQuery>(
      synth::GenerateBgpWorkload(BigStore(), workload_config));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->ExecuteBgp((*queries)[i++ % queries->size()]));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_EngineExecuteBgpCached);

void BM_EngineExecute(benchmark::State& state) {
  static serve::QueryEngine* engine = [] {
    serve::QueryEngineConfig config;
    config.num_workers = 1;
    return new serve::QueryEngine(BigView(), config);
  }();
  auto patterns = SubjectPatterns(256);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Execute(patterns[i++ % patterns.size()]));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_EngineExecute);

}  // namespace

int main(int argc, char** argv) {
  obs::BenchSuite suite("bench_serve");
  PrintSubjectLatencyReport(&suite);
  PrintJoinPlanReport(&suite);
  PrintThroughputReport(&suite);
  suite.WriteDefaultFile();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
