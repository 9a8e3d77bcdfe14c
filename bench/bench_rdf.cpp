// Substrate micro-benchmarks: the RDF triple store, the N-Triples codec,
// and the binary snapshot codec (the storage layers every pipeline stage
// writes into).
//
// Acceptance budget: opening a serving view from the zero-copy snapshot
// of a 1M-triple KB (mmap + validate) must take <= 100 ms. The save of
// that KB is recorded next to it (save_v2_ms) without a bound. Emits the
// common "akb-bench-v1" file (BENCH_bench_rdf.json).
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
#include "rdf/ntriples.h"
#include "rdf/snapshot.h"
#include "rdf/triple_store.h"
#include "serve/kb_view.h"

namespace {

using namespace akb;

rdf::TripleStore BuildStore(size_t claims, uint64_t seed) {
  rdf::TripleStore store;
  Rng rng(seed);
  std::vector<rdf::TermId> subjects, predicates, objects;
  for (int i = 0; i < 2000; ++i) {
    subjects.push_back(
        store.dictionary().InternIri("http://e/s" + std::to_string(i)));
  }
  for (int i = 0; i < 300; ++i) {
    predicates.push_back(
        store.dictionary().InternIri("http://p/p" + std::to_string(i)));
  }
  for (int i = 0; i < 5000; ++i) {
    objects.push_back(
        store.dictionary().InternLiteral("value " + std::to_string(i)));
  }
  for (size_t c = 0; c < claims; ++c) {
    store.Insert({rng.Pick(subjects), rng.Pick(predicates),
                  rng.Pick(objects)},
                 rdf::Provenance{"s" + std::to_string(rng.Index(20)),
                                 rdf::ExtractorKind::kDomTree,
                                 rng.NextDouble()});
  }
  return store;
}

void BM_TripleStoreInsert(benchmark::State& state) {
  size_t claims = size_t(state.range(0));
  for (auto _ : state) {
    rdf::TripleStore store = BuildStore(claims, 3);
    benchmark::DoNotOptimize(store.num_triples());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(claims));
}
BENCHMARK(BM_TripleStoreInsert)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_NTriplesWrite(benchmark::State& state) {
  rdf::TripleStore store = BuildStore(50000, 7);
  rdf::NTriplesWriteOptions options;
  options.include_provenance = true;
  size_t bytes = rdf::WriteNTriples(store, options).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rdf::WriteNTriples(store, options).size());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(bytes));
}
BENCHMARK(BM_NTriplesWrite)->Unit(benchmark::kMillisecond);

void BM_NTriplesRead(benchmark::State& state) {
  rdf::TripleStore store = BuildStore(50000, 8);
  rdf::NTriplesWriteOptions options;
  options.include_provenance = true;
  std::string text = rdf::WriteNTriples(store, options);
  for (auto _ : state) {
    rdf::TripleStore restored;
    benchmark::DoNotOptimize(rdf::ReadNTriples(text, &restored).ok());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(text.size()));
}
BENCHMARK(BM_NTriplesRead)->Unit(benchmark::kMillisecond);

std::string BenchSnapshotPath() {
  return std::string(P_tmpdir) + "/bench_rdf.akbsnap";
}

void BM_SnapshotSave(benchmark::State& state) {
  rdf::TripleStore store = BuildStore(size_t(state.range(0)), 9);
  std::string path = BenchSnapshotPath();
  rdf::SnapshotStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.SaveSnapshot(path, rdf::SnapshotFormat::kV2, &stats).ok());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(stats.bytes));
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stats.claims));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotSave)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotLoad(benchmark::State& state) {
  rdf::TripleStore store = BuildStore(size_t(state.range(0)), 10);
  std::string path = BenchSnapshotPath();
  rdf::SnapshotStats stats;
  if (!store.SaveSnapshot(path, rdf::SnapshotFormat::kV2, &stats).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    rdf::TripleStore restored;
    benchmark::DoNotOptimize(restored.LoadSnapshot(path).ok());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(stats.bytes));
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stats.claims));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotLoad)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Zero-copy KbView open: mmap + validate, the serve cold start.
void BM_KbViewFromSnapshot(benchmark::State& state) {
  rdf::TripleStore store = BuildStore(100000, 11);
  std::string path = BenchSnapshotPath();
  if (!store.SaveSnapshot(path, rdf::SnapshotFormat::kV2).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    auto view = serve::KbView::FromSnapshot(path);
    benchmark::DoNotOptimize(view.ok() && view->mapped());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_KbViewFromSnapshot)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ cold start
//
// The headline number: time-to-first-query for a 1M-triple KB. Opening
// the view is mmap + CRC/structure validation + pointer fixup — the
// writer already interned, sorted, and laid out everything — so it
// scales with I/O bandwidth instead of n log n.
constexpr double kColdStartBudgetMs = 100.0;

void PrintColdStartReport(obs::BenchSuite* suite) {
  // 2000 x 25 x 20 = exactly 1M distinct triples, each with one claim.
  rdf::TripleStore store;
  std::vector<rdf::TermId> subjects, predicates, objects;
  for (int i = 0; i < 2000; ++i) {
    subjects.push_back(
        store.dictionary().InternIri("http://e/s" + std::to_string(i)));
  }
  for (int i = 0; i < 25; ++i) {
    predicates.push_back(
        store.dictionary().InternIri("http://p/p" + std::to_string(i)));
  }
  for (int i = 0; i < 20; ++i) {
    objects.push_back(
        store.dictionary().InternLiteral("value " + std::to_string(i)));
  }
  for (rdf::TermId s : subjects) {
    for (rdf::TermId p : predicates) {
      for (rdf::TermId o : objects) {
        store.Insert({s, p, o},
                     rdf::Provenance{"seed", rdf::ExtractorKind::kDomTree,
                                     0.9});
      }
    }
  }

  // Publishing: the whole save (dictionary arena, triple array, the three
  // permutation indexes, claims, fsync and rename), median of three.
  std::string path = std::string(P_tmpdir) + "/bench_cold.akbsnap";
  rdf::SnapshotStats stats;
  constexpr int kSaveReps = 3;
  std::vector<double> save_ms;
  for (int r = 0; r < kSaveReps; ++r) {
    Stopwatch watch;
    if (!store.SaveSnapshot(path, rdf::SnapshotFormat::kV2, &stats).ok()) {
      std::fprintf(stderr, "FATAL: cold-start snapshot save failed\n");
      std::abort();
    }
    save_ms.push_back(watch.ElapsedMillis());
  }
  std::sort(save_ms.begin(), save_ms.end());
  const double save_median_ms = save_ms[kSaveReps / 2];

  // Correctness gate before timing: the view answers like the store.
  {
    auto view = serve::KbView::FromSnapshot(path);
    if (!view.ok() || !view->mapped() ||
        view->num_triples() != store.num_triples()) {
      std::fprintf(stderr, "FATAL: cold-start view disagrees with store\n");
      std::abort();
    }
    Rng rng(7);
    for (int i = 0; i < 32; ++i) {
      const rdf::Triple& t = store.triple(rng.Index(store.num_triples()));
      rdf::TriplePattern pattern{t.subject, t.predicate, 0};
      auto expected = store.Match(pattern);
      auto got = view->Match(pattern);
      std::sort(got.begin(), got.end());
      if (got != expected) {
        std::fprintf(stderr, "FATAL: cold-start match mismatch at %d\n", i);
        std::abort();
      }
    }
  }

  constexpr int kReps = 9;
  double open_ms = 1e300;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    auto view = serve::KbView::FromSnapshot(path);
    benchmark::DoNotOptimize(view.ok() && view->num_triples() > 0);
    open_ms = std::min(open_ms, watch.ElapsedMillis());
  }

  TextTable table({"Snapshot", "File (MB)", "Save (ms)", "Open (ms)"});
  table.set_title("Publish and cold start to serving view, " +
                  std::to_string(store.num_triples()) +
                  " distinct triples");
  table.AddRow({"save; mmap + validate",
                FormatDouble(double(stats.bytes) / 1e6, 1),
                FormatDouble(save_median_ms, 1), FormatDouble(open_ms, 1)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Budget: <= %.0f ms — %s\n\n", kColdStartBudgetMs,
              open_ms <= kColdStartBudgetMs ? "within budget" : "OVER BUDGET");

  suite->Add({"cold_start_v2_ms", open_ms, "ms", kReps,
              {{"triples", double(store.num_triples())},
               {"file_bytes", double(stats.bytes)},
               {"budget_max", kColdStartBudgetMs}}});
  suite->Add({"save_v2_ms", save_median_ms, "ms", kSaveReps,
              {{"triples", double(store.num_triples())},
               {"file_bytes", double(stats.bytes)}}});

  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchSuite suite("bench_rdf");
  PrintColdStartReport(&suite);
  suite.WriteDefaultFile();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
