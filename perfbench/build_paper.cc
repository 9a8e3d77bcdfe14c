// build_paper: the cold Figure-1 pipeline, timed from outside.
//
// Set-up is synth::World::Build (median of three builds). The timed part
// alternates core::RunPipeline at 1 worker and at min(nproc, 4) workers,
// with the `akb_cli pipeline --world=paper` defaults and a v2 claims
// checkpoint, in rounds of one run each that fit in --seconds (at least
// two rounds); the reported times are medians over the rounds. Every
// run's fused N-Triples must be the same bytes, at either worker count.
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "harness.h"
#include "obs/trace.h"
#include "rdf/ntriples.h"
#include "spans.h"
#include "synth/world.h"

namespace perfbench {
namespace {

using namespace akb;

// Stage names in PipelineReport::stages -> metric name stems. The fusion
// stage's name carries the method ("fusion [ACCU+conf+copy]"), so it is
// matched by prefix.
struct StageName {
  const char* prefix;
  const char* metric;
};
constexpr StageName kStages[] = {
    {"render inputs", "synth.render_s"},
    {"existing-KB extraction", "extract.kb_s"},
    {"query-stream extraction", "extract.query_s"},
    {"DOM-tree extraction", "extract.dom_s"},
    {"Web-text extraction", "extract.text_s"},
    {"entity creation", "extract.entity_s"},
    {"taxonomy extraction", "extract.taxonomy_s"},
    {"claim assembly", "core.claim_assembly_s"},
    {"save KB checkpoint", "rdf.snapshot_save_s"},
    {"fusion", "fusion.fuse_s"},
    {"KB augmentation", "core.augment_s"},
};

// PipelineReport::metrics counter -> metric name. These repeat exactly
// for a seed and worker count.
constexpr std::pair<const char*, const char*> kCounts[] = {
    {"akb.extract.dom.nodes_classified", "extract.dom.nodes_classified"},
    {"akb.extract.dom.patterns_induced", "extract.dom.patterns_induced"},
    {"akb.extract.query.lines_matched", "extract.query.lines_matched"},
    {"akb.extract.text.sentences_matched", "extract.text.sentences_matched"},
    {"akb.pipeline.claims", "core.claims"},
    {"akb.pipeline.triples_fused", "core.triples_fused"},
    {"akb.fusion.accu.iterations", "fusion.accu.iterations"},
    {"akb.snapshot.bytes", "rdf.snapshot_bytes"},
};

struct PipelineRun {
  double seconds = 0.0;
  core::PipelineReport report;
  std::string ntriples;
};

core::PipelineConfig MakeConfig(const Options& options, size_t workers,
                                const std::string& checkpoint) {
  core::PipelineConfig config;
  config.seed = options.seed;
  config.sites_per_class = options.smoke ? 2 : 3;
  config.pages_per_site = options.smoke ? 6 : 15;
  config.articles_per_class = options.smoke ? 8 : 25;
  config.queries_per_class = options.smoke ? 200 : 1200;
  config.fusion = core::FusionMethod::kAccuConfidenceCopy;
  config.num_workers = workers;
  config.save_kb_path = checkpoint;
  config.snapshot_format = rdf::SnapshotFormat::kV2;
  return config;
}

PipelineRun RunOnce(const synth::World& world,
                    const core::PipelineConfig& config) {
  PipelineRun run;
  rdf::TripleStore augmented;
  int64_t start = NowNanos();
  run.report = core::RunPipeline(world, config, &augmented);
  run.seconds = double(NowNanos() - start) * 1e-9;
  run.ntriples = rdf::WriteNTriples(augmented);
  return run;
}

void AddStageTimes(const core::PipelineReport& report,
                   const std::string& suffix, RunResult* result) {
  for (const StageName& stage : kStages) {
    for (const core::StageStats& stats : report.stages) {
      if (stats.name.rfind(stage.prefix, 0) == 0) {
        result->metrics[std::string(stage.metric) + suffix] = stats.seconds;
        break;
      }
    }
  }
}

double CounterValue(const core::PipelineReport& report, const char* name) {
  const auto* entry = report.metrics.Find(name);
  return entry ? double(entry->value) : 0.0;
}

double FusedPrecision(const core::PipelineReport& report) {
  double weighted = 0.0, triples = 0.0;
  for (const core::ClassQuality& quality : report.quality) {
    weighted += quality.fused_precision * double(quality.fused_triples);
    triples += double(quality.fused_triples);
  }
  return triples > 0 ? weighted / triples : 0.0;
}

}  // namespace

void RunBuildPaper(const Options& options, RunResult* result) {
  synth::WorldConfig world_config = options.smoke
                                        ? synth::WorldConfig::Small()
                                        : synth::WorldConfig::PaperDefault();
  world_config.seed = options.seed;
  const size_t parallel = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  const std::string checkpoint =
      (std::filesystem::path(options.workdir) / "claims.akbsnap").string();

  // Set-up: build the world three times, keep the last.
  std::vector<double> setup;
  std::optional<synth::World> world;
  for (int i = 0; i < 3; ++i) {
    world.reset();
    int64_t start = NowNanos();
    world.emplace(synth::World::Build(world_config));
    setup.push_back(double(NowNanos() - start) * 1e-9);
  }
  size_t entities = 0, attributes = 0;
  for (const synth::WorldClass& cls : world->classes()) {
    entities += cls.entities.size();
    attributes += cls.attributes.size();
  }
  result->details["world.classes"] = double(world->classes().size());
  result->details["world.entities"] = double(entities);
  result->details["world.attributes"] = double(attributes);
  result->details["build.workers"] = double(parallel);

  const core::PipelineConfig serial_config =
      MakeConfig(options, 1, checkpoint);
  const core::PipelineConfig parallel_config =
      MakeConfig(options, parallel, checkpoint);

  // Fused N-Triples of the first run checked; every other run, at either
  // worker count, must produce the same bytes.
  std::string reference;
  auto check = [&](PipelineRun& run, size_t workers) {
    ++result->attempted;
    if (workers == parallel && options.inject == "output" &&
        !run.ntriples.empty()) {
      run.ntriples[run.ntriples.size() / 2] ^= 0x20;
    }
    std::string error;
    if (!run.report.status.ok()) {
      error = "pipeline failed: " + run.report.status.ToString();
    } else if (run.report.fused_triples == 0) {
      error = "pipeline fused no triples";
    } else if (reference.empty()) {
      reference = run.ntriples;
    } else if (run.ntriples != reference) {
      error = "fused N-Triples at " + std::to_string(workers) +
              " workers differ from the 1-worker bytes";
    }
    if (!error.empty()) {
      ++result->failed;
      result->errors.push_back(error);
    }
  };

  if (!options.trace) {
    std::vector<double> serial_s, parallel_s;
    PipelineRun last_parallel;
    double peak_rss_mb = 0.0;
    const int64_t deadline = NowNanos() + int64_t(options.seconds * 1e9);
    int64_t round_ns = 0;
    // Alternate which worker count goes first, so drift in the machine's
    // load falls on both alike. After two rounds, a round starts only if
    // it should end before the deadline.
    for (int round = 0; round < 2 || NowNanos() + round_ns <= deadline;
         ++round) {
      const int64_t round_start = NowNanos();
      for (int leg = 0; leg < 2; ++leg) {
        bool serial = (round + leg) % 2 == 0;
        if (serial) {
          PipelineRun run = RunOnce(*world, serial_config);
          check(run, 1);
          serial_s.push_back(run.seconds);
        } else {
          PipelineRun run = RunOnce(*world, parallel_config);
          check(run, parallel);
          parallel_s.push_back(run.seconds);
          last_parallel = std::move(run);
        }
      }
      round_ns = NowNanos() - round_start;
      // Later rounds only add allocator growth, so the peak is read after
      // the first round, where every run reads it.
      if (round == 0) peak_rss_mb = SelfPeakRssMb();
    }
    const double build_s = Median(parallel_s);
    result->metrics["setup_s"] = Median(setup);
    result->metrics["build_s"] = build_s;
    result->metrics["build_serial_s"] = Median(serial_s);
    result->metrics["fused_precision"] = FusedPrecision(last_parallel.report);
    // A build is one request to the build flow: its rate is builds per
    // second.
    result->metrics["max_qps"] = 1.0 / build_s;
    result->metrics["peak_rss_mb"] = peak_rss_mb;
    for (size_t i = 0; i < serial_s.size(); ++i) {
      result->details["build.run" + std::to_string(i) + ".serial_s"] =
          serial_s[i];
      result->details["build.run" + std::to_string(i) + ".parallel_s"] =
          parallel_s[i];
    }
    result->details["kb.fused_triples"] =
        double(last_parallel.report.fused_triples);
    return;
  }

  // Traced run: one untraced parallel build for the overhead baseline,
  // then a traced world build and a traced build at each worker count.
  PipelineRun untraced = RunOnce(*world, parallel_config);
  check(untraced, parallel);

  SpanLog spans;
  const int64_t origin = NowNanos();
  obs::TraceSession::Global().Start();
  {
    obs::ScopedSpan span("bench.world_build");
    synth::World traced_world = synth::World::Build(world_config);
  }
  PipelineRun serial, traced;
  {
    obs::ScopedSpan span("bench.run_pipeline.w1");
    serial = RunOnce(*world, serial_config);
  }
  {
    obs::ScopedSpan span("bench.run_pipeline.w4");
    traced = RunOnce(*world, parallel_config);
  }
  obs::TraceSession::Global().Stop();
  spans.Import(obs::TraceSession::Global().Snapshot(), origin);
  check(serial, 1);
  check(traced, parallel);

  AddStageTimes(serial.report, ".w1", result);
  AddStageTimes(traced.report, ".w4", result);
  for (const auto& [counter, metric] : kCounts) {
    result->metrics[metric] = CounterValue(traced.report, counter);
  }
  result->metrics["mapreduce.tasks_executed.w1"] =
      CounterValue(serial.report, "akb.mapreduce.pool.tasks_executed");
  result->metrics["mapreduce.tasks_executed.w4"] =
      CounterValue(traced.report, "akb.mapreduce.pool.tasks_executed");
  result->metrics["trace.overhead_build_s"] = traced.seconds - untraced.seconds;

  // Self time per layer, grouping the per-class extractor spans.
  std::map<std::string, double> self = spans.SelfSeconds();
  auto sum_prefix = [&](const std::string& prefix) {
    double total = 0.0;
    for (const auto& [name, seconds] : self) {
      if (name.rfind(prefix, 0) == 0) total += seconds;
    }
    return total;
  };
  result->metrics["self.bench.world_build_s"] = self["bench.world_build"];
  result->metrics["self.bench.run_pipeline_s"] =
      self["bench.run_pipeline.w1"] + self["bench.run_pipeline.w4"];
  result->metrics["self.pipeline.run_s"] = self["pipeline.run"];
  result->metrics["self.pipeline.stages_s"] =
      sum_prefix("pipeline.") - self["pipeline.run"];
  result->metrics["self.extract.dom_s"] = sum_prefix("extract.dom.");
  result->metrics["self.extract.text_s"] = sum_prefix("extract.text.");
  result->metrics["self.snapshot.save_s"] = self["snapshot.save"];
  result->metrics["self.fusion.accu_s"] = self["fusion.accu"];
  result->metrics["fail_ratio"] =
      double(result->failed) / double(result->attempted);

  result->trace_file =
      (std::filesystem::path(options.workdir) / "trace_build_paper.json")
          .string();
  if (!spans.WriteChromeJson(result->trace_file, 100000)) {
    result->errors.push_back("cannot write " + result->trace_file);
  }
}

}  // namespace perfbench
