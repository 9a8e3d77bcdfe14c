#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace akb::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static const synth::World& SharedWorld() {
    static synth::World world = synth::World::Build(
        synth::WorldConfig::Small());
    return world;
  }

  PipelineConfig FastConfig() {
    PipelineConfig config;
    config.seed = 42;
    config.sites_per_class = 2;
    config.pages_per_site = 8;
    config.articles_per_class = 12;
    config.queries_per_class = 400;
    config.junk_queries = 800;
    return config;
  }
};

TEST_F(PipelineTest, RunsEndToEnd) {
  PipelineReport report = RunPipeline(SharedWorld(), FastConfig());
  EXPECT_GE(report.stages.size(), 8u);
  EXPECT_GT(report.total_claims, 100u);
  EXPECT_GT(report.fused_triples, 50u);
  EXPECT_GT(report.total_seconds, 0.0);
  ASSERT_EQ(report.quality.size(), 3u);
}

TEST_F(PipelineTest, QualityAgainstWorldIsHigh) {
  PipelineReport report = RunPipeline(SharedWorld(), FastConfig());
  for (const auto& quality : report.quality) {
    EXPECT_GT(quality.attributes_found, 0u) << quality.class_name;
    EXPECT_GT(quality.attribute_precision, 0.7) << quality.class_name;
    EXPECT_GT(quality.attribute_recall, 0.5) << quality.class_name;
    EXPECT_GT(quality.fused_precision, 0.8) << quality.class_name;
  }
}

TEST_F(PipelineTest, FusionImprovesOverRawClaims) {
  PipelineConfig config = FastConfig();
  PipelineReport report = RunPipeline(SharedWorld(), config);
  double fused = 0, raw = 0;
  for (const auto& quality : report.quality) {
    fused += quality.fused_precision;
    raw += quality.raw_precision;
  }
  EXPECT_GE(fused, raw);
}

TEST_F(PipelineTest, NovelKnowledgeProduced) {
  // The paper's goal: the pipeline must add knowledge beyond the existing
  // KBs, at reasonable precision.
  PipelineReport report = RunPipeline(SharedWorld(), FastConfig());
  size_t novel = 0;
  for (const auto& quality : report.quality) {
    novel += quality.novel_triples;
    if (quality.novel_triples > 0) {
      EXPECT_GT(quality.novel_precision, 0.7) << quality.class_name;
    }
    EXPECT_LE(quality.novel_triples, quality.fused_triples);
  }
  EXPECT_GT(novel, 50u);
}

TEST_F(PipelineTest, AugmentedStoreFilled) {
  rdf::TripleStore augmented;
  PipelineReport report =
      RunPipeline(SharedWorld(), FastConfig(), &augmented);
  EXPECT_EQ(augmented.num_triples(), report.fused_triples);
  ASSERT_GT(augmented.num_triples(), 0u);
  // Every triple carries fusion provenance.
  for (size_t c = 0; c < augmented.num_claims(); ++c) {
    EXPECT_EQ(augmented.claim(c).provenance.extractor,
              rdf::ExtractorKind::kFusion);
  }
}

TEST_F(PipelineTest, ClassSubsetRespected) {
  PipelineConfig config = FastConfig();
  config.classes = {"Book"};
  PipelineReport report = RunPipeline(SharedWorld(), config);
  ASSERT_EQ(report.quality.size(), 1u);
  EXPECT_EQ(report.quality[0].class_name, "Book");
}

TEST_F(PipelineTest, DeterministicForSeed) {
  PipelineReport a = RunPipeline(SharedWorld(), FastConfig());
  PipelineReport b = RunPipeline(SharedWorld(), FastConfig());
  EXPECT_EQ(a.total_claims, b.total_claims);
  EXPECT_EQ(a.fused_triples, b.fused_triples);
  ASSERT_EQ(a.quality.size(), b.quality.size());
  for (size_t i = 0; i < a.quality.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.quality[i].fused_precision,
                     b.quality[i].fused_precision);
    EXPECT_EQ(a.quality[i].attributes_found, b.quality[i].attributes_found);
  }
}

TEST_F(PipelineTest, AllFusionMethodsRun) {
  for (FusionMethod method :
       {FusionMethod::kVote, FusionMethod::kAccu, FusionMethod::kPopAccu,
        FusionMethod::kAccuConfidence, FusionMethod::kAccuConfidenceCopy,
        FusionMethod::kVoteConfidence, FusionMethod::kRelation,
        FusionMethod::kHybrid, FusionMethod::kHierarchyAware}) {
    PipelineConfig config = FastConfig();
    config.fusion = method;
    config.classes = {"Book"};  // keep it quick
    PipelineReport report = RunPipeline(SharedWorld(), config);
    EXPECT_GT(report.fused_triples, 0u)
        << FusionMethodToString(method);
  }
}

TEST_F(PipelineTest, ReportRendersAllSections) {
  PipelineReport report = RunPipeline(SharedWorld(), FastConfig());
  std::string text = report.ToString();
  EXPECT_NE(text.find("Pipeline stages"), std::string::npos);
  EXPECT_NE(text.find("existing-KB extraction"), std::string::npos);
  EXPECT_NE(text.find("query-stream extraction"), std::string::npos);
  EXPECT_NE(text.find("DOM-tree extraction"), std::string::npos);
  EXPECT_NE(text.find("Web-text extraction"), std::string::npos);
  EXPECT_NE(text.find("Per-class quality"), std::string::npos);
  EXPECT_NE(text.find("Book"), std::string::npos);
}

TEST(PipelinePaperWorldTest, TwoPaperClassesEndToEnd) {
  // Full-fidelity world (PaperDefault attribute inventories) on two
  // classes: the pipeline must hold quality at realistic schema sizes.
  synth::World world = synth::World::Build(synth::WorldConfig::PaperDefault());
  PipelineConfig config;
  config.seed = 2026;
  config.classes = {"Book", "Hotel"};
  config.sites_per_class = 2;
  config.pages_per_site = 10;
  config.articles_per_class = 15;
  config.queries_per_class = 800;
  rdf::TripleStore augmented;
  PipelineReport report = RunPipeline(world, config, &augmented);
  ASSERT_EQ(report.quality.size(), 2u);
  for (const auto& quality : report.quality) {
    EXPECT_GT(quality.attributes_found, 30u) << quality.class_name;
    EXPECT_GT(quality.attribute_precision, 0.8) << quality.class_name;
    EXPECT_GT(quality.fused_precision, 0.8) << quality.class_name;
    EXPECT_GT(quality.novel_triples, 0u) << quality.class_name;
  }
  EXPECT_GT(augmented.num_triples(), 1000u);
  EXPECT_GT(report.typing_accuracy, 0.9);
}

TEST(StageMetricLabelTest, SlugsStageNames) {
  EXPECT_EQ(StageMetricLabel("DOM-tree extraction"), "dom_tree_extraction");
  EXPECT_EQ(StageMetricLabel("existing-KB extraction"),
            "existing_kb_extraction");
  EXPECT_EQ(StageMetricLabel("save KB checkpoint"), "save_kb_checkpoint");
}

TEST_F(PipelineTest, MetricsHoldOneStageSamplePerStageThatRan) {
  PipelineReport report = RunPipeline(SharedWorld(), FastConfig());
  const std::string prefix = "akb.pipeline.stage_micros.";
  std::map<std::string, int64_t> expected, recorded;
  for (const StageStats& stage : report.stages) {
    ++expected[prefix + StageMetricLabel(stage.name)];
  }
  for (const obs::MetricSnapshotEntry& entry : report.metrics.entries) {
    if (entry.name.rfind(prefix, 0) != 0 || entry.count == 0) continue;
    EXPECT_EQ(entry.kind, obs::MetricKind::kHistogram) << entry.name;
    recorded[entry.name] = entry.count;
  }
  EXPECT_EQ(recorded, expected);
  EXPECT_EQ(recorded.count(prefix + "dom_tree_extraction"), 1u);
  for (const auto& [name, count] : expected) EXPECT_EQ(count, 1) << name;
}

TEST(FusionMethodTest, AllNamed) {
  for (int m = 0; m <= 8; ++m) {
    EXPECT_NE(FusionMethodToString(static_cast<FusionMethod>(m)), "?");
  }
}

}  // namespace
}  // namespace akb::core
