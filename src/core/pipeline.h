// The Figure-1 pipeline: the full KB-construction framework.
//
// Knowledge extraction phase: the query stream and the two existing KBs
// seed attribute extraction; the DOM-tree and Web-text extractors use those
// seeds on the open Web; every triple gets a unified confidence score; new
// entities are created by joint linking + discovery. Knowledge fusion
// phase: claims from all four extractors are fused (accuracy-aware,
// confidence-weighted, correlation-aware), and the result augments the
// Freebase-like KB.
#ifndef AKB_CORE_PIPELINE_H_
#define AKB_CORE_PIPELINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "extract/dom_extractor.h"
#include "extract/entity_creation.h"
#include "obs/metrics.h"
#include "extract/kb_extractor.h"
#include "extract/query_extractor.h"
#include "extract/taxonomy_extractor.h"
#include "extract/text_extractor.h"
#include "fusion/accu.h"
#include "rdf/triple_store.h"
#include "synth/kb_gen.h"
#include "synth/query_gen.h"
#include "synth/site_gen.h"
#include "synth/text_gen.h"
#include "synth/world.h"

namespace akb::core {

/// Which fusion method closes the pipeline.
enum class FusionMethod : uint8_t {
  kVote = 0,
  kAccu = 1,
  kPopAccu = 2,
  kAccuConfidence = 3,       ///< ACCU + extraction-confidence weighting
  kAccuConfidenceCopy = 4,   ///< + copy-detection source weights
  kVoteConfidence = 5,       ///< VOTE weighted by extraction confidence
  kRelation = 6,             ///< relation-based fusion (correlations)
  kHybrid = 7,               ///< functionality-degree routing (ACCU/LTM)
  kHierarchyAware = 8,       ///< value-hierarchy chain resolution
};

std::string_view FusionMethodToString(FusionMethod method);

struct PipelineConfig {
  PipelineConfig() {
    // The pipeline runs the full paper design, including automatic new-
    // entity creation from page headings (§3.1).
    dom_extractor.discover_entities = true;
  }

  uint64_t seed = 42;
  /// Classes to run (must exist in the world); empty = all.
  std::vector<std::string> classes;

  /// Web rendering volume per class.
  size_t sites_per_class = 3;
  size_t pages_per_site = 20;
  size_t articles_per_class = 30;
  /// Query stream volume (relevant records per class).
  size_t queries_per_class = 1500;
  size_t junk_queries = 3000;

  /// Per-channel value error rates: curated KBs are cleaner than scraped
  /// sites, which are cleaner than free text — the reliability gradient
  /// the unified confidence criterion encodes.
  double kb_error_rate = 0.05;
  double site_error_rate = 0.15;
  double text_error_rate = 0.25;

  /// Build the enhanced ontology (taxonomic knowledge extraction over an
  /// is-a corpus; §3.1) and type every entity against it.
  bool build_taxonomy = true;
  size_t taxonomy_sentences_per_entity = 3;

  extract::KbExtractorConfig kb_extractor;
  extract::QueryExtractorConfig query_extractor;
  extract::DomExtractorConfig dom_extractor;
  extract::TextExtractorConfig text_extractor;
  extract::EntityCreationConfig entity_creation;
  extract::TaxonomyExtractorConfig taxonomy;

  FusionMethod fusion = FusionMethod::kAccuConfidenceCopy;
  fusion::AccuConfig accu;
  /// Worker threads for the sharded stages (rendering, extraction, claim
  /// assembly, fusion, augmentation); 0 = one per hardware thread. Every
  /// worker count — including 1, the serial reference path — produces a
  /// bit-identical report.
  size_t num_workers = 0;

  /// Warm start: load the phase-1 claims KB from this binary snapshot
  /// (written by a previous run's save_kb_path) instead of rendering and
  /// extracting, and resume straight into fusion. The fused output is
  /// byte-identical to a cold run at the same seed and fusion config.
  /// Empty = cold run.
  std::string load_kb_path;
  /// After claim assembly, checkpoint the phase-1 claims KB to this path
  /// as a binary snapshot (see rdf/snapshot.h). Empty = no checkpoint.
  std::string save_kb_path;
  /// Wire format for save_kb_path; kV2, the page-aligned zero-copy serve
  /// image that KbView::FromSnapshot mmaps without parsing, is the only one.
  rdf::SnapshotFormat snapshot_format = rdf::SnapshotFormat::kV2;
};

/// Timing + volume of one pipeline stage.
struct StageStats {
  std::string name;
  double seconds = 0.0;
  size_t outputs = 0;  ///< stage-specific count (triples, attributes, ...)
};

/// Extraction / fusion quality of one class, measured against the world.
struct ClassQuality {
  std::string class_name;
  /// Attribute discovery across all extractors.
  size_t attributes_found = 0;
  double attribute_precision = 0.0;
  double attribute_recall = 0.0;
  /// Fused (entity, attribute, value) statements.
  size_t fused_triples = 0;
  double fused_precision = 0.0;
  /// Raw (pre-fusion) claim precision, for contrast.
  double raw_precision = 0.0;
  /// The augmentation payoff (the paper's goal): fused statements about
  /// (entity, attribute) items the existing KBs did NOT cover — knowledge
  /// the open-Web extractors added.
  size_t novel_triples = 0;
  double novel_precision = 0.0;
};

struct PipelineReport {
  /// Non-OK when a KB checkpoint failed to load or save (the pipeline
  /// stops at the failing stage; partial checkpoints never feed fusion).
  /// Pipeline stages themselves cannot fail.
  Status status;
  std::vector<StageStats> stages;
  std::vector<ClassQuality> quality;
  size_t total_claims = 0;
  size_t fused_triples = 0;
  size_t discovered_entities = 0;
  /// Enhanced-ontology stage: is-a edges harvested and the fraction of
  /// world entities whose most probable extracted category is their true
  /// class (0 when the stage is disabled).
  size_t taxonomy_edges = 0;
  double typing_accuracy = 0.0;
  double total_seconds = 0.0;

  /// What this run added to the process-global obs registry (counters and
  /// histograms are per-run deltas; gauges are end-of-run values). Export
  /// with metrics.ToJson() — `akb_cli pipeline --metrics-out=FILE`.
  obs::MetricsSnapshot metrics;

  /// Formats the report as text tables (stages, per-class quality, and a
  /// stats section from `metrics`).
  std::string ToString() const;
};

/// The label of a stage's latency histogram,
/// `akb.pipeline.stage_micros.<label>`: the stage name lowercased with each
/// run of other characters as one underscore ("DOM-tree extraction" ->
/// "dom_tree_extraction").
std::string StageMetricLabel(std::string_view stage_name);

/// Runs the full pipeline over (freshly rendered inputs of) `world`.
/// `augmented` (optional) receives the fused triples as an RDF store — the
/// paper's "attach to Freebase for KB augmentation".
PipelineReport RunPipeline(const synth::World& world,
                           const PipelineConfig& config,
                           rdf::TripleStore* augmented = nullptr);

}  // namespace akb::core

#endif  // AKB_CORE_PIPELINE_H_
