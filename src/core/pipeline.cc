#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table.h"
#include "extract/attribute_dedup.h"
#include "mapreduce/thread_pool.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "obs/trace.h"
#include "synth/taxonomy_gen.h"
#include "fusion/copy_detect.h"
#include "fusion/functionality.h"
#include "fusion/hierarchy_fusion.h"
#include "fusion/relation_fusion.h"
#include "fusion/vote.h"

namespace akb::core {

namespace {

using extract::ExtractedTriple;

// Generic KB profiles for arbitrary worlds: DBpedia-like takes the head of
// each class's attribute inventory, Freebase-like an overlapping tail, so
// combining them is strictly better than either (the Table 2 effect).
synth::KbProfile GenericProfile(const synth::World& world,
                                const std::vector<std::string>& classes,
                                bool dbpedia_like, uint64_t seed,
                                double error_rate) {
  synth::KbProfile profile;
  profile.kb_name = dbpedia_like ? "DBpediaSynth" : "FreebaseSynth";
  profile.seed = seed;
  for (const std::string& name : classes) {
    auto cls_id = world.FindClass(name);
    if (!cls_id) continue;
    size_t a = world.cls(*cls_id).attributes.size();
    synth::KbClassProfile cp;
    cp.class_name = name;
    if (dbpedia_like) {
      cp.attr_offset = 0;
      cp.instance_attributes = std::max<size_t>(1, a * 6 / 10);
      cp.declared_attributes = std::max<size_t>(1, a * 3 / 10);
    } else {
      cp.instance_attributes = std::max<size_t>(1, a * 35 / 100);
      size_t union_size = std::max<size_t>(1, a * 85 / 100);
      cp.attr_offset = union_size > cp.instance_attributes
                           ? union_size - cp.instance_attributes
                           : 0;
      cp.declared_attributes = std::max<size_t>(1, a / 10);
      cp.entity_coverage = 0.9;
      cp.fact_coverage = 0.4;
    }
    cp.error_rate = error_rate;
    profile.classes.push_back(std::move(cp));
  }
  return profile;
}

struct ItemMeta {
  std::string class_name;
  std::string entity;
  std::string attr_key;      ///< canonical identity (sorted-token key)
  std::string attr_display;  ///< first-seen surface, for readable IRIs
};

// ---------------------------------------------------------- KB checkpoint
//
// The phase-1 claims KB persists as a TripleStore snapshot: one claim per
// assembled fusion claim, with every string the assembly loop needs packed
// losslessly into literal terms ("<len>:<bytes>" fields, so hostile
// characters survive). Replaying the claims in order re-interns items,
// sources, and values in exactly the cold-run order, which is what makes
// the warm-started fusion byte-identical.
//
//   subject   = fields(class name, resolved entity)
//   predicate = fields(attribute key, attribute display surface)
//   object    = normalized value
//   provenance: source + confidence as assembled; extractor is kExistingKb
//               when the item was covered by the existing-KB channel
//               (novelty accounting), kOther otherwise.

std::string JoinFields(std::initializer_list<std::string_view> fields) {
  std::string out;
  for (std::string_view f : fields) {
    out += std::to_string(f.size());
    out += ':';
    out += f;
  }
  return out;
}

bool SplitFields(std::string_view packed, size_t expected,
                 std::vector<std::string>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < packed.size()) {
    size_t colon = packed.find(':', pos);
    if (colon == std::string_view::npos || colon == pos) return false;
    size_t len = 0;
    for (size_t i = pos; i < colon; ++i) {
      char c = packed[i];
      if (c < '0' || c > '9') return false;
      len = len * 10 + size_t(c - '0');
      if (len > packed.size()) return false;
    }
    pos = colon + 1;
    if (len > packed.size() - pos) return false;
    out->push_back(std::string(packed.substr(pos, len)));
    pos += len;
  }
  return out->size() == expected;
}

rdf::TripleStore EncodeClaimCheckpoint(
    const fusion::ClaimTable& table, const std::vector<ItemMeta>& item_meta,
    const std::unordered_set<std::string>& kb_items) {
  rdf::TripleStore store;
  for (const fusion::Claim& c : table.claims()) {
    const ItemMeta& meta = item_meta[c.item];
    bool kb_covered = kb_items.count(table.item_name(c.item)) > 0;
    store.InsertDecoded(
        rdf::Term::Literal(JoinFields({meta.class_name, meta.entity})),
        rdf::Term::Literal(JoinFields({meta.attr_key, meta.attr_display})),
        rdf::Term::Literal(table.value_name(c.value)),
        rdf::Provenance{table.source_name(c.source),
                        kb_covered ? rdf::ExtractorKind::kExistingKb
                                   : rdf::ExtractorKind::kOther,
                        c.confidence});
  }
  return store;
}

Status DecodeClaimCheckpoint(const rdf::TripleStore& store,
                             fusion::ClaimTable* table,
                             std::vector<ItemMeta>* item_meta,
                             std::unordered_set<std::string>* kb_items) {
  const rdf::Dictionary& dict = store.dictionary();
  std::unordered_map<std::string, size_t> meta_index;
  std::vector<std::string> subject_fields, predicate_fields;
  for (size_t i = 0; i < store.num_claims(); ++i) {
    const rdf::Claim& claim = store.claim(i);
    const rdf::Term& s = dict.Lookup(claim.triple.subject);
    const rdf::Term& p = dict.Lookup(claim.triple.predicate);
    const rdf::Term& o = dict.Lookup(claim.triple.object);
    if (s.kind != rdf::TermKind::kLiteral ||
        p.kind != rdf::TermKind::kLiteral ||
        o.kind != rdf::TermKind::kLiteral ||
        !SplitFields(s.lexical, 2, &subject_fields) ||
        !SplitFields(p.lexical, 2, &predicate_fields)) {
      return Status::DataLoss("claim " + std::to_string(i) +
                              " is not a pipeline KB checkpoint record");
    }
    std::string item = subject_fields[0] + "|" + subject_fields[1] + "|" +
                       predicate_fields[0];
    if (meta_index.count(item) == 0) {
      meta_index.emplace(item, item_meta->size());
      item_meta->push_back(ItemMeta{subject_fields[0], subject_fields[1],
                                    predicate_fields[0],
                                    predicate_fields[1]});
    }
    if (claim.provenance.extractor == rdf::ExtractorKind::kExistingKb) {
      kb_items->insert(item);
    }
    table->Add(std::move(item), claim.provenance.source, o.lexical,
               claim.provenance.confidence);
  }
  return Status::OK();
}

/// Shared by the checkpoint save and load stages: volume counters plus the
/// wire format version and per-section sizes.
void RecordSnapshotMetrics(const rdf::SnapshotStats& snap) {
  AKB_COUNTER_ADD("akb.snapshot.bytes", int64_t(snap.bytes));
  AKB_COUNTER_ADD("akb.snapshot.terms", int64_t(snap.terms));
  AKB_COUNTER_ADD("akb.snapshot.triples", int64_t(snap.triples));
  AKB_GAUGE_SET("akb.snapshot.format_version", int64_t(snap.version));
  AKB_COUNTER_ADD("akb.snapshot.dict_bytes", int64_t(snap.dict_bytes));
  AKB_COUNTER_ADD("akb.snapshot.triples_bytes", int64_t(snap.triples_bytes));
  AKB_COUNTER_ADD("akb.snapshot.index_bytes", int64_t(snap.index_bytes));
  AKB_COUNTER_ADD("akb.snapshot.claims_bytes", int64_t(snap.claims_bytes));
}

}  // namespace

std::string_view FusionMethodToString(FusionMethod method) {
  switch (method) {
    case FusionMethod::kVote:
      return "VOTE";
    case FusionMethod::kAccu:
      return "ACCU";
    case FusionMethod::kPopAccu:
      return "POPACCU";
    case FusionMethod::kAccuConfidence:
      return "ACCU+conf";
    case FusionMethod::kAccuConfidenceCopy:
      return "ACCU+conf+copy";
    case FusionMethod::kVoteConfidence:
      return "VOTE+conf";
    case FusionMethod::kRelation:
      return "RELATION";
    case FusionMethod::kHybrid:
      return "HYBRID";
    case FusionMethod::kHierarchyAware:
      return "HIER";
  }
  return "?";
}

std::string PipelineReport::ToString() const {
  std::string out;
  TextTable stages_table({"Stage", "Time (s)", "Outputs"});
  stages_table.set_title("Pipeline stages");
  for (const StageStats& s : stages) {
    stages_table.AddRow({s.name, FormatDouble(s.seconds, 3),
                         FormatWithCommas(static_cast<int64_t>(s.outputs))});
  }
  out += stages_table.ToString();
  out += "\n";

  TextTable quality_table({"Class", "Attrs found", "Attr P", "Attr R",
                           "Fused triples", "Fused P", "Raw P",
                           "Novel triples", "Novel P"});
  quality_table.set_title("Per-class quality vs world ground truth");
  for (const ClassQuality& q : quality) {
    quality_table.AddRow(
        {q.class_name, std::to_string(q.attributes_found),
         FormatDouble(q.attribute_precision, 3),
         FormatDouble(q.attribute_recall, 3), std::to_string(q.fused_triples),
         FormatDouble(q.fused_precision, 3), FormatDouble(q.raw_precision, 3),
         std::to_string(q.novel_triples),
         FormatDouble(q.novel_precision, 3)});
  }
  out += quality_table.ToString();
  out += "\nTotal claims: " + FormatWithCommas(int64_t(total_claims)) +
         ", fused triples: " + FormatWithCommas(int64_t(fused_triples)) +
         ", discovered entities: " +
         FormatWithCommas(int64_t(discovered_entities)) +
         ", taxonomy edges: " + FormatWithCommas(int64_t(taxonomy_edges)) +
         " (typing accuracy " + FormatDouble(typing_accuracy, 3) +
         "), total time: " + FormatDouble(total_seconds, 3) + "s\n";
  if (!metrics.entries.empty()) {
    out += "\n";
    out += metrics.ToTable();
  }
  return out;
}

std::string StageMetricLabel(std::string_view stage_name) {
  return ReplaceAll(NormalizeSurface(stage_name), " ", "_");
}

PipelineReport RunPipeline(const synth::World& world,
                           const PipelineConfig& config,
                           rdf::TripleStore* augmented) {
  PipelineReport report;
  Stopwatch total;
  Rng rng(config.seed);
  obs::MetricsSnapshot metrics_before = obs::MetricsRegistry::Global().Snapshot();
  AKB_COUNTER_INC("akb.pipeline.runs");
  obs::ScopedSpan run_span("pipeline.run");

  std::vector<std::string> classes = config.classes;
  if (classes.empty()) {
    for (const auto& wc : world.classes()) classes.push_back(wc.name);
  }

  // One long-lived shared pool serves every sharded stage of this run —
  // and every MapReduce job and fusion round loop inside it, so round
  // barriers reuse warm workers instead of respawning threads (the
  // per-caller TaskGroup barrier in ParallelFor is the stage fence).
  // Every parallel section below either writes disjoint, order-indexed
  // slots or merges with order-insensitive operations, so the report is
  // bit-identical at every worker count — the serial reference path is
  // pool == nullptr.
  size_t workers =
      config.num_workers
          ? config.num_workers
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  mapreduce::ThreadPool* pool =
      workers > 1 ? mapreduce::SharedPool(workers) : nullptr;
  size_t chunks = std::max<size_t>(1, workers * 4);
  AKB_GAUGE_SET("akb.pipeline.workers", int64_t(workers));

  // One latency histogram per stage, named by the stage's slug
  // ("DOM-tree extraction" -> akb.pipeline.stage_micros.dom_tree_extraction).
  static obs::HistogramFamily stage_micros("akb.pipeline.stage_micros.");
  auto stage = [&](const std::string& name, auto&& fn) {
    obs::ScopedSpan span("pipeline." + name);
    Stopwatch watch;
    size_t outputs = fn();
    stage_micros.Record(StageMetricLabel(name), watch.ElapsedMicros());
    report.stages.push_back(StageStats{name, watch.ElapsedSeconds(), outputs});
  };
  auto finalize = [&] {
    report.total_seconds = total.ElapsedSeconds();
    report.metrics =
        obs::MetricsRegistry::Global().Snapshot().DiffFrom(metrics_before);
  };

  // Cross-phase state: fusion and the final evaluation consume these
  // whether extraction produced them (cold run) or a checkpoint did (warm
  // start).
  extract::KbExtraction combined;
  extract::QueryExtraction query_extraction;
  std::vector<extract::DomExtraction> dom_extractions(classes.size());
  std::vector<extract::TextExtraction> text_extractions(classes.size());
  fusion::ClaimTable table;
  std::vector<ItemMeta> item_meta;
  // Items the existing-KB channel covered; fused statements outside this
  // set are *novel* knowledge (the augmentation payoff).
  std::unordered_set<std::string> kb_items;

  const bool warm_start = !config.load_kb_path.empty();
  if (warm_start) {
    // ---------- Warm start: resume from a phase-1 claims checkpoint.
    stage("load KB checkpoint", [&]() -> size_t {
      rdf::TripleStore checkpoint;
      rdf::SnapshotStats snap;
      Status s;
      {
        obs::ScopedSpan span("snapshot.load");
        Stopwatch watch;
        s = checkpoint.LoadSnapshot(config.load_kb_path, &snap);
        AKB_HISTOGRAM_RECORD("akb.snapshot.load_micros",
                             watch.ElapsedMicros());
      }
      if (s.ok()) {
        RecordSnapshotMetrics(snap);
        s = DecodeClaimCheckpoint(checkpoint, &table, &item_meta, &kb_items);
      }
      if (!s.ok()) {
        report.status =
            Status(s.code(), "loading KB checkpoint '" +
                                 config.load_kb_path + "': " + s.message());
        return 0;
      }
      AKB_COUNTER_ADD("akb.pipeline.claims", int64_t(table.num_claims()));
      report.total_claims = table.num_claims();
      return table.num_claims();
    });
    if (!report.status.ok()) {
      finalize();
      return report;
    }
  }

  if (!warm_start) {
    // ---------- Render the paper's four source types from the world.
    synth::KbSnapshot dbpedia, freebase;
    std::vector<std::vector<synth::WebSite>> sites_per_class(classes.size());
    std::vector<std::vector<synth::TextArticle>> articles_per_class(
        classes.size());
    std::vector<synth::QueryRecord> query_log;

    stage("render inputs", [&] {
      // Every seed is drawn up front from the single master RNG, in the same
      // order the serial pipeline drew them, so the rendered bytes do not
      // depend on task scheduling.
      synth::KbProfile dbpedia_profile = GenericProfile(
          world, classes, true, rng.NextU64(), config.kb_error_rate);
      synth::KbProfile freebase_profile = GenericProfile(
          world, classes, false, rng.NextU64(), config.kb_error_rate);
      std::vector<synth::SiteConfig> site_configs(classes.size());
      std::vector<synth::TextConfig> text_configs(classes.size());
      for (size_t c = 0; c < classes.size(); ++c) {
        site_configs[c].class_name = classes[c];
        site_configs[c].num_sites = config.sites_per_class;
        site_configs[c].pages_per_site = config.pages_per_site;
        site_configs[c].value_error_rate = config.site_error_rate;
        site_configs[c].seed = rng.NextU64();
        text_configs[c].class_name = classes[c];
        text_configs[c].num_articles = config.articles_per_class;
        text_configs[c].value_error_rate = config.text_error_rate;
        text_configs[c].seed = rng.NextU64();
      }
      synth::QueryLogConfig query_config;
      query_config.seed = rng.NextU64();
      size_t relevant_total = 0;
      for (const std::string& name : classes) {
        auto cls_id = world.FindClass(name);
        if (!cls_id) continue;
        synth::QueryClassConfig qc;
        qc.class_name = name;
        qc.relevant_records = config.queries_per_class;
        qc.queried_attributes = std::max<size_t>(
            5, world.cls(*cls_id).attributes.size() / 2);
        query_config.classes.push_back(qc);
        relevant_total += qc.relevant_records;
      }
      query_config.total_records = relevant_total + config.junk_queries;

      // Fan out: the two KBs, the query log, and one (class, range) shard
      // per worker-sized slice of each class's sites and articles. Each
      // shard writes its own slot; per class, slots concatenate in range
      // order, which the range-generation APIs guarantee equals a full
      // serial render.
      struct RenderShard {
        size_t cls;
        size_t begin;
        size_t end;
        bool text;
      };
      std::vector<RenderShard> render_shards;
      for (size_t c = 0; c < classes.size(); ++c) {
        size_t n = site_configs[c].num_sites;
        size_t pieces = std::max<size_t>(1, std::min(n, workers));
        size_t per = n ? (n + pieces - 1) / pieces : 0;
        for (size_t b = 0; b < n; b += per) {
          render_shards.push_back({c, b, std::min(n, b + per), false});
        }
        n = text_configs[c].num_articles;
        pieces = std::max<size_t>(1, std::min(n, workers));
        per = n ? (n + pieces - 1) / pieces : 0;
        for (size_t b = 0; b < n; b += per) {
          render_shards.push_back({c, b, std::min(n, b + per), true});
        }
      }
      std::vector<std::vector<synth::WebSite>> site_parts(
          render_shards.size());
      std::vector<std::vector<synth::TextArticle>> article_parts(
          render_shards.size());
      AKB_COUNTER_ADD("akb.pipeline.shards",
                      int64_t(render_shards.size() + 3));
      mapreduce::ParallelFor(
          pool, render_shards.size() + 3,
          [&](size_t t) {
            Stopwatch shard_watch;
            if (t == 0) {
              dbpedia = synth::GenerateKb(world, dbpedia_profile);
            } else if (t == 1) {
              freebase = synth::GenerateKb(world, freebase_profile);
            } else if (t == 2) {
              query_log = synth::GenerateQueryLog(world, query_config);
            } else {
              const RenderShard& shard = render_shards[t - 3];
              if (shard.text) {
                article_parts[t - 3] = synth::GenerateArticleRange(
                    world, text_configs[shard.cls], shard.begin, shard.end);
              } else {
                site_parts[t - 3] = synth::GenerateSiteRange(
                    world, site_configs[shard.cls], shard.begin, shard.end);
              }
            }
            AKB_HISTOGRAM_RECORD("akb.pipeline.shard_micros",
                                 shard_watch.ElapsedMicros());
          },
          /*grain=*/1);  // shards are heavy and uneven; never chunk them
      for (size_t i = 0; i < render_shards.size(); ++i) {
        size_t c = render_shards[i].cls;
        for (auto& article : article_parts[i]) {
          articles_per_class[c].push_back(std::move(article));
        }
        for (auto& site : site_parts[i]) {
          sites_per_class[c].push_back(std::move(site));
        }
      }

      size_t outputs = dbpedia.TotalFacts() + freebase.TotalFacts();
      size_t pages_rendered = 0, articles_rendered = 0;
      for (size_t c = 0; c < classes.size(); ++c) {
        for (const auto& site : sites_per_class[c]) {
          outputs += site.pages.size();
          pages_rendered += site.pages.size();
        }
        outputs += articles_per_class[c].size();
        articles_rendered += articles_per_class[c].size();
      }
      AKB_COUNTER_ADD("akb.pipeline.pages_rendered", int64_t(pages_rendered));
      AKB_COUNTER_ADD("akb.pipeline.articles_rendered",
                      int64_t(articles_rendered));
      outputs += query_log.size();
      AKB_COUNTER_ADD("akb.pipeline.query_log_lines", int64_t(query_log.size()));
      return outputs;
    });

    // ---------- Knowledge extraction phase.
    // (1) Existing KBs.
    extract::ExistingKbExtractor kb_extractor(config.kb_extractor);
    std::vector<ExtractedTriple> all_triples;
    stage("existing-KB extraction", [&] {
      // Combine and the two triple extractions are independent read-only
      // passes over the snapshots; the triples append in fixed order after
      // the barrier.
      std::vector<ExtractedTriple> t1, t2;
      mapreduce::ParallelFor(pool, 3, [&](size_t t) {
        if (t == 0) {
          combined = kb_extractor.Combine({&dbpedia, &freebase});
        } else if (t == 1) {
          t1 = kb_extractor.ExtractTriples(dbpedia);
        } else {
          t2 = kb_extractor.ExtractTriples(freebase);
        }
      });
      all_triples.insert(all_triples.end(), t1.begin(), t1.end());
      all_triples.insert(all_triples.end(), t2.begin(), t2.end());
      size_t attrs = 0;
      for (const auto& c : combined.classes) attrs += c.attributes.size();
      return attrs;
    });

    // Entity sets: the paper specifies classes by representative entities of
    // Freebase.
    std::vector<std::vector<std::string>> entity_names(classes.size());
    for (size_t c = 0; c < classes.size(); ++c) {
      std::unordered_set<std::string> names;
      for (const auto* kb : {&freebase, &dbpedia}) {
        const synth::KbClass* kc = kb->FindClass(classes[c]);
        if (kc == nullptr) continue;
        for (const std::string& n : kc->entity_names) names.insert(n);
      }
      entity_names[c].assign(names.begin(), names.end());
      std::sort(entity_names[c].begin(), entity_names[c].end());
    }

    // (2) Query stream.
    extract::QueryStreamExtractor query_extractor(config.query_extractor);
    for (size_t c = 0; c < classes.size(); ++c) {
      query_extractor.AddClass(classes[c], entity_names[c]);
    }
    stage("query-stream extraction", [&] {
      std::vector<std::string> queries;
      queries.reserve(query_log.size());
      for (const auto& record : query_log) queries.push_back(record.query);
      query_extraction = query_extractor.ExtractSharded(queries, pool);
      size_t attrs = 0;
      for (const auto& c : query_extraction.classes) {
        attrs += c.credible_attributes.size();
      }
      return attrs;
    });

    // Seeds per class: KB-combined union query-stream attributes.
    std::vector<std::vector<std::string>> seeds(classes.size());
    for (size_t c = 0; c < classes.size(); ++c) {
      if (const auto* kc = combined.FindClass(classes[c])) {
        for (const auto& a : kc->attributes) seeds[c].push_back(a.surface);
      }
      if (const auto* qc = query_extraction.FindClass(classes[c])) {
        for (const auto& a : qc->credible_attributes) {
          seeds[c].push_back(a.surface);
        }
      }
    }

    // (3) DOM trees.
    extract::DomTreeExtractor dom_extractor(config.dom_extractor);
    stage("DOM-tree extraction", [&] {
      // Map: every (class, site) pair is one task — flattening classes and
      // sites into one fan-out keeps all workers busy even when a class has
      // few sites. Reduce: per-class ordered merge.
      std::vector<std::pair<size_t, size_t>> units;  // (class, site)
      std::vector<std::vector<extract::DomExtraction>> site_shards(
          classes.size());
      for (size_t c = 0; c < classes.size(); ++c) {
        site_shards[c].resize(sites_per_class[c].size());
        for (size_t s = 0; s < sites_per_class[c].size(); ++s) {
          units.emplace_back(c, s);
        }
      }
      AKB_COUNTER_ADD("akb.pipeline.shards", int64_t(units.size()));
      mapreduce::ParallelFor(pool, units.size(), [&](size_t u) {
        auto [c, s] = units[u];
        Stopwatch shard_watch;
        // One span per site, so a trace names the straggler site.
        obs::ScopedSpan span("extract.dom." + classes[c] + "." +
                             sites_per_class[c][s].domain);
        site_shards[c][s] = dom_extractor.ExtractSite(
            sites_per_class[c][s], entity_names[c], seeds[c]);
        AKB_HISTOGRAM_RECORD("akb.pipeline.shard_micros",
                             shard_watch.ElapsedMicros());
      }, /*grain=*/1);
      size_t outputs = 0;
      for (size_t c = 0; c < classes.size(); ++c) {
        dom_extractions[c] = dom_extractor.MergeSiteExtractions(
            std::move(site_shards[c]), seeds[c]);
        outputs += dom_extractions[c].new_attributes.size();
        all_triples.insert(all_triples.end(),
                           dom_extractions[c].triples.begin(),
                           dom_extractions[c].triples.end());
      }
      return outputs;
    });

    // (4) Web texts.
    extract::WebTextExtractor text_extractor(config.text_extractor);
    stage("Web-text extraction", [&] {
      // One map task per class (the extractor's deduper grows across a
      // class's sentences in order, so a class is the finest deterministic
      // shard); triples append in class order after the barrier.
      AKB_COUNTER_ADD("akb.pipeline.shards", int64_t(classes.size()));
      mapreduce::ParallelFor(pool, classes.size(), [&](size_t c) {
        Stopwatch shard_watch;
        obs::ScopedSpan span("extract.text." + classes[c]);
        std::vector<std::string> documents, source_names;
        for (const auto& article : articles_per_class[c]) {
          documents.push_back(article.text);
          source_names.push_back(article.source);
        }
        text_extractions[c] = text_extractor.Extract(
            classes[c], documents, source_names, entity_names[c], seeds[c]);
        AKB_HISTOGRAM_RECORD("akb.pipeline.shard_micros",
                             shard_watch.ElapsedMicros());
      }, /*grain=*/1);
      size_t outputs = 0;
      for (size_t c = 0; c < classes.size(); ++c) {
        outputs += text_extractions[c].new_attributes.size();
        all_triples.insert(all_triples.end(),
                           text_extractions[c].triples.begin(),
                           text_extractions[c].triples.end());
      }
      return outputs;
    });

    // (5) New entity creation (joint linking + discovery, MapReduce). The
    // job's output is sorted by cluster key, so the worker count is free.
    extract::EntityCreationConfig entity_creation_config =
        config.entity_creation;
    entity_creation_config.num_workers = workers;
    entity_creation_config.pool = pool;
    extract::EntityCreator entity_creator(entity_creation_config);
    extract::EntityResolution resolution;
    stage("entity creation", [&] {
      std::vector<std::string> kb_names;
      for (const auto& names : entity_names) {
        kb_names.insert(kb_names.end(), names.begin(), names.end());
      }
      resolution = entity_creator.Run(all_triples, kb_names);
      report.discovered_entities = resolution.discovered_entities;
      return resolution.entities.size();
    });

    // (6) Enhanced ontology: taxonomic extraction + entity typing (§3.1).
    if (config.build_taxonomy) {
      stage("taxonomy extraction", [&] {
        synth::TaxonomyCorpusConfig taxo_config;
        taxo_config.sentences_per_entity = config.taxonomy_sentences_per_entity;
        taxo_config.seed = config.seed ^ 0x5bd1e995ull;
        auto docs = synth::GenerateTaxonomyCorpus(world, taxo_config);
        std::vector<std::string> texts;
        for (const auto& doc : docs) texts.push_back(doc.text);
        extract::TaxonomyExtractor taxonomy_extractor(config.taxonomy);
        auto taxonomy = taxonomy_extractor.Extract(texts);
        report.taxonomy_edges = taxonomy.edges.size();
        size_t typed = 0, correct = 0;
        for (const std::string& name : classes) {
          auto cls_id = world.FindClass(name);
          if (!cls_id) continue;
          std::string category = synth::CategoryNameOf(name);
          for (const auto& entity : world.cls(*cls_id).entities) {
            ++typed;
            if (taxonomy.BestCategoryOf(entity.name) == category) ++correct;
          }
        }
        report.typing_accuracy =
            typed ? static_cast<double>(correct) / typed : 0.0;
        return taxonomy.edges.size();
      });
    }

    // ---------- Knowledge fusion phase.
    stage("claim assembly", [&] {
      // The per-triple string work (entity resolution, attribute
      // canonicalization, value normalization) is pure, so it precomputes in
      // parallel ranges into per-triple slots; the id-assigning intern loop
      // then runs serially over the prepared rows in triple order, which
      // fixes every ItemId/SourceId/ValueId independent of scheduling.
      struct PreparedClaim {
        std::string entity;
        std::string attr_key;
        std::string value;
        std::string item;
      };
      std::vector<PreparedClaim> prepared(all_triples.size());
      mapreduce::ParallelForRanges(
          pool, all_triples.size(), chunks,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              const ExtractedTriple& t = all_triples[i];
              PreparedClaim& p = prepared[i];
              p.entity = t.entity;
              size_t resolved = resolution.Resolve(p.entity);
              if (resolved != SIZE_MAX) {
                p.entity = resolution.entities[resolved].name;
              }
              p.attr_key = extract::AttributeKey(t.attribute);
              p.item = t.class_name + "|" + p.entity + "|" + p.attr_key;
              // Same value normalization as ClaimTable::FromTriples.
              p.value = NormalizeSurface(t.value);
            }
          });
      std::unordered_map<std::string, size_t> meta_index;
      std::unordered_map<rdf::ExtractorKind, size_t> claims_by_extractor;
      for (size_t i = 0; i < all_triples.size(); ++i) {
        const ExtractedTriple& t = all_triples[i];
        PreparedClaim& p = prepared[i];
        ++claims_by_extractor[t.extractor];
        if (!meta_index.count(p.item)) {
          meta_index.emplace(p.item, item_meta.size());
          item_meta.push_back(
              ItemMeta{t.class_name, p.entity, p.attr_key, t.attribute});
        }
        if (t.extractor == rdf::ExtractorKind::kExistingKb) {
          kb_items.insert(p.item);
        }
        table.Add(std::move(p.item), t.source, std::move(p.value),
                  t.confidence);
      }
      static obs::CounterFamily claims_family("akb.pipeline.claims.");
      for (const auto& [kind, count] : claims_by_extractor) {
        claims_family.Add(rdf::ExtractorKindToString(kind), int64_t(count));
      }
      AKB_COUNTER_ADD("akb.pipeline.claims", int64_t(table.num_claims()));
      report.total_claims = table.num_claims();
      return table.num_claims();
    });
  }  // !warm_start: rendering, extraction, and claim assembly

  if (!config.save_kb_path.empty()) {
    // ---------- Checkpoint the phase-1 claims KB (works after either a
    // cold claim assembly or a warm-start load, so checkpoints can be
    // re-saved / migrated).
    stage("save KB checkpoint", [&]() -> size_t {
      rdf::TripleStore checkpoint;
      {
        obs::ScopedSpan span("checkpoint.encode");
        checkpoint = EncodeClaimCheckpoint(table, item_meta, kb_items);
      }
      rdf::SnapshotStats snap;
      Status s;
      {
        obs::ScopedSpan span("snapshot.save");
        Stopwatch watch;
        s = checkpoint.SaveSnapshot(config.save_kb_path,
                                    config.snapshot_format, &snap);
        AKB_HISTOGRAM_RECORD("akb.snapshot.save_micros",
                             watch.ElapsedMicros());
      }
      if (!s.ok()) {
        report.status =
            Status(s.code(), "saving KB checkpoint '" +
                                 config.save_kb_path + "': " + s.message());
        return 0;
      }
      RecordSnapshotMetrics(snap);
      return size_t(snap.claims);
    });
    if (!report.status.ok()) {
      finalize();
      return report;
    }
  }

  fusion::FusionOutput output;
  stage(std::string("fusion [") +
            std::string(FusionMethodToString(config.fusion)) + "]",
        [&] {
          // Every family shards by item (ACCU synchronizes only at round
          // barriers), so the worker count never changes the output.
          switch (config.fusion) {
            case FusionMethod::kVote: {
              fusion::VoteConfig vote;
              vote.num_workers = workers;
              vote.pool = pool;
              output = fusion::Vote(table, vote);
              break;
            }
            case FusionMethod::kAccu: {
              fusion::AccuConfig accu = config.accu;
              accu.num_workers = workers;
              accu.pool = pool;
              output = fusion::Accu(table, accu);
              break;
            }
            case FusionMethod::kPopAccu: {
              fusion::AccuConfig accu = config.accu;
              accu.popularity = true;
              accu.num_workers = workers;
              accu.pool = pool;
              output = fusion::Accu(table, accu);
              break;
            }
            case FusionMethod::kAccuConfidence: {
              fusion::AccuConfig accu = config.accu;
              accu.use_confidence = true;
              accu.num_workers = workers;
              accu.pool = pool;
              output = fusion::Accu(table, accu);
              break;
            }
            case FusionMethod::kAccuConfidenceCopy: {
              fusion::AccuConfig accu = config.accu;
              accu.use_confidence = true;
              accu.num_workers = workers;
              accu.pool = pool;
              fusion::CopyDetectConfig copy_config;
              copy_config.num_workers = workers;
              copy_config.pool = pool;
              fusion::CopyDetection copies =
                  fusion::DetectCopying(table, copy_config);
              accu.source_weights = copies.independence;
              output = fusion::Accu(table, accu);
              break;
            }
            case FusionMethod::kVoteConfidence: {
              fusion::VoteConfig vote;
              vote.use_confidence = true;
              vote.num_workers = workers;
              vote.pool = pool;
              output = fusion::Vote(table, vote);
              break;
            }
            case FusionMethod::kRelation:
              output = fusion::RelationFuse(table);
              break;
            case FusionMethod::kHybrid:
              // Item keys are "class|entity|attribute key": route by the
              // attribute's estimated functionality degree.
              output = fusion::HybridFuse(table);
              break;
            case FusionMethod::kHierarchyAware: {
              // Location-valued items resolve against the world's value
              // hierarchy; flat items fall back to voting.
              fusion::HierarchyFusionConfig hconfig;
              hconfig.use_confidence = true;
              output = fusion::HierarchyFuse(table, world.hierarchy(),
                                             hconfig);
              break;
            }
          }
          return output.beliefs.size();
        });

  // Export per-source estimated quality (Accu accuracy / RelationFuse
  // precision; empty for plain Vote) as ppm gauges so statusz can report
  // which sources the fuser trusts without re-running fusion.
  if (!output.source_quality.empty()) {
    static obs::GaugeFamily quality_family(
        std::string(obs::kFusionSourceQualityPrefix));
    for (size_t i = 0; i < output.source_quality.size(); ++i) {
      quality_family.Set(table.source_name(fusion::SourceId(i)),
                         int64_t(output.source_quality[i] * 1e6));
    }
  }

  // ---------- KB augmentation + evaluation against the world.
  // World-side lookups: AttributeKey(spec name) -> id; entity name -> id.
  struct WorldIndex {
    std::unordered_map<std::string, synth::AttributeId> attrs;
    std::unordered_map<std::string, synth::EntityId> entities;
    synth::ClassId cls = 0;
    bool valid = false;
  };
  std::unordered_map<std::string, WorldIndex> world_index;
  for (const std::string& name : classes) {
    auto cls_id = world.FindClass(name);
    if (!cls_id) continue;
    WorldIndex index;
    index.cls = *cls_id;
    index.valid = true;
    const synth::WorldClass& wc = world.cls(*cls_id);
    for (synth::AttributeId a = 0; a < wc.attributes.size(); ++a) {
      index.attrs.emplace(extract::AttributeKey(wc.attributes[a].name), a);
    }
    for (synth::EntityId e = 0; e < wc.entities.size(); ++e) {
      index.entities.emplace(NormalizeSurface(wc.entities[e].name), e);
    }
    world_index.emplace(name, std::move(index));
  }

  auto value_is_true = [&](const ItemMeta& meta,
                           const std::string& value) -> int {
    auto wi = world_index.find(meta.class_name);
    if (wi == world_index.end()) return -1;
    auto a = wi->second.attrs.find(meta.attr_key);
    auto e = wi->second.entities.find(NormalizeSurface(meta.entity));
    if (a == wi->second.attrs.end() || e == wi->second.entities.end()) {
      return -1;  // hallucinated attribute or entity: count as wrong
    }
    return world.IsTrueValue(wi->second.cls, e->second, a->second, value) ? 1
                                                                          : 0;
  };

  stage("KB augmentation", [&] {
    size_t emitted = 0;
    size_t novel_emitted = 0;
    // Per class accumulators.
    std::unordered_map<std::string, ClassQuality> quality;
    for (const std::string& name : classes) {
      quality[name].class_name = name;
    }
    std::unordered_map<std::string, std::pair<size_t, size_t>> fused_counts,
        raw_counts, novel_counts;  // class -> (correct, total)

    // Truth lookups against the world (hash probes + value matching) are
    // read-only, so both verdict passes shard into disjoint slots; the
    // counting and the store inserts stay serial in item order, keeping
    // the augmented store's triple order scheduling-independent.
    struct FusedVerdict {
      fusion::ValueId value;
      int truth;
    };
    std::vector<std::vector<FusedVerdict>> fused_verdicts(table.num_items());
    mapreduce::ParallelForRanges(
        pool, table.num_items(), chunks,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const ItemMeta& meta = item_meta[i];
            for (fusion::ValueId v :
                 output.TruthsOf(static_cast<fusion::ItemId>(i))) {
              fused_verdicts[i].push_back(
                  FusedVerdict{v, value_is_true(meta, table.value_name(v))});
            }
          }
        });
    std::vector<int8_t> raw_truth(table.claims().size());
    mapreduce::ParallelForRanges(
        pool, table.claims().size(), chunks,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const fusion::Claim& claim = table.claims()[i];
            raw_truth[i] = static_cast<int8_t>(value_is_true(
                item_meta[claim.item], table.value_name(claim.value)));
          }
        });

    for (fusion::ItemId i = 0; i < table.num_items(); ++i) {
      const ItemMeta& meta = item_meta[i];
      bool novel = kb_items.count(table.item_name(i)) == 0;
      for (const FusedVerdict& verdict : fused_verdicts[i]) {
        const std::string& value = table.value_name(verdict.value);
        ++emitted;
        auto& counts = fused_counts[meta.class_name];
        ++counts.second;
        if (verdict.truth == 1) ++counts.first;
        if (novel) {
          ++novel_emitted;
          auto& nc = novel_counts[meta.class_name];
          ++nc.second;
          if (verdict.truth == 1) ++nc.first;
        }
        if (augmented != nullptr) {
          augmented->InsertDecoded(
              rdf::Term::Iri(
                  rdf::EntityIri(meta.class_name, meta.entity)),
              rdf::Term::Iri(
                  rdf::AttributeIri(meta.class_name, meta.attr_display)),
              rdf::Term::Literal(value),
              rdf::Provenance{"fusion", rdf::ExtractorKind::kFusion, 1.0});
        }
      }
    }
    for (size_t i = 0; i < table.claims().size(); ++i) {
      const fusion::Claim& claim = table.claims()[i];
      const ItemMeta& meta = item_meta[claim.item];
      auto& counts = raw_counts[meta.class_name];
      ++counts.second;
      if (raw_truth[i] == 1) ++counts.first;
    }

    // Attribute discovery quality: union of all extractors' attributes.
    for (size_t c = 0; c < classes.size(); ++c) {
      auto wi = world_index.find(classes[c]);
      if (wi == world_index.end()) continue;
      std::unordered_set<std::string> found;
      if (const auto* kc = combined.FindClass(classes[c])) {
        for (const auto& a : kc->attributes) {
          found.insert(extract::AttributeKey(a.surface));
        }
      }
      if (const auto* qc = query_extraction.FindClass(classes[c])) {
        for (const auto& a : qc->credible_attributes) {
          found.insert(extract::AttributeKey(a.surface));
        }
      }
      for (const auto& a : dom_extractions[c].new_attributes) {
        found.insert(extract::AttributeKey(a.surface));
      }
      for (const auto& a : text_extractions[c].new_attributes) {
        found.insert(extract::AttributeKey(a.surface));
      }
      size_t correct = 0;
      for (const std::string& key : found) {
        if (wi->second.attrs.count(key)) ++correct;
      }
      ClassQuality& q = quality[classes[c]];
      q.attributes_found = found.size();
      q.attribute_precision =
          found.empty() ? 0.0
                        : static_cast<double>(correct) / found.size();
      q.attribute_recall =
          wi->second.attrs.empty()
              ? 0.0
              : static_cast<double>(correct) / wi->second.attrs.size();
      auto fc = fused_counts[classes[c]];
      q.fused_triples = fc.second;
      q.fused_precision =
          fc.second ? static_cast<double>(fc.first) / fc.second : 0.0;
      auto rc = raw_counts[classes[c]];
      q.raw_precision =
          rc.second ? static_cast<double>(rc.first) / rc.second : 0.0;
      auto nc = novel_counts[classes[c]];
      q.novel_triples = nc.second;
      q.novel_precision =
          nc.second ? static_cast<double>(nc.first) / nc.second : 0.0;
    }
    for (const std::string& name : classes) {
      report.quality.push_back(quality[name]);
    }
    AKB_COUNTER_ADD("akb.pipeline.triples_fused", int64_t(emitted));
    AKB_COUNTER_ADD("akb.pipeline.triples_novel", int64_t(novel_emitted));
    report.fused_triples = emitted;
    return emitted;
  });

  AKB_HISTOGRAM_RECORD("akb.pipeline.run_micros", total.ElapsedMicros());
  finalize();
  return report;
}

}  // namespace akb::core
