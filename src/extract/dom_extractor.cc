#include "extract/dom_extractor.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/string_util.h"
#include "extract/row_harvest.h"
#include "html/dom.h"
#include "obs/metrics.h"
#include "text/tokenize.h"

namespace akb::extract {

namespace {

// Candidate label sanity filters (structure can match accidentally; the
// text must still look like an attribute name).
bool LabelTextAcceptable(const std::string& text, size_t max_tokens) {
  auto tokens = text::TokenizeWords(text);
  if (tokens.empty() || tokens.size() > max_tokens) return false;
  bool all_digits = true;
  for (const auto& token : tokens) {
    if (!IsDigits(token)) all_digits = false;
  }
  return !all_digits;
}

}  // namespace

DomExtraction DomTreeExtractor::Extract(
    const std::vector<synth::WebSite>& sites,
    const std::vector<std::string>& entity_names,
    const std::vector<std::string>& seed_attributes) const {
  std::vector<const synth::WebSite*> ptrs;
  ptrs.reserve(sites.size());
  for (const synth::WebSite& site : sites) ptrs.push_back(&site);
  return ExtractSites(ptrs, entity_names, seed_attributes);
}

DomExtraction DomTreeExtractor::ExtractSites(
    const std::vector<const synth::WebSite*>& sites,
    const std::vector<std::string>& entity_names,
    const std::vector<std::string>& seed_attributes) const {
  DomExtraction out;
  if (!sites.empty()) out.class_name = sites.front()->class_name;

  // Normalized entity set for entity-node recognition.
  std::unordered_map<std::string, std::string> entities;  // norm -> name
  for (const std::string& name : entity_names) {
    entities.emplace(NormalizeSurface(name), name);
  }

  // The growing seed set A_T. The deduper holds seeds and discoveries; we
  // remember which clusters were input seeds to report only *new* ones.
  AttributeDeduper dedup(config_.dedup);
  for (const std::string& seed : seed_attributes) dedup.Add(seed);
  size_t input_clusters = dedup.num_clusters();

  std::map<size_t, DomAttribute> discovered;  // cluster -> evidence
  // Per-triple anchor quality (1.0 for known-entity pages, reduced for
  // candidate-entity pages), parallel to out.triples until the dedup pass.
  std::vector<double> triple_quality;

  for (const synth::WebSite* site_ptr : sites) {
    const synth::WebSite& site = *site_ptr;
    if (config_.attribute_budget &&
        dedup.num_clusters() >= config_.attribute_budget) {
      break;
    }
    // Parse every page of the site once.
    std::vector<html::Document> docs;
    docs.reserve(site.pages.size());
    for (const auto& page : site.pages) {
      docs.push_back(html::ParseHtml(page.html));
      ++out.stats.pages_total;
    }

    bool grew = true;
    for (size_t pass = 0; pass < config_.max_passes_per_site && grew; ++pass) {
      grew = false;
      ++out.stats.passes;

      for (size_t p = 0; p < docs.size(); ++p) {
        RowHarvester rows(docs[p]);
        const std::vector<const html::Node*>& texts = rows.texts();

        // --- Classify entity vs non-entity nodes; pick the deepest entity
        // node as the anchor E. Text nodes are named by their index in
        // `texts`, which is what the row harvest takes.
        const html::Node* anchor = nullptr;
        std::string anchor_entity;
        bool anchor_is_candidate = false;
        std::vector<size_t> non_entity;
        for (size_t t = 0; t < texts.size(); ++t) {
          const html::Node* node = texts[t];
          std::string norm = NormalizeSurface(node->text());
          auto it = entities.find(norm);
          if (it != entities.end()) {
            if (anchor == nullptr || node->Depth() > anchor->Depth()) {
              anchor = node;
              anchor_entity = it->second;
            }
          } else {
            non_entity.push_back(t);
          }
        }
        if (anchor == nullptr && config_.discover_entities) {
          // Entity-discovery fallback: the page's main heading names the
          // page's subject. The heading text becomes a *candidate* entity.
          for (size_t t = 0; t < texts.size(); ++t) {
            const html::Node* node = texts[t];
            if (node->parent() != nullptr && node->parent()->is_element() &&
                node->parent()->tag() == "h1") {
              anchor = node;
              anchor_entity = std::string(Trim(node->text()));
              anchor_is_candidate = true;
              // The anchor is no longer a non-entity node.
              non_entity.erase(
                  std::remove(non_entity.begin(), non_entity.end(), t),
                  non_entity.end());
              break;
            }
          }
          if (anchor != nullptr && pass == 0) {
            ++out.stats.pages_with_candidate_anchor;
            out.candidate_entities.push_back(anchor_entity);
          }
        }
        if (pass == 0) {
          if (anchor != nullptr && !anchor_is_candidate) {
            ++out.stats.pages_with_entity;
          }
        }
        if (anchor == nullptr || non_entity.empty()) continue;

        // --- Tag paths from E to each non-entity node, grouped by path
        // signature (nodes sharing a path share one similarity test).
        struct PathGroup {
          html::TagPath path;
          std::vector<size_t> nodes;  // indices into texts
        };
        std::map<std::string, PathGroup> groups;
        for (size_t t : non_entity) {
          html::TagPath path =
              html::PathBetween(anchor, texts[t], config_.path_options);
          if (path.empty()) continue;
          auto [it, inserted] = groups.try_emplace(path.ToString());
          if (inserted) it->second.path = std::move(path);
          it->second.nodes.push_back(t);
        }

        // --- Induced pattern set: paths of nodes whose text is already in
        // A_T (the seed set, possibly grown by earlier pages/passes).
        // Seed recognition is EXACT-key: a fuzzy hit between a value string
        // and a seed would induce the value path as a pattern and flood the
        // attribute set with values.
        std::vector<const html::TagPath*> induced;
        std::vector<std::pair<size_t, size_t>> labels;  // text index, cluster
        for (auto& [signature, group] : groups) {
          bool has_seed = false;
          for (size_t t : group.nodes) {
            std::string text(Trim(texts[t]->text()));
            size_t cluster = dedup.FindExact(text);
            if (cluster != SIZE_MAX) {
              has_seed = true;
              labels.emplace_back(t, cluster);
            }
          }
          if (has_seed) induced.push_back(&group.path);
        }
        if (induced.empty()) continue;
        if (pass == 0) ++out.stats.pages_used;
        out.stats.patterns_induced += induced.size();

        // --- Compare every other non-entity node's path with the induced
        // patterns; similar paths are new attributes.
        for (auto& [signature, group] : groups) {
          double best = 0.0;
          for (const html::TagPath* pattern : induced) {
            best = std::max(best,
                            html::TagPathSimilarity(group.path, *pattern));
            if (best >= 1.0) break;
          }
          if (best < config_.similarity_threshold) continue;
          for (size_t t : group.nodes) {
            ++out.stats.nodes_considered;
            if (config_.attribute_budget &&
                dedup.num_clusters() >= config_.attribute_budget) {
              break;
            }
            std::string text(Trim(texts[t]->text()));
            // The cheap label check first: value strings (digits, long
            // phrases) never reach the fuzzy lookup.
            if (!LabelTextAcceptable(text, config_.max_label_tokens)) {
              continue;
            }
            if (dedup.Find(text) != SIZE_MAX) continue;  // already known
            size_t cluster = dedup.Add(text);
            ++out.stats.nodes_matched;
            grew = true;
            DomAttribute& attr = discovered[cluster];
            if (attr.surface.empty()) {
              attr.surface = text;
              attr.canonical = dedup.key(cluster);
            }
            ++attr.support;
            attr.best_similarity = std::max(attr.best_similarity, best);
            labels.emplace_back(t, cluster);
            if (config_.attribute_budget &&
                dedup.num_clusters() >= config_.attribute_budget) {
              break;
            }
          }
        }

        // --- Harvest (entity, attribute, value) triples from label rows.
        double quality = anchor_is_candidate ? config_.candidate_quality
                                             : 1.0;
        for (const auto& [label, cluster] : labels) {
          std::string value = rows.Value(label);
          if (value.empty()) continue;
          ExtractedTriple triple;
          triple.class_name = site.class_name;
          triple.entity = anchor_entity;
          triple.attribute = dedup.representative(cluster);
          triple.value = std::move(value);
          triple.source = site.domain;
          triple.extractor = rdf::ExtractorKind::kDomTree;
          triple.confidence = config_.confidence.Score(
              rdf::ExtractorKind::kDomTree, 1, quality);
          out.triples.push_back(std::move(triple));
          triple_quality.push_back(quality);
        }
        if (config_.attribute_budget &&
            dedup.num_clusters() >= config_.attribute_budget) {
          grew = false;
          break;
        }
      }
    }
  }

  // Report the attributes beyond the input seed clusters with refreshed
  // support counts (clusters discovered once keep accumulating support).
  for (auto& [cluster, attribute] : discovered) {
    if (cluster < input_clusters) continue;  // merged back into a seed
    DomAttribute final_attr = attribute;
    final_attr.support = std::max<size_t>(final_attr.support, 1);
    final_attr.confidence = config_.confidence.Score(
        rdf::ExtractorKind::kDomTree, final_attr.support,
        final_attr.best_similarity);
    out.new_attributes.push_back(std::move(final_attr));
  }
  std::sort(out.new_attributes.begin(), out.new_attributes.end(),
            [](const DomAttribute& a, const DomAttribute& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.canonical < b.canonical;
            });

  // Triples referring to the same (entity, attribute, value, source) on
  // several pages collapse into one observation whose confidence reflects
  // the repeated support.
  auto triple_key = [](const ExtractedTriple& t) {
    return t.entity + "\x01" + t.attribute + "\x01" + t.value + "\x01" +
           t.source;
  };
  std::map<std::string, size_t> support;
  std::map<std::string, double> quality_of;  // best anchor quality per key
  for (size_t i = 0; i < out.triples.size(); ++i) {
    std::string key = triple_key(out.triples[i]);
    ++support[key];
    auto [it, inserted] = quality_of.try_emplace(key, triple_quality[i]);
    if (!inserted) it->second = std::max(it->second, triple_quality[i]);
  }
  std::map<std::string, bool> seen;
  std::vector<ExtractedTriple> unique;
  for (ExtractedTriple& triple : out.triples) {
    std::string key = triple_key(triple);
    if (seen[key]) continue;
    seen[key] = true;
    triple.confidence = config_.confidence.Score(
        rdf::ExtractorKind::kDomTree, support[key], quality_of[key]);
    unique.push_back(std::move(triple));
  }
  out.triples = std::move(unique);

  AKB_COUNTER_ADD("akb.extract.dom.claims", int64_t(out.triples.size()));
  AKB_COUNTER_ADD("akb.extract.dom.new_attributes",
                  int64_t(out.new_attributes.size()));
  AKB_COUNTER_ADD("akb.extract.dom.patterns_induced",
                  int64_t(out.stats.patterns_induced));
  AKB_COUNTER_ADD("akb.extract.dom.nodes_classified",
                  int64_t(out.stats.nodes_considered));
  AKB_COUNTER_ADD("akb.extract.dom.pages_used",
                  int64_t(out.stats.pages_used));
  if (!out.class_name.empty()) {
    static obs::CounterFamily per_class_family("akb.extract.dom.claims.");
    per_class_family.Add(out.class_name, int64_t(out.triples.size()));
  }
  return out;
}

DomExtraction DomTreeExtractor::ExtractPages(
    const std::string& class_name, const std::vector<std::string>& page_html,
    const std::string& site_domain,
    const std::vector<std::string>& entity_names,
    const std::vector<std::string>& seed_attributes) const {
  synth::WebSite site;
  site.class_name = class_name;
  site.domain = site_domain;
  for (size_t i = 0; i < page_html.size(); ++i) {
    synth::WebPage page;
    page.url = "http://" + site_domain + "/page" + std::to_string(i) + ".html";
    page.html = page_html[i];
    site.pages.push_back(std::move(page));
  }
  return Extract({std::move(site)}, entity_names, seed_attributes);
}

DomExtraction DomTreeExtractor::ExtractSite(
    const synth::WebSite& site,
    const std::vector<std::string>& entity_names,
    const std::vector<std::string>& seed_attributes) const {
  return ExtractSites({&site}, entity_names, seed_attributes);
}

DomExtraction DomTreeExtractor::ExtractSharded(
    const std::vector<synth::WebSite>& sites,
    const std::vector<std::string>& entity_names,
    const std::vector<std::string>& seed_attributes,
    mapreduce::ThreadPool* pool) const {
  // Map phase: one task per site, each running Algorithm 1 with only the
  // input seeds (site-local growth). Tasks write disjoint slots, so any
  // worker count — including the inline pool == nullptr path — produces
  // the same per_site array.
  std::vector<DomExtraction> per_site(sites.size());
  mapreduce::ParallelFor(pool, sites.size(), [&](size_t s) {
    per_site[s] = ExtractSite(sites[s], entity_names, seed_attributes);
  });
  return MergeSiteExtractions(std::move(per_site), seed_attributes);
}

DomExtraction DomTreeExtractor::MergeSiteExtractions(
    std::vector<DomExtraction> per_site,
    const std::vector<std::string>& seed_attributes) const {
  DomExtraction out;
  for (const DomExtraction& shard : per_site) {
    if (!shard.class_name.empty()) {
      out.class_name = shard.class_name;
      break;
    }
  }

  // Merge in shard order throughout.
  //
  // Attributes: re-cluster every shard's discoveries through a fresh
  // deduper so near-duplicate surfaces found on different sites collapse;
  // support sums, best similarity maxes, and confidence is recomputed from
  // the merged evidence (matching how Extract scores a cluster it saw on
  // several sites).
  AttributeDeduper dedup(config_.dedup);
  for (const std::string& seed : seed_attributes) dedup.Add(seed);
  size_t input_clusters = dedup.num_clusters();
  std::map<size_t, DomAttribute> merged;
  for (const DomExtraction& shard : per_site) {
    for (const DomAttribute& attr : shard.new_attributes) {
      size_t cluster = dedup.Add(attr.surface);
      if (cluster < input_clusters) continue;  // collapsed into a seed
      DomAttribute& m = merged[cluster];
      if (m.surface.empty()) {
        m.surface = attr.surface;
        m.canonical = dedup.key(cluster);
      }
      m.support += attr.support;
      m.best_similarity = std::max(m.best_similarity, attr.best_similarity);
    }
  }
  for (auto& [cluster, attr] : merged) {
    attr.support = std::max<size_t>(attr.support, 1);
    attr.confidence = config_.confidence.Score(
        rdf::ExtractorKind::kDomTree, attr.support, attr.best_similarity);
    out.new_attributes.push_back(std::move(attr));
  }
  std::sort(out.new_attributes.begin(), out.new_attributes.end(),
            [](const DomAttribute& a, const DomAttribute& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.canonical < b.canonical;
            });

  // Triples concatenate in site order (each site's source domain is
  // distinct, so the per-shard (entity, attribute, value, source)
  // collapse already removed every duplicate). Attribute surfaces remap
  // to the merged representatives so fusion keys agree across sites.
  for (DomExtraction& shard : per_site) {
    for (ExtractedTriple& triple : shard.triples) {
      size_t cluster = dedup.Find(triple.attribute);
      if (cluster != SIZE_MAX) {
        triple.attribute = dedup.representative(cluster);
      }
      out.triples.push_back(std::move(triple));
    }
    for (std::string& candidate : shard.candidate_entities) {
      out.candidate_entities.push_back(std::move(candidate));
    }
    out.stats.pages_total += shard.stats.pages_total;
    out.stats.pages_with_entity += shard.stats.pages_with_entity;
    out.stats.pages_used += shard.stats.pages_used;
    out.stats.patterns_induced += shard.stats.patterns_induced;
    out.stats.nodes_considered += shard.stats.nodes_considered;
    out.stats.nodes_matched += shard.stats.nodes_matched;
    out.stats.passes += shard.stats.passes;
    out.stats.pages_with_candidate_anchor +=
        shard.stats.pages_with_candidate_anchor;
  }
  return out;
}

}  // namespace akb::extract
