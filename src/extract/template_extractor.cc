#include "extract/template_extractor.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "extract/row_harvest.h"
#include "html/dom.h"
#include "text/tokenize.h"

namespace akb::extract {

namespace {

bool LabelTextOk(const std::string& text, size_t max_tokens) {
  auto tokens = text::TokenizeWords(text);
  if (tokens.empty() || tokens.size() > max_tokens) return false;
  for (const auto& token : tokens) {
    if (!IsDigits(token)) return true;
  }
  return false;  // all digits
}

}  // namespace

TemplateExtraction TemplateBaselineExtractor::Extract(
    const std::vector<synth::WebSite>& sites) const {
  TemplateExtraction out;
  if (!sites.empty()) out.class_name = sites.front().class_name;

  AttributeDeduper dedup(config_.dedup);
  std::map<size_t, ExtractedAttribute> attributes;  // cluster -> record

  for (const synth::WebSite& site : sites) {
    // --- Parse pages, remember each page's heading (entity proxy).
    std::vector<html::Document> docs;
    std::vector<RowHarvester> rows;
    std::vector<std::string> headings;
    for (const auto& page : site.pages) {
      docs.push_back(html::ParseHtml(page.html));
      rows.emplace_back(docs.back());
      ++out.stats.pages;
      const html::Node* h1 = docs.back().FirstByTag("h1");
      headings.push_back(h1 != nullptr ? h1->InnerText() : "");
    }

    // --- Group text nodes by root tag path across the whole site.
    struct Occurrence {
      size_t page;
      size_t text;  // index into rows[page].texts()
    };
    struct TextStats {
      size_t count = 0;
      std::set<size_t> pages;
    };
    struct Group {
      std::vector<Occurrence> occurrences;
      std::map<std::string, TextStats> distinct;
    };
    std::map<std::string, Group> groups;
    html::TagPathOptions path_options;
    for (size_t p = 0; p < docs.size(); ++p) {
      const std::vector<const html::Node*>& texts = rows[p].texts();
      for (size_t t = 0; t < texts.size(); ++t) {
        const html::Node* node = texts[t];
        std::string signature =
            html::RootTagPath(node, path_options).ToString();
        Group& group = groups[signature];
        group.occurrences.push_back(Occurrence{p, t});
        TextStats& stats = group.distinct[std::string(Trim(node->text()))];
        ++stats.count;
        stats.pages.insert(p);
      }
    }
    out.stats.path_groups += groups.size();

    // --- Classify each group by its repetition profile.
    for (const auto& [signature, group] : groups) {
      size_t occurrences = group.occurrences.size();
      if (occurrences < config_.min_group_occurrences) continue;
      size_t distinct = group.distinct.size();

      // Boilerplate: every distinct text of the group is on ~all pages.
      double min_page_fraction = 1.0;
      for (const auto& [text, stats] : group.distinct) {
        min_page_fraction = std::min(
            min_page_fraction, static_cast<double>(stats.pages.size()) /
                                   static_cast<double>(docs.size()));
      }
      double repetition =
          static_cast<double>(occurrences) / static_cast<double>(distinct);

      if (distinct == 1 ||
          min_page_fraction >= config_.boilerplate_page_fraction) {
        ++out.stats.boilerplate_groups;
        continue;
      }
      if (repetition < config_.min_label_repetition) {
        ++out.stats.value_groups;
        continue;
      }
      ++out.stats.label_groups;

      // Label slot: every distinct text is an attribute candidate; every
      // occurrence yields a (heading-entity, label, row-value) triple.
      for (const Occurrence& occurrence : group.occurrences) {
        const RowHarvester& page_rows = rows[occurrence.page];
        std::string text(Trim(page_rows.texts()[occurrence.text]->text()));
        if (!LabelTextOk(text, config_.max_label_tokens)) continue;
        size_t cluster = dedup.Add(text);
        auto [it, inserted] = attributes.try_emplace(cluster);
        ExtractedAttribute& attribute = it->second;
        if (inserted) {
          attribute.class_name = out.class_name;
          attribute.surface = text;
          attribute.canonical = dedup.key(cluster);
          attribute.source = site.domain;
          attribute.extractor = rdf::ExtractorKind::kDomTree;
        }
        ++attribute.support;
        attribute.confidence = config_.confidence.Score(
            rdf::ExtractorKind::kDomTree, attribute.support, 0.8);

        std::string value = page_rows.Value(occurrence.text);
        const std::string& entity = headings[occurrence.page];
        if (!value.empty() && !entity.empty()) {
          ExtractedTriple triple;
          triple.class_name = out.class_name;
          triple.entity = entity;
          triple.attribute = dedup.representative(cluster);
          triple.value = std::move(value);
          triple.source = site.domain;
          triple.extractor = rdf::ExtractorKind::kDomTree;
          triple.confidence = config_.confidence.Score(
              rdf::ExtractorKind::kDomTree, 1, 0.8);
          out.triples.push_back(std::move(triple));
        }
      }
    }
  }

  for (auto& [cluster, attribute] : attributes) {
    out.attributes.push_back(std::move(attribute));
  }
  std::sort(out.attributes.begin(), out.attributes.end(),
            [](const ExtractedAttribute& a, const ExtractedAttribute& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.canonical < b.canonical;
            });
  return out;
}

}  // namespace akb::extract
