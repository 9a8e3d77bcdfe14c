#include "extract/row_harvest.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "synth/site_gen.h"
#include "synth/world.h"

namespace akb::extract {
namespace {

// ---- Oracle: the original subtree-walking harvest. For each label it walks
// up to the first ancestor whose normalized inner text differs from the
// label's, then re-collects that row's text nodes to find the successor.

void CollectSubtreeTexts(const html::Node* root,
                         std::vector<const html::Node*>* out) {
  if (root->is_text()) {
    if (!Trim(root->text()).empty()) out->push_back(root);
    return;
  }
  for (const auto& child : root->children()) {
    CollectSubtreeTexts(child.get(), out);
  }
}

std::string OracleHarvest(const html::Node* label) {
  std::string label_text = NormalizeSurface(label->text());
  const html::Node* row = label->parent();
  while (row != nullptr && NormalizeSurface(row->InnerText()) == label_text) {
    row = row->parent();
  }
  if (row == nullptr) return "";
  std::vector<const html::Node*> texts;
  CollectSubtreeTexts(row, &texts);
  for (size_t i = 0; i < texts.size(); ++i) {
    if (texts[i] == label) {
      if (i + 1 < texts.size()) {
        return std::string(Trim(texts[i + 1]->text()));
      }
      return "";
    }
  }
  return "";
}

struct Agreement {
  size_t labels = 0;
  size_t values = 0;  // labels with a non-empty value
};

// Every text node of the page is tried as a label.
Agreement ExpectAgreesWithOracle(const html::Document& doc,
                                 const std::string& what) {
  RowHarvester rows(doc);
  EXPECT_EQ(rows.texts(), doc.TextNodes()) << what;
  Agreement agreement;
  for (size_t i = 0; i < rows.texts().size(); ++i) {
    std::string expected = OracleHarvest(rows.texts()[i]);
    EXPECT_EQ(rows.Value(i), expected)
        << what << ": label #" << i << " \"" << rows.texts()[i]->text()
        << "\"";
    ++agreement.labels;
    if (!expected.empty()) ++agreement.values;
  }
  return agreement;
}

TEST(RowHarvestTest, PairsInfoboxRows) {
  html::Document doc = html::ParseHtml(
      "<table><tr><th>budget</th><td><span>100</span></td></tr>"
      "<tr><th>director</th><td>Jane Doe</td></tr></table>");
  RowHarvester rows(doc);
  ASSERT_EQ(rows.texts().size(), 4u);
  EXPECT_EQ(rows.Value(0), "100");
  EXPECT_EQ(rows.Value(2), "Jane Doe");
  EXPECT_EQ(rows.Value(3), "");  // last text of its row
}

TEST(RowHarvestTest, DefinitionListRowIsTheWholeList) {
  // dt/dd pairs share one <dl>: each label's row is the list, and its value
  // is the text right after it.
  html::Document doc = html::ParseHtml(
      "<dl><dt>budget</dt><dd><span>100</span></dd>"
      "<dt>language</dt><dd><span>French</span></dd></dl>");
  RowHarvester rows(doc);
  EXPECT_EQ(rows.Value(0), "100");
  EXPECT_EQ(rows.Value(2), "French");
  EXPECT_EQ(rows.Value(3), "");
}

TEST(RowHarvestTest, PunctuationDoesNotEndTheRow) {
  // The ":" text carries no alphanumeric token, so it does not end the
  // label's row: the row is the <div>, and its text after the label is ":".
  html::Document doc = html::ParseHtml(
      "<div><p><span>year</span><span>:</span></p><p>1999</p></div>");
  RowHarvester rows(doc);
  ASSERT_EQ(rows.texts().size(), 3u);
  EXPECT_EQ(rows.Value(0), OracleHarvest(rows.texts()[0]));
  EXPECT_EQ(rows.Value(0), ":");
}

TEST(RowHarvestTest, SingleAlphanumericTextHasNoRow) {
  html::Document doc =
      html::ParseHtml("<div><b>only</b><i> - </i><i>:</i></div>");
  RowHarvester rows(doc);
  ASSERT_EQ(rows.texts().size(), 3u);
  EXPECT_EQ(rows.Value(0), "");
  ExpectAgreesWithOracle(doc, "single alphanumeric text");
}

TEST(RowHarvestTest, EmptyPage) {
  html::Document doc = html::ParseHtml("<div> </div>");
  RowHarvester rows(doc);
  EXPECT_TRUE(rows.texts().empty());
}

TEST(RowHarvestTest, HandBuiltEdgeCasesAgreeWithOracle) {
  const char* pages[] = {
      // A label repeated in one row.
      "<table><tr><th>year</th><td>year</td><td>2001</td></tr></table>",
      // A label with no alphanumeric text, between rows.
      "<ul><li><span>-</span><em>x</em></li><li><span>:</span></li>"
      "<li><span>name</span><em>Ada</em></li></ul>",
      // Nested text nodes: text before, inside and after a child element.
      "<div>outer <b>inner</b> tail<div><span>k</span>v</div></div>",
      // The last label of a row is followed by the next row's text.
      "<table><tr><td>x</td><td>label</td></tr><tr><td>next</td></tr>"
      "</table>",
      // Whitespace-only and punctuation-only neighbours everywhere.
      "<div>  <p> : </p><p>a</p>\n<p>-</p><p><b>b</b>:<i>c</i></p> </div>",
      // Entity-discovery page: <h1> heading, styled labels, noise blocks.
      "<html><body><ul class=\"nav\"><li><a href=\"#\">home</a></li></ul>"
      "<div class=\"w\"><h1>Unknown Star</h1><div class=\"ad\"><p>offer</p>"
      "</div><table class=\"infobox\"><tr><th><b>budget</b></th><td><span>"
      "7</span></td></tr><tr><th>producer</th><td><span>Kim</span></td>"
      "</tr></table></div><div class=\"footer\"><p>terms</p></div>"
      "</body></html>",
  };
  for (const char* page : pages) {
    ExpectAgreesWithOracle(html::ParseHtml(page), page);
  }
}

TEST(RowHarvestTest, GeneratedSitesOfEveryLayoutAgreeWithOracle) {
  synth::World world = synth::World::Build(synth::WorldConfig::Small());
  for (int style = 0; style < synth::kNumLayoutStyles; ++style) {
    synth::SiteConfig config;
    config.class_name = world.classes().front().name;
    config.num_sites = 2;
    config.pages_per_site = 8;
    config.forced_style = style;
    config.seed = 40 + uint64_t(style);
    Agreement total;
    for (const synth::WebSite& site : synth::GenerateSites(world, config)) {
      ASSERT_EQ(int(site.style), style);
      for (const synth::WebPage& page : site.pages) {
        Agreement a = ExpectAgreesWithOracle(html::ParseHtml(page.html),
                                             page.url);
        total.labels += a.labels;
        total.values += a.values;
      }
    }
    EXPECT_GT(total.values, total.labels / 4) << "style " << style;
  }
}

// ---- Seeded random trees.

const char* const kTexts[] = {
    "",     " ",      "\n  ",   ":",     "-",    " : ",   "name", "Name ",
    "a",    "year",   "year",   "1999",  "x-y",  "b c",   "(",    "!?",
    " 7 ",  "value",  "k:",     "--",    "\t",   "Jane Doe",
};
const char* const kTags[] = {"div", "span", "p",  "tr", "td", "dl",
                             "dt",  "dd",   "li", "b",  "em", "ul"};

void GrowRandom(Rng* rng, html::Node* node, size_t depth) {
  size_t children = rng->Index(depth >= 6 ? 1 : 5);
  for (size_t c = 0; c < children; ++c) {
    if (rng->Bernoulli(0.45)) {
      node->AppendText(kTexts[rng->Index(std::size(kTexts))]);
    } else {
      GrowRandom(rng, node->AppendElement(kTags[rng->Index(std::size(kTags))]),
                 depth + 1);
    }
  }
}

TEST(RowHarvestTest, RandomTreesAgreeWithOracle) {
  Agreement total;
  size_t empty_values = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    html::Document doc;
    GrowRandom(&rng, doc.root()->AppendElement("body"), 0);
    Agreement a = ExpectAgreesWithOracle(doc, "seed " + std::to_string(seed));
    total.labels += a.labels;
    total.values += a.values;
    empty_values += a.labels - a.values;
  }
  // Both outcomes are exercised many times.
  EXPECT_GT(total.values, 500u);
  EXPECT_GT(empty_values, 500u);
}

TEST(RowHarvestTest, RandomSingleAlphanumericPagesAgreeWithOracle) {
  // Pages whose only alphanumeric text is one node amid punctuation.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    html::Document doc;
    html::Node* body = doc.root()->AppendElement("body");
    size_t n = 2 + rng.Index(6);
    size_t alnum_at = rng.Index(n);
    for (size_t i = 0; i < n; ++i) {
      html::Node* parent =
          rng.Bernoulli(0.5) ? body->AppendElement("span") : body;
      parent->AppendText(i == alnum_at ? "word" : (rng.Bernoulli(0.5) ? ":"
                                                                      : "-"));
    }
    ExpectAgreesWithOracle(doc, "single seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace akb::extract
