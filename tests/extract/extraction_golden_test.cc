// Golden digest of the DOM extractors' output on the paper world.
//
// Both Algorithm 1 (DomTreeExtractor) and the template baseline pair each
// label with its row value. The digests below pin their complete output —
// triples and discovered attributes for every class of the paper world — so
// any change to row harvesting, tag paths or label discovery that alters a
// single byte of output fails here, independent of the harvest's own
// differential test. The digests were captured from the subtree-walking
// harvest that the linear-time one replaced.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.h"
#include "extract/dom_extractor.h"
#include "extract/template_extractor.h"
#include "synth/site_gen.h"
#include "synth/world.h"

namespace akb::extract {
namespace {

// Confidences are rounded so last-ulp libm differences cannot move a digest.
void AppendNumber(double value, std::string* out) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out->append(buffer).push_back('\x1f');
}

void AppendTriples(const std::vector<ExtractedTriple>& triples,
                   std::string* out) {
  for (const ExtractedTriple& t : triples) {
    for (const std::string* field :
         {&t.class_name, &t.entity, &t.attribute, &t.value, &t.source}) {
      out->append(*field).push_back('\x1f');
    }
    AppendNumber(t.confidence, out);
    out->push_back('\x1e');
  }
}

struct GoldenInputs {
  synth::World world = synth::World::Build(synth::WorldConfig::PaperDefault());
  struct ClassInput {
    std::vector<synth::WebSite> sites;
    std::vector<std::string> entity_names;
    std::vector<std::string> seeds;
  };
  std::vector<ClassInput> classes;

  GoldenInputs() {
    uint64_t seed = 1700;
    for (const synth::WorldClass& cls : world.classes()) {
      ClassInput input;
      synth::SiteConfig config;
      config.class_name = cls.name;
      config.num_sites = 3;
      config.pages_per_site = 20;
      config.value_error_rate = 0.15;
      config.seed = ++seed;
      input.sites = synth::GenerateSites(world, config);
      // Every third entity is left unknown, so its pages take the <h1>
      // candidate-entity path.
      for (size_t e = 0; e < cls.entities.size(); ++e) {
        if (e % 3 != 2) input.entity_names.push_back(cls.entities[e].name);
      }
      for (size_t a = 0; a < cls.attributes.size(); a += 3) {
        input.seeds.push_back(cls.attributes[a].name);
      }
      classes.push_back(std::move(input));
    }
  }
};

const GoldenInputs& Inputs() {
  static const GoldenInputs* inputs = new GoldenInputs();
  return *inputs;
}

TEST(ExtractionGoldenTest, DomTreeExtractorPaperWorldDigest) {
  DomTreeExtractor extractor;
  std::string bytes;
  size_t triples = 0;
  for (const auto& input : Inputs().classes) {
    DomExtraction out =
        extractor.Extract(input.sites, input.entity_names, input.seeds);
    AppendTriples(out.triples, &bytes);
    triples += out.triples.size();
    for (const DomAttribute& a : out.new_attributes) {
      bytes.append(a.surface).push_back('\x1f');
      bytes.append(a.canonical).push_back('\x1f');
      bytes.append(std::to_string(a.support)).push_back('\x1f');
      AppendNumber(a.best_similarity, &bytes);
      AppendNumber(a.confidence, &bytes);
      bytes.push_back('\x1e');
    }
    for (const std::string& entity : out.candidate_entities) {
      bytes.append(entity).push_back('\x1d');
    }
  }
  EXPECT_GT(triples, 1000u);
  EXPECT_EQ(Fnv1a64(bytes), 0x4b021c537492377dull)
      << std::hex << Fnv1a64(bytes);
}

TEST(ExtractionGoldenTest, TemplateBaselinePaperWorldDigest) {
  TemplateBaselineExtractor extractor;
  std::string bytes;
  size_t triples = 0;
  for (const auto& input : Inputs().classes) {
    TemplateExtraction out = extractor.Extract(input.sites);
    AppendTriples(out.triples, &bytes);
    triples += out.triples.size();
    for (const ExtractedAttribute& a : out.attributes) {
      bytes.append(a.surface).push_back('\x1f');
      bytes.append(a.canonical).push_back('\x1f');
      bytes.append(a.source).push_back('\x1f');
      bytes.append(std::to_string(a.support)).push_back('\x1f');
      AppendNumber(a.confidence, &bytes);
      bytes.push_back('\x1e');
    }
  }
  EXPECT_GT(triples, 1000u);
  EXPECT_EQ(Fnv1a64(bytes), 0x7e323f66abfefb89ull)
      << std::hex << Fnv1a64(bytes);
}

}  // namespace
}  // namespace akb::extract
