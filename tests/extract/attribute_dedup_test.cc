#include "extract/attribute_dedup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "synth/names.h"
#include "synth/noise.h"

namespace akb::extract {
namespace {

TEST(AttributeKeyTest, IdentifierStylesCollide) {
  std::string key = AttributeKey("birth place");
  EXPECT_EQ(AttributeKey("Birth Place"), key);
  EXPECT_EQ(AttributeKey("birth_place"), key);
  EXPECT_EQ(AttributeKey("birthPlace"), key);
  EXPECT_EQ(AttributeKey("birth-place"), key);
}

TEST(AttributeKeyTest, OfFormCollides) {
  EXPECT_EQ(AttributeKey("place of birth"), AttributeKey("birth place"));
  EXPECT_EQ(AttributeKey("date of release"), AttributeKey("release date"));
}

TEST(AttributeKeyTest, StopwordsDropped) {
  EXPECT_EQ(AttributeKey("the capital"), AttributeKey("capital"));
  EXPECT_EQ(AttributeKey("capital of the country"),
            AttributeKey("country capital"));
}

TEST(AttributeKeyTest, AllStopwordSurfaceKept) {
  EXPECT_FALSE(AttributeKey("the of").empty());
}

TEST(AttributeKeyTest, DistinctAttributesStayDistinct) {
  EXPECT_NE(AttributeKey("birth place"), AttributeKey("death place"));
  EXPECT_NE(AttributeKey("total budget"), AttributeKey("total revenue"));
}

TEST(AttributeDeduperTest, MergesVariants) {
  AttributeDeduper dedup;
  size_t a = dedup.Add("birth place");
  EXPECT_EQ(dedup.Add("birthPlace"), a);
  EXPECT_EQ(dedup.Add("birth_place"), a);
  EXPECT_EQ(dedup.Add("place of birth"), a);
  EXPECT_EQ(dedup.num_clusters(), 1u);
  EXPECT_EQ(dedup.support(a), 4u);
}

TEST(AttributeDeduperTest, SeparatesDistinctAttributes) {
  AttributeDeduper dedup;
  size_t a = dedup.Add("birth place");
  size_t b = dedup.Add("death place");
  EXPECT_NE(a, b);
  EXPECT_EQ(dedup.num_clusters(), 2u);
}

TEST(AttributeDeduperTest, FuzzyMergesMisspellings) {
  AttributeDeduper dedup;
  size_t a = dedup.Add("total budget");
  EXPECT_EQ(dedup.Add("total budgte"), a);  // swapped letters
  EXPECT_EQ(dedup.Add("totl budget"), a);   // dropped letter
  EXPECT_EQ(dedup.num_clusters(), 1u);
}

TEST(AttributeDeduperTest, ShortKeysNeverFuzzyMerge) {
  AttributeDeduper dedup;
  size_t a = dedup.Add("rate");
  size_t b = dedup.Add("rats");  // one edit away but too short
  EXPECT_NE(a, b);
}

TEST(AttributeDeduperTest, RepresentativeIsMostFrequentSurface) {
  AttributeDeduper dedup;
  size_t c = dedup.Add("birthPlace");
  dedup.Add("birth place");
  dedup.Add("birth place");
  EXPECT_EQ(dedup.representative(c), "birth place");
}

TEST(AttributeDeduperTest, FindDoesNotInsert) {
  AttributeDeduper dedup;
  EXPECT_EQ(dedup.Find("ghost attr"), SIZE_MAX);
  EXPECT_EQ(dedup.num_clusters(), 0u);
  size_t a = dedup.Add("release date");
  EXPECT_EQ(dedup.Find("date of release"), a);
  EXPECT_EQ(dedup.Find("releose date"), a);  // fuzzy find
  EXPECT_EQ(dedup.num_clusters(), 1u);
}

TEST(AttributeDeduperTest, KeyAccessor) {
  AttributeDeduper dedup;
  size_t c = dedup.Add("birthPlace");
  EXPECT_EQ(dedup.key(c), AttributeKey("birth place"));
}

TEST(AttributeDeduperTest, FuzzyThresholdConfigurable) {
  AttributeDeduper::Options strict;
  strict.fuzzy_threshold = 1.01;  // never fuzzy-merge
  AttributeDeduper dedup(strict);
  size_t a = dedup.Add("total budget");
  size_t b = dedup.Add("totl budget");
  EXPECT_NE(a, b);
}

TEST(AttributeDeduperTest, ManySurfacesStayConsistent) {
  // Numbered names differ by one character, so fuzzy merging must be off
  // for them to stay distinct (a deliberate edge of fuzzy matching).
  AttributeDeduper::Options options;
  options.fuzzy_threshold = 1.01;
  AttributeDeduper dedup(options);
  for (int i = 0; i < 50; ++i) {
    std::string base = "metric number" + std::to_string(i);
    size_t c = dedup.Add(base);
    EXPECT_EQ(dedup.Add(base + " "), c);
  }
  EXPECT_EQ(dedup.num_clusters(), 50u);
}

// Property sweep: every rendered style of a phrase lands in its cluster.
class StyleSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(StyleSweep, AllStylesMerge) {
  const char* phrase = GetParam();
  Rng rng(77);
  AttributeDeduper dedup;
  size_t c = dedup.Add(phrase);
  for (int style = 0; style < synth::kNumSurfaceStyles; ++style) {
    if (style == static_cast<int>(synth::SurfaceStyle::kMisspelled)) continue;
    std::string rendered = synth::RenderSurface(
        phrase, static_cast<synth::SurfaceStyle>(style), &rng);
    EXPECT_EQ(dedup.Add(rendered), c) << rendered;
  }
}

INSTANTIATE_TEST_SUITE_P(Phrases, StyleSweep,
                         ::testing::Values("birth place", "total enrollment",
                                           "average room rate",
                                           "original title",
                                           "gross revenue"));

// The deduper's lookup as a plain linear scan over every cluster (the
// implementation before candidate pruning): a length prefilter, then a
// full EditSimilarity per cluster, the later cluster winning a tie. The
// pruned lookup must return exactly this cluster id for every query.
class LinearScanOracle {
 public:
  explicit LinearScanOracle(AttributeDeduper::Options options)
      : options_(options) {}

  size_t Add(std::string_view surface) {
    std::string key = AttributeKey(surface);
    size_t cluster = FindByKey(key);
    if (cluster == SIZE_MAX) {
      cluster = keys_.size();
      keys_.push_back(key);
    }
    by_key_.emplace(key, cluster);
    return cluster;
  }

  size_t Find(std::string_view surface) const {
    return FindByKey(AttributeKey(surface));
  }

  size_t FindExact(std::string_view surface) const {
    auto it = by_key_.find(AttributeKey(surface));
    return it == by_key_.end() ? SIZE_MAX : it->second;
  }

 private:
  size_t FindByKey(const std::string& key) const {
    auto it = by_key_.find(key);
    if (it != by_key_.end()) return it->second;
    if (key.size() < options_.min_fuzzy_length) return SIZE_MAX;
    size_t best = SIZE_MAX;
    double best_sim = options_.fuzzy_threshold;
    for (size_t c = 0; c < keys_.size(); ++c) {
      if (keys_[c].size() < options_.min_fuzzy_length) continue;
      size_t la = key.size(), lb = keys_[c].size();
      size_t diff = la > lb ? la - lb : lb - la;
      if (static_cast<double>(diff) >
          (1.0 - options_.fuzzy_threshold) *
              static_cast<double>(std::max(la, lb))) {
        continue;
      }
      double sim = EditSimilarity(key, keys_[c]);
      if (sim >= best_sim) {
        best_sim = sim;
        best = c;
      }
    }
    return best;
  }

  AttributeDeduper::Options options_;
  std::vector<std::string> keys_;
  std::unordered_map<std::string, size_t> by_key_;
};

AttributeDeduper::Options MakeOptions(double threshold, size_t min_length) {
  AttributeDeduper::Options options;
  options.fuzzy_threshold = threshold;
  options.min_fuzzy_length = min_length;
  return options;
}

struct DiffCase {
  double threshold;
  size_t min_length;
};

// Names the ctest cases "threshold0.82_min6" and so on.
void PrintTo(const DiffCase& param, std::ostream* os) {
  *os << "threshold" << param.threshold << "_min" << param.min_length;
}

class DedupDifferential : public ::testing::TestWithParam<DiffCase> {};

// Seeded streams of Add / Find / FindExact over misspelled, transposed and
// restyled surfaces: every id must equal the linear scan's.
TEST_P(DedupDifferential, MatchesLinearScan) {
  const DiffCase param = GetParam();
  const AttributeDeduper::Options options =
      MakeOptions(param.threshold, param.min_length);
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed * 7919);
    std::vector<std::string> phrases =
        synth::AttributePhraseGenerator(Rng(seed)).Generate(80);
    // Near-duplicate canonical names, short keys and non-ASCII bytes.
    for (int i = 0; i < 12; ++i) {
      phrases.push_back("metric number" + std::to_string(i));
    }
    phrases.push_back("rate");
    phrases.push_back("caf\xc3\xa9 price");
    phrases.push_back("na\xc3\xafve stra\xc3\x9f""e");
    AttributeDeduper dedup(options);
    LinearScanOracle oracle(options);
    for (int op = 0; op < 1500; ++op) {
      const std::string& phrase = phrases[rng.Index(phrases.size())];
      std::string surface = synth::RenderSurface(
          phrase, synth::SampleStyle(0.4, 0.35, &rng), &rng);
      if (rng.Bernoulli(0.2)) surface = synth::Misspell(surface, &rng);
      double pick = rng.NextDouble();
      if (pick < 0.45) {
        ASSERT_EQ(dedup.Add(surface), oracle.Add(surface))
            << "seed=" << seed << " op=" << op << " Add('" << surface << "')";
      } else if (pick < 0.85) {
        ASSERT_EQ(dedup.Find(surface), oracle.Find(surface))
            << "seed=" << seed << " op=" << op << " Find('" << surface
            << "')";
      } else {
        ASSERT_EQ(dedup.FindExact(surface), oracle.FindExact(surface))
            << "seed=" << seed << " op=" << op << " FindExact('" << surface
            << "')";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Options, DedupDifferential,
                         ::testing::Values(DiffCase{0.82, 6}, DiffCase{0.7, 4},
                                           DiffCase{0.9, 6},
                                           DiffCase{1.01, 6},
                                           DiffCase{0.0, 0}));

TEST(AttributeDeduperTest, EqualSimilarityTieGoesToLaterCluster) {
  // Both keys are one edit from the query (similarity 0.9) and two edits
  // from each other (0.8 < 0.82, so they stay separate clusters).
  AttributeDeduper dedup;
  size_t first = dedup.Add("abcdefghij");
  size_t second = dedup.Add("abcdefghxy");
  ASSERT_NE(first, second);
  EXPECT_EQ(dedup.Find("abcdefghiy"), second);
}

TEST(AttributeDeduperTest, TieAcrossKeyLengthsGoesToLaterCluster) {
  // The query is 5 edits from a 10-byte key and 10 edits from a 20-byte
  // one: similarity 0.5 against both. Candidates are visited by length, so
  // the winner must not depend on which length bucket comes first.
  const std::string ten = "abcdefghij";
  const std::string twenty = "abcdevwxyzklmnopqrst";
  const std::string query = "abcdevwxyz";
  const AttributeDeduper::Options options = MakeOptions(0.5, 0);
  for (bool ten_first : {true, false}) {
    AttributeDeduper dedup(options);
    LinearScanOracle oracle(options);
    for (const std::string& key :
         ten_first ? std::vector{ten, twenty} : std::vector{twenty, ten}) {
      EXPECT_EQ(dedup.Add(key), oracle.Add(key));
    }
    ASSERT_EQ(dedup.num_clusters(), 2u);
    EXPECT_EQ(dedup.Find(query), 1u) << "ten_first=" << ten_first;
    EXPECT_EQ(oracle.Find(query), 1u);
  }
}

TEST(AttributeDeduperTest, LongKeysMatchTheLinearScan) {
  // Keys of 200+ bytes, one with a single byte repeated past the
  // signature's per-class count limit.
  Rng rng(5);
  std::vector<std::string> keys = {std::string(300, 'a'),
                                   std::string(299, 'a') + "b"};
  std::string words;
  while (words.size() < 220) {
    words += synth::Misspell("attribute", &rng);
    words += ' ';
  }
  keys.push_back(words);
  AttributeDeduper dedup;
  LinearScanOracle oracle(AttributeDeduper::Options{});
  for (const std::string& key : keys) {
    EXPECT_EQ(dedup.Add(key), oracle.Add(key));
  }
  EXPECT_EQ(dedup.Find(std::string(298, 'a')), 0u);
  for (int i = 0; i < 50; ++i) {
    std::string probe = synth::Misspell(keys[rng.Index(keys.size())], &rng);
    EXPECT_EQ(dedup.Find(probe), oracle.Find(probe)) << probe;
    EXPECT_EQ(dedup.Add(probe), oracle.Add(probe)) << probe;
  }
}

TEST(AttributeDeduperTest, NonAsciiSurfacesMatchTheLinearScan) {
  const std::vector<std::string> surfaces = {
      "caf\xc3\xa9 price", "cafe price", "caf price", "na\xc3\xafve score",
      "naive score",     "\xe6\x97\xa5\xe6\x9c\xac name", "\xff\xfe tag",
      "tag \x80\x81"};
  for (const AttributeDeduper::Options& options :
       {MakeOptions(0.82, 6), MakeOptions(0.0, 0), MakeOptions(0.7, 4)}) {
    AttributeDeduper dedup(options);
    LinearScanOracle oracle(options);
    for (const std::string& surface : surfaces) {
      EXPECT_EQ(dedup.Find(surface), oracle.Find(surface)) << surface;
      EXPECT_EQ(dedup.Add(surface), oracle.Add(surface)) << surface;
      EXPECT_EQ(dedup.FindExact(surface), oracle.FindExact(surface))
          << surface;
    }
  }
}

}  // namespace
}  // namespace akb::extract
