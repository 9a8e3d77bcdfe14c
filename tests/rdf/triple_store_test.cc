#include "rdf/triple_store.h"

#include <gtest/gtest.h>

namespace akb::rdf {
namespace {

Provenance Prov(const std::string& source, double confidence = 1.0) {
  return Provenance{source, ExtractorKind::kOther, confidence};
}

class TripleStoreTest : public ::testing::Test {
 protected:
  // (s1 p1 o1), (s1 p1 o2), (s2 p1 o1), (s2 p2 o2)
  void SetUp() override {
    s1_ = store_.dictionary().InternIri("http://e/s1");
    s2_ = store_.dictionary().InternIri("http://e/s2");
    p1_ = store_.dictionary().InternIri("http://p/p1");
    p2_ = store_.dictionary().InternIri("http://p/p2");
    o1_ = store_.dictionary().InternLiteral("o1");
    o2_ = store_.dictionary().InternLiteral("o2");
    store_.Insert({s1_, p1_, o1_}, Prov("a"));
    store_.Insert({s1_, p1_, o2_}, Prov("b"));
    store_.Insert({s2_, p1_, o1_}, Prov("a"));
    store_.Insert({s2_, p2_, o2_}, Prov("c"));
  }

  TripleStore store_;
  TermId s1_, s2_, p1_, p2_, o1_, o2_;
};

TEST_F(TripleStoreTest, CountsClaimsAndDistinctTriples) {
  EXPECT_EQ(store_.num_claims(), 4u);
  EXPECT_EQ(store_.num_triples(), 4u);
}

TEST_F(TripleStoreTest, DuplicateClaimSharesTriple) {
  store_.Insert({s1_, p1_, o1_}, Prov("d", 0.5));
  EXPECT_EQ(store_.num_claims(), 5u);
  EXPECT_EQ(store_.num_triples(), 4u);
  // Both claims attach to the same distinct triple.
  auto matches = store_.Match({s1_, p1_, o1_});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(store_.claims_of(matches[0]).size(), 2u);
}

TEST_F(TripleStoreTest, ContainsExactTriples) {
  EXPECT_TRUE(store_.Contains({s1_, p1_, o1_}));
  EXPECT_FALSE(store_.Contains({s1_, p2_, o1_}));
}

TEST_F(TripleStoreTest, MatchFullyBound) {
  EXPECT_EQ(store_.Match({s2_, p2_, o2_}).size(), 1u);
  EXPECT_TRUE(store_.Match({s2_, p2_, o1_}).empty());
}

TEST_F(TripleStoreTest, MatchBySubject) {
  EXPECT_EQ(store_.Match({s1_, 0, 0}).size(), 2u);
  EXPECT_EQ(store_.Match({s2_, 0, 0}).size(), 2u);
}

TEST_F(TripleStoreTest, MatchByPredicate) {
  EXPECT_EQ(store_.Match({0, p1_, 0}).size(), 3u);
  EXPECT_EQ(store_.Match({0, p2_, 0}).size(), 1u);
}

TEST_F(TripleStoreTest, MatchByObject) {
  EXPECT_EQ(store_.Match({0, 0, o1_}).size(), 2u);
  EXPECT_EQ(store_.Match({0, 0, o2_}).size(), 2u);
}

TEST_F(TripleStoreTest, MatchTwoBound) {
  EXPECT_EQ(store_.Match({s1_, p1_, 0}).size(), 2u);
  EXPECT_EQ(store_.Match({0, p1_, o1_}).size(), 2u);
  EXPECT_EQ(store_.Match({s2_, 0, o2_}).size(), 1u);
}

TEST_F(TripleStoreTest, MatchFullyUnboundReturnsAll) {
  EXPECT_EQ(store_.Match({0, 0, 0}).size(), 4u);
}

TEST_F(TripleStoreTest, MatchUnknownTermReturnsEmpty) {
  TermId ghost = store_.dictionary().InternIri("http://ghost");
  EXPECT_TRUE(store_.Match({ghost, 0, 0}).empty());
}

TEST_F(TripleStoreTest, DecodeToString) {
  auto matches = store_.Match({s2_, p2_, o2_});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(store_.DecodeToString(matches[0]),
            "<http://e/s2> <http://p/p2> \"o2\" .");
}

TEST_F(TripleStoreTest, ProvenancePreserved) {
  auto matches = store_.Match({s1_, p1_, o2_});
  ASSERT_EQ(matches.size(), 1u);
  const auto& claim_ids = store_.claims_of(matches[0]);
  ASSERT_EQ(claim_ids.size(), 1u);
  EXPECT_EQ(store_.claim(claim_ids[0]).provenance.source, "b");
}

TEST_F(TripleStoreTest, InsertDecodedInternsTerms) {
  TripleStore fresh;
  fresh.InsertDecoded(Term::Iri("http://e/x"), Term::Iri("http://p/y"),
                      Term::Literal("z"),
                      Provenance{"src", ExtractorKind::kDomTree, 0.7});
  EXPECT_EQ(fresh.num_triples(), 1u);
  EXPECT_EQ(fresh.claim(0).provenance.extractor, ExtractorKind::kDomTree);
  EXPECT_DOUBLE_EQ(fresh.claim(0).provenance.confidence, 0.7);
}

// Match is the reference oracle the serving indexes are checked against,
// so it is pinned here on a skewed store (hot terms on every axis, rare
// ones crossing them): every shape must equal a full scan, a bound term
// that appears in no triple must give an empty result, and results must
// come back in ascending triple-index order.
class TripleStoreMatchSelectivityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hot_s_ = store_.dictionary().InternIri("http://e/hot");
    hot_p_ = store_.dictionary().InternIri("http://p/hot");
    hot_o_ = store_.dictionary().InternLiteral("hot");
    rare_s_ = store_.dictionary().InternIri("http://e/rare");
    rare_p_ = store_.dictionary().InternIri("http://p/rare");
    rare_o_ = store_.dictionary().InternLiteral("rare");
    unused_ = store_.dictionary().InternIri("http://e/unused");

    // 60 triples on the hot subject/predicate/object axes...
    for (int i = 0; i < 60; ++i) {
      TermId filler =
          store_.dictionary().InternLiteral("f" + std::to_string(i));
      store_.Insert({hot_s_, hot_p_, filler}, Prov("a"));
      store_.Insert({hot_s_, store_.dictionary().InternIri(
                                 "http://p/q" + std::to_string(i)),
                     hot_o_},
                    Prov("a"));
    }
    // ...and single triples pairing a hot position with a rare one.
    store_.Insert({hot_s_, rare_p_, rare_o_}, Prov("b"));
    store_.Insert({rare_s_, hot_p_, rare_o_}, Prov("b"));
    store_.Insert({rare_s_, rare_p_, hot_o_}, Prov("b"));
  }

  // Brute-force reference: scan every distinct triple.
  std::vector<size_t> Scan(const TriplePattern& pattern) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < store_.num_triples(); ++i) {
      const Triple& t = store_.triple(i);
      if ((!pattern.subject || t.subject == pattern.subject) &&
          (!pattern.predicate || t.predicate == pattern.predicate) &&
          (!pattern.object || t.object == pattern.object)) {
        out.push_back(i);
      }
    }
    return out;
  }

  TripleStore store_;
  TermId hot_s_, hot_p_, hot_o_, rare_s_, rare_p_, rare_o_, unused_;
};

TEST_F(TripleStoreMatchSelectivityTest, EveryBoundPositionPermutation) {
  // All shapes, crossing hot x rare terms in both directions; the answer
  // must equal the full scan.
  std::vector<TriplePattern> patterns = {
      {hot_s_, rare_p_, 0},       {rare_s_, hot_p_, 0},
      {hot_s_, 0, rare_o_},       {rare_s_, 0, hot_o_},
      {0, hot_p_, rare_o_},       {0, rare_p_, hot_o_},
      {hot_s_, rare_p_, rare_o_}, {rare_s_, hot_p_, rare_o_},
      {rare_s_, rare_p_, hot_o_}, {hot_s_, hot_p_, 0},
      {hot_s_, 0, 0},             {0, hot_p_, 0},
      {0, 0, hot_o_},             {rare_s_, 0, 0},
      {0, 0, 0},
  };
  for (const TriplePattern& pattern : patterns) {
    EXPECT_EQ(store_.Match(pattern), Scan(pattern))
        << "pattern (" << pattern.subject << " " << pattern.predicate << " "
        << pattern.object << ")";
  }
}

TEST_F(TripleStoreMatchSelectivityTest, RareSideSelectsTheSingleTriple) {
  auto matches = store_.Match({hot_s_, rare_p_, 0});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(store_.triple(matches[0]).object, rare_o_);
}

TEST_F(TripleStoreMatchSelectivityTest, DeadBoundPositionShortCircuits) {
  // `unused_` is interned but appears in no triple. Any pattern binding
  // it must be empty, even when the other bound position is the hottest
  // term in the store.
  EXPECT_TRUE(store_.Match({unused_, 0, 0}).empty());
  EXPECT_TRUE(store_.Match({hot_s_, 0, unused_}).empty());
  EXPECT_TRUE(store_.Match({unused_, hot_p_, 0}).empty());
  EXPECT_TRUE(store_.Match({unused_, hot_p_, hot_o_}).empty());
}

TEST_F(TripleStoreMatchSelectivityTest, ResultsAscendingForEveryShape) {
  std::vector<TriplePattern> patterns = {
      {hot_s_, 0, 0}, {0, hot_p_, 0},       {0, 0, hot_o_},
      {0, 0, 0},      {hot_s_, hot_p_, 0},  {hot_s_, 0, hot_o_},
  };
  for (const TriplePattern& pattern : patterns) {
    auto matches = store_.Match(pattern);
    for (size_t i = 1; i < matches.size(); ++i) {
      EXPECT_LT(matches[i - 1], matches[i]);
    }
  }
}

TEST(TriplePatternTest, EqualityComparesAllPositions) {
  TriplePattern a{1, 2, 3};
  TriplePattern b{1, 2, 3};
  TriplePattern c{1, 2, 0};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(ExtractorKindTest, AllKindsNamed) {
  for (int k = 0; k <= 6; ++k) {
    EXPECT_NE(ExtractorKindToString(static_cast<ExtractorKind>(k)),
              "unknown");
  }
}

}  // namespace
}  // namespace akb::rdf
