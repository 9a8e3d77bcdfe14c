// KbView unit tests: all 8 pattern shapes against a hand-built store,
// set-equality with TripleStore::Match (KbView returns the same indices
// in permutation-key order, not ascending), snapshot construction, and
// degenerate inputs.
#include "serve/kb_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "rdf/snapshot.h"
#include "rdf/triple_store.h"

namespace akb::serve {
namespace {

using rdf::TermId;
using rdf::TriplePattern;

std::vector<size_t> Sorted(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

rdf::Provenance Prov(const std::string& source) {
  return rdf::Provenance{source, rdf::ExtractorKind::kOther, 1.0};
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class KbViewTest : public ::testing::Test {
 protected:
  // (s1 p1 o1), (s1 p1 o2), (s2 p1 o1), (s2 p2 o2), (s1 p2 o1)
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
    store_.Insert({s1_, p2_, o1_}, Prov("d"));
  }

  rdf::TripleStore store_;
  TermId s1_, s2_, p1_, p2_, o1_, o2_;
};

TEST_F(KbViewTest, AllEightShapesMatchTheStore) {
  KbView view(store_);
  std::vector<TriplePattern> shapes = {
      {s1_, p1_, o1_}, {s1_, p1_, 0}, {s1_, 0, o1_}, {0, p1_, o1_},
      {s1_, 0, 0},     {0, p1_, 0},   {0, 0, o1_},   {0, 0, 0},
  };
  for (const TriplePattern& pattern : shapes) {
    EXPECT_EQ(Sorted(view.Match(pattern)), store_.Match(pattern))
        << "pattern (" << pattern.subject << " " << pattern.predicate << " "
        << pattern.object << ")";
  }
}

TEST_F(KbViewTest, MatchOrderIsDeterministicAndDuplicateFree) {
  // The contract is set-equality with the store plus a deterministic
  // (permutation-key) order for a given view — not ascending indices.
  KbView view(store_);
  for (const TriplePattern& pattern :
       {TriplePattern{s1_, 0, 0}, TriplePattern{0, p1_, 0},
        TriplePattern{0, 0, o1_}, TriplePattern{0, 0, 0}}) {
    auto matches = view.Match(pattern);
    EXPECT_EQ(matches, view.Match(pattern));
    auto sorted = Sorted(matches);
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST_F(KbViewTest, CountAgreesWithMatchForEveryShape) {
  KbView view(store_);
  std::vector<TriplePattern> shapes = {
      {s2_, p2_, o2_}, {s2_, p2_, 0}, {s2_, 0, o2_}, {0, p2_, o2_},
      {s2_, 0, 0},     {0, p2_, 0},   {0, 0, o2_},   {0, 0, 0},
      {s1_, p2_, o2_},  // absent triple
  };
  for (const TriplePattern& pattern : shapes) {
    EXPECT_EQ(view.Count(pattern), view.Match(pattern).size());
  }
}

TEST_F(KbViewTest, UnknownIdsMatchNothing) {
  KbView view(store_);
  TermId ghost = TermId(store_.dictionary().size() + 7);
  EXPECT_TRUE(view.Match({ghost, 0, 0}).empty());
  EXPECT_TRUE(view.Match({0, ghost, 0}).empty());
  EXPECT_TRUE(view.Match({0, 0, ghost}).empty());
  EXPECT_TRUE(view.Match({s1_, ghost, o1_}).empty());
  EXPECT_EQ(view.Count({ghost, 0, 0}), 0u);
}

TEST_F(KbViewTest, ViewIsSelfContained) {
  KbView view(store_);
  // Mutating the source store after construction must not change the view.
  store_.Insert({s1_, p1_, store_.dictionary().InternLiteral("late")},
                Prov("z"));
  EXPECT_EQ(view.num_triples(), 5u);
  EXPECT_EQ(view.Match({s1_, p1_, 0}).size(), 2u);
}

TEST_F(KbViewTest, DecodeMatchesStoreDecode) {
  KbView view(store_);
  for (size_t i = 0; i < view.num_triples(); ++i) {
    EXPECT_EQ(view.DecodeToString(i), store_.DecodeToString(i));
  }
}

TEST_F(KbViewTest, FromSnapshotRoundTrips) {
  std::string path = TempPath("kb_view_roundtrip.akbsnap");
  ASSERT_TRUE(store_.SaveSnapshot(path).ok());
  auto view = KbView::FromSnapshot(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->num_triples(), store_.num_triples());
  std::vector<TriplePattern> shapes = {
      {s1_, p1_, o1_}, {s1_, p1_, 0}, {s1_, 0, o1_}, {0, p1_, o1_},
      {s1_, 0, 0},     {0, p1_, 0},   {0, 0, o1_},   {0, 0, 0},
  };
  for (const TriplePattern& pattern : shapes) {
    EXPECT_EQ(Sorted(view->Match(pattern)), store_.Match(pattern));
  }
  for (size_t i = 0; i < view->num_triples(); ++i) {
    EXPECT_EQ(view->DecodeToString(i), store_.DecodeToString(i));
  }
  std::remove(path.c_str());
}

TEST_F(KbViewTest, ResaveUnderMappedViewKeepsServingOldBytes) {
  // The save publishes by rename, so a live mapping keeps the old inode:
  // re-saving a different KB to the same path must not disturb answers
  // already being served, and a fresh open must see the new KB.
  std::string path = TempPath("kb_view_resave.akbsnap");
  ASSERT_TRUE(store_.SaveSnapshot(path).ok());
  auto old_view = KbView::FromSnapshot(path);
  ASSERT_TRUE(old_view.ok()) << old_view.status().ToString();
  std::vector<TriplePattern> shapes = {
      {s1_, p1_, o1_}, {s1_, p1_, 0}, {s1_, 0, o1_}, {0, p1_, o1_},
      {s1_, 0, 0},     {0, p1_, 0},   {0, 0, o1_},   {0, 0, 0},
  };
  std::vector<std::vector<size_t>> before_matches;
  for (const TriplePattern& pattern : shapes) {
    before_matches.push_back(old_view->Match(pattern));
  }
  std::vector<std::string> before_decoded;
  for (size_t i = 0; i < old_view->num_triples(); ++i) {
    before_decoded.push_back(old_view->DecodeToString(i));
  }

  rdf::TripleStore other;
  other.InsertDecoded(rdf::Term::Iri("http://e/x"), rdf::Term::Iri("http://p/y"),
                      rdf::Term::Literal("z"), Prov("e"));
  ASSERT_TRUE(other.SaveSnapshot(path).ok());

  for (size_t k = 0; k < shapes.size(); ++k) {
    EXPECT_EQ(old_view->Match(shapes[k]), before_matches[k]) << "shape " << k;
  }
  ASSERT_EQ(old_view->num_triples(), before_decoded.size());
  for (size_t i = 0; i < before_decoded.size(); ++i) {
    EXPECT_EQ(old_view->DecodeToString(i), before_decoded[i]) << i;
  }

  auto new_view = KbView::FromSnapshot(path);
  ASSERT_TRUE(new_view.ok()) << new_view.status().ToString();
  ASSERT_EQ(new_view->num_triples(), 1u);
  EXPECT_EQ(new_view->DecodeToString(0), other.DecodeToString(0));
  std::remove(path.c_str());
}

TEST_F(KbViewTest, FromSnapshotRejectsGarbage) {
  std::string path = TempPath("kb_view_garbage.akbsnap");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a snapshot";
  }
  auto view = KbView::FromSnapshot(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(KbViewEmptyTest, EmptyStore) {
  rdf::TripleStore store;
  KbView view(store);
  EXPECT_EQ(view.num_triples(), 0u);
  EXPECT_TRUE(view.Match({0, 0, 0}).empty());
  EXPECT_TRUE(view.Match({1, 2, 3}).empty());
  EXPECT_EQ(view.Count({0, 0, 0}), 0u);
}

TEST(KbViewEmptyTest, IndexBytesScaleWithTriples) {
  rdf::TripleStore store;
  auto s = store.dictionary().InternIri("http://e/s");
  auto p = store.dictionary().InternIri("http://p/p");
  for (int i = 0; i < 10; ++i) {
    store.Insert({s, p, store.dictionary().InternLiteral(std::to_string(i))},
                 rdf::Provenance{});
  }
  KbView view(store);
  EXPECT_EQ(view.IndexBytes(),
            10 * (sizeof(rdf::Triple) +
                  3 * (sizeof(uint32_t) + sizeof(uint64_t))));
}

}  // namespace
}  // namespace akb::serve
