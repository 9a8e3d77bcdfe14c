// Snapshot differential suite — the proof that a view mapped zero-copy
// from a snapshot serves exactly what the in-memory store serves: over
// hundreds of random stores, the mapped view and a view built from the
// store itself must agree with the TripleStore::Match oracle on every one
// of the 8 triple-pattern shapes and on BGP joins; snapshot bytes must be
// a pure function of the store (deterministic, and canonical across
// save -> load -> save); and the snapshot round-trips the claims so
// pipeline warm-starts lose nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "rdf/snapshot.h"
#include "rdf/triple_store.h"
#include "serve/bgp.h"
#include "serve/kb_view.h"
#include "synth/query_workload.h"

#include "random_store.h"

namespace akb::serve {
namespace {

using rdf::TermId;
using rdf::TriplePattern;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<size_t> Sorted(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// One base (s,p,o) id triple masked into all 8 shapes.
std::vector<TriplePattern> AllShapes(TermId s, TermId p, TermId o) {
  return {
      {s, p, o}, {s, p, 0}, {s, 0, o}, {0, p, o},
      {s, 0, 0}, {0, p, 0}, {0, 0, o}, {0, 0, 0},
  };
}

std::vector<std::vector<TermId>> SortedRows(const BgpRows& rows) {
  std::vector<std::vector<TermId>> out;
  out.reserve(rows.num_rows);
  for (size_t r = 0; r < rows.num_rows; ++r) {
    std::vector<TermId> row;
    for (size_t c = 0; c < rows.num_cols(); ++c) row.push_back(rows.at(r, c));
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SnapshotDifferentialTest, MappedViewEqualsStoreOracle) {
  constexpr uint64_t kSeeds = 200;
  std::string path = TempPath("diff.akbsnap");
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    rdf::TripleStore store = RandomStore(seed);
    ASSERT_TRUE(store.SaveSnapshot(path).ok()) << "seed " << seed;

    auto mapped = KbView::FromSnapshot(path);
    ASSERT_TRUE(mapped.ok()) << "seed " << seed << ": " << mapped.status();
    KbView direct(store);

    EXPECT_TRUE(mapped->mapped()) << "seed " << seed;
    EXPECT_FALSE(direct.mapped()) << "seed " << seed;
    EXPECT_EQ(mapped->provenance().snapshot_version, rdf::kSnapshotVersion);
    ASSERT_EQ(mapped->num_triples(), store.num_triples()) << "seed " << seed;
    ASSERT_EQ(mapped->num_terms(), store.dictionary().size())
        << "seed " << seed;

    Rng rng(seed * 977 + 1);
    std::vector<TriplePattern> patterns;
    // Bases drawn from existing triples (guaranteed hits at every shape)...
    for (int i = 0; i < 6 && store.num_triples() > 0; ++i) {
      const rdf::Triple& t = store.triple(rng.Index(store.num_triples()));
      auto shapes = AllShapes(t.subject, t.predicate, t.object);
      patterns.insert(patterns.end(), shapes.begin(), shapes.end());
    }
    // ...and from random ids (interned or ghost, so partial/total misses).
    TermId id_limit = TermId(store.dictionary().size() + 4);
    for (int i = 0; i < 4; ++i) {
      auto shapes = AllShapes(TermId(rng.Index(id_limit) + 1),
                              TermId(rng.Index(id_limit) + 1),
                              TermId(rng.Index(id_limit) + 1));
      patterns.insert(patterns.end(), shapes.begin(), shapes.end());
    }

    for (const TriplePattern& pattern : patterns) {
      auto expected = store.Match(pattern);
      EXPECT_EQ(Sorted(mapped->Match(pattern)), expected)
          << "seed " << seed << " pattern (" << pattern.subject << " "
          << pattern.predicate << " " << pattern.object << ")";
      EXPECT_EQ(Sorted(direct.Match(pattern)), expected) << "seed " << seed;
      EXPECT_EQ(mapped->Count(pattern), expected.size()) << "seed " << seed;
      // The borrowed view's permutation order must equal the rebuilt
      // view's: BuildPermIndexes is the single index builder both sides
      // share, and each sorted order is unique, so even result ORDER
      // (not just the set) is backing-independent.
      EXPECT_EQ(mapped->Match(pattern), direct.Match(pattern))
          << "seed " << seed;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotDifferentialTest, BgpJoinsAgreeMappedAndBuilt) {
  constexpr uint64_t kSeeds = 60;
  std::string path = TempPath("diff_bgp.akbsnap");
  BgpOptions options;
  options.limit = 2000;
  size_t compared = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    rdf::TripleStore store = RandomStore(seed + 31000);
    if (store.num_triples() == 0) continue;
    ASSERT_TRUE(store.SaveSnapshot(path).ok());
    auto mapped = KbView::FromSnapshot(path);
    ASSERT_TRUE(mapped.ok()) << "seed " << seed << ": " << mapped.status();
    KbView built(store);

    synth::BgpWorkloadConfig workload_config;
    workload_config.num_queries = 20;
    workload_config.seed = seed;
    auto queries = synth::GenerateBgpWorkload(store, workload_config);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto a = ExecuteBgp(built, queries[i], options);
      auto b = ExecuteBgp(*mapped, queries[i], options);
      ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed << " q " << i;
      if (!a.ok()) {
        EXPECT_EQ(a.status().code(), b.status().code())
            << "seed " << seed << " q " << i;
        continue;
      }
      EXPECT_EQ(a->vars, b->vars) << "seed " << seed << " q " << i;
      EXPECT_EQ(SortedRows(*a), SortedRows(*b))
          << "seed " << seed << " q " << i;
      ++compared;
    }
  }
  EXPECT_GT(compared, 300u);
  std::remove(path.c_str());
}

TEST(SnapshotDifferentialTest, V2BytesAreDeterministicAndCanonical) {
  constexpr uint64_t kSeeds = 40;
  std::string path_a = TempPath("det_a.akbsnap");
  std::string path_b = TempPath("det_b.akbsnap");
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    rdf::TripleStore store = RandomStore(seed + 52000);
    ASSERT_TRUE(store.SaveSnapshot(path_a).ok());
    ASSERT_TRUE(store.SaveSnapshot(path_b).ok());
    std::string bytes_a = ReadFileBytes(path_a);
    ASSERT_FALSE(bytes_a.empty());
    // Same store, two saves: bit-identical.
    ASSERT_EQ(bytes_a, ReadFileBytes(path_b)) << "seed " << seed;

    // Save -> load -> save is canonical: the reloaded store writes the
    // very same bytes, so the format is a fixed point.
    rdf::TripleStore reloaded;
    ASSERT_TRUE(reloaded.LoadSnapshot(path_a).ok()) << "seed " << seed;
    EXPECT_EQ(reloaded.num_claims(), store.num_claims()) << "seed " << seed;
    ASSERT_TRUE(reloaded.SaveSnapshot(path_b).ok());
    EXPECT_EQ(bytes_a, ReadFileBytes(path_b)) << "seed " << seed;
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SnapshotDifferentialTest, MappedViewTermApiMatchesDictionary) {
  constexpr uint64_t kSeeds = 25;
  std::string path = TempPath("terms.akbsnap");
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    rdf::TripleStore store = RandomStore(seed + 64000);
    ASSERT_TRUE(store.SaveSnapshot(path).ok());
    auto view = KbView::FromSnapshot(path);
    ASSERT_TRUE(view.ok()) << "seed " << seed << ": " << view.status();

    ASSERT_EQ(view->num_terms(), store.dictionary().size());
    EXPECT_FALSE(view->ContainsTerm(0));
    EXPECT_FALSE(view->ContainsTerm(TermId(view->num_terms() + 1)));
    for (TermId id = 1; id <= TermId(view->num_terms()); ++id) {
      ASSERT_TRUE(view->ContainsTerm(id));
      const rdf::Term& expected = store.dictionary().Lookup(id);
      EXPECT_EQ(view->term_kind(id), expected.kind) << "seed " << seed;
      EXPECT_EQ(view->term_lexical(id), expected.lexical)
          << "seed " << seed << " id " << id;
      EXPECT_EQ(view->DecodeTerm(id), expected) << "seed " << seed;
    }
    // Triple decoding renders through the arena identically to the store.
    for (size_t i = 0; i < view->num_triples(); ++i) {
      EXPECT_EQ(view->DecodeToString(i), store.DecodeToString(i))
          << "seed " << seed << " triple " << i;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace akb::serve
