// Property tests for the RDF stack: randomized stores round-trip through
// N-Triples and through binary snapshots, and indexed pattern matching
// agrees with a brute-force scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/random.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot.h"
#include "rdf/triple_store.h"

namespace akb::rdf {
namespace {

// Literal payloads chosen to break escaping: every character the writer
// must escape, plus empty and raw-control-character strings.
const char* const kHostileLiterals[] = {
    "",
    "\"",
    "\\",
    "\\\"",
    "\n",
    "\r\n",
    "\t",
    "ends with backslash \\",
    "quote \" tab \t cr \r lf \n mix",
    "\\n is not a newline",
    "control \x01\x02\x1f bytes",
    "  leading and trailing  ",
};

TripleStore RandomStore(uint64_t seed, size_t claims) {
  TripleStore store;
  Rng rng(seed);
  std::vector<TermId> subjects, predicates, objects;
  for (int i = 0; i < 12; ++i) {
    subjects.push_back(
        store.dictionary().InternIri("http://e/s" + std::to_string(i)));
    predicates.push_back(
        store.dictionary().InternIri("http://p/p" + std::to_string(i)));
  }
  for (const char* hostile : kHostileLiterals) {
    objects.push_back(store.dictionary().InternLiteral(hostile));
  }
  for (int i = 0; i < 20; ++i) {
    if (i % 3 == 0) {
      objects.push_back(
          store.dictionary().InternIri("http://e/o" + std::to_string(i)));
    } else {
      // Literals with awkward characters.
      objects.push_back(store.dictionary().InternLiteral(
          "v" + std::to_string(i) + " \"q\" \\ " + rng.Identifier(3)));
    }
  }
  for (size_t c = 0; c < claims; ++c) {
    Triple t{rng.Pick(subjects), rng.Pick(predicates), rng.Pick(objects)};
    Provenance prov;
    prov.source = "s" + std::to_string(rng.Index(5));
    prov.extractor = static_cast<ExtractorKind>(rng.Index(7));
    prov.confidence = rng.NextDouble();
    store.Insert(t, std::move(prov));
  }
  return store;
}

class RdfRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RdfRoundTrip, NTriplesPreservesClaims) {
  TripleStore original = RandomStore(GetParam(), 200);
  NTriplesWriteOptions options;
  options.include_provenance = true;
  std::string text = WriteNTriples(original, options);

  TripleStore restored;
  ASSERT_TRUE(ReadNTriples(text, &restored).ok());
  EXPECT_EQ(restored.num_claims(), original.num_claims());
  EXPECT_EQ(restored.num_triples(), original.num_triples());
  // Second-generation serialization is byte-identical (stable fixed point
  // up to confidence formatting, which uses fixed precision).
  EXPECT_EQ(WriteNTriples(restored, options), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RdfRoundTrip,
                         ::testing::Range<uint64_t>(1, 11));

TEST_P(RdfRoundTrip, SnapshotPreservesEverything) {
  TripleStore original = RandomStore(GetParam(), 200);
  std::string path = ::testing::TempDir() + "/prop_" +
                     std::to_string(GetParam()) + ".akbsnap";
  SnapshotStats stats;
  ASSERT_TRUE(original.SaveSnapshot(path, SnapshotFormat::kV2, &stats).ok());
  EXPECT_EQ(stats.claims, original.num_claims());

  TripleStore restored;
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  NTriplesWriteOptions options;
  options.include_provenance = true;
  // Terms keep their ids, so the N-Triples projections (and with them
  // every term byte, triple, and provenance record) must match exactly.
  EXPECT_EQ(WriteNTriples(restored, options), WriteNTriples(original, options));
  EXPECT_EQ(restored.dictionary().size(), original.dictionary().size());
  std::remove(path.c_str());
}

TEST(RdfHostileLiterals, SurviveBothFormats) {
  TripleStore original;
  for (size_t i = 0; i < std::size(kHostileLiterals); ++i) {
    original.InsertDecoded(
        Term::Iri("http://e/s" + std::to_string(i)), Term::Iri("http://p/p"),
        Term::Literal(kHostileLiterals[i]),
        Provenance{"src", ExtractorKind::kDomTree, 0.5});
  }

  // N-Triples: text round trip restores the exact literal bytes.
  NTriplesWriteOptions options;
  options.include_provenance = true;
  std::string text = WriteNTriples(original, options);
  TripleStore from_text;
  ASSERT_TRUE(ReadNTriples(text, &from_text).ok());
  ASSERT_EQ(from_text.num_triples(), original.num_triples());
  for (size_t i = 0; i < std::size(kHostileLiterals); ++i) {
    const Term& term =
        from_text.dictionary().Lookup(from_text.triple(i).object);
    EXPECT_EQ(term.lexical, kHostileLiterals[i]) << "literal " << i;
  }
  EXPECT_EQ(WriteNTriples(from_text, options), text);

  // Snapshot: binary round trip, then re-serialize to the same text.
  std::string path = ::testing::TempDir() + "/hostile.akbsnap";
  ASSERT_TRUE(original.SaveSnapshot(path).ok());
  TripleStore from_snapshot;
  ASSERT_TRUE(from_snapshot.LoadSnapshot(path).ok());
  EXPECT_EQ(WriteNTriples(from_snapshot, options), text);
  std::remove(path.c_str());
}

class RdfMatchConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RdfMatchConsistency, IndexedMatchEqualsBruteForce) {
  TripleStore store = RandomStore(GetParam(), 300);
  Rng rng(GetParam() * 31 + 7);

  auto brute_force = [&](const TriplePattern& pattern) {
    std::vector<size_t> out;
    for (size_t i = 0; i < store.num_triples(); ++i) {
      const Triple& t = store.triple(i);
      if ((!pattern.subject || t.subject == pattern.subject) &&
          (!pattern.predicate || t.predicate == pattern.predicate) &&
          (!pattern.object || t.object == pattern.object)) {
        out.push_back(i);
      }
    }
    return out;
  };

  for (int round = 0; round < 60; ++round) {
    TriplePattern pattern;
    // Random binding mask; bound positions pick terms from existing
    // triples so matches are plausible.
    const Triple& sample = store.triple(rng.Index(store.num_triples()));
    if (rng.Bernoulli(0.5)) pattern.subject = sample.subject;
    if (rng.Bernoulli(0.5)) pattern.predicate = sample.predicate;
    if (rng.Bernoulli(0.5)) pattern.object = sample.object;

    std::vector<size_t> indexed = store.Match(pattern);
    std::vector<size_t> expected = brute_force(pattern);
    std::sort(indexed.begin(), indexed.end());
    EXPECT_EQ(indexed, expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RdfMatchConsistency,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace akb::rdf
