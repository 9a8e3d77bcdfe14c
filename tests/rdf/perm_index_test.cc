// Differential tests for rdf::BuildPermIndexes: every permutation's order
// and keys must equal a comparator std::sort over the same triples. The
// order of distinct triples is unique, so any difference is a bug in the
// radix build, never a legitimate tie-break.
#include "rdf/perm_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "rdf/triple_store.h"

namespace akb::rdf {
namespace {

constexpr TermId kMaxId = std::numeric_limits<TermId>::max();

PermIndexData ReferenceIndex(const std::vector<Triple>& triples,
                             Permutation perm) {
  PermIndexData ref;
  ref.order.resize(triples.size());
  std::iota(ref.order.begin(), ref.order.end(), 0u);
  std::sort(ref.order.begin(), ref.order.end(),
            [&](uint32_t a, uint32_t b) {
              return PermutationKey(triples[a], perm) <
                     PermutationKey(triples[b], perm);
            });
  for (uint32_t t : ref.order) {
    const std::array<TermId, 3> key = PermutationKey(triples[t], perm);
    ref.keys.push_back(uint64_t(key[0]) << 32 | key[1]);
  }
  return ref;
}

/// The store's distinct triples, in store order.
std::vector<Triple> TriplesOf(const TripleStore& store) {
  std::vector<Triple> triples;
  for (size_t i = 0; i < store.num_triples(); ++i) {
    triples.push_back(store.triple(i));
  }
  return triples;
}

void ExpectMatchesReference(const TripleStore& store) {
  const std::vector<Triple> triples = TriplesOf(store);
  const std::array<PermIndexData, 3> built =
      BuildPermIndexes(triples.data(), triples.size());
  for (int p = 0; p < 3; ++p) {
    const PermIndexData ref = ReferenceIndex(triples, Permutation(p));
    EXPECT_EQ(built[p].order, ref.order) << "permutation " << p;
    EXPECT_EQ(built[p].keys, ref.keys) << "permutation " << p;
  }
}

/// Inserts up to `n` random triples (duplicates collapse) with raw ids in
/// [lo, hi] per component; the ids need not be in the dictionary.
TripleStore RandomStore(Rng* rng, size_t n, TermId lo, TermId hi) {
  TripleStore store;
  auto id = [&] { return TermId(rng->UniformInt(lo, hi)); };
  for (size_t i = 0; i < n; ++i) {
    TermId s = id(), p = id(), o = id();
    store.Insert({s, p, o}, Provenance{});
  }
  return store;
}

TEST(PermIndexTest, RandomStoresMatchSort) {
  // Id ranges that take each digit plan: small ids (one whole-id pass),
  // ids straddling 65,536 in a small store (two 16-bit passes, both
  // halves varying), and full 32-bit ids.
  constexpr TermId kHighs[] = {7, 60, 70000, kMaxId};
  Rng rng(15);
  for (int store_index = 0; store_index < 200; ++store_index) {
    const TermId hi = kHighs[store_index % 4];
    const size_t n = rng.Index(2000);
    SCOPED_TRACE("store " + std::to_string(store_index) + ", n " +
                 std::to_string(n) + ", hi " + std::to_string(hi));
    ExpectMatchesReference(RandomStore(&rng, n, 1, hi));
  }
}

TEST(PermIndexTest, LargeIdsInALargeStoreMatchSort) {
  // More triples than 65,536 with ids below the triple count: each
  // component is one pass over a histogram wider than 16 bits.
  Rng rng(16);
  ExpectMatchesReference(RandomStore(&rng, 100000, 1, 90000));
}

TEST(PermIndexTest, EmptyAndSingleTriple) {
  TripleStore empty;
  const std::array<PermIndexData, 3> none = BuildPermIndexes(nullptr, 0);
  for (const PermIndexData& perm : none) {
    EXPECT_TRUE(perm.order.empty());
    EXPECT_TRUE(perm.keys.empty());
  }
  ExpectMatchesReference(empty);

  TripleStore one;
  one.Insert({kMaxId, 3, 70000}, Provenance{});
  ExpectMatchesReference(one);
}

TEST(PermIndexTest, SharedSubjectOrPredicateMatchesSort) {
  // A component with one value everywhere drops its passes entirely.
  Rng rng(17);
  TripleStore same_subject, same_predicate;
  for (int i = 0; i < 3000; ++i) {
    TermId a = TermId(rng.UniformInt(1, 100000));
    TermId b = TermId(rng.UniformInt(1, 50));
    same_subject.Insert({70001, b, a}, Provenance{});
    same_predicate.Insert({a, 42, b}, Provenance{});
  }
  ExpectMatchesReference(same_subject);
  ExpectMatchesReference(same_predicate);
}

TEST(PermIndexTest, IdsNearUint32MaxOutsideTheDictionary) {
  // Insert accepts any TermId. Ids at the top of the range must sort
  // correctly and must not size any histogram by themselves.
  Rng rng(18);
  TripleStore store;
  store.dictionary().InternIri("http://e/only-term");
  for (int i = 0; i < 3000; ++i) {
    TermId s = kMaxId - TermId(rng.Index(300));
    TermId p = kMaxId - TermId(rng.Index(3)) * 65536;
    TermId o = rng.Bernoulli(0.5) ? kMaxId - TermId(rng.Index(70000))
                                  : TermId(1 + rng.Index(10));
    store.Insert({s, p, o}, Provenance{});
  }
  ASSERT_EQ(store.dictionary().size(), 1u);
  ExpectMatchesReference(store);
}

}  // namespace
}  // namespace akb::rdf
