// Sorted permutation indexes over an array of distinct triples — the
// serve-time structure behind serve::KbView's O(log n + k) pattern
// resolution, factored into akb::rdf so the v2 snapshot writer and the
// in-memory view build *the same bytes* from the same triples. order[i]
// is a triple index; keys[i] packs the first two sort components of that
// triple into (first << 32) | second, so prefix searches binary-search a
// contiguous uint64 array.
#ifndef AKB_RDF_PERM_INDEX_H_
#define AKB_RDF_PERM_INDEX_H_

#include <array>
#include <cstdint>
#include <vector>

#include "rdf/triple.h"

namespace akb::rdf {

/// The three permutations the serve path indexes. Values double as array
/// slots in snapshots and views.
enum class Permutation { kSpo = 0, kPos = 1, kOsp = 2 };

/// The triple's key in the given permutation's sort order.
inline std::array<TermId, 3> PermutationKey(const Triple& t,
                                            Permutation perm) {
  switch (perm) {
    case Permutation::kSpo:
      return {t.subject, t.predicate, t.object};
    case Permutation::kPos:
      return {t.predicate, t.object, t.subject};
    case Permutation::kOsp:
      return {t.object, t.subject, t.predicate};
  }
  return {};
}

/// One sorted permutation: triple indices in key order plus the packed
/// two-component prefix keys, parallel arrays.
struct PermIndexData {
  std::vector<uint32_t> order;
  std::vector<uint64_t> keys;
};

/// Builds all three permutations over `triples[0, n)`, indexed by
/// Permutation. Distinct triples have distinct keys in every permutation,
/// so each order is unique — whatever builds it — and the result is
/// deterministic: the foundation of v2 snapshot byte-determinism.
///
/// Linear time: stable LSD counting-sort passes chained through the
/// rotations. SPO is sorted from store order by o, then p, then s; OSP is
/// one stable pass by o over SPO; POS is one stable pass by p over OSP.
/// Any TermId up to UINT32_MAX is safe (ids need not be in a dictionary);
/// scratch memory is O(n) beyond the output. Requires n < 2^32.
std::array<PermIndexData, 3> BuildPermIndexes(const Triple* triples,
                                              size_t n);

}  // namespace akb::rdf

#endif  // AKB_RDF_PERM_INDEX_H_
