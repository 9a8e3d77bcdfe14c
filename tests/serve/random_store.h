// Shared randomized-store generator for the serve differential suites
// (single-pattern serve_property_test.cc, BGP bgp_differential_test.cc).
//
// Every store is a pure function of its seed, so a failing assertion that
// logs the seed is a one-line repro: plug the seed back into RandomStore
// and the exact store comes back.
#ifndef AKB_TESTS_SERVE_RANDOM_STORE_H_
#define AKB_TESTS_SERVE_RANDOM_STORE_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "rdf/triple_store.h"

namespace akb::serve {

/// A random store with seed-dependent shape: pool sizes vary so a term
/// occurs in anything from one triple to a hot run, and some seeds produce
/// heavy term reuse (dense patterns) while others stay sparse. `scale`
/// multiplies the pool and claim counts (1 = the historical default).
inline rdf::TripleStore RandomStore(uint64_t seed, size_t scale = 1) {
  Rng rng(seed);
  rdf::TripleStore store;
  size_t num_subjects = 1 + rng.Index(40 * scale);
  size_t num_predicates = 1 + rng.Index(12 * scale);
  size_t num_objects = 1 + rng.Index(60 * scale);
  std::vector<rdf::TermId> subjects, predicates, objects;
  for (size_t i = 0; i < num_subjects; ++i) {
    subjects.push_back(
        store.dictionary().InternIri("http://e/s" + std::to_string(i)));
  }
  for (size_t i = 0; i < num_predicates; ++i) {
    predicates.push_back(
        store.dictionary().InternIri("http://p/p" + std::to_string(i)));
  }
  for (size_t i = 0; i < num_objects; ++i) {
    objects.push_back(
        store.dictionary().InternLiteral("o" + std::to_string(i)));
  }
  size_t num_claims = rng.Index(400 * scale);  // may be zero
  for (size_t c = 0; c < num_claims; ++c) {
    store.Insert({rng.Pick(subjects), rng.Pick(predicates), rng.Pick(objects)},
                 rdf::Provenance{"src" + std::to_string(rng.Index(5)),
                                 rdf::ExtractorKind::kOther, rng.NextDouble()});
  }
  return store;
}

}  // namespace akb::serve

#endif  // AKB_TESTS_SERVE_RANDOM_STORE_H_
