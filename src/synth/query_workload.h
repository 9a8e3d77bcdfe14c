// Synthetic KB query workload — the serving-side counterpart of the
// query-stream generator. Where query_gen.h fabricates the *extraction*
// input (natural-language search queries), this fabricates the *read*
// load against a finished KB: a seeded mix of triple patterns drawn from
// a loaded store, standing in for the "heavy traffic from millions of
// users" the ROADMAP targets.
//
// The mix models an entity-centric serving workload: mostly point lookups
// and subject scans ("everything about entity E"), some predicate and
// object scans (analytics-ish), and a slice of guaranteed misses (ids the
// KB has never seen). Pattern targets are Zipf-skewed over the store's
// triples so repeated hot keys exist, as in a real serving workload (the
// net layer's single-flight coalescing feeds on them).
#ifndef AKB_SYNTH_QUERY_WORKLOAD_H_
#define AKB_SYNTH_QUERY_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "rdf/triple_store.h"
#include "serve/bgp.h"

namespace akb::synth {

struct QueryWorkloadConfig {
  size_t num_queries = 10000;
  uint64_t seed = 17;

  /// Shape mix; weights are normalized over their sum.
  double point_weight = 0.35;          ///< (s p o), present in the KB
  double subject_scan_weight = 0.25;   ///< (s ? ?)
  double subject_predicate_weight = 0.15;  ///< (s p ?)
  double predicate_scan_weight = 0.08;     ///< (? p ?)
  double object_scan_weight = 0.07;        ///< (? ? o)
  double miss_weight = 0.10;  ///< a bound position that matches nothing

  /// Zipf exponent over the store's triples: hot entities get queried far
  /// more often than the tail (0 = uniform).
  double zipf = 0.8;
};

/// Generates `config.num_queries` patterns against `store`'s id space.
/// Deterministic in (store contents, config). The store only provides the
/// triple population and dictionary size; it is not queried.
std::vector<rdf::TriplePattern> GenerateQueryWorkload(
    const rdf::TripleStore& store, const QueryWorkloadConfig& config);

/// Join-shaped (BGP) workload against a loaded KB — the access pattern
/// the related work's KB consumers actually issue: star lookups like
/// "attributes of entities of class C whose X = V" (2-4 patterns sharing
/// one entity variable, selective bound-object arms plus an open tail)
/// and, where the KB's object ids reappear as subjects, two-hop path
/// queries. Subjects are Zipf-skewed so hot joins repeat and the BGP
/// join cache has something to do.
struct BgpWorkloadConfig {
  size_t num_queries = 1000;
  uint64_t seed = 29;
  /// Zipf exponent over the store's triples (0 = uniform).
  double zipf = 0.8;
  /// Patterns per query, clamped to [2, serve::kMaxBgpPatterns].
  size_t min_patterns = 2;
  size_t max_patterns = 4;
  /// Fraction of queries that try a two-hop path template (falls back to
  /// a star when the sampled object never appears as a subject).
  double chain_weight = 0.15;
  /// Probability the star's last arm keeps a variable object (an open
  /// "... ?v" tail) instead of a fully bound one.
  double open_tail_weight = 0.8;
};

/// Deterministic in (store contents, config). Every generated query
/// passes serve::ValidateBgp and joins on shared variables (no
/// cross-products).
std::vector<serve::BgpQuery> GenerateBgpWorkload(
    const rdf::TripleStore& store, const BgpWorkloadConfig& config);

}  // namespace akb::synth

#endif  // AKB_SYNTH_QUERY_WORKLOAD_H_
