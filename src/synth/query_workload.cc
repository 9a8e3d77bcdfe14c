#include "synth/query_workload.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/random.h"

namespace akb::synth {

namespace {

using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;

enum Shape : size_t {
  kPoint = 0,
  kSubjectScan,
  kSubjectPredicate,
  kPredicateScan,
  kObjectScan,
  kMiss,
  kNumShapes,
};

}  // namespace

std::vector<TriplePattern> GenerateQueryWorkload(
    const rdf::TripleStore& store, const QueryWorkloadConfig& config) {
  std::vector<TriplePattern> out;
  out.reserve(config.num_queries);
  if (store.num_triples() == 0 || config.num_queries == 0) return out;

  std::array<double, kNumShapes> weights = {
      config.point_weight,          config.subject_scan_weight,
      config.subject_predicate_weight, config.predicate_scan_weight,
      config.object_scan_weight,    config.miss_weight,
  };
  double total = 0.0;
  for (double w : weights) total += std::max(0.0, w);
  if (total <= 0.0) {
    weights.fill(0.0);
    weights[kPoint] = total = 1.0;
  }
  std::array<double, kNumShapes> cdf{};
  double acc = 0.0;
  for (size_t i = 0; i < kNumShapes; ++i) {
    acc += std::max(0.0, weights[i]) / total;
    cdf[i] = acc;
  }
  cdf[kNumShapes - 1] = 1.0;

  Rng rng(config.seed);
  // Zipf rank -> triple: shuffle once so the hot ranks are spread across
  // the store instead of clustering on the earliest insertions.
  std::vector<uint32_t> order(store.num_triples());
  for (size_t i = 0; i < order.size(); ++i) order[i] = uint32_t(i);
  rng.Shuffle(&order);
  ZipfTable zipf(order.size(), std::max(1e-3, config.zipf));

  // Ids strictly above the dictionary range can never match anything.
  const TermId ghost_base = TermId(store.dictionary().size() + 1);

  for (size_t q = 0; q < config.num_queries; ++q) {
    double roll = rng.NextDouble();
    size_t shape = 0;
    while (shape + 1 < kNumShapes && roll >= cdf[shape]) ++shape;

    const Triple& t = store.triple(order[zipf.Sample(&rng)]);
    TriplePattern pattern;
    switch (Shape(shape)) {
      case kPoint:
        pattern = {t.subject, t.predicate, t.object};
        break;
      case kSubjectScan:
        pattern = {t.subject, 0, 0};
        break;
      case kSubjectPredicate:
        pattern = {t.subject, t.predicate, 0};
        break;
      case kPredicateScan:
        pattern = {0, t.predicate, 0};
        break;
      case kObjectScan:
        pattern = {0, 0, t.object};
        break;
      case kMiss: {
        TermId ghost = ghost_base + TermId(rng.Index(1u << 16));
        switch (rng.Index(3)) {
          case 0:
            pattern = {ghost, 0, 0};
            break;
          case 1:
            pattern = {t.subject, ghost, 0};
            break;
          default:
            pattern = {ghost, t.predicate, t.object};
            break;
        }
        break;
      }
      case kNumShapes:
        break;
    }
    out.push_back(pattern);
  }
  return out;
}

std::vector<serve::BgpQuery> GenerateBgpWorkload(
    const rdf::TripleStore& store, const BgpWorkloadConfig& config) {
  std::vector<serve::BgpQuery> out;
  out.reserve(config.num_queries);
  if (store.num_triples() == 0 || config.num_queries == 0) return out;

  const size_t min_patterns = std::max<size_t>(2, config.min_patterns);
  const size_t max_patterns = std::min<size_t>(
      serve::kMaxBgpPatterns, std::max(min_patterns, config.max_patterns));

  Rng rng(config.seed);
  // Same Zipf-over-shuffled-triples scheme as GenerateQueryWorkload, so
  // hot subjects repeat and the join cache sees re-asked queries.
  std::vector<uint32_t> order(store.num_triples());
  for (size_t i = 0; i < order.size(); ++i) order[i] = uint32_t(i);
  rng.Shuffle(&order);
  ZipfTable zipf(order.size(), std::max(1e-3, config.zipf));

  // Subject lookups: `subject << 32 | triple index`, sorted, so a
  // subject's triples form one run in ascending index order.
  std::vector<uint64_t> by_subject(store.num_triples());
  for (size_t i = 0; i < by_subject.size(); ++i) {
    by_subject[i] = uint64_t(store.triple(i).subject) << 32 | i;
  }
  std::sort(by_subject.begin(), by_subject.end());
  auto triples_of = [&](TermId subject) {
    std::vector<size_t> out;
    for (auto it = std::lower_bound(by_subject.begin(), by_subject.end(),
                                    uint64_t(subject) << 32);
         it != by_subject.end() && *it >> 32 == subject; ++it) {
      out.push_back(size_t(*it & 0xffffffffu));
    }
    return out;
  };

  // Star over one entity variable: selective bound-object arms built from
  // the subject's actual triples, usually ending in an open "?v" tail.
  auto add_star = [&](serve::BgpQuery* q, const rdf::Triple& base) {
    serve::BgpTerm e = q->Var("e");
    std::vector<size_t> arms = triples_of(base.subject);
    size_t want = min_patterns + rng.Index(max_patterns - min_patterns + 1);
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(arms.size(), want);
    if (picks.size() < 2) {
      // A single-fact subject still yields a 2-pattern join: the bound
      // fact plus its open-tail form.
      const rdf::Triple& t = store.triple(arms[picks.empty() ? 0 : picks[0]]);
      q->Add(e, serve::BgpQuery::Bound(t.predicate),
             serve::BgpQuery::Bound(t.object));
      q->Add(e, serve::BgpQuery::Bound(t.predicate), q->Var("v0"));
      return;
    }
    for (size_t i = 0; i < picks.size(); ++i) {
      const rdf::Triple& t = store.triple(arms[picks[i]]);
      const bool open = i + 1 == picks.size()
                            ? rng.Bernoulli(config.open_tail_weight)
                            : rng.Bernoulli(0.15);
      if (open) {
        q->Add(e, serve::BgpQuery::Bound(t.predicate),
               q->Var("v" + std::to_string(i)));
      } else {
        q->Add(e, serve::BgpQuery::Bound(t.predicate),
               serve::BgpQuery::Bound(t.object));
      }
    }
  };

  for (size_t n = 0; n < config.num_queries; ++n) {
    const rdf::Triple& base = store.triple(order[zipf.Sample(&rng)]);
    serve::BgpQuery q;
    bool built = false;
    if (rng.Bernoulli(config.chain_weight)) {
      // Two-hop path ?a -p-> ?b -p2-> (o2|?v), when the object id links
      // onward as a subject.
      std::vector<size_t> hops = triples_of(base.object);
      if (!hops.empty()) {
        const rdf::Triple& hop = store.triple(hops[rng.Index(hops.size())]);
        serve::BgpTerm a = q.Var("a");
        serve::BgpTerm b = q.Var("b");
        q.Add(a, serve::BgpQuery::Bound(base.predicate), b);
        if (rng.Bernoulli(0.5)) {
          q.Add(b, serve::BgpQuery::Bound(hop.predicate),
                serve::BgpQuery::Bound(hop.object));
        } else {
          q.Add(b, serve::BgpQuery::Bound(hop.predicate), q.Var("v"));
        }
        built = true;
      }
    }
    if (!built) add_star(&q, base);
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace akb::synth
