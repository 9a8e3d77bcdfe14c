#include "serve/kb_view.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "rdf/snapshot.h"

namespace akb::serve {

namespace {

using rdf::Permutation;
using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;

}  // namespace

KbView::KbView(const rdf::TripleStore& store) {
  Stopwatch watch;

  owned_triples_.reserve(store.num_triples());
  for (size_t i = 0; i < store.num_triples(); ++i) {
    owned_triples_.push_back(store.triple(i));
  }
  triples_ = owned_triples_.data();
  num_triples_ = owned_triples_.size();

  // Flatten the dictionary into the same arena shape a snapshot
  // carries, so both backings serve through identical span code.
  const rdf::Dictionary& dict = store.dictionary();
  num_terms_ = dict.size();
  owned_term_offsets_.resize(num_terms_ + 1, 0);
  owned_term_kinds_.resize(num_terms_, 0);
  size_t total_bytes = 0;
  for (TermId id = 1; id <= num_terms_; ++id) {
    total_bytes += dict.Lookup(id).lexical.size();
  }
  owned_term_bytes_.reserve(total_bytes);
  for (TermId id = 1; id <= num_terms_; ++id) {
    const rdf::Term& term = dict.Lookup(id);
    owned_term_offsets_[id - 1] = owned_term_bytes_.size();
    owned_term_kinds_[id - 1] = uint8_t(term.kind);
    owned_term_bytes_.insert(owned_term_bytes_.end(), term.lexical.begin(),
                             term.lexical.end());
  }
  owned_term_offsets_[num_terms_] = owned_term_bytes_.size();
  term_offsets_ = owned_term_offsets_.data();
  term_kinds_ = owned_term_kinds_.data();
  term_bytes_ = owned_term_bytes_.data();

  // Same builder as the snapshot writer, so a built view and a mapped
  // view of the same store are byte-identical structures.
  owned_perm_ = rdf::BuildPermIndexes(triples_, num_triples_);
  for (int p = 0; p < 3; ++p) {
    order_[p] = owned_perm_[p].order.data();
    keys_[p] = owned_perm_[p].keys.data();
  }

  AKB_GAUGE_SET("akb.serve.view.triples", int64_t(num_triples_));
  AKB_HISTOGRAM_RECORD("akb.serve.view.build_micros", watch.ElapsedMicros());
}

Result<KbView> KbView::FromSnapshot(const std::string& path) {
  AKB_ASSIGN_OR_RETURN(rdf::SnapshotV2View v2, rdf::OpenSnapshotV2(path));
  Stopwatch watch;
  KbView view;
  view.triples_ = v2.triples;
  view.num_triples_ = size_t(v2.num_triples);
  view.term_offsets_ = v2.term_offsets;
  view.term_kinds_ = v2.term_kinds;
  view.term_bytes_ = v2.term_bytes;
  view.num_terms_ = size_t(v2.num_terms);
  for (int p = 0; p < 3; ++p) {
    view.order_[p] = v2.order[p];
    view.keys_[p] = v2.keys[p];
  }
  view.mapping_ = std::move(v2.mapping);

  KbViewProvenance& prov = view.provenance_;
  prov.snapshot_path = path;
  prov.snapshot_version = v2.stats.version;
  prov.snapshot_bytes = v2.stats.bytes;
  prov.dict_bytes = v2.stats.dict_bytes;
  prov.triples_bytes = v2.stats.triples_bytes;
  prov.index_bytes = v2.stats.index_bytes;
  prov.claims_bytes = v2.stats.claims_bytes;
  prov.mapped = true;

  AKB_GAUGE_SET("akb.serve.view.triples", int64_t(view.num_triples_));
  AKB_HISTOGRAM_RECORD("akb.serve.view.map_micros", watch.ElapsedMicros());
  return view;
}

std::pair<const uint32_t*, const uint32_t*> KbView::Resolve(
    const TriplePattern& pattern) const {
  int perm = int(Permutation::kSpo);
  std::array<TermId, 2> prefix{};
  size_t len = 0;
  bool exact = false;  // All three positions bound.

  const bool s = pattern.subject != rdf::kInvalidTermId;
  const bool p = pattern.predicate != rdf::kInvalidTermId;
  const bool o = pattern.object != rdf::kInvalidTermId;
  if (s && p && o) {
    prefix = {pattern.subject, pattern.predicate};
    len = 2;
    exact = true;
  } else if (s && p) {
    prefix = {pattern.subject, pattern.predicate};
    len = 2;
  } else if (p && o) {
    perm = int(Permutation::kPos);
    prefix = {pattern.predicate, pattern.object};
    len = 2;
  } else if (s && o) {
    perm = int(Permutation::kOsp);
    prefix = {pattern.object, pattern.subject};
    len = 2;
  } else if (s) {
    prefix = {pattern.subject, 0};
    len = 1;
  } else if (p) {
    perm = int(Permutation::kPos);
    prefix = {pattern.predicate, 0};
    len = 1;
  } else if (o) {
    perm = int(Permutation::kOsp);
    prefix = {pattern.object, 0};
    len = 1;
  } else {
    // Fully unbound: the whole view, in any permutation.
    return {order_[perm], order_[perm] + num_triples_};
  }

  // Every probe touches only the contiguous packed-key array.
  const uint64_t* kbase = keys_[perm];
  const uint64_t* klimit = kbase + num_triples_;
  const uint64_t* kbegin;
  const uint64_t* kend;
  if (len == 1) {
    kbegin = std::lower_bound(kbase, klimit, uint64_t(prefix[0]) << 32);
    kend = std::lower_bound(kbegin, klimit, (uint64_t(prefix[0]) + 1) << 32);
  } else {
    const uint64_t key = uint64_t(prefix[0]) << 32 | prefix[1];
    kbegin = std::lower_bound(kbase, klimit, key);
    kend = std::upper_bound(kbegin, klimit, key);
  }
  const uint32_t* begin = order_[perm] + (kbegin - kbase);
  const uint32_t* end = order_[perm] + (kend - kbase);
  if (exact) {
    // Narrowed to the (s,p) run of SPO, which is sorted by object; the
    // store holds distinct triples, so at most one entry matches.
    begin = std::partition_point(begin, end, [&](uint32_t i) {
      return triples_[i].object < pattern.object;
    });
    end = (begin != end && triples_[*begin].object == pattern.object)
              ? begin + 1
              : begin;
  }
  return {begin, end};
}

std::vector<size_t> KbView::Match(const TriplePattern& pattern) const {
  if (pattern.subject == rdf::kInvalidTermId &&
      pattern.predicate == rdf::kInvalidTermId &&
      pattern.object == rdf::kInvalidTermId) {
    std::vector<size_t> out(num_triples_);
    std::iota(out.begin(), out.end(), size_t{0});
    return out;
  }
  auto [begin, end] = Resolve(pattern);
  // Returned in the resolved permutation's key order, NOT ascending:
  // sorting k indices per query costs more than the search itself
  // (branch-mispredict bound), and result sets don't need an order.
  return std::vector<size_t>(begin, end);
}

std::vector<size_t> KbView::Match(const TriplePattern& pattern,
                                  QueryTrace* trace) const {
  if (trace == nullptr) return Match(pattern);
  Stopwatch watch;
  std::vector<size_t> matches = Match(pattern);
  trace->index_nanos = watch.ElapsedNanos();
  trace->range_size = matches.size();
  return matches;
}

std::string KbView::TermToString(TermId id) const {
  // Queries may carry ids the KB has never interned (guaranteed-miss
  // probes); render them rather than violating the access precondition.
  if (!ContainsTerm(id)) return "<unknown#" + std::to_string(id) + ">";
  return DecodeTerm(id).ToString();
}

std::string KbView::DecodePattern(const TriplePattern& pattern) const {
  auto term = [&](TermId id) {
    if (id == rdf::kInvalidTermId) return std::string("?");
    return TermToString(id);
  };
  return term(pattern.subject) + " " + term(pattern.predicate) + " " +
         term(pattern.object);
}

size_t KbView::Count(const TriplePattern& pattern) const {
  auto [begin, end] = Resolve(pattern);
  return size_t(end - begin);
}

std::string KbView::DecodeToString(size_t triple_index) const {
  const Triple& t = triples_[triple_index];
  return TermToString(t.subject) + " " + TermToString(t.predicate) + " " +
         TermToString(t.object) + " .";
}

size_t KbView::IndexBytes() const {
  return num_triples_ *
         (sizeof(Triple) + 3 * (sizeof(uint32_t) + sizeof(uint64_t)));
}

}  // namespace akb::serve
