#include "rdf/triple_store.h"

namespace akb::rdf {

std::string_view ExtractorKindToString(ExtractorKind kind) {
  switch (kind) {
    case ExtractorKind::kGroundTruth:
      return "ground_truth";
    case ExtractorKind::kExistingKb:
      return "existing_kb";
    case ExtractorKind::kQueryStream:
      return "query_stream";
    case ExtractorKind::kDomTree:
      return "dom_tree";
    case ExtractorKind::kWebText:
      return "web_text";
    case ExtractorKind::kFusion:
      return "fusion";
    case ExtractorKind::kOther:
      return "other";
  }
  return "unknown";
}

size_t TripleStore::Insert(const Triple& triple, Provenance provenance) {
  size_t claim_index = claims_.size();
  claims_.push_back(Claim{triple, std::move(provenance)});

  auto it = triple_index_.find(triple);
  size_t ti;
  if (it != triple_index_.end()) {
    ti = it->second;
  } else {
    ti = triples_.size();
    triples_.push_back(triple);
    claims_of_.emplace_back();
    triple_index_.emplace(triple, ti);
  }
  claims_of_[ti].push_back(claim_index);
  return ti;
}

size_t TripleStore::InsertDecoded(const Term& s, const Term& p, const Term& o,
                                  Provenance provenance) {
  Triple t{dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)};
  return Insert(t, std::move(provenance));
}

bool TripleStore::Contains(const Triple& t) const {
  return triple_index_.count(t) > 0;
}

std::vector<size_t> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<size_t> out;
  for (size_t ti = 0; ti < triples_.size(); ++ti) {
    const Triple& t = triples_[ti];
    if ((!pattern.subject || t.subject == pattern.subject) &&
        (!pattern.predicate || t.predicate == pattern.predicate) &&
        (!pattern.object || t.object == pattern.object)) {
      out.push_back(ti);
    }
  }
  return out;
}

std::string TripleStore::DecodeToString(size_t triple_index) const {
  const Triple& t = triples_[triple_index];
  return dict_.Lookup(t.subject).ToString() + " " +
         dict_.Lookup(t.predicate).ToString() + " " +
         dict_.Lookup(t.object).ToString() + " .";
}

}  // namespace akb::rdf
