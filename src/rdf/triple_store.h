// In-memory triple store with provenance and pattern queries.
#ifndef AKB_RDF_TRIPLE_STORE_H_
#define AKB_RDF_TRIPLE_STORE_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/snapshot.h"
#include "rdf/triple.h"

namespace akb::rdf {

/// A triple pattern; kInvalidTermId (0) in any position is a wildcard.
struct TriplePattern {
  TermId subject = kInvalidTermId;
  TermId predicate = kInvalidTermId;
  TermId object = kInvalidTermId;

  bool operator==(const TriplePattern& other) const {
    return subject == other.subject && predicate == other.predicate &&
           object == other.object;
  }
};

/// Append-only triple store.
///
/// Stores *claims* (triple + provenance); the same triple asserted by two
/// sources yields two claims but one distinct triple, and keeps a per-triple
/// claim list for fusion. It has no per-position index: the read path is
/// serve::KbView, whose sorted permutations answer every pattern shape.
class TripleStore {
 public:
  TripleStore() = default;

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  /// The dictionary encoding this store's terms.
  Dictionary& dictionary() { return dict_; }
  const Dictionary& dictionary() const { return dict_; }

  /// Adds one claim. Returns the distinct-triple index the claim attached to.
  size_t Insert(const Triple& triple, Provenance provenance);

  /// Convenience: interns the terms and inserts.
  size_t InsertDecoded(const Term& s, const Term& p, const Term& o,
                       Provenance provenance);

  /// Number of claims (provenanced assertions).
  size_t num_claims() const { return claims_.size(); }
  /// Number of distinct triples.
  size_t num_triples() const { return triples_.size(); }

  const Claim& claim(size_t i) const { return claims_[i]; }
  const Triple& triple(size_t i) const { return triples_[i]; }

  /// All claims attached to distinct triple `i` (indices into claims).
  const std::vector<size_t>& claims_of(size_t triple_index) const {
    return claims_of_[triple_index];
  }

  /// True iff the exact triple is present.
  bool Contains(const Triple& t) const;

  /// Distinct-triple indices matching the pattern, in insertion order.
  /// A linear filter over every triple — the reference oracle that
  /// serve::KbView's indexed answers are checked against, not a read path.
  std::vector<size_t> Match(const TriplePattern& pattern) const;

  /// Decodes triple `i` into N-Triples surface form ("<s> <p> <o> .").
  std::string DecodeToString(size_t triple_index) const;

  /// Writes the store as a binary snapshot (see rdf/snapshot.h): the
  /// page-aligned zero-copy serve image — dictionary arena, triple array,
  /// prebuilt permutation indexes, and the claims, so it is lossless.
  /// Crash-safe: the bytes go to `path.tmp.<pid>`, are fsynced, and are
  /// renamed over `path`; on any error the temp file is removed and
  /// `path` is left untouched. `stats` (optional) receives the sizes.
  Status SaveSnapshot(const std::string& path,
                      SnapshotFormat format = SnapshotFormat::kV2,
                      SnapshotStats* stats = nullptr) const;

  /// Replaces this store's contents with the snapshot at `path`. Every
  /// section is CRC-checked and structurally validated; on any failure
  /// the store is left exactly as it was (a partial snapshot never loads).
  Status LoadSnapshot(const std::string& path, SnapshotStats* stats = nullptr);

 private:
  /// Writes the snapshot image to `path` in place (no publish step).
  Status WriteSnapshotFile(const std::string& path,
                           SnapshotStats* stats) const;

  Dictionary dict_;
  std::vector<Claim> claims_;
  std::vector<Triple> triples_;
  std::vector<std::vector<size_t>> claims_of_;
  std::unordered_map<Triple, size_t, TripleHash> triple_index_;
};

}  // namespace akb::rdf

#endif  // AKB_RDF_TRIPLE_STORE_H_
