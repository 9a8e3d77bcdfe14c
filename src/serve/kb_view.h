// Immutable, query-optimized view of a knowledge base — the read path.
//
// TripleStore is the write-side structure: append-only and claim-carrying,
// with no per-position index (its Match is a linear scan, kept as the
// reference oracle). KbView is the only index that answers triple
// patterns, and what the paper's "actionable" KB serves queries from: the
// distinct triples plus three sorted permutation indexes (SPO, POS, OSP),
// so every one of the 8 triple-pattern shapes resolves to one contiguous
// index range by binary search — O(log n + k) for k results.
//
// Shape -> index routing (prefix in parentheses):
//   (s p o) -> SPO exact      (s p ?) -> SPO (s,p)    (s ? ?) -> SPO (s)
//   (? p o) -> POS (p,o)      (? p ?) -> POS (p)
//   (s ? o) -> OSP (o,s)      (? ? o) -> OSP (o)      (? ? ?) -> all
//
// A view's data lives in one of two backings behind the same flat spans:
//
//  - owned: built from a TripleStore — copies the triples, flattens the
//    dictionary into an arena, sorts the indexes.
//    O(n log n) construction; self-contained, the source store may be
//    mutated or destroyed afterwards.
//  - borrowed: opened from a snapshot — the spans point straight into
//    the CRC-validated mmap (rdf/snapshot.h), which the view keeps alive
//    via shared_ptr. No parse, no sort: cold start is O(validation).
//
// Either way the view is deeply immutable after construction: concurrent
// Match/Count calls from any number of threads need no synchronization.
// Anything holding pointers into the view (e.g. a QueryEngine's
// `const KbView&`) must not outlive it — in debug builds a destroyed
// borrowed view poisons its mapping, so a stale reader faults
// deterministically instead of reading recycled pages.
#ifndef AKB_SERVE_KB_VIEW_H_
#define AKB_SERVE_KB_VIEW_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/mmap_file.h"
#include "rdf/perm_index.h"
#include "rdf/triple_store.h"
#include "serve/query_trace.h"

namespace akb::serve {

/// Where the view's data came from, for statusz introspection. Snapshot
/// fields are zero/empty for views built from an in-memory store.
struct KbViewProvenance {
  std::string snapshot_path;
  uint32_t snapshot_version = 0;
  uint64_t snapshot_bytes = 0;
  /// Snapshot section sizes (exact payload bytes; zero for in-memory
  /// views) — surfaced in statusz and akb.snapshot.* metrics.
  uint64_t dict_bytes = 0;
  uint64_t triples_bytes = 0;
  uint64_t index_bytes = 0;
  uint64_t claims_bytes = 0;
  /// True when the view borrows a zero-copy mapping instead of owning
  /// rebuilt structures.
  bool mapped = false;
};

class KbView {
 public:
  /// Builds the permutation indexes over `store`'s distinct triples.
  /// O(n log n); the view keeps its own copy of triples and dictionary
  /// (flattened into an arena).
  explicit KbView(const rdf::TripleStore& store);

  /// Maps the snapshot at `path` zero-copy: validate + pointer fixup, no
  /// parse and no TripleStore. Same error taxonomy as
  /// TripleStore::LoadSnapshot: kParseError (not a snapshot),
  /// kUnimplemented (newer version or retired v1 file), kDataLoss
  /// (damaged bytes), kIoError (filesystem).
  static Result<KbView> FromSnapshot(const std::string& path);

  KbView(KbView&&) = default;
  KbView& operator=(KbView&&) = default;
  KbView(const KbView&) = delete;
  KbView& operator=(const KbView&) = delete;

  size_t num_triples() const { return num_triples_; }
  const rdf::Triple& triple(size_t i) const { return triples_[i]; }

  // ---- term access (flat arena; same TermId space as the source store)

  size_t num_terms() const { return num_terms_; }
  /// True iff `id` names a term of this view (ids are dense from 1).
  bool ContainsTerm(rdf::TermId id) const {
    return id >= 1 && id <= num_terms_;
  }
  /// Kind / lexical bytes of term `id`. Precondition: ContainsTerm(id).
  rdf::TermKind term_kind(rdf::TermId id) const {
    return rdf::TermKind(term_kinds_[id - 1]);
  }
  std::string_view term_lexical(rdf::TermId id) const {
    return std::string_view(term_bytes_ + term_offsets_[id - 1],
                            size_t(term_offsets_[id] - term_offsets_[id - 1]));
  }
  /// Materializes term `id`. Precondition: ContainsTerm(id).
  rdf::Term DecodeTerm(rdf::TermId id) const {
    return rdf::Term{term_kind(id), std::string(term_lexical(id))};
  }
  /// Surface form of term `id`; ids the view has never seen (guaranteed-
  /// miss probes) render as "<unknown#id>" rather than misbehaving.
  std::string TermToString(rdf::TermId id) const;

  /// Distinct-triple indices matching `pattern` — the same index space
  /// and result set as TripleStore::Match on the source store, answered
  /// in O(log n + k) instead of a scan over every triple. Order differs:
  /// results come back in the resolved permutation's key order, which is
  /// deterministic for a given view but not ascending (sorting k indices
  /// per query would cost more than the search; compare as sets).
  std::vector<size_t> Match(const rdf::TriplePattern& pattern) const;

  /// Match with request-scoped tracing: when `trace` is non-null, fills
  /// trace->range_size and trace->index_nanos. The untraced overload pays
  /// nothing for this.
  std::vector<size_t> Match(const rdf::TriplePattern& pattern,
                            QueryTrace* trace) const;

  /// Number of matches, without materializing them: O(log n).
  size_t Count(const rdf::TriplePattern& pattern) const;

  /// Decodes triple `i` into N-Triples surface form ("<s> <p> <o> .").
  std::string DecodeToString(size_t triple_index) const;

  /// Decodes a pattern for humans: bound terms in surface form, "?" for
  /// wildcards — slow-query log and statusz output.
  std::string DecodePattern(const rdf::TriplePattern& pattern) const;

  /// Statusz provenance: snapshot path/version/sizes when the view came
  /// from FromSnapshot, empty otherwise.
  const KbViewProvenance& provenance() const { return provenance_; }

  /// True when the view serves straight out of a mapped snapshot.
  bool mapped() const { return mapping_ != nullptr; }

  /// Approximate resident bytes of the view (triples + 3 permutations
  /// with their packed key arrays), excluding the dictionary strings.
  /// For a mapped view these bytes are page-cache-backed, not heap.
  size_t IndexBytes() const;

 private:
  KbView() = default;

  /// [begin, end) into the chosen permutation's order[] for `pattern`,
  /// or the full SPO range for the fully unbound pattern.
  std::pair<const uint32_t*, const uint32_t*> Resolve(
      const rdf::TriplePattern& pattern) const;

  // Serve-time spans. Always valid after construction; they point into
  // the owned_* storage (owned mode) or into mapping_ (borrowed mode).
  // The default move is safe: vector/string-free heap buffers and the
  // mapping don't relocate when their handles move.
  const rdf::Triple* triples_ = nullptr;
  size_t num_triples_ = 0;
  const uint64_t* term_offsets_ = nullptr;  // num_terms_ + 1 entries
  const uint8_t* term_kinds_ = nullptr;
  const char* term_bytes_ = nullptr;
  size_t num_terms_ = 0;
  // Indexed by rdf::Permutation; sorted by (s,p,o), (p,o,s), (o,s,p).
  const uint32_t* order_[3] = {nullptr, nullptr, nullptr};
  const uint64_t* keys_[3] = {nullptr, nullptr, nullptr};

  // Owned-mode storage. owned_term_bytes_ is a vector<char>, not a
  // string: small-string optimization would relocate the bytes on move
  // and dangle term_bytes_.
  std::vector<rdf::Triple> owned_triples_;
  std::vector<uint64_t> owned_term_offsets_;
  std::vector<uint8_t> owned_term_kinds_;
  std::vector<char> owned_term_bytes_;
  std::array<rdf::PermIndexData, 3> owned_perm_;

  // Borrowed-mode backing: keeps the mapped snapshot alive.
  std::shared_ptr<rdf::MmapFile> mapping_;

  KbViewProvenance provenance_;
};

}  // namespace akb::serve

#endif  // AKB_SERVE_KB_VIEW_H_
