// Attribute canonicalization and duplicate removal.
//
// The same attribute surfaces as "birth place", "Birth Place",
// "birth_place", "birthPlace", "place of birth", or a misspelling. The
// paper's extractors must merge these (KB combination does "some
// preprocessing (e.g., duplicate removal)"; open IE must "distinguish
// synonyms" to avoid redundancy). The deduper clusters surface forms by:
//   1. identifier normalization (camelCase / snake_case / hyphens -> words),
//   2. a stopword-free sorted-token key (maps "place of birth" and
//      "birth place" to the same key),
//   3. fuzzy fallback: small edit distance to an existing key. Candidates
//      are grouped by key length, and two lower bounds on edit distance
//      (character-class mask, character-count signature) reject almost all
//      of them before a bounded edit-distance DP runs; the result is the
//      same as a full scan of every cluster.
#ifndef AKB_EXTRACT_ATTRIBUTE_DEDUP_H_
#define AKB_EXTRACT_ATTRIBUTE_DEDUP_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace akb::extract {

/// The canonical clustering key of an attribute surface form.
std::string AttributeKey(std::string_view surface);

/// Clusters attribute surface forms; assigns stable cluster ids.
class AttributeDeduper {
 public:
  struct Options {
    /// Accept a fuzzy merge when the edit similarity between keys is at
    /// least this (0.82 tolerates a transposition — two unit edits — in a
    /// ~12-char key).
    double fuzzy_threshold = 0.82;
    /// Keys shorter than this never fuzzy-merge (too risky).
    size_t min_fuzzy_length = 6;
  };

  AttributeDeduper() = default;
  explicit AttributeDeduper(Options options) : options_(options) {}

  /// Adds one surface observation; returns its cluster id.
  size_t Add(std::string_view surface);

  /// Returns the cluster id `surface` would map to, or SIZE_MAX if none
  /// exists yet (const lookup; no insertion). Uses the fuzzy fallback.
  size_t Find(std::string_view surface) const;

  /// Exact-key lookup only (no fuzzy fallback). Use where a false match is
  /// expensive — e.g. Algorithm 1's pattern induction, where one value
  /// string accidentally fuzzy-matching a seed would teach the extractor
  /// the *value* tag path and flood the attribute set.
  size_t FindExact(std::string_view surface) const;

  size_t num_clusters() const { return clusters_.size(); }

  /// Most frequently observed surface form of a cluster.
  const std::string& representative(size_t cluster) const;
  /// Total observations merged into a cluster.
  size_t support(size_t cluster) const { return clusters_[cluster].support; }
  /// The cluster's normalized key.
  const std::string& key(size_t cluster) const {
    return clusters_[cluster].key;
  }

 private:
  /// Lower bounds on the edit distance between two keys, from bytes
  /// folded into 64 classes (distinct for lowercase letters, digits and
  /// space). A class present in one key and absent from the other costs at
  /// least one edit, and so does each unit of per-class count surplus (the
  /// bag distance).
  struct Signature {
    uint64_t mask = 0;
    std::array<uint8_t, 64> counts{};  // saturating

    static Signature Of(std::string_view key);
    size_t MaskBound(const Signature& other) const;
    size_t BagBound(const Signature& other) const;
  };

  struct Cluster {
    std::string key;
    Signature signature;
    size_t support = 0;
    // surface -> count, to elect the representative.
    std::unordered_map<std::string, size_t> surfaces;
    std::string best_surface;
    size_t best_count = 0;
  };

  size_t FindByKey(const std::string& key) const;

  Options options_;
  std::vector<Cluster> clusters_;
  std::unordered_map<std::string, size_t> by_key_;
  // by_length_[n]: ids of the clusters whose key has n bytes, ascending.
  std::vector<std::vector<size_t>> by_length_;
};

}  // namespace akb::extract

#endif  // AKB_EXTRACT_ATTRIBUTE_DEDUP_H_
