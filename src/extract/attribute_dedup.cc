#include "extract/attribute_dedup.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "common/string_util.h"

namespace akb::extract {

namespace {

bool IsStopword(const std::string& token) {
  return token == "of" || token == "the" || token == "a" || token == "an" ||
         token == "for" || token == "in";
}

}  // namespace

std::string AttributeKey(std::string_view surface) {
  // Unfold identifier styles, drop stopwords, sort the remaining tokens so
  // "place of birth" and "birth place" collide.
  std::vector<std::string> tokens =
      SplitWhitespace(NormalizeIdentifier(surface));
  std::vector<std::string> kept;
  for (auto& token : tokens) {
    if (!IsStopword(token)) kept.push_back(std::move(token));
  }
  if (kept.empty()) kept = std::move(tokens);  // all-stopword surface
  std::sort(kept.begin(), kept.end());
  return Join(kept, " ");
}

namespace {

// Byte -> one of 64 character classes: lowercase letters, digits and space
// (all a key is made of) get a class each; every other byte shares one of
// the remaining 27.
constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    if (c >= 'a' && c <= 'z') {
      table[c] = static_cast<uint8_t>(c - 'a');
    } else if (c >= '0' && c <= '9') {
      table[c] = static_cast<uint8_t>(26 + (c - '0'));
    } else if (c == ' ') {
      table[c] = 36;
    } else {
      table[c] = static_cast<uint8_t>(37 + c % 27);
    }
  }
  return table;
}();

// EditSimilarity of two keys at distance `d` whose longer one has `m` > 0
// bytes — the same double expression, so comparisons agree bit for bit.
double SimilarityAt(size_t d, size_t m) {
  return 1.0 - static_cast<double>(d) / static_cast<double>(m);
}

// The largest d in [0, m] with SimilarityAt(d, m) >= min_sim, for
// min_sim <= 1 (so d = 0 always qualifies). The similarity falls
// monotonically in d, so step from the real-valued estimate to the exact
// boundary.
size_t EditBudget(size_t m, double min_sim) {
  double estimate = (1.0 - min_sim) * static_cast<double>(m);
  size_t d = 0;
  if (estimate >= static_cast<double>(m)) {
    d = m;
  } else if (estimate > 0.0) {
    d = static_cast<size_t>(estimate);
  }
  while (d > 0 && SimilarityAt(d, m) < min_sim) --d;
  while (d < m && SimilarityAt(d + 1, m) >= min_sim) ++d;
  return d;
}

}  // namespace

AttributeDeduper::Signature AttributeDeduper::Signature::Of(
    std::string_view key) {
  Signature sig;
  for (unsigned char c : key) {
    uint8_t cls = kCharClass[c];
    sig.mask |= uint64_t{1} << cls;
    if (sig.counts[cls] < UINT8_MAX) ++sig.counts[cls];
  }
  return sig;
}

size_t AttributeDeduper::Signature::MaskBound(const Signature& other) const {
  return static_cast<size_t>(std::max(std::popcount(mask & ~other.mask),
                                      std::popcount(other.mask & ~mask)));
}

size_t AttributeDeduper::Signature::BagBound(const Signature& other) const {
  // Saturated counts only shrink each surplus, so the bound stays valid.
  size_t surplus = 0, deficit = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    int delta = int{counts[i]} - int{other.counts[i]};
    if (delta > 0) {
      surplus += static_cast<size_t>(delta);
    } else {
      deficit += static_cast<size_t>(-delta);
    }
  }
  return std::max(surplus, deficit);
}

size_t AttributeDeduper::FindByKey(const std::string& key) const {
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return it->second;
  // Fuzzy fallback: the most similar existing key within the threshold,
  // the later cluster on a tie. Every cluster key is in by_key_, so each
  // candidate differs from `key` and the longer of the two is non-empty.
  if (key.size() < options_.min_fuzzy_length) return SIZE_MAX;
  const Signature sig = Signature::Of(key);
  const size_t la = key.size();
  size_t best = SIZE_MAX;
  double best_sim = options_.fuzzy_threshold;
  for (size_t lb = options_.min_fuzzy_length; lb < by_length_.size(); ++lb) {
    const std::vector<size_t>& bucket = by_length_[lb];
    if (bucket.empty()) continue;
    // Cheap length prefilter before any per-cluster work. A threshold
    // above 1 fails it at every length, so best_sim <= 1 past this point.
    size_t diff = la > lb ? la - lb : lb - la;
    size_t m = std::max(la, lb);
    if (static_cast<double>(diff) >
        (1.0 - options_.fuzzy_threshold) * static_cast<double>(m)) {
      continue;
    }
    // Edits a candidate of this length may need and still reach best_sim.
    size_t k = EditBudget(m, best_sim);
    for (size_t c : bucket) {
      const Cluster& candidate = clusters_[c];
      if (sig.MaskBound(candidate.signature) > k) continue;
      if (sig.BagBound(candidate.signature) > k) continue;
      size_t d = EditDistanceWithin(key, candidate.key, k);
      if (d > k) continue;
      double sim = SimilarityAt(d, m);
      if (sim > best_sim || best == SIZE_MAX || c > best) {
        best_sim = sim;
        best = c;
        k = EditBudget(m, best_sim);
      }
    }
  }
  return best;
}

size_t AttributeDeduper::Find(std::string_view surface) const {
  return FindByKey(AttributeKey(surface));
}

size_t AttributeDeduper::FindExact(std::string_view surface) const {
  auto it = by_key_.find(AttributeKey(surface));
  return it == by_key_.end() ? SIZE_MAX : it->second;
}

size_t AttributeDeduper::Add(std::string_view surface) {
  std::string key = AttributeKey(surface);
  size_t cluster = FindByKey(key);
  if (cluster == SIZE_MAX) {
    cluster = clusters_.size();
    clusters_.emplace_back();
    clusters_[cluster].key = key;
    clusters_[cluster].signature = Signature::Of(key);
    if (by_length_.size() <= key.size()) by_length_.resize(key.size() + 1);
    by_length_[key.size()].push_back(cluster);
    by_key_.emplace(key, cluster);
  } else if (!by_key_.count(key)) {
    // A fuzzy merge: remember this spelling of the key, too.
    by_key_.emplace(key, cluster);
  }
  Cluster& c = clusters_[cluster];
  ++c.support;
  size_t count = ++c.surfaces[std::string(surface)];
  if (count > c.best_count) {
    c.best_count = count;
    c.best_surface = std::string(surface);
  }
  return cluster;
}

const std::string& AttributeDeduper::representative(size_t cluster) const {
  return clusters_[cluster].best_surface;
}

}  // namespace akb::extract
