#include "rdf/perm_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace akb::rdf {
namespace {

using Component = TermId Triple::*;

/// One counting-sort digit of a triple component: a triple's bucket is
/// (t.*component >> shift) & mask. `counts` holds each bucket's size over
/// all triples. No permutation changes those sizes, so a digit is counted
/// once and serves every pass that sorts by it.
struct Digit {
  Component component;
  unsigned shift;
  uint32_t mask;
  std::vector<uint32_t> counts;

  uint32_t Bucket(const Triple& t) const {
    return (t.*component >> shift) & mask;
  }
};

/// The digits that sort by `component`, least significant first. The whole
/// id is one digit when the largest id fits a histogram of max(n, 2^16)
/// counters; otherwise the id's two 16-bit halves are two digits. Either
/// way no histogram outgrows O(n + 2^16) counters, whatever the ids. A
/// digit whose one bucket holds every triple would be an identity pass, so
/// it is dropped.
std::vector<Digit> DigitsOf(const Triple* triples, size_t n,
                            Component component) {
  TermId max_id = 0;
  for (size_t i = 0; i < n; ++i) {
    max_id = std::max(max_id, triples[i].*component);
  }
  std::vector<Digit> digits;
  if (max_id < std::max<uint64_t>(n, uint64_t(1) << 16)) {
    digits.push_back({component, 0, ~uint32_t{0},
                      std::vector<uint32_t>(size_t(max_id) + 1)});
  } else {
    digits.push_back({component, 0, 0xFFFF, std::vector<uint32_t>(1 << 16)});
    digits.push_back({component, 16, 0xFFFF,
                      std::vector<uint32_t>(size_t(max_id >> 16) + 1)});
  }
  for (Digit& digit : digits) {
    for (size_t i = 0; i < n; ++i) ++digit.counts[digit.Bucket(triples[i])];
  }
  std::erase_if(digits, [&](const Digit& digit) {
    return n == 0 || digit.counts[digit.Bucket(triples[0])] == n;
  });
  return digits;
}

}  // namespace

std::array<PermIndexData, 3> BuildPermIndexes(const Triple* triples,
                                              size_t n) {
  const std::vector<Digit> by_subject =
      DigitsOf(triples, n, &Triple::subject);
  const std::vector<Digit> by_predicate =
      DigitsOf(triples, n, &Triple::predicate);
  const std::vector<Digit> by_object = DigitsOf(triples, n, &Triple::object);

  std::vector<uint32_t> order(n), scratch(n), next;
  std::iota(order.begin(), order.end(), 0u);
  // Stable counting-sort passes: triples with equal digits keep their
  // relative order, which is what makes the passes compose.
  auto sort_by = [&](const std::vector<Digit>& digits) {
    for (const Digit& digit : digits) {
      next.resize(digit.counts.size());
      std::exclusive_scan(digit.counts.begin(), digit.counts.end(),
                          next.begin(), uint32_t{0});
      for (uint32_t t : order) scratch[next[digit.Bucket(triples[t])]++] = t;
      order.swap(scratch);
    }
  };

  std::array<PermIndexData, 3> perms;
  // Least significant component first turns store order into SPO.
  sort_by(by_object);
  sort_by(by_predicate);
  sort_by(by_subject);
  perms[int(Permutation::kSpo)].order = order;
  // A stable pass by a rotation's last component moves it to the front,
  // and the rest keep their order: SPO by o is OSP, OSP by p is POS.
  sort_by(by_object);
  perms[int(Permutation::kOsp)].order = order;
  sort_by(by_predicate);
  perms[int(Permutation::kPos)].order = std::move(order);

  for (int p = 0; p < 3; ++p) {
    PermIndexData& perm = perms[p];
    perm.keys.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const std::array<TermId, 3> key =
          PermutationKey(triples[perm.order[i]], Permutation(p));
      perm.keys[i] = uint64_t(key[0]) << 32 | key[1];
    }
  }
  return perms;
}

}  // namespace akb::rdf
