#include "extract/row_harvest.h"

#include <cctype>
#include <cstdint>

#include "common/string_util.h"

namespace akb::extract {

namespace {

bool HasAlnum(const std::string& text) {
  for (unsigned char c : text) {
    if (std::isalnum(c)) return true;
  }
  return false;
}

// Lowest common ancestor of `a` (at depth `depth_a`) and `b`; sets `*depth`
// to the ancestor's depth.
const html::Node* LowestCommonAncestor(const html::Node* a, size_t depth_a,
                                       const html::Node* b, size_t* depth) {
  size_t depth_b = b->Depth();
  for (; depth_a > depth_b; --depth_a) a = a->parent();
  for (; depth_b > depth_a; --depth_b) b = b->parent();
  while (a != b) {
    a = a->parent();
    b = b->parent();
    --depth_a;
  }
  *depth = depth_a;
  return a;
}

bool IsAncestor(const html::Node* ancestor, const html::Node* node) {
  for (; node != nullptr; node = node->parent()) {
    if (node == ancestor) return true;
  }
  return false;
}

}  // namespace

RowHarvester::RowHarvester(const html::Document& doc)
    : texts_(doc.TextNodes()),
      prev_alnum_(texts_.size()),
      next_alnum_(texts_.size()) {
  std::vector<bool> alnum(texts_.size());
  size_t last = SIZE_MAX;
  for (size_t i = 0; i < texts_.size(); ++i) {
    prev_alnum_[i] = last;
    alnum[i] = HasAlnum(texts_[i]->text());
    if (alnum[i]) last = i;
  }
  last = SIZE_MAX;
  for (size_t i = texts_.size(); i-- > 0;) {
    next_alnum_[i] = last;
    if (alnum[i]) last = i;
  }
}

std::string RowHarvester::Value(size_t label) const {
  // The row's normalized text equals the label's exactly while no other
  // alphanumeric text lies beneath it, so the row is the lowest ancestor
  // holding the nearest such text on either side.
  const html::Node* node = texts_[label];
  size_t label_depth = node->Depth();
  const html::Node* row = nullptr;
  size_t row_depth = 0;
  for (size_t neighbour : {prev_alnum_[label], next_alnum_[label]}) {
    if (neighbour == SIZE_MAX) continue;
    size_t depth;
    const html::Node* lca =
        LowestCommonAncestor(node, label_depth, texts_[neighbour], &depth);
    if (row == nullptr || depth > row_depth) {
      row = lca;
      row_depth = depth;
    }
  }
  // A row's texts are a contiguous run of texts_, so the label's successor
  // inside the row is texts_[label + 1] when the row holds it.
  if (row == nullptr || label + 1 >= texts_.size() ||
      !IsAncestor(row, texts_[label + 1])) {
    return "";
  }
  return std::string(Trim(texts_[label + 1]->text()));
}

}  // namespace akb::extract
