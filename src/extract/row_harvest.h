// Shared label-row value harvesting for DOM extractors.
#ifndef AKB_EXTRACT_ROW_HARVEST_H_
#define AKB_EXTRACT_ROW_HARVEST_H_

#include <string>
#include <vector>

#include "html/dom.h"

namespace akb::extract {

/// Pairs the label text nodes of one page with their values. A label's row
/// is its lowest ancestor whose text extends beyond the label's own
/// alphanumeric tokens; the value is the text node that immediately follows
/// the label inside that row. Works uniformly for tr/th+td, dt+dd, li spans,
/// and div rows.
///
/// The row is the deeper of the label's lowest common ancestors with its
/// nearest alphanumeric text neighbours in document order, so building is
/// O(text nodes) per page and each lookup is O(depth); no subtree is walked
/// (docs/ALGORITHMS.md, "Row harvest").
class RowHarvester {
 public:
  explicit RowHarvester(const html::Document& doc);

  /// The page's non-empty text nodes in document order, as
  /// Document::TextNodes() returns them; labels are named by their index.
  const std::vector<const html::Node*>& texts() const { return texts_; }

  /// The trimmed value paired with the label texts()[label], or "" when the
  /// label has no row or is the last text of its row.
  std::string Value(size_t label) const;

 private:
  std::vector<const html::Node*> texts_;
  // Per index: the nearest index before / after it whose text has an
  // alphanumeric byte, or SIZE_MAX when there is none.
  std::vector<size_t> prev_alnum_;
  std::vector<size_t> next_alnum_;
};

}  // namespace akb::extract

#endif  // AKB_EXTRACT_ROW_HARVEST_H_
