#include "src/xml/document.h"

#include <algorithm>

namespace svx {

NodeIndex Document::FindByOrdPath(const OrdPath& id) const {
  if (size() == 0 || !id.IsValid()) return kInvalidNode;
  // Preorder is document order is OrdPath order, so the id array is sorted:
  // binary search. (Ordinals are not positional — deletes leave gaps and
  // careted inserts extend component counts — so a per-level child walk
  // would have to decode keys; the order-based lookup is exact and O(log n)
  // regardless of id shape.)
  auto it = std::lower_bound(ord_paths_.begin(), ord_paths_.end(), id);
  if (it == ord_paths_.end() || *it != id) return kInvalidNode;
  return static_cast<NodeIndex>(it - ord_paths_.begin());
}

std::vector<NodeIndex> Document::children(NodeIndex n) const {
  std::vector<NodeIndex> out;
  for (NodeIndex c = first_child(n); c != kInvalidNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

}  // namespace svx
