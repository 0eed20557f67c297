#include "src/xml/document.h"

namespace svx {

NodeIndex Document::FindByOrdPath(const OrdPath& id) const {
  if (size() == 0 || !id.IsValid()) return kInvalidNode;
  // Preorder is document order is byte order of the ids, so the id buffer
  // is sorted: binary search. (Ordinals are not positional — deletes leave
  // gaps and careted inserts lengthen ids — so a per-level child walk would
  // have to decode keys; the order-based lookup is exact and O(log n)
  // regardless of id shape.)
  const std::string_view key = id.bytes();
  NodeIndex lo = 0;
  NodeIndex hi = size();
  while (lo < hi) {
    const NodeIndex mid = lo + (hi - lo) / 2;
    if (IdBytes(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < size() && IdBytes(lo) == key ? lo : kInvalidNode;
}

std::vector<NodeIndex> Document::children(NodeIndex n) const {
  std::vector<NodeIndex> out;
  for (NodeIndex c = first_child(n); c != kInvalidNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

}  // namespace svx
