// In-memory XML document: an unranked labeled ordered tree (paper §2.1).
// Every node has a unique identity (its preorder index and an ORDPATH id),
// a label from L, and optionally an atomic value from A.
//
// Storage is five flat preorder arrays — label ids, value ids, parents,
// subtree ends and ORDPATHs — and nothing derivable from them. A node's
// descendants occupy the half-open preorder interval [n+1, subtree_end(n)),
// which gives O(1) ancestor tests and O(1) first-child and next-sibling
// steps; a node's depth is its ORDPATH's. ORDPATH ids serve the view level
// (paper §1 "Exploiting ID properties"). A document is never written after
// it is built, so any number of threads may read one.
#ifndef SVX_XML_DOCUMENT_H_
#define SVX_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/check.h"
#include "src/util/interner.h"
#include "src/xml/node_id.h"

namespace svx {

/// Index of a node inside a Document (preorder position).
using NodeIndex = int32_t;
inline constexpr NodeIndex kInvalidNode = -1;

/// An immutable XML tree. Build with DocumentBuilder or XmlParser.
class Document {
 public:
  /// Number of nodes.
  int32_t size() const { return static_cast<int32_t>(labels_.size()); }

  /// Root node index (0), or kInvalidNode for an empty document.
  NodeIndex root() const { return size() == 0 ? kInvalidNode : 0; }

  /// Interned label id of node `n`.
  int32_t label_id(NodeIndex n) const { return labels_[Check(n)]; }

  /// Label string of node `n`.
  const std::string& label(NodeIndex n) const {
    return label_interner_.Get(label_id(n));
  }

  /// True if node `n` carries an atomic value.
  bool has_value(NodeIndex n) const { return value_ids_[Check(n)] >= 0; }

  /// The node's atomic value; requires has_value(n).
  const std::string& value(NodeIndex n) const {
    int32_t v = value_ids_[Check(n)];
    SVX_DCHECK(v >= 0);
    return values_[static_cast<size_t>(v)];
  }

  /// Number of stored atomic values: one per node that has one, since an
  /// update keeps no value of a node it removes.
  int32_t num_values() const { return static_cast<int32_t>(values_.size()); }

  /// Parent node, kInvalidNode for the root.
  NodeIndex parent(NodeIndex n) const { return parents_[Check(n)]; }

  /// One past the last descendant of `n` in preorder.
  NodeIndex subtree_end(NodeIndex n) const { return subtree_ends_[Check(n)]; }

  /// First child in document order, kInvalidNode if leaf: the next node in
  /// preorder, when it lies inside `n`'s subtree.
  NodeIndex first_child(NodeIndex n) const {
    return n + 1 < subtree_end(n) ? n + 1 : kInvalidNode;
  }

  /// Next sibling, kInvalidNode if last: the node after `n`'s subtree, when
  /// it lies inside the parent's subtree.
  NodeIndex next_sibling(NodeIndex n) const {
    const NodeIndex p = parent(n);
    const NodeIndex next = subtree_end(n);
    return p != kInvalidNode && next < subtree_end(p) ? next : kInvalidNode;
  }

  /// True iff `a` is a strict ancestor of `b` (a ≺≺ b reads "a ancestor").
  bool IsAncestor(NodeIndex a, NodeIndex b) const {
    return a < b && b < subtree_end(a);
  }

  /// True iff `a` is the parent of `b`.
  bool IsParent(NodeIndex a, NodeIndex b) const { return parent(b) == a; }

  /// Structural ORDPATH/Dewey id of `n`.
  const OrdPath& ord_path(NodeIndex n) const { return ord_paths_[Check(n)]; }

  /// Looks a node up by its ORDPATH id; kInvalidNode if absent.
  NodeIndex FindByOrdPath(const OrdPath& id) const;

  /// The label interner (shared vocabulary of this document).
  const StringInterner& labels() const { return label_interner_; }

  /// Children of `n` in document order, as a materialized vector.
  std::vector<NodeIndex> children(NodeIndex n) const;

 private:
  friend class DocumentBuilder;
  friend class SubtreeSplice;

  size_t Check(NodeIndex n) const {
    SVX_DCHECK(n >= 0 && n < size());
    return static_cast<size_t>(n);
  }

  StringInterner label_interner_;
  std::vector<std::string> values_;  // value storage, indexed by value id

  // Per-node parallel arrays (preorder).
  std::vector<int32_t> labels_;
  std::vector<int32_t> value_ids_;  // -1 = no value
  std::vector<NodeIndex> parents_;
  std::vector<NodeIndex> subtree_ends_;
  std::vector<OrdPath> ord_paths_;
};

}  // namespace svx

#endif  // SVX_XML_DOCUMENT_H_
