// In-memory XML document: an unranked labeled ordered tree (paper §2.1).
// Every node has a unique identity (its preorder index and an ORDPATH id),
// a label from L, and optionally an atomic value from A.
//
// Storage is a flat preorder vector; a node's descendants occupy the
// half-open preorder interval [n+1, subtree_end(n)), giving O(1) ancestor
// tests, while ORDPATH ids serve the view level (paper §1 "Exploiting ID
// properties").
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

  /// First child in document order, kInvalidNode if leaf.
  NodeIndex first_child(NodeIndex n) const { return first_children_[Check(n)]; }

  /// Next sibling, kInvalidNode if last.
  NodeIndex next_sibling(NodeIndex n) const { return next_siblings_[Check(n)]; }

  /// One past the last descendant of `n` in preorder.
  NodeIndex subtree_end(NodeIndex n) const { return subtree_ends_[Check(n)]; }

  /// True iff `a` is a strict ancestor of `b` (a ≺≺ b reads "a ancestor").
  bool IsAncestor(NodeIndex a, NodeIndex b) const {
    return a < b && b < subtree_end(a);
  }

  /// True iff `a` is the parent of `b`.
  bool IsParent(NodeIndex a, NodeIndex b) const { return parent(b) == a; }

  /// Depth of `n`; the root has depth 1.
  int32_t depth(NodeIndex n) const { return depths_[Check(n)]; }

  /// Structural ORDPATH/Dewey id of `n`.
  const OrdPath& ord_path(NodeIndex n) const { return ord_paths_[Check(n)]; }

  /// Looks a node up by its ORDPATH id; kInvalidNode if absent.
  NodeIndex FindByOrdPath(const OrdPath& id) const;

  /// The label interner (shared vocabulary of this document).
  const StringInterner& labels() const { return label_interner_; }

  /// Children of `n` as a materialized vector (convenience for tests).
  std::vector<NodeIndex> children(NodeIndex n) const;

  // ---- Summary annotation (filled by SummaryBuilder) ----

  /// Summary path id of node `n`; -1 before annotation.
  int32_t path_id(NodeIndex n) const { return path_ids_[Check(n)]; }

  /// True once SummaryBuilder annotated this document.
  bool has_path_annotation() const { return !nodes_by_path_.empty(); }

  /// All nodes on summary path `path`, in document (preorder) order.
  const std::vector<NodeIndex>& nodes_on_path(int32_t path) const;

 private:
  friend class DocumentBuilder;
  friend class SubtreeSplice;
  friend class SummaryBuilder;

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
  std::vector<NodeIndex> first_children_;
  std::vector<NodeIndex> next_siblings_;
  std::vector<NodeIndex> subtree_ends_;
  std::vector<int32_t> depths_;
  std::vector<OrdPath> ord_paths_;

  // Summary annotation.
  std::vector<int32_t> path_ids_;
  std::vector<std::vector<NodeIndex>> nodes_by_path_;
};

}  // namespace svx

#endif  // SVX_XML_DOCUMENT_H_
