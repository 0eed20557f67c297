// Structural summaries (strong Dataguides, Goldman & Widom VLDB'97) —
// paper §2.3 and §4.1. A summary is a tree with one node per distinct
// rooted label path in the document. The enhanced form marks:
//   * strong edges: every document node on the parent path has >= 1 child
//     on the child path (parent-child integrity constraint), and
//   * one-to-one edges: every document node on the parent path has exactly
//     one child on the child path (used to relax nesting-sequence equality,
//     §4.5).
#ifndef SVX_SUMMARY_SUMMARY_H_
#define SVX_SUMMARY_SUMMARY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/interner.h"

namespace svx {

/// Index of a node (= rooted path) inside a Summary.
using PathId = int32_t;
inline constexpr PathId kInvalidPath = -1;

/// An immutable structural summary. Node 0 is the root path.
class Summary {
 public:
  int32_t size() const { return static_cast<int32_t>(labels_.size()); }
  PathId root() const { return size() == 0 ? kInvalidPath : 0; }

  int32_t label_id(PathId s) const { return labels_[Check(s)]; }
  const std::string& label(PathId s) const {
    return label_interner_.Get(label_id(s));
  }

  PathId parent(PathId s) const { return parents_[Check(s)]; }
  const std::vector<PathId>& children(PathId s) const {
    return children_[Check(s)];
  }

  /// Depth of the path; the root has depth 1.
  int32_t depth(PathId s) const { return depths_[Check(s)]; }

  /// True iff the edge parent(s) -> s is strong. The root edge is not.
  bool strong_edge(PathId s) const { return strong_[Check(s)]; }

  /// True iff the edge parent(s) -> s is one-to-one.
  bool one_to_one(PathId s) const { return one_to_one_[Check(s)]; }

  /// Number of strong (resp. one-to-one) edges — the nS / n1 of Table 1.
  int32_t num_strong_edges() const;
  int32_t num_one_to_one_edges() const;

  /// True iff `a` is a strict ancestor path of `b`.
  bool IsAncestor(PathId a, PathId b) const {
    return a != b && IsAncestorOrSelf(a, b);
  }
  bool IsAncestorOrSelf(PathId a, PathId b) const {
    size_t ai = Check(a);
    return preorder_[Check(b)] >= preorder_[ai] &&
           preorder_[static_cast<size_t>(b)] < subtree_end_[ai];
  }

  /// True iff `a` is the parent path of `b`.
  bool IsParent(PathId a, PathId b) const { return parent(b) == a; }

  /// Child of `s` with label `label`; kInvalidPath if none.
  PathId FindChild(PathId s, const std::string& label) const;

  /// Resolves a rooted slash path "/site/regions/asia"; kInvalidPath if it
  /// does not exist in this summary.
  PathId Resolve(const std::string& slash_path) const;

  /// "/site/regions/asia" for node `s`.
  std::string PathString(PathId s) const;

  /// Nodes on the chain from `a` down to `b`, inclusive on both ends.
  /// Requires IsAncestorOrSelf(a, b).
  std::vector<PathId> Chain(PathId a, PathId b) const;

  /// All descendants of `s` (strict), in preorder.
  std::vector<PathId> Descendants(PathId s) const;

  /// The label vocabulary.
  const StringInterner& labels() const { return label_interner_; }

  /// Structural equality (labels + shape + constraint flags) under the same
  /// path numbering: equal summaries assign every document node the same
  /// path id.
  bool StructurallyEquals(const Summary& other) const;

  /// Canonical text of the labeled tree and its strong / one-to-one flags,
  /// with children ordered by label, not by path id. Two summaries have
  /// equal keys iff they admit the same documents, however their paths are
  /// numbered. Computed on first use, at most once per object
  /// (thread-safe); call only on a sealed summary that no longer changes.
  const std::string& StructureKey() const;

  // ---- Construction API (SummaryBuilder / ParseSummary) ----

  /// Appends a node under `parent` (kInvalidPath for the root; allowed only
  /// once). Returns the new node's id. Duplicate child labels are the
  /// caller's responsibility to avoid.
  PathId AppendNode(PathId parent, std::string_view label, bool strong,
                    bool one_to_one);

  /// Overwrites the constraint flags of the edge entering `s`.
  void SetEdgeFlags(PathId s, bool strong, bool one_to_one);

  /// Recomputes the preorder/subtree indexes; must be called once after the
  /// last AppendNode and before any ancestor query.
  void Seal();

 private:
  friend class SummaryBuilder;

  size_t Check(PathId s) const {
    SVX_DCHECK(s >= 0 && s < size());
    return static_cast<size_t>(s);
  }

  /// AppendNode for a label already in label_interner_; both flags unset.
  PathId AppendPath(PathId parent, int32_t label_id);

  StringInterner label_interner_;
  std::vector<int32_t> labels_;
  std::vector<PathId> parents_;
  std::vector<std::vector<PathId>> children_;
  std::vector<int32_t> depths_;
  std::vector<bool> strong_;
  std::vector<bool> one_to_one_;

  // Preorder numbering for O(1) ancestor tests.
  std::vector<int32_t> preorder_;
  std::vector<int32_t> subtree_end_;

  mutable std::once_flag structure_key_once_;
  mutable std::string structure_key_;
};

}  // namespace svx

#endif  // SVX_SUMMARY_SUMMARY_H_
