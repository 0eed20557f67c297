// The extended tree pattern language (paper §2.2 and §4):
//   * nodes labeled from L ∪ {*}, edges labeled / (child) or // (descendant),
//   * value predicates on nodes (§4.2),
//   * optional edges — dashed in the paper (§4.3),
//   * per-node attributes ID / L / V / C (§4.4); nodes with at least one
//     attribute are the pattern's return nodes,
//   * nested edges, n-labeled in the paper (§4.5).
//
// Patterns are absolutely rooted: the pattern root embeds into the document
// root (§2.2).
#ifndef SVX_PATTERN_PATTERN_H_
#define SVX_PATTERN_PATTERN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/pattern/predicate.h"
#include "src/util/check.h"

namespace svx {

/// Edge axis between a pattern node and its parent.
enum class Axis : uint8_t {
  kChild,       // '/'
  kDescendant,  // '//'
};

/// Attribute bits (§4.4). A node with any bit set is a return node.
inline constexpr uint8_t kAttrId = 1;       // structural identifier
inline constexpr uint8_t kAttrLabel = 2;    // L: node label
inline constexpr uint8_t kAttrValue = 4;    // V: atomic value
inline constexpr uint8_t kAttrContent = 8;  // C: subtree content

/// Index of a node inside a Pattern.
using PatternNodeId = int32_t;

/// An extended tree pattern. Node 0 is the root; nodes are stored in
/// preorder, which also fixes the order of return nodes (and hence the
/// result tuple layout).
class Pattern {
 public:
  struct Node {
    std::string label;          // "*" = wildcard
    PatternNodeId parent = -1;  // -1 for the root
    Axis axis = Axis::kChild;   // edge from parent; meaningless for root
    bool optional = false;      // dashed edge from parent (§4.3)
    bool nested = false;        // n-edge from parent (§4.5)
    uint8_t attrs = 0;          // kAttr* bitmask (§4.4)
    Predicate pred = Predicate::True();  // value formula (§4.2)
    std::vector<PatternNodeId> children;

    bool IsWildcard() const { return label == "*"; }
    bool IsReturn() const { return attrs != 0; }
  };

  Pattern() = default;

  /// Creates the root node. Must be called exactly once, first.
  PatternNodeId SetRoot(std::string_view label, uint8_t attrs = 0,
                        Predicate pred = Predicate::True());

  /// Appends a child; `parent` must already exist. Children are attached
  /// in call order (preorder construction is the caller's responsibility if
  /// node-id order matters).
  PatternNodeId AddChild(PatternNodeId parent, std::string_view label,
                         Axis axis, uint8_t attrs = 0,
                         Predicate pred = Predicate::True(),
                         bool optional = false, bool nested = false);

  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }
  PatternNodeId root() const { return 0; }

  const Node& node(PatternNodeId n) const {
    SVX_DCHECK(n >= 0 && n < size());
    return nodes_[static_cast<size_t>(n)];
  }
  Node& mutable_node(PatternNodeId n) {
    SVX_DCHECK(n >= 0 && n < size());
    return nodes_[static_cast<size_t>(n)];
  }

  /// Return nodes in preorder (= result-tuple column order).
  std::vector<PatternNodeId> ReturnNodes() const;

  /// Number of return nodes (the pattern's arity k).
  int32_t Arity() const {
    return static_cast<int32_t>(ReturnNodes().size());
  }

  /// Ids of nodes whose incoming edge is optional.
  std::vector<PatternNodeId> OptionalEdges() const;

  /// True if any edge is optional / nested / any node has a non-True
  /// predicate.
  bool HasOptionalEdges() const;
  bool HasNestedEdges() const;
  bool HasPredicates() const;

  /// Number of nested edges on the path from the root to `n` (the length of
  /// the §4.5 nesting sequence |ns(n)| — independent of the embedding).
  int32_t NestingDepth(PatternNodeId n) const;

  /// The nested-edge ancestors of `n` (nearest last), i.e. the pattern nodes
  /// u on the root path such that the edge entering u is nested.
  std::vector<PatternNodeId> NestingAncestors(PatternNodeId n) const;

  /// Copy with every edge made non-optional (the paper's p0, §4.3).
  Pattern Strict() const;

  /// Copy with the subtrees rooted at the given nodes removed (each id must
  /// not be the root). Node ids are renumbered; the returned mapping gives
  /// old-id -> new-id (-1 if erased).
  Pattern EraseSubtrees(const std::vector<PatternNodeId>& roots,
                        std::vector<PatternNodeId>* old_to_new = nullptr) const;

  /// Nodes of the subtree rooted at `n`, in preorder.
  std::vector<PatternNodeId> SubtreeNodes(PatternNodeId n) const;

  /// True iff `a` is `b` or an ancestor of `b`.
  bool IsAncestorOrSelf(PatternNodeId a, PatternNodeId b) const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace svx

#endif  // SVX_PATTERN_PATTERN_H_
