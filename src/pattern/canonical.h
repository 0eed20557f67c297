// The summary-based canonical model modS(p) (paper §2.4), with the
// extensions of §4: enhanced-summary strong-edge closure (§4.1), decorated
// nodes carrying formulas (§4.2) and optional edges (§4.3).
//
// A canonical tree is a *tree* whose nodes are labeled by summary paths: per
// §2.4, the node for e(n) has exactly one child chain per pattern child, so
// two sibling pattern nodes mapping to the same path yield two distinct
// canonical nodes (likewise two decorated nodes with different formulas,
// §4.2). Trees that are structurally identical (same shape, paths, formulas
// and return/nesting marks) are deduplicated — the paper's observation that
// distinct embeddings may yield the same canonical tree.
#ifndef SVX_PATTERN_CANONICAL_H_
#define SVX_PATTERN_CANONICAL_H_

#include <cstdint>
#include <vector>

#include "src/pattern/embedding.h"
#include "src/pattern/evaluator.h"
#include "src/pattern/pattern.h"
#include "src/summary/summary.h"
#include "src/util/status.h"

namespace svx {

/// One tree of modS(p). Node 0 is the root (mapped to the summary root).
struct CanonicalTree {
  /// ⊥ marker inside return tuples.
  static constexpr int32_t kBottom = -1;

  std::vector<PathId> paths;      // per node: its summary path
  std::vector<int32_t> parents;   // per node: parent index (-1 for root)
  std::vector<std::vector<int32_t>> children;  // per node
  /// Formula per node (§4.2); empty when the pattern has no predicates.
  std::vector<Predicate> formulas;
  /// Return bindings as node indexes, pattern preorder; kBottom = ⊥ (§4.3).
  std::vector<int32_t> return_tuple;
  /// Nesting sequence per return node as node indexes (§4.5); empty when the
  /// pattern has no nested edges.
  std::vector<std::vector<int32_t>> nesting_seqs;

  int32_t size() const { return static_cast<int32_t>(paths.size()); }
  bool HasFormulas() const { return !formulas.empty(); }
  const Predicate& FormulaFor(int32_t node) const;

  /// Paths of all nodes, sorted (with duplicates).
  std::vector<PathId> SortedPaths() const;
  /// Return tuple as paths (kInvalidPath for ⊥).
  std::vector<PathId> ReturnPaths() const;

  /// Canonical structural encoding: two trees are equal iff their encodings
  /// are (children are compared order-insensitively).
  const std::string& Encoding() const;
  size_t Hash() const;
  bool operator==(const CanonicalTree& other) const {
    return Encoding() == other.Encoding();
  }

  /// Recomputes children lists and the cached encoding; call after direct
  /// construction.
  void Seal();

 private:
  mutable std::string encoding_;
};

/// TreeLike adapter exposing a canonical tree to the evaluator. Node
/// handles are CanonicalTree node indexes.
class CanonicalTreeView : public TreeLike {
 public:
  CanonicalTreeView(const CanonicalTree& tree, const Summary& summary)
      : tree_(tree), summary_(summary) {}
  int32_t Root() const override { return tree_.size() == 0 ? -1 : 0; }
  std::vector<int32_t> Children(int32_t n) const override {
    return tree_.children[static_cast<size_t>(n)];
  }
  bool Matches(const Pattern::Node& pn, int32_t n,
               FormulaMode mode) const override;

  PathId path(int32_t n) const {
    return tree_.paths[static_cast<size_t>(n)];
  }

 private:
  const CanonicalTree& tree_;
  const Summary& summary_;
};

/// Options bounding the model construction (worst case |S|^|p|, §3.1).
struct CanonicalModelOptions {
  /// Apply the §4.1 strong-edge closure (enhanced summaries).
  bool use_strong_edges = true;
  /// Abort with ResourceExhausted beyond this many embeddings per
  /// optional-edge subset.
  size_t max_embeddings = 1 << 20;
  /// Abort beyond this many distinct canonical trees.
  size_t max_trees = 1 << 18;
};

/// Builds modS(p). Deduplicated; deterministic order. A pattern with more
/// than 20 optional edges is refused with ResourceExhausted (its 2^|E| edge
/// subsets are enumerated).
Result<std::vector<CanonicalTree>> BuildCanonicalModel(
    const Pattern& p, const Summary& summary,
    const CanonicalModelOptions& options = {});

/// Streams modS(p) tree by tree (deduplicated): `sink` may return false to
/// stop early. This is what lets negative containment tests exit as soon as
/// one tree contradicts the condition (§5: "the latter are faster").
[[nodiscard]] Status ForEachCanonicalTree(const Pattern& p, const Summary& summary,
                            const CanonicalModelOptions& options,
                            const std::function<bool(const CanonicalTree&)>& sink);

/// Satisfiability: p is S-satisfiable iff modS(p) is non-empty (§2.4).
[[nodiscard]] Result<bool> IsSatisfiable(const Pattern& p, const Summary& summary,
                           const CanonicalModelOptions& options = {});

}  // namespace svx

#endif  // SVX_PATTERN_CANONICAL_H_
