// Plan-pattern bookkeeping for the rewriting algorithm (§3.2-§3.3).
//
// Algorithm 1 manipulates (plan, pattern) pairs that are S-equivalent by
// construction. Because a join result need not be a single pattern
// (Prop 3.3: it is a union of conjunctive patterns — the Figure 5
// ambiguity), every plan carries a *set of pieces*:
//
//   * a Candidate is a logical plan plus pieces such that
//       plan  ≡S  union of the pieces' patterns;
//   * a Piece is a regular Pattern in which every skeleton node is pinned to
//     one summary path — obtained by materializing one summary embedding of
//     the view's non-optional skeleton as an explicit /-labeled chain from
//     the root — with the view's optional subtrees re-attached verbatim, and
//     a mapping from (pattern node, attribute) to plan columns.
//
// Pinning makes join-pattern computation deterministic: joining two pieces
// on nodes with concrete paths reduces to point-wise unification of their
// root chains (the ancestors of a fixed document node on fixed paths are
// unique), and the union over embedding choices yields exactly the
// Prop 3.3 union form.
#ifndef SVX_REWRITING_ANNOTATED_PATTERN_H_
#define SVX_REWRITING_ANNOTATED_PATTERN_H_

#include <string>
#include <vector>

#include "src/algebra/plan.h"
#include "src/pattern/pattern.h"
#include "src/rewriting/view.h"
#include "src/summary/summary.h"
#include "src/util/status.h"

namespace svx {

/// Maps one attribute of one piece node to a plan column. `prefix` is the
/// cross-piece role identifier ("V1.n2", "V1.n2.up1" for virtual IDs,
/// "V1.n2@keyword" for content unfolds), made unique per candidate instance
/// by the rewriter's retagging; `col` indexes the candidate plan's output
/// schema (join concatenation shifts right-side indexes).
struct ColumnBinding {
  PatternNodeId node = -1;
  uint8_t attr = 0;          // single kAttr* bit
  std::string prefix;
  std::string column;        // column name (diagnostic)
  int32_t col = -1;          // index into the candidate plan's output schema
  bool skeleton = false;     // node is pinned to a single path
  PathId path = kInvalidPath;  // the pinned path (skeleton only)
};

/// One piece: a pinned pattern plus its column bindings.
struct Piece {
  Pattern pattern;
  std::vector<ColumnBinding> bindings;
  /// Pinned path per pattern node (kInvalidPath for fragment nodes).
  std::vector<PathId> node_paths;

  /// Binding for `prefix` carrying `attr`; nullptr if absent.
  const ColumnBinding* Find(const std::string& prefix, uint8_t attr) const;

  /// All bindings of `prefix` (any attr).
  std::vector<const ColumnBinding*> FindPrefix(const std::string& prefix) const;

  /// Canonical string (pattern + sorted binding roles), used for the
  /// Prop 3.5 "patterns coincide" pruning.
  std::string CanonicalString() const;
};

/// A plan with its piece set (plan ≡S union of piece patterns).
struct Candidate {
  PlanPtr plan;
  std::vector<Piece> pieces;
  std::vector<std::string> used_views;  // view names, with repetition

  /// Column prefixes that expose an `attr` column in every piece, mapped to
  /// skeleton nodes (usable as join endpoints).
  std::vector<std::string> JoinablePrefixes() const;

  /// Sorted multiset string of piece canonical strings (Prop 3.5).
  /// Computed on first use and cached: the rewriter consults it several
  /// times per join attempt, and pieces are immutable once the candidate
  /// has entered the search.
  const std::string& CanonicalString() const;

 private:
  mutable std::string canonical_;  // empty = not yet computed
};

/// navfID steps ExpandView derives per skeleton ID column (§4.6 virtual
/// parent IDs). ViewIndex signatures over-approximate expansion with it.
inline constexpr int32_t kMaxVirtualDepth = 3;

/// The one tunable of view expansion; every other limit is fixed.
struct ExpansionOptions {
  size_t max_pieces = 128;  // pieces per candidate
};

/// The options above as a cache-key fragment: the rewrite cache keys its
/// entries with it, so a new field must be added here.
std::string ExpansionOptionsFingerprint(const ExpansionOptions& options);

/// Expands one view into candidates under `summary`:
///   * the base variant (optional edges kept optional, nested edges
///     flattened by outer unnest),
///   * strengthened variants (up to four optional edges made required via
///     σ non-null, in every combination),
/// each with per-embedding pieces (at most 512 skeleton embeddings per
/// variant), §4.6 content unfolding toward the labels in `relevant_labels`,
/// and §4.6 virtual parent IDs up to kMaxVirtualDepth steps.
Result<std::vector<Candidate>> ExpandView(
    const ViewDef& view, const Summary& summary,
    const std::vector<std::string>& relevant_labels,
    const ExpansionOptions& options);

/// Removes optional/nested subtrees that carry no attribute anywhere (they
/// do not change pattern semantics for any result tuple); used both in view
/// normalization and to shrink containment test patterns.
Pattern PruneAttrlessSubtrees(const Pattern& p,
                              std::vector<PatternNodeId>* old_to_new = nullptr);

}  // namespace svx

#endif  // SVX_REWRITING_ANNOTATED_PATTERN_H_
