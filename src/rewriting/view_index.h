// Precomputed per-view path signatures for fast candidate pruning.
//
// The rewriter's per-query setup used to recompute the associated paths of
// every registered view (Prop 3.4 pruning) and then discover — deep inside
// the join enumeration — that most view combinations cannot possibly serve
// the query's return columns. The ViewIndex moves that work to view
// registration time: per view it precomputes, as bitsets over the summary,
//
//   * `related`      — the associated paths of the view's non-root nodes
//                      (the Prop 3.4 relevance test becomes one bitset
//                      intersection against the query's relevance closure);
//   * `attr_paths[a]`— the paths on which the view can expose attribute `a`
//                      through a *skeleton* (path-pinned) column, including
//                      §4.6 virtual parent IDs within kMaxVirtualDepth
//                      navfID steps;
//   * `anypath_attrs`— attributes carried by nodes under optional/nested
//                      edges, whose bindings are fragment (non-pinned)
//                      columns and therefore serve a query column with no
//                      path-compatibility requirement;
//   * `content_label_ids` / `content_desc` — labels and paths reachable by
//                      §4.6 content unfolding below a stored C attribute.
//
// All sets are over-approximations of what ExpandView can produce, which is
// the safe direction for pruning: a view (or view combination) is skipped
// only when even the over-approximation cannot serve a required query
// column, so skipping provably removes no rewriting.
#ifndef SVX_REWRITING_VIEW_INDEX_H_
#define SVX_REWRITING_VIEW_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/pattern/pattern.h"
#include "src/rewriting/annotated_pattern.h"
#include "src/rewriting/view.h"
#include "src/summary/summary.h"

namespace svx {

/// A fixed-width bitset over summary paths (word-packed vector<bool>
/// replacement with cheap intersection tests).
using PathBitset = std::vector<uint64_t>;

inline PathBitset MakePathBitset(int32_t num_paths) {
  return PathBitset(static_cast<size_t>(num_paths + 63) / 64, 0);
}
inline void PathBitsetSet(PathBitset* b, PathId s) {
  (*b)[static_cast<size_t>(s) / 64] |= uint64_t{1} << (s % 64);
}
inline bool PathBitsetTest(const PathBitset& b, PathId s) {
  return (b[static_cast<size_t>(s) / 64] >> (s % 64)) & 1;
}
inline bool PathBitsetsIntersect(const PathBitset& a, const PathBitset& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}
inline bool PathBitsetEmpty(const PathBitset& b) {
  for (uint64_t w : b) {
    if (w != 0) return false;
  }
  return true;
}

/// Precomputed signature of one registered view (see file comment).
struct ViewSignature {
  PathBitset related;
  PathBitset attr_paths[4];  // indexed by attr bit position (id, l, v, c)
  PathBitset content_desc;
  std::vector<int32_t> content_label_ids;  // sorted label ids under C nodes
  uint8_t anypath_attrs = 0;
  bool has_content = false;
};

/// Index over the views registered with one Rewriter. Signatures depend
/// only on the summary and the views: the expansion limits they
/// over-approximate are fixed (kMaxVirtualDepth).
class ViewIndex {
 public:
  explicit ViewIndex(const Summary& summary);

  /// Computes and stores the signature of `def` (call in registration
  /// order; signatures are addressed by that order).
  void AddView(const ViewDef& def);

  int32_t size() const { return static_cast<int32_t>(signatures_.size()); }

  /// Prop 3.4: equivalent to ViewRelated() — some non-root view node has an
  /// associated path inside the query's relevance closure.
  bool Related(size_t i, const PathBitset& query_related) const {
    return PathBitsetsIntersect(signatures_[i].related, query_related);
  }

  /// True when view `i` might expose a column satisfying `need_attrs` for a
  /// query column whose node is `qnode` and whose feasible paths are
  /// `col_paths` (as a bitset). Over-approximate: a false return proves the
  /// view can never serve the column.
  bool CanServe(size_t i, uint8_t need_attrs, const PathBitset& col_paths,
                const Pattern::Node& qnode) const;

 private:
  const Summary& summary_;
  std::vector<ViewSignature> signatures_;
};

}  // namespace svx

#endif  // SVX_REWRITING_VIEW_INDEX_H_
