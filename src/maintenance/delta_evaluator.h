// Incremental view maintenance (ROADMAP "Incremental view maintenance"):
// given a DocumentDelta (one subtree insert or delete, src/xml/update.h),
// re-run the view's tree pattern only against the affected ORDPATH region
// and emit tuple-level insert/delete deltas against the stored extent,
// instead of rematerializing from scratch.
//
// The affected region of an update is the inserted/deleted subtree plus the
// *spine*: its chain of surviving ancestors. A pattern-subtree result under
// a binding can only change if the binding's document subtree contains the
// region (i.e. the binding is on the spine) or the binding itself is inside
// the region — everything else evaluates identically in the old and new
// document because surviving nodes keep their ORDPATHs, labels and values.
// The evaluator walks pattern nodes down the spine, computes per-child hot
// diffs (region matches fully evaluated, spine matches recursed), and
// propagates them through the §4 semantics: cartesian products telescope
// factor by factor, optional edges re-check the ⊥-padding condition, and
// nested edges re-aggregate the affected group.
//
// Set semantics make deletions non-local (a tuple may be justified by a
// match outside the region), so candidate deletes are verified with a
// tuple-constrained derivability test against the new document before they
// are emitted. Tuples are matched by their stable cell encoding
// (EncodeValue); a content cell is its node's ORDPATH, which the node keeps
// in both documents.
#ifndef SVX_MAINTENANCE_DELTA_EVALUATOR_H_
#define SVX_MAINTENANCE_DELTA_EVALUATOR_H_

#include <string>
#include <vector>

#include "src/algebra/relation.h"
#include "src/pattern/pattern.h"
#include "src/xml/update.h"

namespace svx {

/// Tuple-level delta against a stored view extent.
struct TableDelta {
  /// Rows to remove, matched against the extent by cell encoding.
  std::vector<Tuple> deletes;
  /// The same deletions as row indices into the extent the delta was
  /// computed against (ascending) — lets appliers drop rows without
  /// re-encoding the whole extent.
  std::vector<int64_t> delete_rows;
  /// Rows to add.
  std::vector<Tuple> inserts;
  /// True when incremental evaluation does not apply (e.g. the update
  /// touches the pattern root's binding); the caller must rematerialize.
  bool full_rebuild = false;

  bool Empty() const {
    return deletes.empty() && inserts.empty() && !full_rebuild;
  }
};

/// Computes the delta that turns `old_extent` (the extent of
/// `pattern`/`view_name` over delta.old_doc, canonically ordered) into the
/// extent over delta.new_doc. Exact: applying the result reproduces full
/// rematerialization, for every pattern feature (predicates, optional
/// edges, nested edges, all attribute kinds).
[[nodiscard]] TableDelta ComputeViewDelta(const Pattern& pattern,
                            const std::string& view_name,
                            const Table& old_extent,
                            const DocumentDelta& delta);

/// True iff `tuple` is derivable as a result row of `pattern` over `doc`
/// (the verification primitive behind delete emission). Cells are compared
/// by encoding; nested cells must equal the canonically-ordered group.
[[nodiscard]] bool CanDeriveTuple(const Pattern& pattern,
                                  const std::string& view_name,
                    const Document& doc, const Tuple& tuple);

}  // namespace svx

#endif  // SVX_MAINTENANCE_DELTA_EVALUATOR_H_
