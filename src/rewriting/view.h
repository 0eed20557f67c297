// Materialized XML views (the XAMs of [3,4]): a view is defined by an
// extended tree pattern (§4.4) and its extent is the nested, null-padded
// table obtained by evaluating the pattern over a document (§1, Figures 11
// and 12).
//
// Extent layout: one column per attribute of each return node, in pattern
// preorder ("<view>.n<node>.<attr>"), except that the columns of a subtree
// hanging under a nested edge are grouped into a single nested-table column
// "<view>.n<node>.g" (Figure 12: attributes V3, C3 nest under A3).
#ifndef SVX_REWRITING_VIEW_H_
#define SVX_REWRITING_VIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "src/algebra/relation.h"
#include "src/pattern/pattern.h"
#include "src/util/status.h"
#include "src/xml/document.h"

namespace svx {

/// A view definition: a name and an extended tree pattern.
struct ViewDef {
  std::string name;
  Pattern pattern;
};

/// The extent schema of a view pattern (see layout above).
Schema ViewSchema(const Pattern& pattern, const std::string& view_name);

/// The schema of the pattern subtree rooted at `n` (ViewSchema is the root
/// case; a nested column's inner schema is its nested child's subtree).
Schema ViewSubtreeSchema(const Pattern& pattern, PatternNodeId n,
                         const std::string& view_name);

// ---- Pattern-subtree evaluation primitives ----
// The building blocks of MaterializeView, exposed so incremental view
// maintenance (src/maintenance/) can re-run exactly the same semantics
// against a restricted document region.

/// True iff document node `dn` satisfies `pn`'s label and value predicate.
bool PatternNodeMatches(const Pattern& p, PatternNodeId pn,
                        const Document& doc, NodeIndex dn);

/// Matching candidate bindings of `pn` under its parent's binding `dn`
/// (child or descendant axis from `pn`'s incoming edge), in document order.
std::vector<NodeIndex> PatternCandidates(const Pattern& p, PatternNodeId pn,
                                         const Document& doc, NodeIndex dn);

/// The attribute cells of `pn` bound to `dn`, in schema order.
Tuple PatternOwnValues(const Pattern& p, PatternNodeId pn,
                       const Document& doc, NodeIndex dn);

/// Column count of the pattern subtree at `n` at its own nesting level
/// (nested children count as one column).
int32_t PatternSubtreeWidth(const Pattern& p, PatternNodeId n);

/// Rows of the pattern subtree rooted at `pn` given `pn` bound to `dn` (the
/// §4.3–§4.5 semantics: ⊥-padding, nested grouping, cartesian combination).
/// Requires PatternNodeMatches(p, pn, doc, dn). Nested-table cells are
/// deduplicated and canonically sorted.
std::vector<Tuple> MaterializeSubtreeRows(const Pattern& p, PatternNodeId pn,
                                          const std::string& view_name,
                                          const Document& doc, NodeIndex dn);

/// True iff the subtree pattern at `pn` yields no rows under `dn`'s binding,
/// i.e. no candidate produces any row (the ⊥-padding condition of §4.3).
/// Cheaper than MaterializeSubtreeRows: stops at the first derivation.
bool PatternSubtreeYieldsNothing(const Pattern& p, PatternNodeId pn,
                                 const Document& doc, NodeIndex dn);

/// Evaluates `pattern` over `doc`, producing the extent. IDs are ORDPATHs,
/// labels/values strings, content columns references (ORDPATHs) to nodes
/// of `doc`.
Table MaterializeView(const Pattern& pattern, const std::string& view_name,
                      const Document& doc);

/// A named view together with its materialized extent.
struct MaterializedView {
  ViewDef def;
  Table extent;
};

/// Materializes every definition over `doc`.
std::vector<MaterializedView> MaterializeAll(const std::vector<ViewDef>& defs,
                                             const Document& doc);

}  // namespace svx

#endif  // SVX_REWRITING_VIEW_H_
