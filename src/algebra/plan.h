// Logical algebraic plans over materialized views (paper §3.2): view scans
// combined with ⋈= (ID equality), ⋈≺ / ⋈≺≺ (structural joins), σ, π, ∪,
// plus the §4.6 adaptation operators: outer unnest (flattening), group-by
// (re-nesting), XPath navigation inside stored content (navC) and parent-ID
// derivation (navfID).
#ifndef SVX_ALGEBRA_PLAN_H_
#define SVX_ALGEBRA_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/algebra/relation.h"
#include "src/pattern/pattern.h"
#include "src/pattern/predicate.h"

namespace svx {

/// Operator tags.
enum class PlanKind {
  kViewScan,
  kIdEqJoin,      // ⋈=: equality of structural ids
  kStructJoin,    // ⋈≺ (parent) / ⋈≺≺ (ancestor)
  kSelect,        // σ
  kProject,       // π
  kUnion,         // ∪ (set semantics)
  kUnnest,        // flattens one nested column (outer: keeps empty groups)
  kGroupBy,       // re-nests non-key columns under a new nested column
  kNavigate,      // navC: XPath step navigation inside a content column
  kDeriveParent,  // navfID: parent-ID derivation from a stored ID (§4.6)
};

const char* PlanKindName(PlanKind kind);

/// Structural join flavor.
enum class StructAxis { kParent, kAncestor };

/// Selection predicate kinds (§4.6 adds label and value selections).
enum class SelectKind { kNonNull, kLabelEq, kValuePred };

/// One navigation step inside stored content.
struct NavStep {
  Axis axis = Axis::kChild;
  std::string label;  // "*" allowed
};

/// A logical plan node. `schema` is the output schema, computed at
/// construction. A node is immutable once its factory has returned it, so
/// plans share subplans: a join holds its operands, a union its branches and
/// a cache hit the cached plan, all by pointer.
struct PlanNode {
  PlanKind kind;
  std::vector<std::shared_ptr<const PlanNode>> children;
  Schema schema;

  // kViewScan
  std::string view_name;

  // kIdEqJoin / kStructJoin: column indexes into the *output* schemas of the
  // two children (left columns first in the join output).
  int32_t left_col = -1;
  int32_t right_col = -1;
  StructAxis struct_axis = StructAxis::kAncestor;

  // kSelect
  SelectKind select_kind = SelectKind::kNonNull;
  int32_t select_col = -1;
  std::string select_label;
  Predicate select_pred = Predicate::True();

  // kProject
  std::vector<int32_t> project_cols;

  // kUnnest (always outer: an empty or ⊥ group yields one ⊥-padded row
  // instead of dropping the tuple — the inverse of the empty-group-preserving
  // group-by, Figure 12)
  int32_t unnest_col = -1;

  // kGroupBy
  std::vector<int32_t> group_key_cols;
  std::string group_col_name;

  // kNavigate
  int32_t navigate_col = -1;
  std::vector<NavStep> navigate_steps;
  uint8_t navigate_attrs = 0;  // kAttr* of the reached node
  std::string navigate_name;   // prefix for the new columns

  // kDeriveParent
  int32_t derive_col = -1;
  int32_t derive_steps = 1;
  std::string derive_name;
};

using PlanPtr = std::shared_ptr<const PlanNode>;

// ---- Factories (each computes the output schema) ----

PlanPtr MakeViewScan(const std::string& view_name, Schema schema);
PlanPtr MakeIdEqJoin(PlanPtr left, PlanPtr right, int32_t left_col,
                     int32_t right_col);
PlanPtr MakeStructJoin(PlanPtr left, PlanPtr right, int32_t left_col,
                       int32_t right_col, StructAxis axis);
PlanPtr MakeSelectNonNull(PlanPtr input, int32_t col);
PlanPtr MakeSelectLabel(PlanPtr input, int32_t col, const std::string& label);
PlanPtr MakeSelectValue(PlanPtr input, int32_t col, Predicate pred);
PlanPtr MakeProject(PlanPtr input, std::vector<int32_t> cols);
PlanPtr MakeUnion(std::vector<PlanPtr> inputs);
PlanPtr MakeOuterUnnest(PlanPtr input, int32_t col);
PlanPtr MakeGroupBy(PlanPtr input, std::vector<int32_t> key_cols,
                    const std::string& group_col_name);
PlanPtr MakeNavigate(PlanPtr input, int32_t content_col,
                     std::vector<NavStep> steps, uint8_t attrs,
                     const std::string& name);
PlanPtr MakeDeriveParent(PlanPtr input, int32_t id_col, int32_t steps,
                         const std::string& name);

}  // namespace svx

#endif  // SVX_ALGEBRA_PLAN_H_
