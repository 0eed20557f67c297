// Statistics-driven cost estimation for candidate rewritings (cf. rdf3x's
// Costs/PlanGen pairing). The model walks a logical plan bottom-up,
// estimating output cardinality and cumulative cost per operator:
//   * view scans cost their extent row count;
//   * ⋈= uses distinct-count containment selectivity (|L||R| / max(dl, dr));
//   * ⋈≺ / ⋈≺≺ model the executor's ORDPATH hash-probe (each right row
//     probes its parent id, or its ≤ depth ancestor prefixes);
//   * selections apply per-kind selectivities (σ≠⊥ uses the measured
//     non-null fraction over the owning view's row count).
// Column statistics are keyed by (view, column): a plan column is resolved
// to its originating view scan by walking the plan (its *provenance*), so
// views that expose same-named columns never alias each other's statistics.
#ifndef SVX_VIEWSTORE_COST_MODEL_H_
#define SVX_VIEWSTORE_COST_MODEL_H_

#include <string>
#include <unordered_map>

#include "src/algebra/plan.h"
#include "src/viewstore/cost_constants.h"
#include "src/viewstore/statistics.h"

namespace svx {

/// Cardinality and cost estimate for (a subtree of) a plan.
struct CostEstimate {
  double rows = 0;  // estimated output cardinality
  double cost = 0;  // cumulative work (rows touched), scan-cost units
};

/// Estimates plan costs from per-view extent statistics.
class CostModel {
 public:
  /// Registers the statistics of one materialized view, replacing any
  /// previous registration under the same name (including its column
  /// statistics — nothing stale survives a re-registration).
  void AddViewStats(const std::string& view_name, const ViewStats& stats);

  /// Bottom-up estimate for `plan`. Unknown views scan `default_rows`.
  CostEstimate Estimate(const PlanNode& plan) const {
    return Estimate(plan, nullptr);
  }

  /// As Estimate(), also accumulating the per-term work-unit counts into
  /// *units (ToArray() order) when non-null: cost == constants · units
  /// exactly, which is what tools/calibrate_costs fits against measured
  /// times. The caller zero-initializes *units.
  CostEstimate Estimate(const PlanNode& plan,
                        std::array<double, CostConstants::kNumTerms>* units)
      const;

  /// Shorthand for Estimate(plan).cost.
  double EstimateCost(const PlanNode& plan) const {
    return Estimate(plan).cost;
  }

  /// Per-operator cost constants (see cost_constants.h). Cardinality
  /// estimates never depend on these; only the cost side does.
  CostConstants constants;

  /// Assumed extent size for views without registered statistics.
  double default_rows = 1000;

 private:
  /// One registered view: extent row count plus column stats by name
  /// (ComputeViewStats flattens nested inner columns into the same list).
  struct PerView {
    int64_t num_rows = 0;
    std::unordered_map<std::string, ColumnStats> columns;
  };

  /// A plan column resolved to its source: the owning view's stats entry
  /// and (when known) the column's stats. Either may be null — derived
  /// columns (group-by groups, navigation, parent derivation) and
  /// ambiguous unions have no single origin.
  struct Origin {
    const PerView* view = nullptr;
    const ColumnStats* column = nullptr;
  };

  /// Walks the plan to the view scan contributing output column `col`.
  Origin ResolveColumn(const PlanNode& plan, int32_t col) const;

  std::unordered_map<std::string, PerView> views_;
};

}  // namespace svx

#endif  // SVX_VIEWSTORE_COST_MODEL_H_
