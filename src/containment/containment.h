// Pattern containment under summary constraints (paper §3.1 and §4):
//
//   p ⊆S q  iff for every canonical tree te in modS(p), the return tuple of
//   te is produced by q evaluated over te (Prop 3.1, condition 3), extended
//   with:
//     * attribute equality per return node (Prop 4.1, condition 1),
//     * nesting-sequence compatibility (Prop 4.2, conditions 2a/2b, with the
//       optional one-to-one relaxation of §4.5),
//     * decorated patterns: decorated embeddings for single containment; for
//       unions, the §4.2 two-part condition, whose value implication
//       phi_te => OR phi_t'e is decided exactly on a finite grid of
//       representative points (the paper's N^{|S|} bound, restricted to the
//       variables actually mentioned; a grid beyond 4M points aborts with
//       ResourceExhausted).
#ifndef SVX_CONTAINMENT_CONTAINMENT_H_
#define SVX_CONTAINMENT_CONTAINMENT_H_

#include <string>
#include <vector>

#include "src/pattern/canonical.h"
#include "src/pattern/pattern.h"
#include "src/summary/summary.h"
#include "src/util/status.h"

namespace svx {

/// Tuning knobs for containment decisions.
struct ContainmentOptions {
  CanonicalModelOptions model;
  /// Apply the §4.5 relaxation: nesting-sequence elements may differ when
  /// connected by one-to-one edges only.
  bool use_one_to_one_relaxation = true;
};

/// Every option above (model options included) as a cache-key fragment:
/// the containment memo and the rewrite cache key their entries with it, so
/// a new field must be added here.
std::string ContainmentOptionsFingerprint(const ContainmentOptions& options);

/// Measurements reported by the decision procedures (used by the §5
/// experiments).
struct ContainmentStats {
  size_t left_model_size = 0;   // |modS(p)|
  size_t trees_checked = 0;     // trees examined before the decision
  size_t grid_points = 0;       // §4.2 condition-2 evaluations
};

/// Decides p ⊆S q.
[[nodiscard]] Result<bool> IsContained(const Pattern& p, const Pattern& q,
                         const Summary& summary,
                         const ContainmentOptions& options = {},
                         ContainmentStats* stats = nullptr);

/// Decides p ⊆S q1 ∪ ... ∪ qm (Prop 3.2 / §4.2).
///
/// `p_model`, when given, must be modS(p) as built by BuildCanonicalModel
/// with the same summary and model options: the decision then iterates the
/// precomputed trees instead of re-enumerating them — the rewriter tests
/// one fixed query against many candidate unions and builds modS(q) once.
[[nodiscard]] Result<bool> IsContainedInUnion(const Pattern& p,
                                const std::vector<const Pattern*>& qs,
                                const Summary& summary,
                                const ContainmentOptions& options = {},
                                ContainmentStats* stats = nullptr,
                                const std::vector<CanonicalTree>* p_model =
                                    nullptr);

/// Two-way containment (S-equivalence).
[[nodiscard]] Result<bool> AreEquivalent(const Pattern& p, const Pattern& q,
                           const Summary& summary,
                           const ContainmentOptions& options = {},
                           ContainmentStats* stats = nullptr);

}  // namespace svx

#endif  // SVX_CONTAINMENT_CONTAINMENT_H_
