// View-based rewriting under summary constraints — Algorithm 1 of §3.3 with
// the §4.6 extensions:
//   * plan-pattern pairs, where the pattern side is a union of pinned
//     pieces (Prop 3.3), kept S-equivalent to the plan by construction;
//   * join enumeration over ⋈=, ⋈≺, ⋈≺≺ on stored (or §4.6 derived)
//     structural IDs — by the DP enumerator (plan_enum.h) in Rewrite(), and
//     by Algorithm 1's exhaustive left-deep search in RewriteExhaustive(),
//     the reference the DP is checked against;
//   * pruning: Prop 3.4 (unrelated views), Prop 3.5 (join result pattern
//     coincides with a child's), Prop 3.7 (return-node path compatibility),
//     S-unsatisfiable join pieces discarded (line 6 context of Algorithm 1);
//   * §4.6 adaptations: label selections on L columns, value selections on
//     V columns, content unfolding (navC), virtual parent IDs (navfID),
//     group-by re-nesting for the query's nested edges;
//   * the union phase (Algorithm 1 lines 13-14) over partial covers.
#ifndef SVX_REWRITING_REWRITER_H_
#define SVX_REWRITING_REWRITER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/algebra/plan.h"
#include "src/containment/containment.h"
#include "src/containment/memo.h"
#include "src/rewriting/annotated_pattern.h"
#include "src/rewriting/view.h"
#include "src/rewriting/view_index.h"
#include "src/summary/summary.h"
#include "src/util/status.h"

namespace svx {

class CostModel;   // src/viewstore/cost_model.h
class TraceSpan;   // src/observability/trace.h

/// Rewriter tuning. The Prop 3.6 bound (n(Q)-1)*|S| is astronomically loose
/// in practice; `max_plan_views` is the practical cap.
struct RewriterOptions {
  ContainmentOptions containment;
  ExpansionOptions expansion;
  int32_t max_plan_views = 3;
  /// DP plan-table cap: the table holds covering and non-covering partial
  /// plans that survived dominance pruning. The main effect of a larger
  /// table is a longer futile search on queries with no rewriting.
  /// Overflow stops enumeration and is reported as
  /// RewriteStats::plan_table_full, not as search_truncated: such results
  /// are still cached.
  size_t max_plan_table = 1000;
  size_t max_results = 8;
  bool prune_views = true;       // Prop 3.4
  bool prune_same_pattern = true;  // Prop 3.5
  double time_budget_ms = 60000;
  /// Optional cross-call containment memo (e.g.
  /// CatalogSnapshot::containment_memo()), pinned by the caller. Borrowed;
  /// must outlive the rewriter and must be cleared when the summary
  /// changes. When null, Rewrite() memoizes within the call.
  ContainmentMemo* memo = nullptr;
  /// Optional prebuilt snapshot-owned view index
  /// (CatalogSnapshot::ViewIndexFor), shared by concurrent readers so each
  /// per-query Rewriter skips the per-view signature computation — how the
  /// query entry point CatalogSnapshot::Rewrite / Query plans.
  /// Borrowed; must outlive the rewriter, and must have been built over
  /// the same summary with exactly this rewriter's AddView sequence
  /// (signatures are addressed by registration order — on a view-count
  /// mismatch the rewriter falls back to its own index).
  const ViewIndex* shared_view_index = nullptr;
  /// When set, found rewritings are ranked by estimated cost (cheapest
  /// first, ties broken by compact form) instead of discovery order.
  /// Borrowed; must outlive the rewriter.
  const CostModel* cost_model = nullptr;
  /// Opt-in query tracing (src/observability/trace.h): when non-null,
  /// Rewrite() attaches per-phase child spans (analysis, pruning, view
  /// expansion, single-view matching, join enumeration, union phase, cost
  /// ranking) under this span, and CachedRewrite adds its cache-lookup
  /// span. Borrowed for the duration of the call; never affects results,
  /// so it is deliberately NOT part of the rewrite-cache key. A trace
  /// belongs to one query on one thread.
  TraceSpan* trace = nullptr;
};

/// Every option above that can change Rewrite()'s result list, as a
/// cache-key fragment for CachedRewrite (so a new such field must be added
/// here): the search bounds and switches, the containment and expansion
/// fingerprints, and the cost model's constants. Left out: `memo`,
/// `shared_view_index` and `trace`, which never change a result, and
/// `time_budget_ms` (a budget-cut search is never cached).
std::string RewriterOptionsFingerprint(const RewriterOptions& options);

/// One equivalent rewriting: a plan whose output columns are exactly the
/// query's return-node attribute columns, in query preorder.
struct Rewriting {
  PlanPtr plan;
  std::string compact;  // e.g. "(V1 ⋈= V2) ∪ V3"
  /// Estimated execution cost (scan-cost units); -1 when no cost model was
  /// configured.
  double est_cost = -1;
};

/// Measurements for the §5 experiments (Figure 15).
struct RewriteStats {
  size_t views_total = 0;
  size_t views_kept = 0;  // after Prop 3.4 pruning
  size_t candidates_built = 0;
  size_t join_candidates = 0;
  size_t equivalence_tests = 0;
  /// Search steps skipped by the ViewIndex: single-view candidates and join
  /// combinations whose signatures cannot cover the query's required
  /// columns (on a whole-query early-out, the kept views whose expansion
  /// was skipped).
  size_t candidates_pruned = 0;
  size_t containment_memo_hits = 0;
  size_t containment_memo_misses = 0;
  /// Set by CachedRewrite (src/viewstore/rewrite_cache.h): 1 when the
  /// ranked rewriting list was served from the catalog's rewrite cache.
  size_t rewrite_cache_hits = 0;
  /// True when the search stopped on time_budget_ms: the (partial) result
  /// depends on machine load, so CachedRewrite refuses to cache it.
  bool time_budget_hit = false;
  /// True when a join's merged piece set exceeded the per-candidate bound
  /// (ExpansionOptions::max_pieces) and was discarded: the search may have
  /// missed rewritings, so CachedRewrite refuses to cache the result.
  /// (Before the DP enumerator these discards were silent.)
  bool search_truncated = false;
  /// True when the DP plan table reached RewriterOptions::max_plan_table,
  /// or the reference search's candidate list reached its cap
  /// (Rewriter::kReferenceMaxCandidates): later bases or joins were never
  /// generated, so the result may depend on the cap. Kept apart from
  /// search_truncated — CachedRewrite caches such results like complete
  /// ones.
  bool plan_table_full = false;
  /// DP plan-enumeration accounting (the reference search leaves these 0).
  size_t plans_generated = 0;
  size_t plans_dominated = 0;
  size_t plans_retained = 0;
  size_t results = 0;
  /// Cost spread over the found rewritings (-1 without a cost model): a
  /// large ratio means cost-based selection matters for this query.
  double cheapest_cost = -1;
  double costliest_cost = -1;
  double setup_ms = 0;   // expansion + pruning
  double first_ms = -1;  // time to first rewriting (includes setup)
  double total_ms = 0;
};

/// Cost-based selection: estimates every rewriting's cost under
/// `cost_model`, ranks them cheapest first (ties by compact form) and
/// records the cost spread in `stats` (may be null). No-op without a cost
/// model. Rewrite() ranks its results with it, and CachedRewrite re-ranks a
/// hit against the reader's statistics.
void RankByCost(const CostModel* cost_model, std::vector<Rewriting>* results,
                RewriteStats* stats);

/// Rewrites queries over a fixed summary and view set.
class Rewriter {
 public:
  Rewriter(const Summary& summary, RewriterOptions options = {});

  /// Registers a view definition (extents bind at execution time via the
  /// Catalog).
  void AddView(ViewDef def);

  int32_t num_views() const { return static_cast<int32_t>(views_.size()); }

  const RewriterOptions& options() const { return options_; }

  /// Finds equivalent rewritings of `q` (up to options.max_results). A view
  /// whose pattern is `q` itself is always offered as its plain scan, which
  /// needs neither an equivalence test nor adaptation. Returns an empty
  /// vector when none exists within the budgets.
  [[nodiscard]] Result<std::vector<Rewriting>> Rewrite(
      const Pattern& q, RewriteStats* stats = nullptr);

  /// Candidate-list cap of RewriteExhaustive: once the list holds this many
  /// candidates no join is added, and plan_table_full is set.
  static constexpr size_t kReferenceMaxCandidates = 2000;

  /// The paper's Algorithm 1 as a reference search: the oracle Rewrite()'s
  /// DP enumeration is checked against (tests/plan_enum_test.cc and
  /// bench_rewriter's baseline). No serving path calls it. Prop 3.4 pruning
  /// by associated paths (no view index), then left-deep joins of every
  /// candidate with every single-view candidate on join-relevant prefixes,
  /// with Prop 3.5 and duplicate pruning, then the union phase, view scans
  /// and cost ranking shared with Rewrite(). No containment memo, coverage
  /// pruning, DP or cache: `memo`, `shared_view_index`, `max_plan_table`
  /// and `trace` are ignored, and no process metric is recorded. Stops on
  /// max_results and time_budget_ms; a merged-piece overflow sets
  /// search_truncated, the candidate cap plan_table_full.
  [[nodiscard]] Result<std::vector<Rewriting>> RewriteExhaustive(
      const Pattern& q, RewriteStats* stats = nullptr) const;

 private:
  const Summary& summary_;
  RewriterOptions options_;
  std::vector<ViewDef> views_;
  /// Signatures for views_[0..index_views_), grown lazily on Rewrite().
  std::unique_ptr<ViewIndex> index_;
};

}  // namespace svx

#endif  // SVX_REWRITING_REWRITER_H_
