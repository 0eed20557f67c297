// Dynamic-programming plan enumeration for view-based rewriting, plus the
// piece-merge primitives it shares with the reference search
// (Rewriter::RewriteExhaustive).
//
// The paper's Algorithm 1 enumerates left-deep piece-merge joins
// exhaustively; the enumerator here reorganizes the same search space the
// way rdf3x's PlanGen does (SNIPPETS.md, `PlanGen::addPlan`):
//
//   * a *problem* is the multiset of base candidates a partial plan joins
//     (keyed by sorted base ids; repetition allowed — self-joins of one
//     view instance are legal);
//   * every partial plan carries estimated cost, estimated cardinality,
//     its produced order (the base candidate at the head of its left
//     spine — hash joins emit in left-child order), and the
//     over-approximate query-column serve mask of its views;
//   * AddPlan keeps only Pareto-optimal plans per problem: a plan is
//     dominated when the problem already holds a plan with the same
//     produced order, a serve-mask superset, and no worse cost AND
//     cardinality. Canonically equal piece sets (the exact case) keep the
//     cheapest plan — that check is lossless, since equal piece sets are
//     interchangeable both as join operands and in equivalence testing.
//   * piece sets are materialized *lazily*: a join is generated as a plan
//     skeleton with a cost estimate, and its merged pieces (the expensive
//     part of Algorithm 1) are only computed when the plan is actually
//     selected for extension or equivalence testing. Dominated and
//     coverage-hopeless plans never pay the merge.
//
// Dominance across distinct piece sets is a heuristic (two plans over the
// same bases can compute different pattern sets), so covering plans that
// lose the Pareto check are retained on a fallback list and equivalence-
// tested whenever they could still beat the best found rewriting — which
// keeps the enumerator's best-cost result no worse than the reference
// search's on budgets where the reference completes (see
// tests/plan_enum_test.cc for the differential check).
#ifndef SVX_REWRITING_PLAN_ENUM_H_
#define SVX_REWRITING_PLAN_ENUM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/rewriting/annotated_pattern.h"
#include "src/rewriting/view_index.h"
#include "src/summary/summary.h"

namespace svx {

class CostModel;  // src/viewstore/cost_model.h

// ---------------------------------------------------------------------------
// Piece-merge primitives (shared with the reference search)
// ---------------------------------------------------------------------------

enum class JoinType { kEq, kParent, kAncestor };

/// Algorithm 1's join step: merges every path-compatible pair of an `anc`
/// piece (ancestor or equal side, joined on `anc_prefix`; `anc_paths[x]` is
/// piece x's pinned path there) with a `desc` piece (likewise).
/// `desc_col_shift` relocates desc's columns in the concatenated schema.
/// Returns false when the merged set would exceed `max_pieces` — a
/// truncation, since the discarded set may carry a rewriting. An empty
/// `*out` means no pair merged.
bool MergePieceSets(const Summary& summary, const std::vector<Piece>& anc,
                    const std::string& anc_prefix,
                    const std::vector<PathId>& anc_paths,
                    const std::vector<Piece>& desc,
                    const std::string& desc_prefix,
                    const std::vector<PathId>& desc_paths, JoinType type,
                    int32_t desc_col_shift, size_t max_pieces,
                    std::vector<Piece>* out);

/// The plan of a join of `anc` (ancestor or equal side) with `desc` on
/// their ID columns `anc_col` / `desc_col`: ⋈= as an ID equi-join, ⋈≺ and
/// ⋈≺≺ as structural joins.
PlanPtr MakeJoinPlan(PlanPtr anc, PlanPtr desc, int32_t anc_col,
                     int32_t desc_col, JoinType type);

/// Hash consistent with Candidate::CanonicalString() equality (commutative
/// over the sorted piece multiset).
uint64_t CandidateCanonicalHash(const Candidate& c);

/// Candidate::CanonicalString() equality without building any string.
bool CandidatesCanonicalEqual(const Candidate& a, const Candidate& b);

// ---------------------------------------------------------------------------
// Query-column coverage (ViewIndex-driven pruning)
// ---------------------------------------------------------------------------

/// Which query columns each kept view can serve (over-approximate, from the
/// ViewIndex signatures — the caller computes the masks), plus the minimal
/// number of views needed to cover any remaining column set. Lets the
/// enumerator skip single-view candidates and join combinations that
/// provably cannot reach full coverage — and the rewriter bail out of the
/// whole query when no ≤ max_plan_views combination can.
class CoverageAnalysis {
 public:
  static constexpr int32_t kMaxCols = 16;  // DP is 2^cols

  /// `view_masks[k]` = serve mask of the k-th kept view over the query's
  /// `num_cols` return columns. When num_cols is 0 or exceeds kMaxCols the
  /// analysis is vacuous: the caller passes zero masks, every mask covers,
  /// and a candidate is extendable while it uses at most max_views views.
  CoverageAnalysis(int32_t num_cols, std::vector<uint32_t> view_masks);

  /// Serve mask of the kept view at position `kept_pos`.
  uint32_t ViewMask(size_t kept_pos) const { return view_masks_[kept_pos]; }

  /// True when `mask` serves every query column.
  bool Covers(uint32_t mask) const { return (full_ & ~mask) == 0; }

  /// True when a candidate already using `used` views with coverage `mask`
  /// can still reach full coverage within `max_views` views total.
  bool Extendable(uint32_t mask, size_t used, int32_t max_views) const;

 private:
  bool enabled_ = false;  // false: vacuous (see the constructor)
  uint32_t full_ = 0;
  std::vector<uint32_t> view_masks_;
  std::vector<int32_t> mincover_;
};

// ---------------------------------------------------------------------------
// DP plan enumerator
// ---------------------------------------------------------------------------

class PlanEnumerator {
 public:
  struct Options {
    int32_t max_plan_views = 3;
    /// Global bound on the plan table (RewriterOptions::max_plan_table):
    /// reaching it stops generation — later bases are dropped and no more
    /// joins are built — and sets Stats::table_full.
    size_t max_table = 2000;
    /// Per-plan merged-piece bound (ExpansionOptions::max_pieces). A join
    /// whose piece set would exceed it is discarded — and reported as a
    /// truncation, because a discarded piece set can hide a valid
    /// rewriting. The table cap above and the per-level extension beam
    /// (plan_enum.cc's kMaxFrontier, 128 plans) are *not* truncations:
    /// they bound how much of the space is searched, not whether generated
    /// plans are dropped.
    size_t max_merged_pieces = 128;
    bool prune_same_pattern = true;  // Prop 3.5 at materialization
  };

  struct Stats {
    size_t generated = 0;   // plans built (bases + join skeletons)
    size_t joins = 0;       // join skeletons among `generated`
    size_t dominated = 0;   // discarded or demoted by AddPlan dominance
    size_t retained = 0;    // alive plans when Run() returns
    size_t coverage_pruned = 0;  // mask-certified fruitless combinations
    size_t cost_pruned = 0;      // branch-and-bound frontier skips
    size_t beam_skipped = 0;     // extendable plans beyond the beam
    /// True when a join's merged piece set exceeded max_merged_pieces and
    /// was discarded: a discarded piece set can hide a valid rewriting, so
    /// the search result may be incomplete and CachedRewrite refuses to
    /// cache it. Beam and table cuts do not set this (they bound the search;
    /// the table cut sets `table_full`).
    bool truncated = false;
    /// True when the plan table reached max_table: the search stopped
    /// generating, so the result may depend on the cap. Reported apart from
    /// `truncated` — the caller still caches such a result.
    bool table_full = false;
  };

  /// Outcome of an equivalence-test callback: `stop` ends the search
  /// (result budget reached); `best_cost` is the cheapest estimated cost
  /// over the rewritings found so far (+inf when none) — the enumerator's
  /// branch-and-bound bound, and the threshold above which Pareto-dominated
  /// covering plans are provably unable to improve the result set.
  struct MatchOutcome {
    bool stop = false;
    double best_cost = 0;
  };
  using MatchFn = std::function<MatchOutcome(const Candidate&, double)>;
  using DeadlineFn = std::function<bool()>;

  /// `cost_model` ranks partial plans (callers without one pass a default-
  /// constructed model: deterministic, every view at default_rows).
  /// All references are borrowed for the enumerator's lifetime.
  PlanEnumerator(const Summary& summary, const CostModel& cost_model,
                 const std::vector<bool>& join_relevant,
                 const CoverageAnalysis& cover, const Options& options);

  /// Registers a level-1 candidate (pieces materialized, in the caller's
  /// search order). `serve_mask` from CoverageAnalysis::ViewMask.
  void AddBase(Candidate cand, uint32_t serve_mask);

  /// Runs the level-by-level enumeration: each level's covering plans are
  /// equivalence-tested cheapest-first via `match`, then the surviving
  /// extendable plans (the cheapest 128) are joined with the base
  /// candidates to form the next level. `deadline()` true aborts.
  void Run(const MatchFn& match, const DeadlineFn& deadline);

  const Stats& stats() const { return stats_; }

 private:
  /// Pinned paths of one joinable prefix, in three bitset views so a whole
  /// (prefix, prefix, join type) combination is testable with a few word
  /// ANDs: anc ⋈= desc needs paths∩paths, ⋈≺ needs paths∩parents, ⋈≺≺ needs
  /// paths∩ancestors.
  struct PrefixPathSets {
    PathBitset paths;
    PathBitset parents;
    PathBitset ancestors;  // strict-ancestor closure of paths

    /// True when some piece pair of this (ancestor-side) prefix and
    /// `desc`'s is path-compatible under `type`.
    bool Joins(const PrefixPathSets& desc, JoinType type) const;
  };

  /// Join state of a materialized plan: the join-relevant joinable prefixes
  /// (pinning some piece on a path of `join_relevant`) with their per-piece
  /// pinned paths, so a join attempt can be rejected with integer
  /// comparisons before any piece is merged.
  struct JoinInfo {
    /// True when any piece node carries a non-trivial value predicate. When
    /// both join sides are predicate-free, every path-compatible piece pair
    /// merges successfully, so the merged piece count is predictable.
    bool has_preds = false;
    std::vector<std::string> rel_prefixes;
    /// Aligned with rel_prefixes; the plan column of the prefix's ID binding.
    std::vector<int32_t> prefix_id_cols;
    /// Aligned with rel_prefixes; one pinned path per piece.
    std::vector<std::vector<PathId>> prefix_paths;
    /// Aligned with rel_prefixes.
    std::vector<PrefixPathSets> prefix_sets;
  };

  struct EnumPlan {
    Candidate cand;  // plan + used_views always set; pieces lazy for joins
    std::vector<int32_t> bases;  // sorted base plan ids, with multiplicity
    // Construction route, for lazy piece materialization (bases: anc < 0).
    int32_t anc = -1;
    int32_t desc = -1;
    std::string anc_prefix;
    std::string desc_prefix;
    JoinType type = JoinType::kEq;
    std::vector<PathId> anc_paths;   // pinned join paths per anc piece
    std::vector<PathId> desc_paths;  // pinned join paths per desc piece
    uint32_t serve_mask = 0;
    int32_t order_key = 0;  // head of the left spine (a base id)
    double cost = 0;
    double rows = 0;
    uint64_t canon_hash = 0;  // valid once materialized
    JoinInfo info;            // valid once info_built
    bool materialized = false;
    bool info_built = false;
    bool alive = true;
    bool extendable = true;
    /// Covering but Pareto-dominated: equivalence-tested only while it
    /// could still beat the best found rewriting (cost < best bound).
    bool match_fallback = false;
  };

  /// Merges the plan's piece set from its construction route (no-op for
  /// bases). Returns false — and kills the plan — when the merge
  /// overflows max_merged_pieces (truncation), produces nothing, repeats a
  /// child's pattern set (Prop 3.5), or duplicates an already-materialized
  /// plan of the same problem (then the cheaper of the two survives).
  bool Materialize(int32_t id);
  /// Materializes the plan and builds its JoinInfo; false for a dead plan.
  bool EnsureInfo(int32_t id);

  /// Dominance bookkeeping for a fully-constructed plan skeleton; returns
  /// the plan's id or -1 when it was discarded.
  int32_t AddPlan(EnumPlan plan);

  /// True when some base's serve mask can extend `mask` at `used` views
  /// toward full coverage within the view budget.
  bool ExtendableWithAnyBase(uint32_t mask, size_t used) const;

  void MatchLevel(size_t level_begin, size_t level_end, const MatchFn& match,
                  const DeadlineFn& deadline);

  const Summary& summary_;
  const CostModel& cost_model_;
  const std::vector<bool>& join_relevant_;
  const CoverageAnalysis& cover_;
  Options options_;
  Stats stats_;

  std::vector<EnumPlan> plans_;
  std::vector<int32_t> base_ids_;
  std::vector<uint32_t> distinct_base_masks_;
  /// Problem table: sorted base-id multiset → plan ids.
  std::unordered_map<uint64_t, std::vector<int32_t>> problems_;
  size_t alive_count_ = 0;
  double best_cost_ = 0;  // set to +inf in Run()
  bool stopped_ = false;
};

}  // namespace svx

#endif  // SVX_REWRITING_PLAN_ENUM_H_
