#include "src/rewriting/plan_enum.h"

#include <algorithm>
#include <limits>

#include "src/util/check.h"
#include "src/viewstore/cost_model.h"

namespace svx {

// ---------------------------------------------------------------------------
// Piece-merge primitives
// ---------------------------------------------------------------------------

namespace {

/// True iff a piece pinned to `pa` can absorb a piece pinned to `pb` under
/// `type` — the path-relation precondition of MergePieces, shared with the
/// join enumeration's pre-passes so they cannot drift apart.
bool PiecePathsJoin(const Summary& summary, PathId pa, PathId pb,
                    JoinType type) {
  switch (type) {
    case JoinType::kEq:
      return pa == pb;
    case JoinType::kParent:
      return summary.parent(pb) == pa;
    case JoinType::kAncestor:
      return summary.IsAncestor(pa, pb);
  }
  return false;
}

/// Root-to-node chain of pattern node ids (inclusive).
std::vector<PatternNodeId> AncestorChain(const Pattern& p, PatternNodeId n) {
  std::vector<PatternNodeId> rev;
  for (PatternNodeId cur = n; cur >= 0; cur = p.node(cur).parent) {
    rev.push_back(cur);
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

/// Merges piece `b` into piece `a` joined on (prefix_a, prefix_b) with `a`
/// on the ancestor (or equal) side. Returns false when this piece pair is
/// incompatible (contributes nothing to the join). `b_col_shift` relocates
/// b's column indexes in the concatenated schema.
bool MergePieces(const Summary& summary, const Piece& a,
                 const std::string& prefix_a, const Piece& b,
                 const std::string& prefix_b, JoinType type,
                 int32_t b_col_shift, Piece* out) {
  const ColumnBinding* ba = a.Find(prefix_a, kAttrId);
  const ColumnBinding* bb = b.Find(prefix_b, kAttrId);
  if (ba == nullptr || bb == nullptr || !ba->skeleton || !bb->skeleton) {
    return false;
  }
  PathId pa = ba->path;
  PathId pb = bb->path;
  if (!PiecePathsJoin(summary, pa, pb, type)) return false;

  std::vector<PatternNodeId> a_chain = AncestorChain(a.pattern, ba->node);
  std::vector<PatternNodeId> b_chain = AncestorChain(b.pattern, bb->node);
  size_t unify_len = static_cast<size_t>(summary.depth(pa));
  SVX_CHECK(a_chain.size() == unify_len);
  SVX_CHECK(b_chain.size() >= unify_len);

  *out = a;
  std::vector<PatternNodeId> map_b(static_cast<size_t>(b.pattern.size()), -1);
  for (size_t k = 0; k < unify_len; ++k) {
    PatternNodeId an = a_chain[k];
    PatternNodeId bn = b_chain[k];
    // Both chains instantiate the same summary chain.
    SVX_CHECK(out->node_paths[static_cast<size_t>(an)] ==
              b.node_paths[static_cast<size_t>(bn)]);
    map_b[static_cast<size_t>(bn)] = an;
    Pattern::Node& merged = out->pattern.mutable_node(an);
    merged.attrs |= b.pattern.node(bn).attrs;
    merged.pred = merged.pred.And(b.pattern.node(bn).pred);
    if (merged.pred.IsFalse()) return false;
  }
  // Copy the remaining b nodes (branches and the below-join part), parents
  // first (ids are parent-before-child by construction).
  for (PatternNodeId n = 0; n < b.pattern.size(); ++n) {
    if (map_b[static_cast<size_t>(n)] >= 0) continue;
    const Pattern::Node& node = b.pattern.node(n);
    SVX_CHECK(node.parent >= 0);
    PatternNodeId parent = map_b[static_cast<size_t>(node.parent)];
    SVX_CHECK(parent >= 0);
    PatternNodeId nid =
        out->pattern.AddChild(parent, node.label, node.axis, node.attrs,
                              node.pred, node.optional, node.nested);
    map_b[static_cast<size_t>(n)] = nid;
    out->node_paths.push_back(b.node_paths[static_cast<size_t>(n)]);
  }
  for (const ColumnBinding& binding : b.bindings) {
    ColumnBinding nb = binding;
    nb.node = map_b[static_cast<size_t>(binding.node)];
    nb.col += b_col_shift;
    out->bindings.push_back(std::move(nb));
  }
  return true;
}

}  // namespace

bool MergePieceSets(const Summary& summary, const std::vector<Piece>& anc,
                    const std::string& anc_prefix,
                    const std::vector<PathId>& anc_paths,
                    const std::vector<Piece>& desc,
                    const std::string& desc_prefix,
                    const std::vector<PathId>& desc_paths, JoinType type,
                    int32_t desc_col_shift, size_t max_pieces,
                    std::vector<Piece>* out) {
  out->clear();
  for (size_t x = 0; x < anc.size(); ++x) {
    for (size_t y = 0; y < desc.size(); ++y) {
      Piece merged;
      if (PiecePathsJoin(summary, anc_paths[x], desc_paths[y], type) &&
          MergePieces(summary, anc[x], anc_prefix, desc[y], desc_prefix,
                      type, desc_col_shift, &merged)) {
        out->push_back(std::move(merged));
      }
      if (out->size() > max_pieces) {
        out->clear();
        return false;
      }
    }
  }
  return true;
}

PlanPtr MakeJoinPlan(PlanPtr anc, PlanPtr desc, int32_t anc_col,
                     int32_t desc_col, JoinType type) {
  switch (type) {
    case JoinType::kEq:
      return MakeIdEqJoin(std::move(anc), std::move(desc), anc_col, desc_col);
    case JoinType::kParent:
      return MakeStructJoin(std::move(anc), std::move(desc), anc_col,
                            desc_col, StructAxis::kParent);
    case JoinType::kAncestor:
      return MakeStructJoin(std::move(anc), std::move(desc), anc_col,
                            desc_col, StructAxis::kAncestor);
  }
  SVX_CHECK(false);
  return nullptr;
}

namespace {

inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Structural equivalents of canonical-string equality, so duplicate joins
/// are confirmed without building any string. PatternToString is
/// round-trippable, hence injective in exactly these components.
bool PatternsCanonicalEqual(const Pattern& a, const Pattern& b) {
  if (a.size() != b.size()) return false;
  for (PatternNodeId n = 0; n < a.size(); ++n) {
    const Pattern::Node& x = a.node(n);
    const Pattern::Node& y = b.node(n);
    if (x.label != y.label || x.parent != y.parent || x.axis != y.axis ||
        x.optional != y.optional || x.nested != y.nested ||
        x.attrs != y.attrs || !(x.pred == y.pred)) {
      return false;
    }
  }
  return true;
}

bool PiecesCanonicalEqual(const Piece& a, const Piece& b) {
  if (a.bindings.size() != b.bindings.size()) return false;
  if (!PatternsCanonicalEqual(a.pattern, b.pattern)) return false;
  // The canonical string compares the role multiset (node, attr, prefix).
  auto key_less = [](const ColumnBinding* x, const ColumnBinding* y) {
    if (x->node != y->node) return x->node < y->node;
    if (x->attr != y->attr) return x->attr < y->attr;
    return x->prefix < y->prefix;
  };
  std::vector<const ColumnBinding*> ra, rb;
  ra.reserve(a.bindings.size());
  rb.reserve(b.bindings.size());
  for (const ColumnBinding& c : a.bindings) ra.push_back(&c);
  for (const ColumnBinding& c : b.bindings) rb.push_back(&c);
  std::sort(ra.begin(), ra.end(), key_less);
  std::sort(rb.begin(), rb.end(), key_less);
  for (size_t i = 0; i < ra.size(); ++i) {
    if (ra[i]->node != rb[i]->node || ra[i]->attr != rb[i]->attr ||
        ra[i]->prefix != rb[i]->prefix) {
      return false;
    }
  }
  return true;
}

/// Hash consistent with Piece::CanonicalString() equality: equal canonical
/// strings imply equal hashes.
uint64_t PieceCanonicalHash(const Piece& p) {
  std::hash<std::string> hs;
  uint64_t h = 0x5851f42d4c957f2dULL;
  for (PatternNodeId n = 0; n < p.pattern.size(); ++n) {
    const Pattern::Node& node = p.pattern.node(n);
    h = HashCombine(h, hs(node.label));
    h = HashCombine(h, (static_cast<uint64_t>(node.parent) << 8) |
                           (static_cast<uint64_t>(node.axis) << 6) |
                           (static_cast<uint64_t>(node.optional) << 5) |
                           (static_cast<uint64_t>(node.nested) << 4) |
                           node.attrs);
    if (!node.pred.IsTrue()) h = HashCombine(h, hs(node.pred.ToString()));
  }
  uint64_t roles = 0;
  for (const ColumnBinding& b : p.bindings) {
    roles += HashCombine(hs(b.prefix),
                         static_cast<uint64_t>(b.node) * 131 + b.attr);
  }
  return HashCombine(h, roles);
}

}  // namespace

uint64_t CandidateCanonicalHash(const Candidate& c) {
  uint64_t sum = 0;
  for (const Piece& p : c.pieces) sum += PieceCanonicalHash(p);
  return sum;
}

bool CandidatesCanonicalEqual(const Candidate& a, const Candidate& b) {
  size_t n = a.pieces.size();
  if (n != b.pieces.size()) return false;
  std::vector<std::pair<uint64_t, size_t>> ha, hb;
  ha.reserve(n);
  hb.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ha.emplace_back(PieceCanonicalHash(a.pieces[i]), i);
    hb.emplace_back(PieceCanonicalHash(b.pieces[i]), i);
  }
  std::sort(ha.begin(), ha.end());
  std::sort(hb.begin(), hb.end());
  for (size_t i = 0; i < n; ++i) {
    if (ha[i].first != hb[i].first) return false;
  }
  std::vector<bool> used(n, false);
  for (size_t i = 0; i < n; ++i) {
    bool matched = false;
    // Candidates in b share a's hash at the same sorted positions; scan the
    // equal-hash run (equality is an equivalence, so greedy matching is
    // complete).
    for (size_t j = 0; j < n && hb[j].first <= ha[i].first; ++j) {
      if (used[j] || hb[j].first != ha[i].first) continue;
      if (PiecesCanonicalEqual(a.pieces[ha[i].second],
                               b.pieces[hb[j].second])) {
        used[j] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// CoverageAnalysis
// ---------------------------------------------------------------------------

CoverageAnalysis::CoverageAnalysis(int32_t num_cols,
                                   std::vector<uint32_t> view_masks)
    : view_masks_(std::move(view_masks)) {
  enabled_ = num_cols > 0 && num_cols <= kMaxCols;
  if (!enabled_) return;
  full_ = (uint32_t{1} << num_cols) - 1;

  std::vector<uint32_t> distinct;
  for (uint32_t mask : view_masks_) {
    if (mask != 0) distinct.push_back(mask);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  // mincover_[m] = fewest views whose serve masks cover m (INT32_MAX when
  // impossible). Some view must serve m's lowest set column.
  mincover_.assign(size_t{1} << num_cols, std::numeric_limits<int32_t>::max());
  mincover_[0] = 0;
  for (uint32_t m = 1; m <= full_; ++m) {
    uint32_t low = m & ~(m - 1);
    for (uint32_t vm : distinct) {
      if ((vm & low) == 0) continue;
      int32_t sub = mincover_[m & ~vm];
      if (sub != std::numeric_limits<int32_t>::max() &&
          sub + 1 < mincover_[m]) {
        mincover_[m] = sub + 1;
      }
    }
  }
}

bool CoverageAnalysis::Extendable(uint32_t mask, size_t used,
                                  int32_t max_views) const {
  if (!enabled_) return static_cast<int32_t>(used) <= max_views;
  uint32_t rem = full_ & ~mask;
  int32_t need = mincover_[rem];
  if (need == std::numeric_limits<int32_t>::max()) return false;
  return static_cast<int32_t>(used) + need <= max_views;
}

// ---------------------------------------------------------------------------
// PlanEnumerator
// ---------------------------------------------------------------------------

namespace {

uint64_t BasesKey(const std::vector<int32_t>& bases) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int32_t b : bases) {
    h = HashCombine(h, static_cast<uint64_t>(b));
  }
  return h;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-level extension beam: at most this many cheapest extendable plans
/// are joined further. Like the table cap, the beam bounds how much of the
/// space is searched; it is not a truncation.
constexpr size_t kMaxFrontier = 128;

}  // namespace

PlanEnumerator::PlanEnumerator(const Summary& summary,
                               const CostModel& cost_model,
                               const std::vector<bool>& join_relevant,
                               const CoverageAnalysis& cover,
                               const Options& options)
    : summary_(summary),
      cost_model_(cost_model),
      join_relevant_(join_relevant),
      cover_(cover),
      options_(options) {}

void PlanEnumerator::AddBase(Candidate cand, uint32_t serve_mask) {
  if (stopped_) return;
  if (plans_.size() >= options_.max_table) {
    stats_.table_full = true;
    return;
  }
  EnumPlan plan;
  plan.serve_mask = serve_mask;
  CostEstimate est = cost_model_.Estimate(*cand.plan);
  plan.cost = est.cost;
  plan.rows = est.rows;
  plan.canon_hash = CandidateCanonicalHash(cand);
  plan.cand = std::move(cand);
  plan.materialized = true;

  // Canonically equal piece sets are interchangeable everywhere (joins,
  // assignments, containment tests), so the cheaper plan replaces the
  // other outright. Masks of equal piece sets over-approximate the same
  // serveable columns, so their union is still an over-approximation.
  for (int32_t id : base_ids_) {
    EnumPlan& other = plans_[static_cast<size_t>(id)];
    if (other.canon_hash != plan.canon_hash ||
        !CandidatesCanonicalEqual(other.cand, plan.cand)) {
      continue;
    }
    ++stats_.dominated;
    other.serve_mask |= plan.serve_mask;
    if (plan.cost < other.cost) {
      other.cand = std::move(plan.cand);
      other.cost = plan.cost;
      other.rows = est.rows;
      other.info_built = false;  // columns unchanged, but rebuild to be safe
    }
    return;
  }

  int32_t id = static_cast<int32_t>(plans_.size());
  plan.bases = {id};
  plan.order_key = id;
  plan.extendable = true;
  ++stats_.generated;
  ++alive_count_;
  base_ids_.push_back(id);
  problems_[BasesKey(plan.bases)].push_back(id);
  plans_.push_back(std::move(plan));
}

bool PlanEnumerator::ExtendableWithAnyBase(uint32_t mask, size_t used) const {
  for (uint32_t sm : distinct_base_masks_) {
    if (cover_.Extendable(mask | sm, used + 1, options_.max_plan_views)) {
      return true;
    }
  }
  return false;
}

int32_t PlanEnumerator::AddPlan(EnumPlan plan) {
  bool covering = cover_.Covers(plan.serve_mask);
  std::vector<int32_t>& bucket = problems_[BasesKey(plan.bases)];
  bool demoted = false;
  for (int32_t oid : bucket) {
    EnumPlan& other = plans_[static_cast<size_t>(oid)];
    if (!other.alive || other.bases != plan.bases) continue;
    if (other.order_key != plan.order_key) continue;
    // Existing plan dominates the new one: same produced order, at least
    // the same columns, and no worse on either cost axis.
    if (!other.match_fallback &&
        (other.serve_mask & plan.serve_mask) == plan.serve_mask &&
        other.cost <= plan.cost && other.rows <= plan.rows) {
      ++stats_.dominated;
      if (!covering) return -1;
      // A dominated covering plan can still carry a piece set the
      // dominator lacks; keep it for the fallback matching pass but never
      // grow the search from it.
      demoted = true;
      break;
    }
    // New plan dominates the existing one.
    if ((plan.serve_mask & other.serve_mask) == other.serve_mask &&
        plan.cost <= other.cost && plan.rows <= other.rows) {
      ++stats_.dominated;
      if (other.match_fallback) {
        // Already demoted; nothing further to take from it.
        continue;
      }
      if (cover_.Covers(other.serve_mask)) {
        other.extendable = false;
        other.match_fallback = true;
      } else {
        other.alive = false;
        --alive_count_;
      }
    }
  }
  if (demoted) {
    plan.extendable = false;
    plan.match_fallback = true;
  } else {
    size_t used = plan.bases.size();
    plan.extendable =
        static_cast<int32_t>(used) < options_.max_plan_views &&
        ExtendableWithAnyBase(plan.serve_mask, used);
    if (!covering && !plan.extendable) {
      ++stats_.coverage_pruned;
      return -1;
    }
  }
  int32_t id = static_cast<int32_t>(plans_.size());
  ++stats_.generated;
  ++alive_count_;
  bucket.push_back(id);
  plans_.push_back(std::move(plan));
  return id;
}

bool PlanEnumerator::Materialize(int32_t id) {
  EnumPlan& plan = plans_[static_cast<size_t>(id)];
  if (plan.materialized) return plan.alive;
  if (!plan.alive) return false;
  const EnumPlan& anc = plans_[static_cast<size_t>(plan.anc)];
  const EnumPlan& desc = plans_[static_cast<size_t>(plan.desc)];
  SVX_CHECK(anc.materialized && desc.materialized);

  auto kill = [&]() {
    plan.alive = false;
    plan.materialized = true;  // don't retry
    --alive_count_;
    return false;
  };

  std::vector<Piece> merged;
  if (!MergePieceSets(summary_, anc.cand.pieces, plan.anc_prefix,
                      plan.anc_paths, desc.cand.pieces, plan.desc_prefix,
                      plan.desc_paths, plan.type,
                      anc.cand.plan->schema.size(),
                      options_.max_merged_pieces, &merged)) {
    // The discarded piece set could have carried a valid rewriting —
    // report the cut instead of silently narrowing the search.
    stats_.truncated = true;
    return kill();
  }
  if (merged.empty()) return kill();
  plan.cand.pieces = std::move(merged);
  plan.canon_hash = CandidateCanonicalHash(plan.cand);

  // Prop 3.5: a join whose pattern set coincides with a child's adds
  // nothing (the child is cheaper by cost monotonicity).
  if (options_.prune_same_pattern &&
      ((plan.canon_hash == anc.canon_hash &&
        CandidatesCanonicalEqual(plan.cand, anc.cand)) ||
       (plan.canon_hash == desc.canon_hash &&
        CandidatesCanonicalEqual(plan.cand, desc.cand)))) {
    ++stats_.dominated;
    return kill();
  }

  // Same-problem duplicate piece sets: keep the cheaper plan (equal piece
  // sets always involve the same view instances, so the check never needs
  // to look outside this problem).
  for (int32_t oid : problems_[BasesKey(plan.bases)]) {
    if (oid == id) continue;
    EnumPlan& other = plans_[static_cast<size_t>(oid)];
    if (!other.alive || !other.materialized || other.bases != plan.bases ||
        other.canon_hash != plan.canon_hash ||
        !CandidatesCanonicalEqual(other.cand, plan.cand)) {
      continue;
    }
    ++stats_.dominated;
    if (other.cost <= plan.cost) return kill();
    other.alive = false;
    --alive_count_;
    break;
  }
  plan.materialized = true;
  return true;
}

bool PlanEnumerator::PrefixPathSets::Joins(const PrefixPathSets& desc,
                                           JoinType type) const {
  switch (type) {
    case JoinType::kEq:
      return PathBitsetsIntersect(paths, desc.paths);
    case JoinType::kParent:
      return PathBitsetsIntersect(paths, desc.parents);
    case JoinType::kAncestor:
      return PathBitsetsIntersect(paths, desc.ancestors);
  }
  return false;
}

bool PlanEnumerator::EnsureInfo(int32_t id) {
  EnumPlan& plan = plans_[static_cast<size_t>(id)];
  if (plan.info_built) return plan.alive;
  if (!Materialize(id)) return false;
  const Candidate& c = plan.cand;
  JoinInfo& info = plan.info;
  info = JoinInfo{};
  for (const Piece& piece : c.pieces) {
    for (PatternNodeId n = 0; n < piece.pattern.size() && !info.has_preds;
         ++n) {
      info.has_preds = !piece.pattern.node(n).pred.IsTrue();
    }
    if (info.has_preds) break;
  }
  for (const std::string& prefix : c.JoinablePrefixes()) {
    bool relevant = false;
    std::vector<PathId> paths;
    paths.reserve(c.pieces.size());
    for (const Piece& piece : c.pieces) {
      const ColumnBinding* b = piece.Find(prefix, kAttrId);
      // JoinablePrefixes guarantees a skeleton ID binding in every piece.
      paths.push_back(b->path);
      relevant =
          relevant || join_relevant_[static_cast<size_t>(b->path)];
    }
    if (!relevant) continue;
    PrefixPathSets sets;
    sets.paths = MakePathBitset(summary_.size());
    sets.parents = MakePathBitset(summary_.size());
    sets.ancestors = MakePathBitset(summary_.size());
    for (PathId s : paths) {
      PathBitsetSet(&sets.paths, s);
      PathId p = summary_.parent(s);
      if (p != kInvalidPath) PathBitsetSet(&sets.parents, p);
      for (PathId a = p; a != kInvalidPath; a = summary_.parent(a)) {
        PathBitsetSet(&sets.ancestors, a);
      }
    }
    info.rel_prefixes.push_back(prefix);
    info.prefix_id_cols.push_back(c.pieces[0].Find(prefix, kAttrId)->col);
    info.prefix_paths.push_back(std::move(paths));
    info.prefix_sets.push_back(std::move(sets));
  }
  plan.info_built = true;
  return true;
}

void PlanEnumerator::MatchLevel(size_t level_begin, size_t level_end,
                                const MatchFn& match,
                                const DeadlineFn& deadline) {
  std::vector<int32_t> primary;
  std::vector<int32_t> fallback;
  for (size_t i = level_begin; i < level_end; ++i) {
    const EnumPlan& p = plans_[i];
    if (!p.alive) continue;
    if (p.match_fallback) {
      fallback.push_back(static_cast<int32_t>(i));
    } else if (cover_.Covers(p.serve_mask)) {
      primary.push_back(static_cast<int32_t>(i));
    }
  }
  auto by_cost = [&](int32_t a, int32_t b) {
    const EnumPlan& x = plans_[static_cast<size_t>(a)];
    const EnumPlan& y = plans_[static_cast<size_t>(b)];
    if (x.cost != y.cost) return x.cost < y.cost;
    return a < b;
  };
  std::sort(primary.begin(), primary.end(), by_cost);
  std::sort(fallback.begin(), fallback.end(), by_cost);

  for (int32_t id : primary) {
    if (stopped_ || deadline()) return;
    if (!Materialize(id)) continue;
    EnumPlan& p = plans_[static_cast<size_t>(id)];
    MatchOutcome out = match(p.cand, p.cost);
    best_cost_ = std::min(best_cost_, out.best_cost);
    if (out.stop) {
      stopped_ = true;
      return;
    }
  }
  // Pareto-dominated covering plans: their distinct piece sets can still
  // yield a rewriting the dominator cannot, but only a rewriting cheaper
  // than the best found one matters — a final plan's cost is at least its
  // candidate's cost (operators only add), and a union's cost is at least
  // each partial's. While no rewriting exists yet, every fallback is
  // tested (unions of partial covers have no cost bound to beat).
  for (int32_t id : fallback) {
    if (stopped_ || deadline()) return;
    const EnumPlan& peek = plans_[static_cast<size_t>(id)];
    if (best_cost_ < kInf && peek.cost >= best_cost_) {
      ++stats_.cost_pruned;
      continue;
    }
    if (!Materialize(id)) continue;
    EnumPlan& p = plans_[static_cast<size_t>(id)];
    MatchOutcome out = match(p.cand, p.cost);
    best_cost_ = std::min(best_cost_, out.best_cost);
    if (out.stop) {
      stopped_ = true;
      return;
    }
  }
}

void PlanEnumerator::Run(const MatchFn& match, const DeadlineFn& deadline) {
  best_cost_ = kInf;
  distinct_base_masks_.clear();
  for (int32_t id : base_ids_) {
    distinct_base_masks_.push_back(
        plans_[static_cast<size_t>(id)].serve_mask);
  }
  std::sort(distinct_base_masks_.begin(), distinct_base_masks_.end());
  distinct_base_masks_.erase(
      std::unique(distinct_base_masks_.begin(), distinct_base_masks_.end()),
      distinct_base_masks_.end());

  // Bases that cannot reach full coverage are dead weight both as plans
  // and as join operands.
  for (int32_t id : base_ids_) {
    EnumPlan& p = plans_[static_cast<size_t>(id)];
    if (!cover_.Extendable(p.serve_mask, 1, options_.max_plan_views)) {
      p.alive = false;
      p.extendable = false;
      --alive_count_;
      ++stats_.coverage_pruned;
    } else {
      p.extendable = options_.max_plan_views > 1 &&
                     (cover_.Covers(p.serve_mask) ||
                      ExtendableWithAnyBase(p.serve_mask, 1));
    }
  }

  size_t level_begin = 0;
  size_t level_end = plans_.size();
  bool table_full = false;
  for (int32_t level = 1;
       level <= options_.max_plan_views && !stopped_ && !deadline();
       ++level) {
    MatchLevel(level_begin, level_end, match, deadline);
    if (stopped_ || deadline() || level == options_.max_plan_views ||
        table_full) {
      break;
    }

    // Extension frontier: the cheapest extendable plans of this level.
    std::vector<int32_t> frontier;
    for (size_t i = level_begin; i < level_end; ++i) {
      const EnumPlan& p = plans_[i];
      if (p.alive && p.extendable &&
          static_cast<int32_t>(p.bases.size()) == level) {
        frontier.push_back(static_cast<int32_t>(i));
      }
    }
    std::sort(frontier.begin(), frontier.end(), [&](int32_t a, int32_t b) {
      const EnumPlan& x = plans_[static_cast<size_t>(a)];
      const EnumPlan& y = plans_[static_cast<size_t>(b)];
      if (x.cost != y.cost) return x.cost < y.cost;
      return a < b;
    });
    if (frontier.size() > kMaxFrontier) {
      stats_.beam_skipped += frontier.size() - kMaxFrontier;
      frontier.resize(kMaxFrontier);
    }

    level_begin = plans_.size();
    for (int32_t fid : frontier) {
      if (stopped_ || table_full || deadline()) break;
      {
        const EnumPlan& f = plans_[static_cast<size_t>(fid)];
        // Branch-and-bound: every extension costs at least as much as the
        // frontier plan, and every rewriting from an extension costs at
        // least as much as the extension.
        if (best_cost_ < kInf && f.cost >= best_cost_) {
          ++stats_.cost_pruned;
          continue;
        }
      }
      if (!EnsureInfo(fid)) continue;
      for (int32_t bid : base_ids_) {
        if (stopped_ || table_full || deadline()) break;
        if (!plans_[static_cast<size_t>(bid)].alive) continue;
        if (!EnsureInfo(bid)) continue;
        uint32_t joined_mask = plans_[static_cast<size_t>(fid)].serve_mask |
                               plans_[static_cast<size_t>(bid)].serve_mask;
        if (!cover_.Extendable(joined_mask, static_cast<size_t>(level) + 1,
                               options_.max_plan_views)) {
          ++stats_.coverage_pruned;
          continue;
        }
        size_t num_pf = plans_[static_cast<size_t>(fid)].info
                            .rel_prefixes.size();
        size_t num_pb = plans_[static_cast<size_t>(bid)].info
                            .rel_prefixes.size();
        for (size_t ai = 0; ai < num_pf; ++ai) {
          for (size_t bj = 0; bj < num_pb; ++bj) {
            for (JoinType type :
                 {JoinType::kEq, JoinType::kParent, JoinType::kAncestor}) {
              for (bool f_is_ancestor : {true, false}) {
                if (type == JoinType::kEq && !f_is_ancestor) continue;
                if (table_full) break;
                // plans_ grows inside AddPlan, so references are
                // re-resolved per iteration.
                const EnumPlan& f = plans_[static_cast<size_t>(fid)];
                const EnumPlan& b = plans_[static_cast<size_t>(bid)];
                const EnumPlan& anc = f_is_ancestor ? f : b;
                const EnumPlan& desc = f_is_ancestor ? b : f;
                size_t anc_pidx = f_is_ancestor ? ai : bj;
                size_t desc_pidx = f_is_ancestor ? bj : ai;
                // Bitset pre-pass: a few word ANDs decide whether ANY
                // piece pair is path-compatible under this join type.
                if (!anc.info.prefix_sets[anc_pidx].Joins(
                        desc.info.prefix_sets[desc_pidx], type)) {
                  continue;
                }
                const std::vector<PathId>& anc_paths =
                    anc.info.prefix_paths[anc_pidx];
                const std::vector<PathId>& desc_paths =
                    desc.info.prefix_paths[desc_pidx];
                // Integer pre-pass: when neither side has predicates,
                // every path-compatible piece pair merges successfully,
                // so the merged piece count is exactly `compatible`.
                size_t compatible = 0;
                for (size_t x = 0; x < anc_paths.size(); ++x) {
                  for (size_t y = 0; y < desc_paths.size(); ++y) {
                    compatible += PiecePathsJoin(summary_, anc_paths[x],
                                                 desc_paths[y], type)
                                      ? 1
                                      : 0;
                  }
                }
                if (compatible == 0) continue;
                if (compatible > options_.max_merged_pieces &&
                    !anc.info.has_preds && !desc.info.has_preds) {
                  // Certain piece overflow: the discard may hide a valid
                  // rewriting (see Options::max_merged_pieces).
                  stats_.truncated = true;
                  continue;
                }
                if (plans_.size() >= options_.max_table) {
                  table_full = true;
                  stats_.table_full = true;
                  break;
                }

                EnumPlan jp;
                jp.anc = f_is_ancestor ? fid : bid;
                jp.desc = f_is_ancestor ? bid : fid;
                jp.anc_prefix = anc.info.rel_prefixes[anc_pidx];
                jp.desc_prefix = desc.info.rel_prefixes[desc_pidx];
                jp.type = type;
                jp.anc_paths = anc_paths;
                jp.desc_paths = desc_paths;
                jp.serve_mask = joined_mask;
                jp.order_key = anc.order_key;
                jp.bases = f.bases;
                jp.bases.push_back(bid);
                std::sort(jp.bases.begin(), jp.bases.end());

                jp.cand.plan = MakeJoinPlan(
                    anc.cand.plan, desc.cand.plan,
                    anc.info.prefix_id_cols[anc_pidx],
                    desc.info.prefix_id_cols[desc_pidx], type);
                jp.cand.used_views = anc.cand.used_views;
                jp.cand.used_views.insert(jp.cand.used_views.end(),
                                          desc.cand.used_views.begin(),
                                          desc.cand.used_views.end());
                CostEstimate est = cost_model_.Estimate(*jp.cand.plan);
                jp.cost = est.cost;
                jp.rows = est.rows;
                ++stats_.joins;
                AddPlan(std::move(jp));
              }
            }
          }
        }
      }
    }
    level_end = plans_.size();
    if (level_begin == level_end) break;  // nothing new to match or extend
  }
  stats_.retained = alive_count_;
}

}  // namespace svx
