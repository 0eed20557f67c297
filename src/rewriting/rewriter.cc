#include "src/rewriting/rewriter.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/algebra/plan_printer.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/pattern/embedding.h"
#include "src/rewriting/plan_enum.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/cost_model.h"

namespace svx {

namespace {

// Search bounds shared by Rewrite() and RewriteExhaustive().
constexpr size_t kMaxAssignments = 64;    // return-node choices per candidate
constexpr size_t kMaxUnionSize = 3;       // views in one union rewriting
constexpr size_t kMaxUnionPartials = 24;  // partial covers kept for unions

// ---------------------------------------------------------------------------
// Query analysis
// ---------------------------------------------------------------------------

struct QueryInfo {
  Pattern original;
  Pattern flat;  // nested edges flattened to optional edges
  std::vector<PatternNodeId> cols;          // return nodes (preorder)
  std::vector<uint8_t> col_attrs;
  std::vector<std::vector<PathId>> col_paths;  // associated paths per column
  std::vector<bool> col_optional;           // under an optional edge in flat
  std::vector<PatternNodeId> nested_edges;  // deepest-first
  std::vector<bool> related_path;           // Prop 3.4 relevance set over S
  /// Join-endpoint relevance: associated paths of q nodes and their
  /// ancestors. Joining on other paths cannot tighten the structural
  /// relationships between q nodes (§3.2: useful partners either carry a
  /// query path or an ancestor of one, like p2 in Figure 6).
  std::vector<bool> join_relevant;
  /// Exact associated paths of q nodes (search-order heuristic: candidates
  /// carrying these paths are explored first).
  std::vector<bool> assoc_exact;
  std::vector<std::string> labels;          // concrete labels of q nodes
};

int32_t PatternDepth(const Pattern& p, PatternNodeId n) {
  int32_t d = 0;
  for (PatternNodeId cur = n; cur >= 0; cur = p.node(cur).parent) ++d;
  return d;
}

std::vector<int32_t> PreorderRanks(const Pattern& p) {
  std::vector<int32_t> rank(static_cast<size_t>(p.size()), 0);
  int32_t r = 0;
  std::vector<PatternNodeId> stack{p.root()};
  while (!stack.empty()) {
    PatternNodeId n = stack.back();
    stack.pop_back();
    rank[static_cast<size_t>(n)] = r++;
    const auto& cs = p.node(n).children;
    for (auto it = cs.rbegin(); it != cs.rend(); ++it) stack.push_back(*it);
  }
  return rank;
}

QueryInfo AnalyzeQuery(const Pattern& q, const Summary& summary) {
  QueryInfo info;
  info.original = q;
  info.flat = q;
  for (PatternNodeId n = 1; n < info.flat.size(); ++n) {
    Pattern::Node& node = info.flat.mutable_node(n);
    if (node.nested) {
      node.nested = false;
      node.optional = true;
    }
  }
  info.cols = info.flat.ReturnNodes();
  for (PatternNodeId c : info.cols) {
    info.col_attrs.push_back(info.flat.node(c).attrs);
    bool optional = false;
    for (PatternNodeId cur = c; cur > 0; cur = info.flat.node(cur).parent) {
      optional = optional || info.flat.node(cur).optional;
    }
    info.col_optional.push_back(optional);
  }

  // Associated paths (Prop 3.7): computed on the strict skeleton; nodes in
  // optional subtrees may have no feasible path — then the check is skipped.
  AssociatedPaths paths = ComputeAssociatedPaths(info.flat, summary);
  for (PatternNodeId c : info.cols) {
    info.col_paths.push_back(paths.feasible[static_cast<size_t>(c)]);
  }

  // Nested edges of the original query, deepest first (adaptation order).
  for (PatternNodeId n = 1; n < q.size(); ++n) {
    if (q.node(n).nested) info.nested_edges.push_back(n);
  }
  std::sort(info.nested_edges.begin(), info.nested_edges.end(),
            [&](PatternNodeId a, PatternNodeId b) {
              return PatternDepth(q, a) > PatternDepth(q, b);
            });

  // Prop 3.4 relevance set: every associated path of any *non-root* q node
  // (the paper explicitly excludes the roots — all patterns share the
  // document root), closed under ancestors and descendants.
  info.related_path.assign(static_cast<size_t>(summary.size()), false);
  info.join_relevant.assign(static_cast<size_t>(summary.size()), false);
  info.assoc_exact.assign(static_cast<size_t>(summary.size()), false);
  for (PatternNodeId n = 1; n < info.flat.size(); ++n) {
    for (PathId s : paths.feasible[static_cast<size_t>(n)]) {
      info.related_path[static_cast<size_t>(s)] = true;
      info.join_relevant[static_cast<size_t>(s)] = true;
      info.assoc_exact[static_cast<size_t>(s)] = true;
      for (PathId a = summary.parent(s); a != kInvalidPath;
           a = summary.parent(a)) {
        info.related_path[static_cast<size_t>(a)] = true;
        info.join_relevant[static_cast<size_t>(a)] = true;
      }
      for (PathId d : summary.Descendants(s)) {
        info.related_path[static_cast<size_t>(d)] = true;
      }
    }
  }

  for (PatternNodeId n = 0; n < q.size(); ++n) {
    if (!q.node(n).IsWildcard()) info.labels.push_back(q.node(n).label);
  }
  std::sort(info.labels.begin(), info.labels.end());
  info.labels.erase(std::unique(info.labels.begin(), info.labels.end()),
                    info.labels.end());
  return info;
}

/// Prop 3.4: a view is kept iff some non-root node has an associated path
/// related (equal / ancestor / descendant) to a non-root query path.
bool ViewRelated(const ViewDef& view, const QueryInfo& qi,
                 const Summary& summary) {
  if (view.pattern.size() <= 1) return false;
  AssociatedPaths paths =
      ComputeAssociatedPaths(view.pattern.Strict(), summary);
  for (PatternNodeId n = 1; n < view.pattern.size(); ++n) {
    for (PathId s : paths.feasible[static_cast<size_t>(n)]) {
      if (qi.related_path[static_cast<size_t>(s)]) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Candidate manipulation
// ---------------------------------------------------------------------------

void RetagPieces(std::vector<Piece>* pieces, const std::string& tag) {
  for (Piece& p : *pieces) {
    for (ColumnBinding& b : p.bindings) b.prefix = tag + b.prefix;
  }
}

// ---------------------------------------------------------------------------
// Equivalence testing and plan adaptation
// ---------------------------------------------------------------------------

struct PlanSelect {
  SelectKind kind;
  int32_t col;
  std::string label;
  Predicate pred = Predicate::True();
};

/// One tested combination: column prefixes per query column.
struct Assignment {
  std::vector<std::string> prefixes;
};

struct Partial {
  PlanPtr projected_plan;  // flat projected plan (no nesting adaptation yet)
  std::vector<Pattern> test_patterns;
};

/// One search's equivalence tests and union phase, shared by Rewrite() and
/// RewriteExhaustive(). `memo` may be null; `stats` may not.
class RewriteSession {
 public:
  RewriteSession(const Summary& summary, const RewriterOptions& options,
                 const QueryInfo& qi, ContainmentMemo* memo,
                 const Timer& timer, RewriteStats* stats)
      : summary_(summary),
        options_(options),
        qi_(qi),
        memo_(memo),
        timer_(timer),
        stats_(stats) {}

  /// True once the search has run past time_budget_ms (recorded as
  /// time_budget_hit).
  bool OverTimeBudget() {
    if (timer_.ElapsedMillis() <= options_.time_budget_ms) return false;
    stats_->time_budget_hit = true;
    return true;
  }

  /// Tests a candidate against the query; appends results and partial
  /// covers. Returns true if the result budget is exhausted.
  bool TryMatch(const Candidate& cand, std::vector<Rewriting>* results) {
    std::vector<Assignment> assignments = EnumerateAssignments(cand);
    for (const Assignment& asg : assignments) {
      if (Exhausted(results)) return true;
      ++stats_->equivalence_tests;
      std::vector<PlanSelect> selects;
      std::vector<Pattern> tps;
      if (!BuildTestPatterns(cand, asg, &tps, &selects)) continue;

      // Direction 1: every piece pattern is contained in the query.
      bool all_contained = true;
      for (const Pattern& tp : tps) {
        Result<bool> c = Contained(tp, qi_.flat);
        if (!c.ok() || !*c) {
          all_contained = false;
          break;
        }
      }
      if (!all_contained) continue;

      // Direction 2: the query is covered by the union of the pieces.
      std::vector<const Pattern*> ptrs;
      ptrs.reserve(tps.size());
      for (const Pattern& tp : tps) ptrs.push_back(&tp);
      Result<bool> covered = ContainedInUnion(qi_.flat, ptrs);
      if (!covered.ok()) continue;

      PlanPtr projected = BuildProjectedPlan(cand, asg, selects);
      if (*covered) {
        PlanPtr final_plan = AdaptNesting(projected);
        std::string compact = PlanToCompactString(*final_plan);
        if (result_compacts_.insert(compact).second) {
          results->push_back({std::move(final_plan), std::move(compact)});
          NoteResult();
        }
        if (Exhausted(results)) return true;
      } else if (partials_.size() < kMaxUnionPartials &&
                 partial_keys_.insert(cand.CanonicalString()).second) {
        Partial p;
        p.projected_plan = std::move(projected);
        p.test_patterns = std::move(tps);
        partials_.push_back(std::move(p));
      }
    }
    return Exhausted(results);
  }

  /// Algorithm 1 lines 13-14: minimal unions of partial covers.
  void UnionPhase(std::vector<Rewriting>* results) {
    size_t n = partials_.size();
    if (n < 2) return;
    std::vector<std::vector<size_t>> found_subsets;
    // Enumerate subsets by increasing size so minimality is by construction.
    for (size_t size = 2; size <= kMaxUnionSize && size <= n; ++size) {
      std::vector<size_t> idx(size);
      // Initialize combination 0,1,...,size-1.
      for (size_t i = 0; i < size; ++i) idx[i] = i;
      while (true) {
        if (Exhausted(results)) return;
        bool superset_of_found = false;
        for (const std::vector<size_t>& f : found_subsets) {
          if (std::includes(idx.begin(), idx.end(), f.begin(), f.end())) {
            superset_of_found = true;
            break;
          }
        }
        if (!superset_of_found) {
          std::vector<const Pattern*> all;
          for (size_t i : idx) {
            for (const Pattern& tp : partials_[i].test_patterns) {
              all.push_back(&tp);
            }
          }
          ++stats_->equivalence_tests;
          Result<bool> covered = ContainedInUnion(qi_.flat, all);
          if (covered.ok() && *covered) {
            found_subsets.push_back(idx);
            std::vector<PlanPtr> plans;
            for (size_t i : idx) plans.push_back(partials_[i].projected_plan);
            PlanPtr u = MakeUnion(std::move(plans));
            PlanPtr final_plan = AdaptNesting(std::move(u));
            std::string compact = PlanToCompactString(*final_plan);
            results->push_back({std::move(final_plan), std::move(compact)});
            NoteResult();
          }
        }
        // Next combination.
        size_t i = size;
        while (i > 0) {
          --i;
          if (idx[i] != i + n - size) {
            ++idx[i];
            for (size_t j = i + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
            break;
          }
          if (i == 0) return;
        }
      }
    }
  }

 private:
  bool Exhausted(const std::vector<Rewriting>* results) const {
    return results->size() >= options_.max_results;
  }

  void NoteResult() {
    ++stats_->results;
    if (stats_->first_ms < 0) stats_->first_ms = timer_.ElapsedMillis();
  }

  /// Containment through the memo when one is configured.
  Result<bool> Contained(const Pattern& p, const Pattern& q) const {
    if (memo_ != nullptr) {
      return memo_->Contained(p, q, summary_, options_.containment);
    }
    return IsContained(p, q, summary_, options_.containment);
  }

  /// Union containment of the (fixed) query in candidate piece sets, with
  /// modS(q) built once and reused across every test of this session. When
  /// the model build exceeds its budgets, falls back to per-call streaming
  /// (which can still decide negatives early).
  Result<bool> ContainedInUnion(const Pattern& p,
                                const std::vector<const Pattern*>& qs) {
    const std::vector<CanonicalTree>* model = nullptr;
    if (&p == &qi_.flat) {
      if (!q_model_state_) {
        Result<std::vector<CanonicalTree>> built = BuildCanonicalModel(
            qi_.flat, summary_, options_.containment.model);
        q_model_state_ = built.ok() ? 1 : -1;
        if (built.ok()) q_model_ = std::move(*built);
      }
      if (q_model_state_ > 0) model = &q_model_;
    }
    if (memo_ != nullptr) {
      return memo_->ContainedInUnion(p, qs, summary_, options_.containment,
                                     model);
    }
    return IsContainedInUnion(p, qs, summary_, options_.containment, nullptr,
                              model);
  }

  /// Available attributes per prefix: intersection over pieces of the attr
  /// bits that have a binding.
  std::unordered_map<std::string, uint8_t> AvailableAttrs(
      const Candidate& cand) const {
    std::unordered_map<std::string, uint8_t> avail;
    if (cand.pieces.empty()) return avail;
    std::unordered_map<std::string, uint8_t> first;
    for (const ColumnBinding& b : cand.pieces[0].bindings) {
      first[b.prefix] |= b.attr;
    }
    for (auto& [prefix, attrs] : first) {
      uint8_t acc = attrs;
      for (size_t i = 1; i < cand.pieces.size() && acc != 0; ++i) {
        uint8_t here = 0;
        for (const ColumnBinding& b : cand.pieces[i].bindings) {
          if (b.prefix == prefix) here |= b.attr;
        }
        acc &= here;
      }
      if (acc != 0) avail[prefix] = acc;
    }
    return avail;
  }

  std::vector<Assignment> EnumerateAssignments(const Candidate& cand) const {
    std::vector<Assignment> out;
    if (cand.pieces.empty()) return out;
    std::unordered_map<std::string, uint8_t> avail = AvailableAttrs(cand);

    // Per column: prefixes whose attrs suffice and whose pinned paths pass
    // Prop 3.7. A piece whose pinned path is incompatible is tolerated when
    // a §4.6 label selection can filter its rows out (different label, L
    // stored); the containment tests remain the exactness arbiter.
    std::vector<std::vector<std::string>> choices(qi_.cols.size());
    for (size_t i = 0; i < qi_.cols.size(); ++i) {
      uint8_t need = qi_.col_attrs[i];
      const Pattern::Node& qnode = qi_.flat.node(qi_.cols[i]);
      for (const auto& [prefix, attrs] : avail) {
        if ((need & attrs) != need) continue;
        bool ok = true;
        bool any_path_match = false;
        for (const Piece& piece : cand.pieces) {
          auto bs = piece.FindPrefix(prefix);
          if (bs.empty()) {
            ok = false;
            break;
          }
          const ColumnBinding* b = bs[0];
          if (!b->skeleton || qi_.col_paths[i].empty()) {
            any_path_match = true;
            continue;
          }
          if (std::binary_search(qi_.col_paths[i].begin(),
                                 qi_.col_paths[i].end(), b->path)) {
            any_path_match = true;
            continue;
          }
          // Incompatible piece: only acceptable when σ L = label removes it.
          bool neutralizable =
              !qnode.IsWildcard() && (attrs & kAttrLabel) != 0 &&
              summary_.label(b->path) != qnode.label;
          if (!neutralizable) {
            ok = false;
            break;
          }
        }
        if (ok && any_path_match) choices[i].push_back(prefix);
      }
      if (choices[i].empty()) return out;
      std::sort(choices[i].begin(), choices[i].end());
    }

    // Cartesian product with per-piece preorder-order verification.
    std::vector<std::string> current(qi_.cols.size());
    EnumerateRec(cand, choices, 0, &current, &out);
    return out;
  }

  void EnumerateRec(const Candidate& cand,
                    const std::vector<std::vector<std::string>>& choices,
                    size_t i, std::vector<std::string>* current,
                    std::vector<Assignment>* out) const {
    if (out->size() >= kMaxAssignments) return;
    if (i == choices.size()) {
      if (OrderConsistent(cand, *current)) out->push_back({*current});
      return;
    }
    for (const std::string& prefix : choices[i]) {
      (*current)[i] = prefix;
      EnumerateRec(cand, choices, i + 1, current, out);
      if (out->size() >= kMaxAssignments) return;
    }
  }

  /// The chosen nodes must appear in piece preorder in column order, in
  /// every piece (containment compares return nodes positionally).
  bool OrderConsistent(const Candidate& cand,
                       const std::vector<std::string>& prefixes) const {
    for (const Piece& piece : cand.pieces) {
      std::vector<int32_t> ranks = PreorderRanks(piece.pattern);
      int32_t last = -1;
      for (const std::string& prefix : prefixes) {
        auto bs = piece.FindPrefix(prefix);
        if (bs.empty()) return false;
        int32_t r = ranks[static_cast<size_t>(bs[0]->node)];
        if (r <= last) return false;
        last = r;
      }
    }
    return true;
  }

  /// Builds the per-piece containment test patterns, collecting the §4.6
  /// label/value selections the plan must apply. Returns false when the
  /// assignment cannot be made valid.
  bool BuildTestPatterns(const Candidate& cand, const Assignment& asg,
                         std::vector<Pattern>* tps,
                         std::vector<PlanSelect>* selects) const {
    std::unordered_set<std::string> select_keys;
    for (const Piece& piece : cand.pieces) {
      Pattern tp = piece.pattern;
      for (PatternNodeId n = 0; n < tp.size(); ++n) {
        tp.mutable_node(n).attrs = 0;
      }
      for (size_t i = 0; i < asg.prefixes.size(); ++i) {
        const std::string& prefix = asg.prefixes[i];
        auto bs = piece.FindPrefix(prefix);
        SVX_CHECK(!bs.empty());
        PatternNodeId n = bs[0]->node;
        Pattern::Node& node = tp.mutable_node(n);
        node.attrs = qi_.col_attrs[i];

        const Pattern::Node& qnode =
            qi_.flat.node(qi_.cols[i]);
        // Label adaptation (§4.6): σ L = label narrows a wildcard node, and
        // also neutralizes pieces pinned to a different label (their test
        // pattern becomes S-unsatisfiable, matching the σ dropping all of
        // their rows).
        if (!qnode.IsWildcard() && node.label != qnode.label) {
          const ColumnBinding* lb = piece.Find(prefix, kAttrLabel);
          if (lb == nullptr) return false;
          node.label = qnode.label;
          std::string key = "L:" + prefix;
          if (select_keys.insert(key).second) {
            selects->push_back({SelectKind::kLabelEq, lb->col, qnode.label});
          }
        }
        // Value adaptation (§4.6): narrow by a value selection.
        if (!node.pred.Implies(qnode.pred)) {
          const ColumnBinding* vb = piece.Find(prefix, kAttrValue);
          if (vb == nullptr || qi_.col_optional[i]) return false;
          node.pred = node.pred.And(qnode.pred);
          std::string key = "V:" + prefix + ":" + qnode.pred.ToString();
          if (select_keys.insert(key).second) {
            selects->push_back(
                {SelectKind::kValuePred, vb->col, "", qnode.pred});
          }
        }
        // Optional strengthening: a piece node under optional edges can
        // serve a required query column when a ⊥-witness column exists —
        // σ ≠ ⊥ makes the path to the node required.
        if (!qi_.col_optional[i]) {
          bool under_optional = false;
          for (PatternNodeId cur = n; cur > 0;
               cur = tp.node(cur).parent) {
            under_optional = under_optional || tp.node(cur).optional;
          }
          if (under_optional) {
            const ColumnBinding* wb = piece.Find(prefix, kAttrId);
            if (wb == nullptr) wb = piece.Find(prefix, kAttrContent);
            if (wb == nullptr) wb = piece.Find(prefix, kAttrLabel);
            // A V column may be ⊥ for a matched but valueless node and
            // cannot witness the match.
            if (wb == nullptr) return false;
            for (PatternNodeId cur = n; cur > 0;
                 cur = tp.node(cur).parent) {
              tp.mutable_node(cur).optional = false;
            }
            std::string key = "N:" + prefix;
            if (select_keys.insert(key).second) {
              selects->push_back({SelectKind::kNonNull, wb->col, ""});
            }
          }
        }
      }
      tps->push_back(PruneAttrlessSubtrees(tp));
    }
    return true;
  }

  PlanPtr BuildProjectedPlan(const Candidate& cand, const Assignment& asg,
                             const std::vector<PlanSelect>& selects) const {
    // Projection: query columns in preorder, attrs in (id, l, v, c) order —
    // the ViewSchema layout.
    std::vector<int32_t> cols;
    for (size_t i = 0; i < asg.prefixes.size(); ++i) {
      for (uint8_t attr : {kAttrId, kAttrLabel, kAttrValue, kAttrContent}) {
        if ((qi_.col_attrs[i] & attr) == 0) continue;
        const ColumnBinding* b = cand.pieces[0].Find(asg.prefixes[i], attr);
        SVX_CHECK(b != nullptr);
        cols.push_back(b->col);
      }
    }
    // navfID / navC append their columns after their input's, and
    // ExpandView stacks them on top of a base candidate's plan: skip the
    // top ones whose columns no selection or projection reads.
    int32_t read_width = 0;
    for (int32_t c : cols) read_width = std::max(read_width, c + 1);
    for (const PlanSelect& s : selects) {
      read_width = std::max(read_width, s.col + 1);
    }
    PlanPtr plan = cand.plan;
    while ((plan->kind == PlanKind::kDeriveParent ||
            plan->kind == PlanKind::kNavigate) &&
           plan->children[0]->schema.size() >= read_width) {
      plan = plan->children[0];
    }
    for (const PlanSelect& s : selects) {
      switch (s.kind) {
        case SelectKind::kLabelEq:
          plan = MakeSelectLabel(std::move(plan), s.col, s.label);
          break;
        case SelectKind::kValuePred:
          plan = MakeSelectValue(std::move(plan), s.col, s.pred);
          break;
        case SelectKind::kNonNull:
          plan = MakeSelectNonNull(std::move(plan), s.col);
          break;
        default:
          SVX_CHECK(false);
      }
    }
    return MakeProject(std::move(plan), std::move(cols));
  }

  /// §4.6: re-nests the flat projected plan per the query's nested edges
  /// (deepest first), restoring the ViewSchema column layout after each
  /// grouping.
  PlanPtr AdaptNesting(PlanPtr plan) const {
    if (qi_.nested_edges.empty()) return plan;
    const Pattern& q = qi_.original;
    std::vector<int32_t> ranks = PreorderRanks(q);

    // Current layout: one item per column, tagged by representative q node.
    struct Item {
      PatternNodeId rep;
      int32_t order;  // tiebreak within a node (attr order)
    };
    std::vector<Item> items;
    int32_t seq = 0;
    for (size_t i = 0; i < qi_.cols.size(); ++i) {
      for (uint8_t attr : {kAttrId, kAttrLabel, kAttrValue, kAttrContent}) {
        if ((qi_.col_attrs[i] & attr) == 0) continue;
        items.push_back({qi_.cols[i], seq++});
      }
    }

    for (PatternNodeId m : qi_.nested_edges) {
      std::vector<int32_t> keys;
      std::vector<Item> key_items;
      for (size_t c = 0; c < items.size(); ++c) {
        if (!q.IsAncestorOrSelf(m, items[c].rep)) {
          keys.push_back(static_cast<int32_t>(c));
          key_items.push_back(items[c]);
        }
      }
      std::string name = StrFormat("g%d", m);
      plan = MakeGroupBy(std::move(plan), keys, name);
      items = key_items;
      items.push_back({m, seq++});

      // Restore preorder layout.
      std::vector<int32_t> perm(items.size());
      for (size_t c = 0; c < perm.size(); ++c) {
        perm[c] = static_cast<int32_t>(c);
      }
      std::stable_sort(perm.begin(), perm.end(), [&](int32_t x, int32_t y) {
        int32_t rx = ranks[static_cast<size_t>(items[static_cast<size_t>(x)].rep)];
        int32_t ry = ranks[static_cast<size_t>(items[static_cast<size_t>(y)].rep)];
        if (rx != ry) return rx < ry;
        return items[static_cast<size_t>(x)].order <
               items[static_cast<size_t>(y)].order;
      });
      bool identity = true;
      for (size_t c = 0; c < perm.size(); ++c) {
        identity = identity && perm[c] == static_cast<int32_t>(c);
      }
      if (!identity) {
        std::vector<Item> reordered;
        for (int32_t x : perm) {
          reordered.push_back(items[static_cast<size_t>(x)]);
        }
        plan = MakeProject(std::move(plan), perm);
        items = std::move(reordered);
      }
    }
    return plan;
  }

  const Summary& summary_;
  const RewriterOptions& options_;
  const QueryInfo& qi_;
  ContainmentMemo* memo_;
  const Timer& timer_;
  RewriteStats* stats_;
  std::vector<Partial> partials_;
  std::unordered_set<std::string> result_compacts_;  // dedup of *results
  std::unordered_set<std::string> partial_keys_;     // dedup of partials_
  /// modS(q.flat), built lazily (0 = not built, 1 = ready, -1 = failed).
  int q_model_state_ = 0;
  std::vector<CanonicalTree> q_model_;
};

// ---------------------------------------------------------------------------
// Phases shared by both searches
// ---------------------------------------------------------------------------

/// The level-1 candidates of the kept views, each expansion tagged with its
/// own instance prefix (views over the expansion budget are skipped), in
/// search order: candidates whose attributed nodes sit on exact query paths
/// first, so a budgeted join search reaches the useful combinations sooner.
/// `kept_pos`, when non-null, receives each candidate's position in `kept`.
std::vector<Candidate> ExpandViews(const std::vector<const ViewDef*>& kept,
                                   const QueryInfo& qi, const Summary& summary,
                                   const ExpansionOptions& expansion,
                                   std::vector<size_t>* kept_pos) {
  std::vector<Candidate> expanded_all;
  std::vector<size_t> pos;
  int instance = 0;
  for (size_t k = 0; k < kept.size(); ++k) {
    Result<std::vector<Candidate>> expanded =
        ExpandView(*kept[k], summary, qi.labels, expansion);
    if (!expanded.ok()) continue;
    for (Candidate& c : *expanded) {
      RetagPieces(&c.pieces, StrFormat("i%d.", instance++));
      expanded_all.push_back(std::move(c));
      pos.push_back(k);
    }
  }
  auto exact = [&](const Candidate& c) {
    for (const Piece& piece : c.pieces) {
      for (const ColumnBinding& b : piece.bindings) {
        if (b.skeleton && b.path != kInvalidPath &&
            qi.assoc_exact[static_cast<size_t>(b.path)]) {
          return true;
        }
      }
    }
    return false;
  };
  std::vector<size_t> order(expanded_all.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_partition(order.begin(), order.end(), [&](size_t i) {
    return exact(expanded_all[i]);
  });
  std::vector<Candidate> out;
  out.reserve(order.size());
  if (kept_pos != nullptr) kept_pos->clear();
  for (size_t i : order) {
    out.push_back(std::move(expanded_all[i]));
    if (kept_pos != nullptr) kept_pos->push_back(pos[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reference search state
// ---------------------------------------------------------------------------

/// A candidate of the reference search with its join state: the joinable
/// prefixes that pin some piece on a join-relevant path, each with every
/// piece's pinned ID path, and the canonical hash for duplicate pruning.
struct RefCandidate {
  Candidate cand;
  uint64_t canon_hash = 0;
  std::vector<std::string> prefixes;
  std::vector<std::vector<PathId>> paths;  // aligned with prefixes
};

RefCandidate MakeRefCandidate(Candidate c,
                              const std::vector<bool>& join_relevant) {
  RefCandidate r;
  r.canon_hash = CandidateCanonicalHash(c);
  for (const std::string& prefix : c.JoinablePrefixes()) {
    std::vector<PathId> paths;
    bool relevant = false;
    for (const Piece& piece : c.pieces) {
      // JoinablePrefixes guarantees a skeleton ID binding in every piece.
      PathId s = piece.Find(prefix, kAttrId)->path;
      paths.push_back(s);
      relevant = relevant || join_relevant[static_cast<size_t>(s)];
    }
    if (!relevant) continue;
    r.prefixes.push_back(prefix);
    r.paths.push_back(std::move(paths));
  }
  r.cand = std::move(c);
  return r;
}

/// Adds a plain scan of every kept view whose pattern is the query itself,
/// ranks, and keeps the `max_results` cheapest. Such a view's extent is the
/// query's result on every document, under any summary, so the scan needs
/// neither an equivalence test nor adaptation. The search reaches it only
/// through the flattened query: a nesting query gets unnest, projection and
/// re-grouping (§4.6), which cost a pass over every nested row per read.
void AddViewScansAndRank(const Pattern& q,
                         const std::vector<const ViewDef*>& kept,
                         const RewriterOptions& options,
                         std::vector<Rewriting>* results,
                         RewriteStats* stats) {
  std::string text;
  for (const ViewDef* v : kept) {
    if (v->pattern.size() != q.size()) continue;
    if (text.empty()) text = PatternToString(q);
    if (PatternToString(v->pattern) != text) continue;
    PlanPtr plan = MakeViewScan(v->name, ViewSchema(v->pattern, v->name));
    std::string compact = PlanToCompactString(*plan);
    auto same = [&](const Rewriting& r) { return r.compact == compact; };
    if (std::none_of(results->begin(), results->end(), same)) {
      results->push_back({std::move(plan), std::move(compact)});
    }
  }
  RankByCost(options.cost_model, results, stats);
  if (results->size() > options.max_results) {
    results->resize(options.max_results);
    if (stats != nullptr && !results->empty()) {
      stats->costliest_cost = results->back().est_cost;
    }
  }
}

}  // namespace

void RankByCost(const CostModel* cost_model, std::vector<Rewriting>* results,
                RewriteStats* stats) {
  if (cost_model == nullptr || results->empty()) return;
  for (Rewriting& r : *results) r.est_cost = cost_model->EstimateCost(*r.plan);
  std::stable_sort(results->begin(), results->end(),
                   [](const Rewriting& a, const Rewriting& b) {
                     if (a.est_cost != b.est_cost) {
                       return a.est_cost < b.est_cost;
                     }
                     return a.compact < b.compact;
                   });
  if (stats == nullptr) return;
  stats->cheapest_cost = results->front().est_cost;
  stats->costliest_cost = results->back().est_cost;
}

// ---------------------------------------------------------------------------
// Rewriter
// ---------------------------------------------------------------------------

std::string RewriterOptionsFingerprint(const RewriterOptions& o) {
  // Plan choice depends on the effective cost constants, so the fingerprint
  // carries the model's constants, not just its presence.
  const uint64_t model_fp =
      o.cost_model != nullptr
          ? CostConstantsFingerprint(o.cost_model->constants,
                                     o.cost_model->default_rows)
          : 0;
  return StrFormat(
      "r%zu.p%d.t%zu.%d%d.m%llx|e%s|k%s", o.max_results, o.max_plan_views,
      o.max_plan_table, o.prune_views ? 1 : 0, o.prune_same_pattern ? 1 : 0,
      static_cast<unsigned long long>(model_fp),  // NOLINT(runtime/int)
      ExpansionOptionsFingerprint(o.expansion).c_str(),
      ContainmentOptionsFingerprint(o.containment).c_str());
}

Rewriter::Rewriter(const Summary& summary, RewriterOptions options)
    : summary_(summary), options_(std::move(options)) {}

void Rewriter::AddView(ViewDef def) { views_.push_back(std::move(def)); }

Result<std::vector<Rewriting>> Rewriter::Rewrite(const Pattern& q,
                                                 RewriteStats* stats) {
  Timer total_timer;
  if (q.size() == 0 || q.Arity() == 0) {
    return Status::InvalidArgument("query must have return nodes");
  }
  // Stats are also the feed for the process metrics, so they are always
  // collected; callers who pass nullptr just don't see them.
  RewriteStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const size_t pruned0 = stats->candidates_pruned;
  const size_t eq0 = stats->equivalence_tests;
  const size_t jc0 = stats->join_candidates;

  // Opt-in tracing: one "rewrite" span with a child per phase. The phases
  // are sequential, so a single cursor span that begin_phase() closes and
  // reopens is enough.
  ScopedSpan rewrite_span(options_.trace, "rewrite");
  TraceSpan* phase = nullptr;
  auto begin_phase = [&](const char* name) {
    if (phase != nullptr) phase->End();
    phase = rewrite_span.get() != nullptr
                ? rewrite_span.get()->StartChild(name)
                : nullptr;
  };
  auto end_phases = [&]() {
    if (phase != nullptr) phase->End();
    phase = nullptr;
  };
  auto record_metrics = [&](size_t num_results) {
    metrics::RewriteCalls()->Add(1);
    metrics::RewriteResults()->Add(static_cast<int64_t>(num_results));
    metrics::RewriteCandidatesBuilt()->Add(
        static_cast<int64_t>(stats->candidates_built) +
        static_cast<int64_t>(stats->join_candidates - jc0));
    metrics::RewriteCandidatesPruned()->Add(
        static_cast<int64_t>(stats->candidates_pruned - pruned0));
    metrics::RewriteEquivalenceTests()->Add(
        static_cast<int64_t>(stats->equivalence_tests - eq0));
    metrics::RewriteLatencyUs()->Observe(
        static_cast<int64_t>(total_timer.ElapsedMicros()));
    rewrite_span.Attr("results", num_results);
    rewrite_span.Attr("candidates_pruned", stats->candidates_pruned - pruned0);
    rewrite_span.Attr("equivalence_tests", stats->equivalence_tests - eq0);
  };

  begin_phase("analyze");
  QueryInfo qi = AnalyzeQuery(q, summary_);

  // ---- Setup: Prop 3.4 pruning + view expansion. ----
  begin_phase("prune-views");
  stats->views_total = views_.size();
  const ViewIndex* index = options_.shared_view_index;
  if (index == nullptr ||
      index->size() != static_cast<int32_t>(views_.size())) {
    if (index_ == nullptr) {
      index_ = std::make_unique<ViewIndex>(summary_);
    }
    while (index_->size() < static_cast<int32_t>(views_.size())) {
      index_->AddView(views_[static_cast<size_t>(index_->size())]);
    }
    index = index_.get();
  }
  PathBitset related_bits = MakePathBitset(summary_.size());
  for (PathId s = 0; s < summary_.size(); ++s) {
    if (qi.related_path[static_cast<size_t>(s)]) {
      PathBitsetSet(&related_bits, s);
    }
  }
  std::vector<const ViewDef*> kept;
  std::vector<size_t> kept_idx;  // positions in views_
  for (size_t vi = 0; vi < views_.size(); ++vi) {
    if (!options_.prune_views || index->Related(vi, related_bits)) {
      kept.push_back(&views_[vi]);
      kept_idx.push_back(vi);
    }
  }
  stats->views_kept = kept.size();
  if (phase != nullptr) {
    phase->AddAttr("views_total", views_.size());
    phase->AddAttr("views_kept", kept.size());
  }

  // ---- Column coverage: whole-query early-out. ----
  // One mask bit per return column; beyond kMaxCols every mask stays 0 and
  // the analysis is vacuous.
  const int32_t cols = static_cast<int32_t>(qi.cols.size());
  std::vector<uint32_t> view_masks(kept_idx.size(), 0);
  if (cols <= CoverageAnalysis::kMaxCols) {
    // Per column: feasible paths as a bitset; a column inside an optional
    // subtree may have none — then the assignment path check is skipped,
    // so any path serves (all-ones).
    std::vector<PathBitset> col_bits;
    for (int32_t i = 0; i < cols; ++i) {
      PathBitset b = MakePathBitset(summary_.size());
      if (qi.col_paths[static_cast<size_t>(i)].empty()) {
        for (uint64_t& w : b) w = ~uint64_t{0};
      } else {
        for (PathId s : qi.col_paths[static_cast<size_t>(i)]) {
          PathBitsetSet(&b, s);
        }
      }
      col_bits.push_back(std::move(b));
    }
    for (size_t k = 0; k < kept_idx.size(); ++k) {
      for (int32_t i = 0; i < cols; ++i) {
        const Pattern::Node& qnode =
            qi.flat.node(qi.cols[static_cast<size_t>(i)]);
        if (index->CanServe(kept_idx[k], qi.col_attrs[static_cast<size_t>(i)],
                            col_bits[static_cast<size_t>(i)], qnode)) {
          view_masks[k] |= uint32_t{1} << i;
        }
      }
    }
  }
  const CoverageAnalysis cover(cols, std::move(view_masks));
  if (!cover.Extendable(0, 0, options_.max_plan_views)) {
    // No combination of ≤ max_plan_views views can serve every return
    // column, so neither a candidate, a join, nor a union of partial
    // covers (each of which serves all columns) can exist.
    stats->candidates_pruned += kept.size();
    stats->setup_ms = total_timer.ElapsedMillis();
    stats->total_ms = total_timer.ElapsedMillis();
    end_phases();
    record_metrics(0);
    return std::vector<Rewriting>{};
  }

  begin_phase("expand-views");
  std::vector<size_t> kept_pos;
  std::vector<Candidate> m0 =
      ExpandViews(kept, qi, summary_, options_.expansion, &kept_pos);
  stats->candidates_built = m0.size();
  stats->setup_ms = total_timer.ElapsedMillis();
  if (phase != nullptr) phase->AddAttr("candidates", m0.size());

  std::vector<Rewriting> results;
  ContainmentMemo local_memo;
  ContainmentMemo* memo =
      options_.memo != nullptr ? options_.memo : &local_memo;
  const size_t memo_hits0 = memo->hits();
  const size_t memo_misses0 = memo->misses();
  RewriteSession session(summary_, options_, qi, memo, total_timer, stats);

  // ---- DP plan enumeration (Algorithm 1 lines 2-11). ----
  begin_phase("plan-enum");
  Timer enum_timer;
  // Without a configured cost model the enumerator still needs a ranking
  // signal; a default-constructed model (every view at default_rows) is
  // deterministic and keeps the search reproducible.
  CostModel fallback_model;
  const CostModel* cm = options_.cost_model != nullptr ? options_.cost_model
                                                       : &fallback_model;
  PlanEnumerator::Options popts;
  popts.max_plan_views = options_.max_plan_views;
  popts.max_table = options_.max_plan_table;
  popts.max_merged_pieces = options_.expansion.max_pieces;
  popts.prune_same_pattern = options_.prune_same_pattern;
  PlanEnumerator enumerator(summary_, *cm, qi.join_relevant, cover, popts);
  for (size_t i = 0; i < m0.size(); ++i) {
    enumerator.AddBase(std::move(m0[i]), cover.ViewMask(kept_pos[i]));
  }
  // The branch-and-bound bound: cheapest estimated cost over the
  // rewritings found so far. A final plan costs at least its candidate
  // plan (adaptation operators only add cost), so candidates at or above
  // this bound cannot improve the result set.
  double best_found = std::numeric_limits<double>::infinity();
  auto on_cover = [&](const Candidate& cand,
                      double) -> PlanEnumerator::MatchOutcome {
    size_t before = results.size();
    bool stop = session.TryMatch(cand, &results);
    for (size_t r = before; r < results.size(); ++r) {
      best_found = std::min(best_found, cm->EstimateCost(*results[r].plan));
    }
    return {stop, best_found};
  };
  enumerator.Run(on_cover, [&]() { return session.OverTimeBudget(); });
  const PlanEnumerator::Stats& es = enumerator.stats();
  stats->join_candidates += es.joins;
  stats->plans_generated += es.generated;
  stats->plans_dominated += es.dominated;
  stats->plans_retained += es.retained;
  stats->candidates_pruned += es.coverage_pruned + es.cost_pruned;
  stats->search_truncated = stats->search_truncated || es.truncated;
  stats->plan_table_full = stats->plan_table_full || es.table_full;
  metrics::PlansGenerated()->Add(static_cast<int64_t>(es.generated));
  metrics::PlansDominated()->Add(static_cast<int64_t>(es.dominated));
  metrics::PlanEnumLatencyUs()->Observe(
      static_cast<int64_t>(enum_timer.ElapsedMicros()));
  if (phase != nullptr) {
    phase->AddAttr("plans_generated", es.generated);
    phase->AddAttr("plans_dominated", es.dominated);
    phase->AddAttr("plans_retained", es.retained);
    phase->AddAttr("beam_skipped", es.beam_skipped);
    phase->AddAttr("table_full", es.table_full ? "true" : "false");
    phase->AddAttr("results", results.size());
  }

  // ---- Union phase (Algorithm 1 lines 13-14). ----
  begin_phase("union-partials");
  session.UnionPhase(&results);

  begin_phase("rank-by-cost");
  AddViewScansAndRank(q, kept, options_, &results, stats);

  stats->results = results.size();
  stats->containment_memo_hits += memo->hits() - memo_hits0;
  stats->containment_memo_misses += memo->misses() - memo_misses0;
  stats->total_ms = total_timer.ElapsedMillis();
  end_phases();
  record_metrics(results.size());
  return results;
}

Result<std::vector<Rewriting>> Rewriter::RewriteExhaustive(
    const Pattern& q, RewriteStats* stats) const {
  Timer timer;
  if (q.size() == 0 || q.Arity() == 0) {
    return Status::InvalidArgument("query must have return nodes");
  }
  RewriteStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const QueryInfo qi = AnalyzeQuery(q, summary_);

  std::vector<const ViewDef*> kept;
  for (const ViewDef& v : views_) {
    if (!options_.prune_views || ViewRelated(v, qi, summary_)) {
      kept.push_back(&v);
    }
  }
  stats->views_total = views_.size();
  stats->views_kept = kept.size();
  std::vector<RefCandidate> m;
  for (Candidate& c :
       ExpandViews(kept, qi, summary_, options_.expansion, nullptr)) {
    m.push_back(MakeRefCandidate(std::move(c), qi.join_relevant));
  }
  stats->candidates_built = m.size();
  stats->setup_ms = timer.ElapsedMillis();

  std::vector<Rewriting> results;
  RewriteSession session(summary_, options_, qi, /*memo=*/nullptr, timer,
                         stats);
  for (const RefCandidate& c : m) {
    if (session.TryMatch(c.cand, &results) || session.OverTimeBudget()) {
      break;
    }
  }

  // Left-deep joins (Algorithm 1 lines 2-11): each level joins the previous
  // level's candidates with every single-view candidate, on every pair of
  // join-relevant prefixes, under ⋈= and under ⋈≺ / ⋈≺≺ in both directions.
  constexpr std::pair<JoinType, bool> kShapes[] = {
      {JoinType::kEq, true},        {JoinType::kParent, true},
      {JoinType::kParent, false},   {JoinType::kAncestor, true},
      {JoinType::kAncestor, false}};  // (type, left operand is ancestor)
  std::unordered_map<uint64_t, std::vector<size_t>> seen;  // hash → m index
  for (size_t i = 0; i < m.size(); ++i) seen[m[i].canon_hash].push_back(i);
  bool done =
      results.size() >= options_.max_results || session.OverTimeBudget();
  for (size_t level_begin = 0; !done && level_begin < m.size();) {
    const size_t level_end = m.size();
    for (size_t ci = level_begin; ci < level_end && !done; ++ci) {
      for (size_t cj = 0; cj < level_end && !done; ++cj) {
        if (m[cj].cand.used_views.size() != 1 ||
            static_cast<int32_t>(m[ci].cand.used_views.size()) + 1 >
                options_.max_plan_views) {
          continue;
        }
        done = session.OverTimeBudget();
        // m grows below, so its elements are re-resolved per join.
        for (size_t ai = 0; ai < m[ci].prefixes.size() && !done; ++ai) {
          for (size_t bj = 0; bj < m[cj].prefixes.size() && !done; ++bj) {
            for (const auto& [type, left_is_anc] : kShapes) {
              const RefCandidate& anc = m[left_is_anc ? ci : cj];
              const RefCandidate& desc = m[left_is_anc ? cj : ci];
              const size_t ap = left_is_anc ? ai : bj;
              const size_t dp = left_is_anc ? bj : ai;
              Candidate joined;
              if (!MergePieceSets(summary_, anc.cand.pieces, anc.prefixes[ap],
                                  anc.paths[ap], desc.cand.pieces,
                                  desc.prefixes[dp], desc.paths[dp], type,
                                  anc.cand.plan->schema.size(),
                                  options_.expansion.max_pieces,
                                  &joined.pieces)) {
                stats->search_truncated = true;
                continue;
              }
              if (joined.pieces.empty()) continue;
              // Prop 3.5: a join whose pattern set coincides with a
              // child's adds nothing; nor does a duplicate of any earlier
              // candidate.
              const uint64_t h = CandidateCanonicalHash(joined);
              if (options_.prune_same_pattern &&
                  ((h == anc.canon_hash &&
                    CandidatesCanonicalEqual(joined, anc.cand)) ||
                   (h == desc.canon_hash &&
                    CandidatesCanonicalEqual(joined, desc.cand)))) {
                continue;
              }
              std::vector<size_t>& bucket = seen[h];
              if (std::any_of(bucket.begin(), bucket.end(), [&](size_t i) {
                    return CandidatesCanonicalEqual(m[i].cand, joined);
                  })) {
                continue;
              }
              if (m.size() >= kReferenceMaxCandidates) {
                stats->plan_table_full = true;
                done = true;
                break;
              }
              joined.used_views = anc.cand.used_views;
              joined.used_views.insert(joined.used_views.end(),
                                       desc.cand.used_views.begin(),
                                       desc.cand.used_views.end());
              joined.plan = MakeJoinPlan(
                  anc.cand.plan, desc.cand.plan,
                  anc.cand.pieces[0].Find(anc.prefixes[ap], kAttrId)->col,
                  desc.cand.pieces[0].Find(desc.prefixes[dp], kAttrId)->col,
                  type);
              bucket.push_back(m.size());
              ++stats->join_candidates;
              done = session.TryMatch(joined, &results);
              m.push_back(MakeRefCandidate(std::move(joined),
                                           qi.join_relevant));
              if (done) break;
            }
          }
        }
      }
    }
    level_begin = level_end;
    done = done || session.OverTimeBudget();
  }

  session.UnionPhase(&results);
  AddViewScansAndRank(q, kept, options_, &results, stats);
  stats->results = results.size();
  stats->total_ms = timer.ElapsedMillis();
  return results;
}

}  // namespace svx
