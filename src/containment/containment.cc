#include "src/containment/containment.h"
#include "src/util/check.h"
#include "src/util/strings.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>

namespace svx {

namespace {

/// Cap on the §4.2 condition-2 grid's evaluation points.
constexpr size_t kMaxGridPoints = 4u << 20;

/// Prop 4.1 condition 1 + Prop 4.2 condition 2(a): same arity, same
/// attribute annotation and same nesting depth per return-node position.
bool StaticallyCompatible(const Pattern& p, const Pattern& q) {
  std::vector<PatternNodeId> rp = p.ReturnNodes();
  std::vector<PatternNodeId> rq = q.ReturnNodes();
  if (rp.size() != rq.size()) return false;
  for (size_t i = 0; i < rp.size(); ++i) {
    if (p.node(rp[i]).attrs != q.node(rq[i]).attrs) return false;
    if (p.NestingDepth(rp[i]) != q.NestingDepth(rq[i])) return false;
  }
  return true;
}

/// §4.5: true iff `a` and `b` are connected by one-to-one edges only (or
/// equal).
bool OneToOneConnected(const Summary& s, PathId a, PathId b) {
  if (a == b) return true;
  PathId top = a;
  PathId bottom = b;
  if (s.IsAncestor(b, a)) {
    top = b;
    bottom = a;
  } else if (!s.IsAncestor(a, b)) {
    return false;
  }
  for (PathId cur = bottom; cur != top; cur = s.parent(cur)) {
    if (!s.one_to_one(cur)) return false;
  }
  return true;
}

/// Prop 4.2 condition 2(b): element-wise nesting-sequence compatibility.
/// Anchors are canonical-tree nodes; equality is node identity, optionally
/// relaxed to distinct nodes whose paths are connected by one-to-one edges.
bool NestingSeqCompatible(const Summary& s, const CanonicalTree& te,
                          const std::vector<int32_t>& q_seq,
                          const std::vector<int32_t>& te_seq, bool relax) {
  if (q_seq.size() != te_seq.size()) return false;
  for (size_t i = 0; i < q_seq.size(); ++i) {
    if (q_seq[i] == te_seq[i]) continue;
    if (!relax) return false;
    PathId pa = te.paths[static_cast<size_t>(q_seq[i])];
    PathId pb = te.paths[static_cast<size_t>(te_seq[i])];
    if (pa == pb || !OneToOneConnected(s, pa, pb)) return false;
  }
  return true;
}

/// A conjunction of per-path formulas (the phi of §4.2, variables indexed by
/// summary node as in the paper).
struct FormulaConj {
  std::vector<std::pair<PathId, Predicate>> terms;  // sorted by path, unique

  void Add(PathId path, const Predicate& pred) {
    if (pred.IsTrue()) return;
    for (auto& [p, existing] : terms) {
      if (p == path) {
        existing = existing.And(pred);
        return;
      }
    }
    terms.emplace_back(path, pred);
  }

  void Sort() {
    std::sort(terms.begin(), terms.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  static FormulaConj Of(const CanonicalTree& t) {
    FormulaConj f;
    if (t.HasFormulas()) {
      for (int32_t n = 0; n < t.size(); ++n) {
        f.Add(t.paths[static_cast<size_t>(n)], t.FormulaFor(n));
      }
    }
    f.Sort();
    return f;
  }

  bool Eval(const std::unordered_map<PathId, int64_t>& assign) const {
    for (const auto& [path, pred] : terms) {
      auto it = assign.find(path);
      if (it == assign.end()) return false;
      if (!pred.Contains(it->second)) return false;
    }
    return true;
  }
};

/// §4.2 condition 2, decided exactly on a finite grid: every grid point
/// satisfying `lhs` must satisfy some member of `rhs`. The grid takes, per
/// variable, {c-1, c, c+1} for every constant c mentioned — enough to hit
/// every region of the interval arrangement. A grid beyond kMaxGridPoints
/// is ResourceExhausted.
Result<bool> ImpliesDisjunction(const FormulaConj& lhs,
                                const std::vector<FormulaConj>& rhs,
                                size_t* points_used) {
  std::unordered_map<PathId, std::vector<int64_t>> candidates;
  auto add_formula = [&](const FormulaConj& f) {
    for (const auto& [path, pred] : f.terms) {
      std::vector<int64_t>& c = candidates[path];
      for (int64_t e : pred.Endpoints()) {
        if (e > std::numeric_limits<int64_t>::min()) c.push_back(e - 1);
        c.push_back(e);
        if (e < std::numeric_limits<int64_t>::max()) c.push_back(e + 1);
      }
    }
  };
  add_formula(lhs);
  for (const FormulaConj& f : rhs) add_formula(f);

  std::vector<PathId> vars;
  for (auto& [path, c] : candidates) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    if (c.empty()) c.push_back(0);
    vars.push_back(path);
  }
  std::sort(vars.begin(), vars.end());

  size_t total = 1;
  for (PathId v : vars) {
    size_t n = candidates[v].size();
    if (total > kMaxGridPoints / std::max<size_t>(n, 1)) {
      return Status::ResourceExhausted("condition-2 grid too large");
    }
    total *= n;
  }
  if (points_used != nullptr) *points_used += total;

  std::unordered_map<PathId, int64_t> assign;
  std::vector<size_t> idx(vars.size(), 0);
  while (true) {
    for (size_t i = 0; i < vars.size(); ++i) {
      assign[vars[i]] = candidates[vars[i]][idx[i]];
    }
    if (lhs.Eval(assign)) {
      bool covered = false;
      for (const FormulaConj& f : rhs) {
        if (f.Eval(assign)) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
    size_t i = 0;
    for (; i < vars.size(); ++i) {
      if (++idx[i] < candidates[vars[i]].size()) break;
      idx[i] = 0;
    }
    if (i == vars.size()) break;
  }
  return true;
}

/// Checks whether q structurally covers te's return tuple (with nesting),
/// and — when `disjuncts` is non-null — collects, per covering embedding e',
/// the formula phi_t'e = AND over q nodes of pred(q node) on the variable of
/// the bound path (the trees of g(te), §4.2, generated directly from the
/// embeddings).
bool CoversTarget(const Pattern& q, const CanonicalTree& te,
                  const Summary& summary, FormulaMode mode,
                  bool check_nesting, bool relax,
                  std::vector<FormulaConj>* disjuncts,
                  size_t max_disjuncts = 256) {
  CanonicalTreeView view(te, summary);
  std::vector<PatternNodeId> rets = q.ReturnNodes();
  std::vector<std::vector<PatternNodeId>> uppers(rets.size());
  bool q_nested = q.HasNestedEdges();
  if (q_nested) {
    for (size_t i = 0; i < rets.size(); ++i) {
      for (PatternNodeId m : q.NestingAncestors(rets[i])) {
        uppers[i].push_back(q.node(m).parent);
      }
    }
  }
  static const std::vector<int32_t> kEmptySeq;
  // Pin the return nodes to the target bindings — a pure search-space
  // filter; the explicit checks below remain the arbiter.
  std::vector<int32_t> pinned(static_cast<size_t>(q.size()),
                              kUnpinnedBinding);
  for (size_t i = 0; i < rets.size(); ++i) {
    pinned[static_cast<size_t>(rets[i])] = te.return_tuple[i];
  }
  bool covered = false;
  auto emit = [&](const TreeEmbedding& a) {
    // Return tuple must match by node identity.
    for (size_t i = 0; i < rets.size(); ++i) {
      if (a[static_cast<size_t>(rets[i])] != te.return_tuple[i]) return true;
    }
    if (check_nesting) {
      for (size_t i = 0; i < rets.size(); ++i) {
        if (te.return_tuple[i] == CanonicalTree::kBottom) continue;
        std::vector<int32_t> q_seq;
        for (PatternNodeId u : uppers[i]) {
          q_seq.push_back(a[static_cast<size_t>(u)]);
        }
        const std::vector<int32_t>& te_seq =
            te.nesting_seqs.empty() ? kEmptySeq : te.nesting_seqs[i];
        if (!NestingSeqCompatible(summary, te, q_seq, te_seq, relax)) {
          return true;
        }
      }
    }
    covered = true;
    if (disjuncts == nullptr) return false;  // existence is enough
    FormulaConj f;
    for (PatternNodeId n = 0; n < q.size(); ++n) {
      if (q.node(n).pred.IsTrue()) continue;
      int32_t binding = a[static_cast<size_t>(n)];
      if (binding == kBottomBinding) continue;
      f.Add(te.paths[static_cast<size_t>(binding)], q.node(n).pred);
    }
    f.Sort();
    disjuncts->push_back(std::move(f));
    return disjuncts->size() < max_disjuncts;
  };
  EnumerateTreeEmbeddings(q, view, mode, emit, &pinned);
  return covered;
}

}  // namespace

std::string ContainmentOptionsFingerprint(const ContainmentOptions& o) {
  return StrFormat("%d:%d:%zu:%zu", o.use_one_to_one_relaxation ? 1 : 0,
                   o.model.use_strong_edges ? 1 : 0, o.model.max_embeddings,
                   o.model.max_trees);
}

Result<bool> IsContained(const Pattern& p, const Pattern& q,
                         const Summary& summary,
                         const ContainmentOptions& options,
                         ContainmentStats* stats) {
  if (!StaticallyCompatible(p, q)) return false;
  bool check_nesting = p.HasNestedEdges() || q.HasNestedEdges();
  // Stream modS(p): a negative test exits at the first tree that
  // contradicts the condition (§5).
  bool contained = true;
  Status st = ForEachCanonicalTree(
      p, summary, options.model, [&](const CanonicalTree& te) {
        if (stats != nullptr) {
          ++stats->trees_checked;
          ++stats->left_model_size;
        }
        // §4.2: single containment uses decorated embeddings (implication).
        if (!CoversTarget(q, te, summary, FormulaMode::kImplication,
                          check_nesting, options.use_one_to_one_relaxation,
                          nullptr)) {
          contained = false;
          return false;
        }
        return true;
      });
  if (!st.ok()) return st;
  return contained;
}

Result<bool> IsContainedInUnion(const Pattern& p,
                                const std::vector<const Pattern*>& qs,
                                const Summary& summary,
                                const ContainmentOptions& options,
                                ContainmentStats* stats,
                                const std::vector<CanonicalTree>* p_model) {
  // Filter members by the static conditions; incompatible members can never
  // cover a tuple of p.
  std::vector<const Pattern*> usable;
  bool any_predicates = p.HasPredicates();
  for (const Pattern* q : qs) {
    if (StaticallyCompatible(p, *q)) {
      usable.push_back(q);
      any_predicates = any_predicates || q->HasPredicates();
    }
  }

  bool check_nesting = p.HasNestedEdges();
  for (const Pattern* q : usable) {
    check_nesting = check_nesting || q->HasNestedEdges();
  }

  bool contained = true;
  Status grid_status = Status::OK();
  auto check_tree = [&](const CanonicalTree& te) {
        if (stats != nullptr) {
          ++stats->trees_checked;
          ++stats->left_model_size;
        }
        if (usable.empty()) {
          contained = false;
          return false;
        }
        // Condition 1: some member covers te's tuple structurally; with
        // predicates, also collect the disjunct formulas of the covering
        // embeddings (the g(te) of §4.2).
        std::vector<FormulaConj> disjuncts;
        bool any_covered = false;
        for (const Pattern* q : usable) {
          FormulaMode mode = any_predicates ? FormulaMode::kSatisfiability
                                            : FormulaMode::kIgnore;
          bool covered = CoversTarget(*q, te, summary, mode, check_nesting,
                                      options.use_one_to_one_relaxation,
                                      any_predicates ? &disjuncts : nullptr);
          any_covered = any_covered || covered;
          if (covered && !any_predicates) break;
        }
        if (!any_covered) {
          contained = false;
          return false;
        }
        if (!any_predicates) return true;

        // Condition 2: phi_te => OR of the covering embeddings' formulas.
        if (disjuncts.empty()) {
          contained = false;
          return false;
        }
        size_t points = 0;
        Result<bool> implied =
            ImpliesDisjunction(FormulaConj::Of(te), disjuncts, &points);
        if (stats != nullptr) stats->grid_points += points;
        if (!implied.ok()) {
          grid_status = implied.status();
          return false;
        }
        if (!*implied) {
          contained = false;
          return false;
        }
        return true;
      };
  if (p_model != nullptr) {
    for (const CanonicalTree& te : *p_model) {
      if (!check_tree(te)) break;
    }
  } else {
    SVX_RETURN_IF_ERROR(ForEachCanonicalTree(p, summary, options.model, check_tree));
  }
  if (!grid_status.ok()) return grid_status;
  return contained;
}

Result<bool> AreEquivalent(const Pattern& p, const Pattern& q,
                           const Summary& summary,
                           const ContainmentOptions& options,
                           ContainmentStats* stats) {
  Result<bool> a = IsContained(p, q, summary, options, stats);
  if (!a.ok() || !*a) return a;
  return IsContained(q, p, summary, options, stats);
}

}  // namespace svx
