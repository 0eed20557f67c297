#include "src/pattern/canonical.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace svx {

const Predicate& CanonicalTree::FormulaFor(int32_t node) const {
  static const Predicate kTrue = Predicate::True();
  if (formulas.empty()) return kTrue;
  SVX_DCHECK(node >= 0 && node < size());
  return formulas[static_cast<size_t>(node)];
}

std::vector<PathId> CanonicalTree::SortedPaths() const {
  std::vector<PathId> out = paths;
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PathId> CanonicalTree::ReturnPaths() const {
  std::vector<PathId> out;
  out.reserve(return_tuple.size());
  for (int32_t n : return_tuple) {
    out.push_back(n == kBottom ? kInvalidPath
                               : paths[static_cast<size_t>(n)]);
  }
  return out;
}

namespace {

/// Canonical encoding of the subtree rooted at `n`: children compared
/// order-insensitively (sorted encodings).
std::string EncodeNode(const CanonicalTree& t, int32_t n) {
  std::string out = "(";
  out += std::to_string(t.paths[static_cast<size_t>(n)]);
  if (t.HasFormulas() && !t.formulas[static_cast<size_t>(n)].IsTrue()) {
    out += ';';
    out += t.formulas[static_cast<size_t>(n)].ToString();
  }
  for (size_t i = 0; i < t.return_tuple.size(); ++i) {
    if (t.return_tuple[i] == n) {
      out += '#';
      out += std::to_string(i);
    }
  }
  for (size_t i = 0; i < t.nesting_seqs.size(); ++i) {
    for (size_t j = 0; j < t.nesting_seqs[i].size(); ++j) {
      if (t.nesting_seqs[i][j] == n) {
        out += '@';
        out += std::to_string(i);
        out += ',';
        out += std::to_string(j);
      }
    }
  }
  std::vector<std::string> kids;
  for (int32_t c : t.children[static_cast<size_t>(n)]) {
    kids.push_back(EncodeNode(t, c));
  }
  std::sort(kids.begin(), kids.end());
  for (const std::string& k : kids) out += k;
  out += ')';
  return out;
}

}  // namespace

void CanonicalTree::Seal() {
  children.assign(paths.size(), {});
  for (int32_t n = 1; n < size(); ++n) {
    children[static_cast<size_t>(parents[static_cast<size_t>(n)])].push_back(
        n);
  }
  encoding_.clear();
  if (size() > 0) encoding_ = EncodeNode(*this, 0);
  // ⊥ positions are not attached to any node; append them explicitly.
  for (size_t i = 0; i < return_tuple.size(); ++i) {
    if (return_tuple[i] == kBottom) {
      encoding_ += '!';
      encoding_ += std::to_string(i);
    }
  }
}

const std::string& CanonicalTree::Encoding() const {
  SVX_CHECK_MSG(!encoding_.empty() || size() == 0,
                "CanonicalTree::Seal() not called");
  return encoding_;
}

size_t CanonicalTree::Hash() const {
  return std::hash<std::string>{}(Encoding());
}

bool CanonicalTreeView::Matches(const Pattern::Node& pn, int32_t n,
                                FormulaMode mode) const {
  if (!pn.IsWildcard() &&
      summary_.label(tree_.paths[static_cast<size_t>(n)]) != pn.label) {
    return false;
  }
  if (pn.pred.IsTrue() || mode == FormulaMode::kIgnore) return true;
  const Predicate& tree_formula = tree_.FormulaFor(n);
  if (mode == FormulaMode::kImplication) return tree_formula.Implies(pn.pred);
  return !tree_formula.And(pn.pred).IsFalse();
}

namespace {

/// Cap on a pattern's optional edges: the model enumerates 2^|E| subsets.
constexpr size_t kMaxOptionalEdges = 20;

struct TreeHasher {
  size_t operator()(const CanonicalTree& t) const { return t.Hash(); }
};

/// Builds modS(p); optionally stops after the first tree (satisfiability)
/// or streams trees to a sink instead of collecting them.
class ModelBuilder {
 public:
  using Sink = std::function<bool(const CanonicalTree&)>;

  ModelBuilder(const Pattern& p, const Summary& summary,
               const CanonicalModelOptions& options, bool stop_after_first,
               const Sink* sink = nullptr)
      : p_(p),
        summary_(summary),
        options_(options),
        stop_after_first_(stop_after_first),
        sink_(sink) {}

  Result<std::vector<CanonicalTree>> Build() {
    std::vector<PatternNodeId> optional_edges = p_.OptionalEdges();
    if (optional_edges.size() > kMaxOptionalEdges) {
      return Status::ResourceExhausted("too many optional edges");
    }
    return_nodes_ = p_.ReturnNodes();
    has_nested_ = p_.HasNestedEdges();
    has_predicates_ = p_.HasPredicates();

    // Enumerate subsets F of optional edges (§4.3), deduplicating subsets
    // that erase the same node set (nested optional edges).
    std::unordered_set<size_t> erased_sets_seen;
    size_t num_subsets = static_cast<size_t>(1)
                         << static_cast<size_t>(optional_edges.size());
    for (size_t mask = 0; mask < num_subsets; ++mask) {
      std::vector<PatternNodeId> roots;
      for (size_t i = 0; i < optional_edges.size(); ++i) {
        if (mask & (static_cast<size_t>(1) << i)) {
          roots.push_back(optional_edges[i]);
        }
      }
      // Canonical key: the actually erased node set.
      std::vector<bool> erased(static_cast<size_t>(p_.size()), false);
      for (PatternNodeId r : roots) {
        for (PatternNodeId n : p_.SubtreeNodes(r)) {
          erased[static_cast<size_t>(n)] = true;
        }
      }
      size_t key = 0x12345;
      for (size_t i = 0; i < erased.size(); ++i) {
        if (erased[i]) key = key * 1000003 + i;
      }
      if (!erased_sets_seen.insert(key).second) continue;

      SVX_RETURN_IF_ERROR(ProcessSubset(roots, mask != 0));
      if (stop_after_first_ && num_trees_ > 0) break;
      if (sink_stopped_) break;
    }
    return std::move(trees_);
  }

 private:
  Status ProcessSubset(const std::vector<PatternNodeId>& erase_roots,
                       bool needs_verification) {
    std::vector<PatternNodeId> old_to_new;
    Pattern pf = p_.EraseSubtrees(erase_roots, &old_to_new).Strict();

    Status st = EnumerateEmbeddings(
        pf, summary_, options_.max_embeddings,
        [&](const SummaryEmbedding& e) {
          CanonicalTree tree = MakeTree(pf, old_to_new, e);
          // Deduplicate before the (expensive) §4.3 verification; rejected
          // trees are also remembered so they are not re-verified.
          if (!seen_.insert(tree).second) {
            return num_trees_ <= options_.max_trees;
          }
          if (needs_verification && !VerifyBottoms(tree)) return true;
          ++num_trees_;
          if (sink_ != nullptr) {
            if (!(*sink_)(tree)) {
              sink_stopped_ = true;
              return false;
            }
          } else {
            trees_.push_back(std::move(tree));
          }
          return !(stop_after_first_ && num_trees_ > 0) &&
                 num_trees_ <= options_.max_trees;
        });
    if (!st.ok()) return st;
    if (num_trees_ > options_.max_trees) {
      return Status::ResourceExhausted("canonical model too large");
    }
    return Status::OK();
  }

  /// Builds the canonical tree of one embedding: one node per pattern node
  /// plus one chain per pattern edge (§2.4 — sibling pattern nodes on equal
  /// paths stay distinct), then the §4.1 strong-edge closure.
  CanonicalTree MakeTree(const Pattern& pf,
                         const std::vector<PatternNodeId>& old_to_new,
                         const SummaryEmbedding& e) {
    CanonicalTree tree;
    std::vector<int32_t> node_of(static_cast<size_t>(pf.size()), -1);
    // Children lists maintained incrementally (the strong closure below
    // needs per-node child paths without rescanning).
    std::vector<std::vector<int32_t>> kids;

    auto add_node = [&](PathId path, int32_t parent) {
      tree.paths.push_back(path);
      tree.parents.push_back(parent);
      kids.emplace_back();
      if (parent >= 0) kids[static_cast<size_t>(parent)].push_back(
          tree.size() - 1);
      if (has_predicates_) tree.formulas.push_back(Predicate::True());
      return tree.size() - 1;
    };

    node_of[0] = add_node(e[0], -1);
    for (PatternNodeId n = 1; n < pf.size(); ++n) {
      PathId target = e[static_cast<size_t>(n)];
      PathId from = e[static_cast<size_t>(pf.node(n).parent)];
      int32_t attach = node_of[static_cast<size_t>(pf.node(n).parent)];
      std::vector<PathId> chain = summary_.Chain(from, target);
      for (size_t i = 1; i + 1 < chain.size(); ++i) {
        attach = add_node(chain[i], attach);
      }
      node_of[static_cast<size_t>(n)] = add_node(target, attach);
    }
    if (has_predicates_) {
      for (PatternNodeId n = 0; n < pf.size(); ++n) {
        const Predicate& pred = pf.node(n).pred;
        if (pred.IsTrue()) continue;
        size_t idx = static_cast<size_t>(node_of[static_cast<size_t>(n)]);
        tree.formulas[idx] = tree.formulas[idx].And(pred);
      }
    }

    // §4.1: strong-edge closure — every node gains a child for each strong
    // child path it does not already have, recursively (new nodes are
    // appended and visited in turn).
    if (options_.use_strong_edges) {
      for (int32_t n = 0; n < tree.size(); ++n) {
        std::vector<PathId> present;
        present.reserve(kids[static_cast<size_t>(n)].size());
        for (int32_t m : kids[static_cast<size_t>(n)]) {
          present.push_back(tree.paths[static_cast<size_t>(m)]);
        }
        for (PathId c :
             summary_.children(tree.paths[static_cast<size_t>(n)])) {
          if (!summary_.strong_edge(c)) continue;
          if (std::find(present.begin(), present.end(), c) !=
              present.end()) {
            continue;
          }
          add_node(c, n);
        }
      }
    }

    // Return tuple (and nesting sequences) in the original pattern's order.
    for (PatternNodeId r : return_nodes_) {
      PatternNodeId nf = old_to_new[static_cast<size_t>(r)];
      if (nf < 0) {
        tree.return_tuple.push_back(CanonicalTree::kBottom);
        if (has_nested_) tree.nesting_seqs.emplace_back();
        continue;
      }
      tree.return_tuple.push_back(node_of[static_cast<size_t>(nf)]);
      if (has_nested_) {
        std::vector<int32_t> seq;
        for (PatternNodeId m : p_.NestingAncestors(r)) {
          // ns records e(n') for the *upper* node n' of each nested edge.
          PatternNodeId upper = p_.node(m).parent;
          PatternNodeId uf = old_to_new[static_cast<size_t>(upper)];
          SVX_CHECK(uf >= 0);
          seq.push_back(node_of[static_cast<size_t>(uf)]);
        }
        tree.nesting_seqs.push_back(std::move(seq));
      }
    }
    tree.Seal();
    return tree;
  }

  /// §4.3: te,F enters modS(p) only if evaluating p over it yields the
  /// ⊥-padded tuple (we implement the exact-tuple check; the paper requires
  /// p(te,F) nonempty). Return nodes are pinned to the target bindings, so
  /// the search stops at the first witness embedding.
  bool VerifyBottoms(const CanonicalTree& tree) {
    CanonicalTreeView view(tree, summary_);
    std::vector<int32_t> pinned(static_cast<size_t>(p_.size()),
                                kUnpinnedBinding);
    for (size_t i = 0; i < return_nodes_.size(); ++i) {
      pinned[static_cast<size_t>(return_nodes_[i])] = tree.return_tuple[i];
    }
    bool found = false;
    EnumerateTreeEmbeddings(p_, view, FormulaMode::kSatisfiability,
                            [&](const TreeEmbedding& a) {
                              for (size_t i = 0; i < return_nodes_.size();
                                   ++i) {
                                if (a[static_cast<size_t>(
                                        return_nodes_[i])] !=
                                    tree.return_tuple[i]) {
                                  return true;
                                }
                              }
                              found = true;
                              return false;
                            },
                            &pinned);
    return found;
  }

  const Pattern& p_;
  const Summary& summary_;
  const CanonicalModelOptions& options_;
  bool stop_after_first_;
  const Sink* sink_;
  bool sink_stopped_ = false;
  size_t num_trees_ = 0;
  std::vector<PatternNodeId> return_nodes_;
  bool has_nested_ = false;
  bool has_predicates_ = false;
  std::vector<CanonicalTree> trees_;
  std::unordered_set<CanonicalTree, TreeHasher> seen_;
};

}  // namespace

Result<std::vector<CanonicalTree>> BuildCanonicalModel(
    const Pattern& p, const Summary& summary,
    const CanonicalModelOptions& options) {
  if (p.size() == 0) return Status::InvalidArgument("empty pattern");
  if (summary.size() == 0) return Status::InvalidArgument("empty summary");
  return ModelBuilder(p, summary, options, /*stop_after_first=*/false).Build();
}

Status ForEachCanonicalTree(
    const Pattern& p, const Summary& summary,
    const CanonicalModelOptions& options,
    const std::function<bool(const CanonicalTree&)>& sink) {
  if (p.size() == 0) return Status::InvalidArgument("empty pattern");
  if (summary.size() == 0) return Status::InvalidArgument("empty summary");
  ModelBuilder builder(p, summary, options, /*stop_after_first=*/false,
                       &sink);
  Result<std::vector<CanonicalTree>> r = builder.Build();
  return r.ok() ? Status::OK() : r.status();
}

Result<bool> IsSatisfiable(const Pattern& p, const Summary& summary,
                           const CanonicalModelOptions& options) {
  if (p.size() == 0) return Status::InvalidArgument("empty pattern");
  if (summary.size() == 0) return Status::InvalidArgument("empty summary");
  Result<std::vector<CanonicalTree>> model =
      ModelBuilder(p, summary, options, /*stop_after_first=*/true).Build();
  if (!model.ok()) return model.status();
  return !model->empty();
}

}  // namespace svx
