#include "src/rewriting/annotated_pattern.h"

#include <algorithm>
#include <unordered_set>

#include "src/pattern/embedding.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/strings.h"

namespace svx {

const ColumnBinding* Piece::Find(const std::string& prefix,
                                 uint8_t attr) const {
  for (const ColumnBinding& b : bindings) {
    if (b.attr == attr && b.prefix == prefix) return &b;
  }
  return nullptr;
}

std::vector<const ColumnBinding*> Piece::FindPrefix(
    const std::string& prefix) const {
  std::vector<const ColumnBinding*> out;
  for (const ColumnBinding& b : bindings) {
    if (b.prefix == prefix) out.push_back(&b);
  }
  return out;
}

std::string Piece::CanonicalString() const {
  std::string out = PatternToString(pattern);
  std::vector<std::string> roles;
  roles.reserve(bindings.size());
  for (const ColumnBinding& b : bindings) {
    std::string role;
    role.reserve(b.prefix.size() + 8);
    role += std::to_string(b.node);
    role += ':';
    role += std::to_string(b.attr);
    role += ':';
    role += b.prefix;
    roles.push_back(std::move(role));
  }
  std::sort(roles.begin(), roles.end());
  out += '|';
  out += Join(roles, ";");
  return out;
}

std::vector<std::string> Candidate::JoinablePrefixes() const {
  if (pieces.empty()) return {};
  std::vector<std::string> out;
  for (const ColumnBinding& b : pieces[0].bindings) {
    if (b.attr != kAttrId || !b.skeleton) continue;
    bool in_all = true;
    for (size_t i = 1; i < pieces.size() && in_all; ++i) {
      const ColumnBinding* other = pieces[i].Find(b.prefix, kAttrId);
      in_all = other != nullptr && other->skeleton;
    }
    if (in_all) out.push_back(b.prefix);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const std::string& Candidate::CanonicalString() const {
  if (canonical_.empty()) {
    std::vector<std::string> parts;
    parts.reserve(pieces.size());
    for (const Piece& p : pieces) parts.push_back(p.CanonicalString());
    std::sort(parts.begin(), parts.end());
    canonical_ = Join(parts, "\n");
  }
  return canonical_;
}

std::string ExpansionOptionsFingerprint(const ExpansionOptions& e) {
  return StrFormat("%zu", e.max_pieces);
}

namespace {

constexpr size_t kMaxEmbeddings = 512;     // skeleton embeddings per variant
constexpr size_t kMaxStrengthenEdges = 4;  // optional edges tried for σ≠⊥

/// True if the subtree rooted at `n` carries no attribute anywhere.
bool SubtreeAttrLess(const Pattern& p, PatternNodeId n) {
  for (PatternNodeId m : p.SubtreeNodes(n)) {
    if (p.node(m).attrs != 0) return false;
  }
  return true;
}

}  // namespace

Pattern PruneAttrlessSubtrees(const Pattern& p,
                              std::vector<PatternNodeId>* old_to_new) {
  std::vector<PatternNodeId> roots;
  for (PatternNodeId n = 1; n < p.size(); ++n) {
    const Pattern::Node& node = p.node(n);
    if ((node.optional || node.nested) && SubtreeAttrLess(p, n)) {
      roots.push_back(n);
    }
  }
  return p.EraseSubtrees(roots, old_to_new);
}

namespace {

/// Attribute letter for column naming.
const char* AttrLetter(uint8_t attr) {
  switch (attr) {
    case kAttrId:
      return "id";
    case kAttrLabel:
      return "l";
    case kAttrValue:
      return "v";
    case kAttrContent:
      return "c";
  }
  return "?";
}

/// A strengthenable optional edge: the subtree reaches, through required
/// edges, a node with an id/label/content attribute whose column is ⊥ iff
/// the subtree did not match (a V column may be ⊥ for valueless nodes, so
/// it cannot serve as the match witness).
bool FindStrengthenWitness(const Pattern& p, PatternNodeId subtree_root,
                           PatternNodeId* witness, uint8_t* attr) {
  std::vector<PatternNodeId> stack{subtree_root};
  while (!stack.empty()) {
    PatternNodeId n = stack.back();
    stack.pop_back();
    uint8_t a = p.node(n).attrs;
    if (a & kAttrId) {
      *witness = n;
      *attr = kAttrId;
      return true;
    }
    if (a & kAttrContent) {
      *witness = n;
      *attr = kAttrContent;
      return true;
    }
    if (a & kAttrLabel) {
      *witness = n;
      *attr = kAttrLabel;
      return true;
    }
    for (PatternNodeId c : p.node(n).children) {
      if (!p.node(c).optional) stack.push_back(c);
    }
  }
  return false;
}

/// Builder for one piece.
class PieceBuilder {
 public:
  PieceBuilder(const Pattern& variant, const Summary& summary,
               const std::string& view_name,
               const std::vector<PatternNodeId>& orig_ids)
      : variant_(variant),
        summary_(summary),
        view_name_(view_name),
        orig_ids_(orig_ids) {}

  /// `skeleton_of_variant` maps variant node -> skeleton node (or -1), and
  /// `embedding` maps skeleton nodes to paths.
  Piece Build(const std::vector<PatternNodeId>& variant_to_skeleton,
              const SummaryEmbedding& embedding) {
    Piece piece;
    std::vector<PatternNodeId> variant_to_piece(
        static_cast<size_t>(variant_.size()), -1);

    // Walk the variant in id order (parents first).
    for (PatternNodeId n = 0; n < variant_.size(); ++n) {
      const Pattern::Node& node = variant_.node(n);
      PatternNodeId sk = variant_to_skeleton[static_cast<size_t>(n)];
      PatternNodeId piece_id;
      if (n == variant_.root()) {
        SVX_CHECK(sk >= 0);
        piece_id = piece.pattern.SetRoot(
            summary_.label(embedding[static_cast<size_t>(sk)]), node.attrs,
            node.pred);
        node_paths_.push_back(embedding[static_cast<size_t>(sk)]);
      } else if (sk >= 0) {
        // Skeleton node: pin to its path and materialize the chain from the
        // parent (also a skeleton node by construction).
        PatternNodeId parent_sk =
            variant_to_skeleton[static_cast<size_t>(node.parent)];
        SVX_CHECK(parent_sk >= 0);
        PathId from = embedding[static_cast<size_t>(parent_sk)];
        PathId to = embedding[static_cast<size_t>(sk)];
        std::vector<PathId> chain = summary_.Chain(from, to);
        PatternNodeId attach =
            variant_to_piece[static_cast<size_t>(node.parent)];
        for (size_t i = 1; i + 1 < chain.size(); ++i) {
          attach = piece.pattern.AddChild(attach, summary_.label(chain[i]),
                                          Axis::kChild);
          node_paths_.push_back(chain[i]);
        }
        piece_id = piece.pattern.AddChild(attach, summary_.label(to),
                                          Axis::kChild, node.attrs, node.pred,
                                          /*optional=*/false,
                                          /*nested=*/false);
        node_paths_.push_back(to);
      } else {
        // Fragment node: copied verbatim under its (piece) parent.
        PatternNodeId attach =
            variant_to_piece[static_cast<size_t>(node.parent)];
        SVX_CHECK(attach >= 0);
        piece_id = piece.pattern.AddChild(attach, node.label, node.axis,
                                          node.attrs, node.pred, node.optional,
                                          /*nested=*/false);
        node_paths_.push_back(kInvalidPath);
      }
      variant_to_piece[static_cast<size_t>(n)] = piece_id;

      // Column bindings for this node's attributes.
      for (uint8_t attr : {kAttrId, kAttrLabel, kAttrValue, kAttrContent}) {
        if ((node.attrs & attr) == 0) continue;
        std::string prefix = StrFormat(
            "%s.n%d", view_name_.c_str(), orig_ids_[static_cast<size_t>(n)]);
        ColumnBinding b;
        b.node = piece_id;
        b.attr = attr;
        b.prefix = prefix;
        b.column = prefix + "." + AttrLetter(attr);
        b.skeleton = sk >= 0;
        b.path = sk >= 0 ? embedding[static_cast<size_t>(sk)] : kInvalidPath;
        piece.bindings.push_back(std::move(b));
      }
    }
    piece.node_paths = std::move(node_paths_);
    return piece;
  }

 private:
  const Pattern& variant_;
  const Summary& summary_;
  const std::string& view_name_;
  const std::vector<PatternNodeId>& orig_ids_;
  std::vector<PathId> node_paths_;
};

}  // namespace

Result<std::vector<Candidate>> ExpandView(
    const ViewDef& view, const Summary& summary,
    const std::vector<std::string>& relevant_labels,
    const ExpansionOptions& options) {
  std::vector<Candidate> out;

  // ---- Normalize: prune attribute-less optional/nested subtrees. ----
  std::vector<PatternNodeId> orig_of_pruned;
  Pattern pruned = PruneAttrlessSubtrees(view.pattern, &orig_of_pruned);
  // orig_of_pruned maps original -> pruned; invert.
  std::vector<PatternNodeId> pruned_to_orig(
      static_cast<size_t>(pruned.size()), -1);
  for (size_t i = 0; i < orig_of_pruned.size(); ++i) {
    if (orig_of_pruned[i] >= 0) {
      pruned_to_orig[static_cast<size_t>(orig_of_pruned[i])] =
          static_cast<PatternNodeId>(i);
    }
  }
  if (pruned.size() == 0) return out;

  // ---- Base plan, shared by every variant: scan + outer-unnest of every
  // nested group column. ----
  PlanPtr base_plan =
      MakeViewScan(view.name, ViewSchema(view.pattern, view.name));
  // Repeatedly flatten nested columns (outer unnest keeps ⊥ groups as ⊥
  // rows, matching the optional edge the flattening leaves behind).
  bool changed = true;
  while (changed) {
    changed = false;
    for (int32_t i = 0; i < base_plan->schema.size(); ++i) {
      const ColumnSpec& c = base_plan->schema.column(i);
      if (c.kind == ColumnKind::kNested && c.nested->size() > 0) {
        base_plan = MakeOuterUnnest(std::move(base_plan), i);
        changed = true;
        break;
      }
    }
  }

  // Flatten the pattern: nested edges become optional (outer-unnest
  // semantics: groups with no binding surface as ⊥ rows).
  Pattern flattened = pruned;
  for (PatternNodeId n = 1; n < flattened.size(); ++n) {
    Pattern::Node& node = flattened.mutable_node(n);
    if (node.nested) {
      node.nested = false;
      node.optional = true;
    }
  }

  // ---- Variants: subsets of strengthenable optional edges. ----
  struct Strengthenable {
    PatternNodeId edge_node;
    PatternNodeId witness;
    uint8_t witness_attr;
  };
  std::vector<Strengthenable> strengthenable;
  for (PatternNodeId n = 1; n < flattened.size(); ++n) {
    if (!flattened.node(n).optional) continue;
    PatternNodeId w;
    uint8_t a;
    if (FindStrengthenWitness(flattened, n, &w, &a)) {
      strengthenable.push_back({n, w, a});
      if (strengthenable.size() >= kMaxStrengthenEdges) break;
    }
  }

  size_t num_variants = static_cast<size_t>(1) << strengthenable.size();
  std::unordered_set<std::string> variant_keys;
  for (size_t mask = 0; mask < num_variants; ++mask) {
    Pattern variant = flattened;
    PlanPtr plan = base_plan;
    for (size_t i = 0; i < strengthenable.size(); ++i) {
      if ((mask & (static_cast<size_t>(1) << i)) == 0) continue;
      const Strengthenable& st = strengthenable[i];
      // σ witness != ⊥ keeps exactly the rows where the whole path from the
      // root to the witness matched: every optional edge on that path (not
      // just st.edge_node's) becomes required in the variant pattern.
      for (PatternNodeId cur = st.witness; cur > 0;
           cur = variant.node(cur).parent) {
        variant.mutable_node(cur).optional = false;
      }
      std::string col = StrFormat(
          "%s.n%d.%s", view.name.c_str(),
          pruned_to_orig[static_cast<size_t>(st.witness)],
          AttrLetter(st.witness_attr));
      int32_t idx = plan->schema.Find(col);
      SVX_CHECK_MSG(idx >= 0, col.c_str());
      plan = MakeSelectNonNull(std::move(plan), idx);
    }
    // Different masks may collapse to the same variant (a deep witness
    // already strengthens the shallower edges): keep one.
    {
      std::string key;
      for (PatternNodeId n = 1; n < variant.size(); ++n) {
        key += variant.node(n).optional ? '?' : '.';
      }
      if (!variant_keys.insert(key).second) continue;
    }

    // Skeleton: variant minus (still-)optional subtrees.
    std::vector<PatternNodeId> optional_roots;
    for (PatternNodeId n = 1; n < variant.size(); ++n) {
      if (variant.node(n).optional) optional_roots.push_back(n);
    }
    std::vector<PatternNodeId> variant_to_skeleton;
    Pattern skeleton = variant.EraseSubtrees(optional_roots,
                                             &variant_to_skeleton);

    // Enumerate skeleton embeddings.
    std::vector<SummaryEmbedding> embeddings;
    Status st = EnumerateEmbeddings(
        skeleton, summary, kMaxEmbeddings,
        [&](const SummaryEmbedding& e) {
          embeddings.push_back(e);
          return embeddings.size() <= options.max_pieces;
        });
    if (!st.ok()) return st;
    if (embeddings.empty()) continue;                     // unsatisfiable
    if (embeddings.size() > options.max_pieces) continue;  // too wide

    Candidate cand;
    cand.used_views.push_back(view.name);
    std::vector<PatternNodeId> orig_ids(static_cast<size_t>(variant.size()),
                                        -1);
    for (PatternNodeId n = 0; n < variant.size(); ++n) {
      orig_ids[static_cast<size_t>(n)] =
          pruned_to_orig[static_cast<size_t>(n)];
    }
    for (const SummaryEmbedding& e : embeddings) {
      PieceBuilder builder(variant, summary, view.name, orig_ids);
      cand.pieces.push_back(builder.Build(variant_to_skeleton, e));
    }

    // ---- §4.6: unfold C attributes toward relevant labels. ----
    // Collect (prefix, label) pairs where some piece has a descendant path
    // with that label below the C node.
    struct Unfold {
      std::string prefix;
      std::string label;
    };
    std::vector<Unfold> unfolds;
    for (const ColumnBinding& b : cand.pieces[0].bindings) {
      if (b.attr != kAttrContent || !b.skeleton) continue;
      for (const std::string& label : relevant_labels) {
        bool any = false;
        for (const Piece& piece : cand.pieces) {
          const ColumnBinding* cb = piece.Find(b.prefix, kAttrContent);
          if (cb == nullptr || !cb->skeleton) continue;
          for (PathId d : summary.Descendants(cb->path)) {
            if (summary.label(d) == label) {
              any = true;
              break;
            }
          }
          if (any) break;
        }
        if (any) unfolds.push_back({b.prefix, label});
      }
    }
    for (const Unfold& u : unfolds) {
      std::string name = u.prefix + "@" + u.label;
      int32_t src = plan->schema.Find(u.prefix + ".c");
      SVX_CHECK(src >= 0);
      plan = MakeNavigate(std::move(plan), src,
                          {{Axis::kDescendant, u.label}},
                          kAttrValue | kAttrContent, name);
      for (Piece& piece : cand.pieces) {
        const ColumnBinding* cb = piece.Find(u.prefix, kAttrContent);
        SVX_CHECK(cb != nullptr);
        PatternNodeId un = piece.pattern.AddChild(
            cb->node, u.label, Axis::kDescendant, kAttrValue | kAttrContent,
            Predicate::True(), /*optional=*/true, /*nested=*/false);
        piece.node_paths.push_back(kInvalidPath);
        piece.bindings.push_back({un, kAttrValue, name, name + ".v", -1,
                                  /*skeleton=*/false, kInvalidPath});
        piece.bindings.push_back({un, kAttrContent, name, name + ".c", -1,
                                  /*skeleton=*/false, kInvalidPath});
      }
    }

    // ---- §4.6: virtual parent IDs (navfID). ----
    // For every skeleton ID prefix, derive ancestors up to
    // kMaxVirtualDepth steps; a piece participates when its chain is deep
    // enough (otherwise the prefix is simply absent from that piece).
    std::vector<std::string> id_prefixes;
    for (const ColumnBinding& b : cand.pieces[0].bindings) {
      if (b.attr == kAttrId && b.skeleton) id_prefixes.push_back(b.prefix);
    }
    for (const std::string& prefix : id_prefixes) {
      for (int32_t steps = 1; steps <= kMaxVirtualDepth; ++steps) {
        // Some piece must have the chain node, and the derived node must
        // not collide with an existing id binding role.
        bool any = false;
        for (Piece& piece : cand.pieces) {
          const ColumnBinding* b = piece.Find(prefix, kAttrId);
          if (b == nullptr) continue;
          PatternNodeId u = b->node;
          for (int32_t s = 0; s < steps && u >= 0; ++s) {
            u = piece.pattern.node(u).parent;
          }
          if (u >= 0) any = true;
        }
        if (!any) break;
        std::string name = StrFormat("%s.up%d", prefix.c_str(), steps);
        int32_t src = plan->schema.Find(prefix + ".id");
        SVX_CHECK_MSG(src >= 0, prefix.c_str());
        plan = MakeDeriveParent(std::move(plan), src, steps, name + ".id");
        for (Piece& piece : cand.pieces) {
          const ColumnBinding* b = piece.Find(prefix, kAttrId);
          if (b == nullptr) continue;
          PatternNodeId u = b->node;
          for (int32_t s = 0; s < steps && u >= 0; ++s) {
            u = piece.pattern.node(u).parent;
          }
          if (u < 0) continue;
          piece.bindings.push_back(
              {u, kAttrId, name, name + ".id", -1, /*skeleton=*/true,
               piece.node_paths[static_cast<size_t>(u)]});
        }
      }
    }

    // Resolve binding columns against the final plan schema (indexes are
    // what joins shift; names are unique within one candidate).
    for (Piece& piece : cand.pieces) {
      for (ColumnBinding& b : piece.bindings) {
        b.col = plan->schema.Find(b.column);
        SVX_CHECK_MSG(b.col >= 0, b.column.c_str());
      }
    }
    cand.plan = std::move(plan);
    out.push_back(std::move(cand));
  }
  return out;
}

}  // namespace svx
