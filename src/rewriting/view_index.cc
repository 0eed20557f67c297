#include "src/rewriting/view_index.h"

#include <algorithm>

#include "src/pattern/embedding.h"

namespace svx {

ViewIndex::ViewIndex(const Summary& summary) : summary_(summary) {}

void ViewIndex::AddView(const ViewDef& def) {
  ViewSignature sig;
  sig.related = MakePathBitset(summary_.size());
  for (PathBitset& b : sig.attr_paths) b = MakePathBitset(summary_.size());
  sig.content_desc = MakePathBitset(summary_.size());

  const Pattern& p = def.pattern;
  if (p.size() <= 1) {
    // Prop 3.4 discards single-node views outright; an all-empty signature
    // reproduces that.
    signatures_.push_back(std::move(sig));
    return;
  }

  // Prop 3.4 relevance, matching ViewRelated() exactly: associated paths of
  // the strict pattern (ComputeAssociatedPaths treats every edge as
  // required).
  AssociatedPaths ap = ComputeAssociatedPaths(p, summary_);
  for (PatternNodeId n = 1; n < p.size(); ++n) {
    for (PathId s : ap.feasible[static_cast<size_t>(n)]) {
      PathBitsetSet(&sig.related, s);
    }
  }

  // Serviceability sets must over-approximate every expansion variant, and
  // variants ERASE optional subtrees before enumerating skeleton
  // embeddings — so a node can pin to paths the strict associated-path
  // computation excludes (a required sibling subtree no variant keeps
  // would wrongly narrow it). Chain-only reachability — the root-to-node
  // label/axis chain with all sibling and descendant constraints dropped —
  // is an upper bound for every variant.
  std::vector<PathBitset> reach(static_cast<size_t>(p.size()));
  {
    const Pattern::Node& root = p.node(0);
    reach[0] = MakePathBitset(summary_.size());
    if (root.IsWildcard() || root.label == summary_.label(summary_.root())) {
      PathBitsetSet(&reach[0], summary_.root());
    }
  }
  // Pattern node ids are parent-before-child by construction.
  for (PatternNodeId n = 1; n < p.size(); ++n) {
    const Pattern::Node& node = p.node(n);
    reach[static_cast<size_t>(n)] = MakePathBitset(summary_.size());
    for (PathId s = 0; s < summary_.size(); ++s) {
      if (!PathBitsetTest(reach[static_cast<size_t>(node.parent)], s)) {
        continue;
      }
      if (node.axis == Axis::kChild) {
        for (PathId c : summary_.children(s)) {
          if (node.IsWildcard() || node.label == summary_.label(c)) {
            PathBitsetSet(&reach[static_cast<size_t>(n)], c);
          }
        }
      } else {
        for (PathId d : summary_.Descendants(s)) {
          if (node.IsWildcard() || node.label == summary_.label(d)) {
            PathBitsetSet(&reach[static_cast<size_t>(n)], d);
          }
        }
      }
    }
  }

  // Nodes under an optional or nested edge surface as fragment bindings in
  // the base expansion variant: their columns bypass the Prop 3.7 path
  // check entirely.
  std::vector<bool> under_opt(static_cast<size_t>(p.size()), false);
  for (PatternNodeId n = 1; n < p.size(); ++n) {
    const Pattern::Node& node = p.node(n);
    under_opt[static_cast<size_t>(n)] =
        node.optional || node.nested ||
        under_opt[static_cast<size_t>(node.parent)];
  }

  for (PatternNodeId n = 0; n < p.size(); ++n) {
    const Pattern::Node& node = p.node(n);
    if (node.attrs == 0) continue;
    if (under_opt[static_cast<size_t>(n)]) sig.anypath_attrs |= node.attrs;
    const PathBitset& feasible = reach[static_cast<size_t>(n)];
    auto for_each_feasible = [&](auto&& fn) {
      for (PathId s = 0; s < summary_.size(); ++s) {
        if (PathBitsetTest(feasible, s)) fn(s);
      }
    };
    for (int bit = 0; bit < 4; ++bit) {
      if ((node.attrs & (1 << bit)) == 0) continue;
      for (size_t w = 0; w < sig.attr_paths[bit].size(); ++w) {
        sig.attr_paths[bit][w] |= feasible[w];
      }
    }
    if (node.attrs & kAttrId) {
      for_each_feasible([&](PathId s) {
        PathId a = summary_.parent(s);
        for (int32_t step = 1; step <= kMaxVirtualDepth && a != kInvalidPath;
             ++step, a = summary_.parent(a)) {
          PathBitsetSet(&sig.attr_paths[0], a);
        }
      });
    }
    if (node.attrs & kAttrContent) {
      sig.has_content = true;
      for_each_feasible([&](PathId s) {
        for (PathId d : summary_.Descendants(s)) {
          PathBitsetSet(&sig.content_desc, d);
          sig.content_label_ids.push_back(summary_.label_id(d));
        }
      });
    }
  }
  std::sort(sig.content_label_ids.begin(), sig.content_label_ids.end());
  sig.content_label_ids.erase(
      std::unique(sig.content_label_ids.begin(), sig.content_label_ids.end()),
      sig.content_label_ids.end());
  signatures_.push_back(std::move(sig));
}

bool ViewIndex::CanServe(size_t i, uint8_t need_attrs,
                         const PathBitset& col_paths,
                         const Pattern::Node& qnode) const {
  const ViewSignature& sig = signatures_[i];
  // Fragment bindings (nodes under optional/nested edges) carry no pinned
  // path and pass the assignment path check unconditionally.
  if ((need_attrs & ~sig.anypath_attrs) == 0) return true;
  // §4.6 content unfolding appends non-pinned V and C columns for any query
  // label occurring below a stored C node.
  if (sig.has_content &&
      (need_attrs & ~(kAttrValue | kAttrContent)) == 0) {
    if (qnode.IsWildcard()) {
      if (!PathBitsetEmpty(sig.content_desc)) return true;
    } else {
      int32_t lid = summary_.labels().Find(qnode.label);
      if (lid != StringInterner::kNone &&
          std::binary_search(sig.content_label_ids.begin(),
                             sig.content_label_ids.end(), lid)) {
        return true;
      }
    }
  }
  // Skeleton columns: every needed attribute must be exposable on some
  // feasible path of the column (Prop 3.7 compatibility).
  for (int bit = 0; bit < 4; ++bit) {
    if ((need_attrs & (1 << bit)) == 0) continue;
    if (!PathBitsetsIntersect(sig.attr_paths[bit], col_paths)) return false;
  }
  return true;
}

}  // namespace svx
