#include "src/viewstore/shard_router.h"

#include <algorithm>

#include "src/rewriting/view.h"
#include "src/util/strings.h"

namespace svx {

ShardRouter ShardRouter::Partition(const Document& doc, int num_shards) {
  std::vector<OrdPath> boundaries;
  if (num_shards <= 1 || doc.root() == kInvalidNode) {
    return ShardRouter(std::move(boundaries));
  }
  // Top-level children with their subtree sizes, in document order.
  std::vector<NodeIndex> tops = doc.children(doc.root());
  if (tops.size() < 2) return ShardRouter(std::move(boundaries));
  int shards = std::min<int>(num_shards, static_cast<int>(tops.size()));

  int64_t remaining = 0;
  for (NodeIndex t : tops) remaining += doc.subtree_end(t) - t;
  int64_t acc = 0;
  int cuts_left = shards - 1;
  for (size_t i = 0; i < tops.size() && cuts_left > 0; ++i) {
    // Greedy balance: close the current range once it reaches its fair
    // share of what is left, then start the next range at the next child.
    int64_t ranges_left = cuts_left + 1;
    int64_t target = (remaining + ranges_left - 1) / ranges_left;
    int64_t size = doc.subtree_end(tops[i]) - tops[i];
    acc += size;
    remaining -= size;
    bool must_cut =
        static_cast<int64_t>(tops.size() - i - 1) == cuts_left;
    if ((acc >= target || must_cut) && i + 1 < tops.size()) {
      boundaries.push_back(doc.ord_path(tops[i + 1]));
      acc = 0;
      --cuts_left;
    }
  }
  return ShardRouter(std::move(boundaries));
}

int ShardRouter::Route(const OrdPath& id) const {
  // Boundaries are sorted in document order; the owning shard is the count
  // of boundaries at or before `id`. std::upper_bound would need operator<
  // over (boundary, id) pairs; the boundary list is tiny (N-1 entries), so
  // a linear scan is both simpler and faster in practice.
  int shard = 0;
  for (const OrdPath& b : boundaries_) {
    if (b.Compare(id) <= 0) ++shard;
  }
  return shard;
}

std::string ShardRouter::Serialize() const {
  std::string out;
  for (const OrdPath& b : boundaries_) {
    out += b.ToString();
    out += '\n';
  }
  return out;
}

Result<ShardRouter> ShardRouter::Deserialize(const std::string& text) {
  std::vector<OrdPath> boundaries;
  for (const std::string& line : Split(text, '\n')) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    OrdPath id = OrdPath::FromString(std::string(trimmed));
    if (!id.IsValid() || id.Depth() != 2) {
      return Status::ParseError("bad shard boundary: " + std::string(trimmed));
    }
    if (!boundaries.empty() && !(boundaries.back() < id)) {
      return Status::ParseError("shard boundaries not strictly increasing at " +
                                std::string(trimmed));
    }
    boundaries.push_back(std::move(id));
  }
  return ShardRouter(std::move(boundaries));
}

namespace {

/// Index of `a`'s id column in the view's schema (ViewSchema), counted
/// without building it: the columns SubtreeSchema emits before it. A node's
/// own attributes come first, id first among them, then its children's
/// columns in order, a nested child as one column. `a` carries kAttrId and
/// no nested edge leads to it.
int32_t IdColumn(const Pattern& pattern, PatternNodeId a) {
  int32_t col = 0;
  for (PatternNodeId n = pattern.root(); n != a;) {
    col += __builtin_popcount(pattern.node(n).attrs);
    for (PatternNodeId m : pattern.node(n).children) {
      if (pattern.IsAncestorOrSelf(m, a)) {
        n = m;
        break;
      }
      col += pattern.node(m).nested ? 1 : PatternSubtreeWidth(pattern, m);
    }
  }
  return col;
}

}  // namespace

ViewAnchor AnalyzeViewAnchor(const Pattern& pattern) {
  ViewAnchor anchor;
  for (PatternNodeId a : pattern.ReturnNodes()) {
    if ((pattern.node(a).attrs & kAttrId) == 0) continue;
    if (a == pattern.root()) continue;
    if (pattern.NestingDepth(a) != 0) continue;
    // The anchor column must never be ⊥: reject optional edges anywhere on
    // the root path (an optional edge below `a` only pads other columns).
    bool optional_path = false;
    for (PatternNodeId n = a; n != pattern.root();
         n = pattern.node(n).parent) {
      if (pattern.node(n).optional || pattern.node(n).nested) {
        optional_path = true;
        break;
      }
    }
    if (optional_path) continue;
    // Locality: every pattern node on the anchor's root path or inside its
    // subtree. Any node off that spine (a sibling branch) could bind in a
    // different top-level subtree than the anchor, making rows span shards.
    bool local = true;
    for (PatternNodeId n = 0; n < pattern.size(); ++n) {
      if (!pattern.IsAncestorOrSelf(n, a) && !pattern.IsAncestorOrSelf(a, n)) {
        local = false;
        break;
      }
    }
    if (!local) continue;
    anchor.partitionable = true;
    anchor.node = a;
    anchor.column = IdColumn(pattern, a);
    return anchor;
  }
  return anchor;
}

}  // namespace svx
