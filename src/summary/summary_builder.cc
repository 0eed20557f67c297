#include "src/summary/summary_builder.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace svx {

std::unique_ptr<Summary> SummaryBuilder::Build(const Document* doc) {
  SVX_CHECK(doc != nullptr && doc->size() > 0);
  auto summary = std::make_unique<Summary>();
  Summary& s = *summary;

  // Pass A: the rooted label path of every node, extending the summary.
  // Document label id -> summary label id, interned on first use: in
  // preorder a label new to the summary first appears on a new path, so
  // the summary's label ids come out in path-creation order.
  std::vector<int32_t> label_ids(static_cast<size_t>(doc->labels().size()),
                                 StringInterner::kNone);
  std::vector<PathId> node_path(static_cast<size_t>(doc->size()));
  for (NodeIndex n = 0; n < doc->size(); ++n) {
    int32_t& label = label_ids[static_cast<size_t>(doc->label_id(n))];
    if (label == StringInterner::kNone) {
      label = s.label_interner_.Intern(doc->label(n));
    }
    const NodeIndex par = doc->parent(n);
    const PathId ppath =
        par == kInvalidNode ? kInvalidPath : node_path[static_cast<size_t>(par)];
    PathId path = kInvalidPath;
    if (ppath != kInvalidPath) {
      for (PathId c : s.children(ppath)) {
        if (s.label_id(c) == label) {
          path = c;
          break;
        }
      }
    }
    if (path == kInvalidPath) path = s.AppendPath(ppath, label);
    node_path[static_cast<size_t>(n)] = path;
  }

  // Pass B: per edge (indexed by child path), the fewest and most children
  // on it of a node on the parent path. Every path's parent path holds a
  // node, so every edge is observed. `counts` is indexed by path; every
  // child of a node on path p lies on a child path of p, so zeroing those
  // entries resets it for the next node.
  const size_t paths = static_cast<size_t>(s.size());
  std::vector<int64_t> min_children(paths, std::numeric_limits<int64_t>::max());
  std::vector<int64_t> max_children(paths, 0);
  std::vector<int64_t> counts(paths, 0);
  for (NodeIndex n = 0; n < doc->size(); ++n) {
    for (NodeIndex c = doc->first_child(n); c != kInvalidNode;
         c = doc->next_sibling(c)) {
      counts[static_cast<size_t>(node_path[static_cast<size_t>(c)])] += 1;
    }
    for (PathId cpath : s.children(node_path[static_cast<size_t>(n)])) {
      const size_t ci = static_cast<size_t>(cpath);
      min_children[ci] = std::min(min_children[ci], counts[ci]);
      max_children[ci] = std::max(max_children[ci], counts[ci]);
      counts[ci] = 0;
    }
  }
  for (PathId c = 1; c < s.size(); ++c) {
    const size_t ci = static_cast<size_t>(c);
    s.SetEdgeFlags(c, min_children[ci] >= 1,
                   min_children[ci] == 1 && max_children[ci] == 1);
  }
  s.Seal();
  return summary;
}

namespace {

/// Parallel walk mapping each document node to its summary path; calls
/// `edge_stats` per (doc node, child path, count). Returns false if a path
/// is missing from the summary.
template <typename F>
bool WalkPaths(const Document& doc, const Summary& summary, F&& per_node) {
  std::vector<PathId> path(static_cast<size_t>(doc.size()), kInvalidPath);
  for (NodeIndex n = 0; n < doc.size(); ++n) {
    PathId p;
    if (doc.parent(n) == kInvalidNode) {
      if (summary.size() == 0 || summary.label(summary.root()) != doc.label(n)) {
        return false;
      }
      p = summary.root();
    } else {
      PathId pp = path[static_cast<size_t>(doc.parent(n))];
      p = summary.FindChild(pp, doc.label(n));
      if (p == kInvalidPath) return false;
    }
    path[static_cast<size_t>(n)] = p;
    if (!per_node(n, p)) return false;
  }
  return true;
}

}  // namespace

bool Conforms(const Document& doc, const Summary& summary) {
  std::vector<int64_t> occurrences(static_cast<size_t>(summary.size()), 0);
  std::vector<int64_t> min_cnt(static_cast<size_t>(summary.size()),
                               std::numeric_limits<int64_t>::max());
  std::vector<int64_t> max_cnt(static_cast<size_t>(summary.size()), 0);
  std::vector<PathId> node_path(static_cast<size_t>(doc.size()), kInvalidPath);

  bool ok = WalkPaths(doc, summary, [&](NodeIndex n, PathId p) {
    node_path[static_cast<size_t>(n)] = p;
    occurrences[static_cast<size_t>(p)] += 1;
    return true;
  });
  if (!ok) return false;

  // Per-node child counts for integrity constraints.
  std::unordered_map<PathId, int64_t> counts;
  for (NodeIndex n = 0; n < doc.size(); ++n) {
    PathId p = node_path[static_cast<size_t>(n)];
    counts.clear();
    for (NodeIndex c = doc.first_child(n); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      counts[node_path[static_cast<size_t>(c)]] += 1;
    }
    for (PathId cpath : summary.children(p)) {
      auto it = counts.find(cpath);
      int64_t cnt = it == counts.end() ? 0 : it->second;
      size_t ci = static_cast<size_t>(cpath);
      if (cnt < min_cnt[ci]) min_cnt[ci] = cnt;
      if (cnt > max_cnt[ci]) max_cnt[ci] = cnt;
    }
  }

  // Exact conformance: every summary path occurs, and the constraint flags
  // match the document's statistics.
  for (PathId p = 0; p < summary.size(); ++p) {
    if (occurrences[static_cast<size_t>(p)] == 0) return false;
  }
  for (PathId c = 1; c < summary.size(); ++c) {
    size_t ci = static_cast<size_t>(c);
    bool strong = min_cnt[ci] >= 1 &&
                  min_cnt[ci] != std::numeric_limits<int64_t>::max();
    bool o2o = min_cnt[ci] == 1 && max_cnt[ci] == 1;
    if (strong != summary.strong_edge(c)) return false;
    if (o2o != summary.one_to_one(c)) return false;
  }
  return true;
}

bool WeaklyConforms(const Document& doc, const Summary& summary) {
  std::vector<PathId> node_path(static_cast<size_t>(doc.size()), kInvalidPath);
  bool ok = WalkPaths(doc, summary, [&](NodeIndex n, PathId p) {
    node_path[static_cast<size_t>(n)] = p;
    return true;
  });
  if (!ok) return false;
  // Strong edges: every node on the parent path has >= 1 child on the child
  // path.
  std::unordered_map<PathId, int64_t> counts;
  for (NodeIndex n = 0; n < doc.size(); ++n) {
    PathId p = node_path[static_cast<size_t>(n)];
    counts.clear();
    for (NodeIndex c = doc.first_child(n); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      counts[node_path[static_cast<size_t>(c)]] += 1;
    }
    for (PathId cpath : summary.children(p)) {
      if (summary.strong_edge(cpath) && counts.find(cpath) == counts.end()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace svx
