#include "src/summary/summary_builder.h"

#include <limits>
#include <unordered_map>

namespace svx {

namespace {
constexpr int64_t kNoObservation = std::numeric_limits<int64_t>::max();
}  // namespace

SummaryBuilder::SummaryBuilder() : summary_(new Summary()) {}

std::unique_ptr<Summary> SummaryBuilder::Build(Document* doc) {
  SummaryBuilder b;
  b.Add(doc);
  return b.Finish();
}

void SummaryBuilder::Add(Document* doc) {
  SVX_CHECK(doc != nullptr && doc->size() > 0);
  Summary& s = *summary_;

  auto new_path = [&](PathId parent, int32_t label) -> PathId {
    PathId id = s.AppendPath(parent, label);
    // A path first observed after its parent path already had occurrences
    // cannot be strong unless those occurrences are revisited — but within a
    // single Add() pass statistics are computed afterwards, so only earlier
    // documents matter here.
    min_children_.push_back(parent != kInvalidPath &&
                                    parent_occurrences_.size() >
                                        static_cast<size_t>(parent) &&
                                    parent_occurrences_[static_cast<size_t>(
                                        parent)] > 0
                                ? 0
                                : kNoObservation);
    max_children_.push_back(0);
    if (parent_occurrences_.size() < static_cast<size_t>(s.size())) {
      parent_occurrences_.resize(static_cast<size_t>(s.size()), 0);
    }
    return id;
  };

  // Document label id -> summary label id, interned on first use: in
  // preorder a label new to the summary first appears on a new path, so
  // the summary's label ids come out in path-creation order as before.
  std::vector<int32_t> label_ids(static_cast<size_t>(doc->labels().size()),
                                 StringInterner::kNone);
  // Pass A: extend the summary and annotate the document with path ids.
  for (NodeIndex n = 0; n < doc->size(); ++n) {
    int32_t& label = label_ids[static_cast<size_t>(doc->labels_[
        static_cast<size_t>(n)])];
    if (label == StringInterner::kNone) {
      label = s.label_interner_.Intern(doc->label(n));
    }
    const NodeIndex par = doc->parents_[static_cast<size_t>(n)];
    PathId path = kInvalidPath;
    if (par == kInvalidNode) {
      if (s.size() == 0) {
        path = new_path(kInvalidPath, label);
      } else {
        SVX_CHECK_MSG(s.label_id(s.root()) == label,
                      "documents added to one summary must share a root label");
        path = s.root();
      }
    } else {
      const PathId ppath = doc->path_ids_[static_cast<size_t>(par)];
      for (PathId c : s.children(ppath)) {
        if (s.label_id(c) == label) {
          path = c;
          break;
        }
      }
      if (path == kInvalidPath) path = new_path(ppath, label);
    }
    doc->path_ids_[static_cast<size_t>(n)] = path;
  }

  // Build the per-document by-path index (document order is preorder).
  doc->nodes_by_path_.assign(static_cast<size_t>(s.size()), {});
  for (NodeIndex n = 0; n < doc->size(); ++n) {
    doc->nodes_by_path_[static_cast<size_t>(doc->path_ids_[
        static_cast<size_t>(n)])].push_back(n);
  }

  // Pass B: per-edge child-count statistics for strong / one-to-one edges.
  // `counts` is indexed by path; every child of a node on path p lies on a
  // child path of p, so zeroing those entries resets it for the next node.
  std::vector<int64_t> counts(static_cast<size_t>(s.size()), 0);
  for (NodeIndex n = 0; n < doc->size(); ++n) {
    const PathId p = doc->path_ids_[static_cast<size_t>(n)];
    parent_occurrences_[static_cast<size_t>(p)] += 1;
    for (NodeIndex c = doc->first_children_[static_cast<size_t>(n)];
         c != kInvalidNode; c = doc->next_siblings_[static_cast<size_t>(c)]) {
      counts[static_cast<size_t>(doc->path_ids_[static_cast<size_t>(c)])] +=
          1;
    }
    for (PathId cpath : s.children(p)) {
      const size_t ci = static_cast<size_t>(cpath);
      const int64_t cnt = counts[ci];
      counts[ci] = 0;
      if (min_children_[ci] == kNoObservation || cnt < min_children_[ci]) {
        min_children_[ci] = cnt;
      }
      if (cnt > max_children_[ci]) max_children_[ci] = cnt;
    }
  }
}

std::unique_ptr<Summary> SummaryBuilder::Finish() {
  Summary& s = *summary_;
  for (PathId c = 1; c < s.size(); ++c) {
    size_t ci = static_cast<size_t>(c);
    bool observed = min_children_[ci] != kNoObservation;
    bool strong = observed && min_children_[ci] >= 1;
    bool one_to_one = observed && min_children_[ci] == 1 && max_children_[ci] == 1;
    s.SetEdgeFlags(c, strong, one_to_one);
  }
  s.Seal();
  return std::move(summary_);
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
