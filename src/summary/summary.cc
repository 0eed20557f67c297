#include "src/summary/summary.h"

#include <algorithm>
#include <utility>

#include "src/util/bytes.h"
#include "src/util/strings.h"

namespace svx {

int32_t Summary::num_strong_edges() const {
  int32_t n = 0;
  for (PathId s = 1; s < size(); ++s) {
    if (strong_edge(s)) ++n;
  }
  return n;
}

int32_t Summary::num_one_to_one_edges() const {
  int32_t n = 0;
  for (PathId s = 1; s < size(); ++s) {
    if (one_to_one(s)) ++n;
  }
  return n;
}

PathId Summary::FindChild(PathId s, const std::string& label) const {
  int32_t lid = label_interner_.Find(label);
  if (lid == StringInterner::kNone) return kInvalidPath;
  for (PathId c : children(s)) {
    if (label_id(c) == lid) return c;
  }
  return kInvalidPath;
}

PathId Summary::Resolve(const std::string& slash_path) const {
  if (size() == 0) return kInvalidPath;
  std::vector<std::string> pieces = Split(slash_path, '/');
  // A rooted path "/a/b" splits into ["", "a", "b"].
  size_t i = 0;
  if (!pieces.empty() && pieces[0].empty()) i = 1;
  if (i >= pieces.size()) return kInvalidPath;
  if (pieces[i] != label(root())) return kInvalidPath;
  PathId cur = root();
  for (++i; i < pieces.size(); ++i) {
    if (pieces[i].empty()) continue;
    cur = FindChild(cur, pieces[i]);
    if (cur == kInvalidPath) return kInvalidPath;
  }
  return cur;
}

std::string Summary::PathString(PathId s) const {
  std::vector<const std::string*> parts;
  for (PathId cur = s; cur != kInvalidPath; cur = parent(cur)) {
    parts.push_back(&label(cur));
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out += '/';
    out += **it;
  }
  return out;
}

std::vector<PathId> Summary::Chain(PathId a, PathId b) const {
  SVX_CHECK(IsAncestorOrSelf(a, b));
  std::vector<PathId> rev;
  for (PathId cur = b; cur != a; cur = parent(cur)) {
    rev.push_back(cur);
  }
  rev.push_back(a);
  std::reverse(rev.begin(), rev.end());
  return rev;
}

std::vector<PathId> Summary::Descendants(PathId s) const {
  std::vector<PathId> out;
  std::vector<PathId> stack(children(s).rbegin(), children(s).rend());
  while (!stack.empty()) {
    PathId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const auto& cs = children(cur);
    stack.insert(stack.end(), cs.rbegin(), cs.rend());
  }
  return out;
}

bool Summary::StructurallyEquals(const Summary& other) const {
  if (size() != other.size()) return false;
  for (PathId s = 0; s < size(); ++s) {
    if (label(s) != other.label(s)) return false;
    if (parent(s) != other.parent(s)) return false;
    if (strong_edge(s) != other.strong_edge(s)) return false;
    if (one_to_one(s) != other.one_to_one(s)) return false;
    if (children(s).size() != other.children(s).size()) return false;
  }
  return true;
}

const std::string& Summary::StructureKey() const {
  std::call_once(structure_key_once_, [this] {
    // Preorder with every path's children in label order. A path writes its
    // length-prefixed label, its edge flags and its child count, so the
    // bytes decode into exactly one labeled tree.
    std::string key;
    std::vector<PathId> stack;
    if (size() > 0) stack.push_back(root());
    while (!stack.empty()) {
      const PathId s = stack.back();
      stack.pop_back();
      const std::string& l = label(s);
      PutVarint(l.size(), &key);
      key += l;
      PutU8(static_cast<uint8_t>((strong_edge(s) ? 1 : 0) |
                                 (one_to_one(s) ? 2 : 0)),
            &key);
      PutVarint(children(s).size(), &key);
      // Pushed in descending label order, so popped in ascending order.
      const auto first = stack.insert(stack.end(), children(s).begin(),
                                      children(s).end());
      std::sort(first, stack.end(),
                [this](PathId a, PathId b) { return label(a) > label(b); });
    }
    structure_key_ = std::move(key);
  });
  return structure_key_;
}

PathId Summary::AppendNode(PathId parent, std::string_view label, bool strong,
                           bool one_to_one) {
  const PathId id = AppendPath(parent, label_interner_.Intern(label));
  SetEdgeFlags(id, strong, one_to_one);
  return id;
}

PathId Summary::AppendPath(PathId parent, int32_t label_id) {
  SVX_CHECK_MSG(parent != kInvalidPath || size() == 0,
                "summary already has a root");
  PathId id = size();
  labels_.push_back(label_id);
  parents_.push_back(parent);
  children_.emplace_back();
  strong_.push_back(false);
  one_to_one_.push_back(false);
  if (parent == kInvalidPath) {
    depths_.push_back(1);
  } else {
    depths_.push_back(depths_[Check(parent)] + 1);
    children_[Check(parent)].push_back(id);
  }
  return id;
}

void Summary::SetEdgeFlags(PathId s, bool strong, bool one_to_one) {
  strong_[Check(s)] = strong;
  one_to_one_[Check(s)] = one_to_one;
}

void Summary::Seal() {
  preorder_.assign(static_cast<size_t>(size()), 0);
  subtree_end_.assign(static_cast<size_t>(size()), 0);
  if (size() == 0) return;
  int32_t counter = 0;
  // Iterative DFS computing preorder number and subtree end.
  struct Frame {
    PathId node;
    size_t child_pos;
  };
  std::vector<Frame> stack;
  stack.push_back({root(), 0});
  preorder_[0] = counter++;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& cs = children(f.node);
    if (f.child_pos < cs.size()) {
      PathId c = cs[f.child_pos++];
      preorder_[Check(c)] = counter++;
      stack.push_back({c, 0});
    } else {
      subtree_end_[Check(f.node)] = counter;
      stack.pop_back();
    }
  }
}

}  // namespace svx
