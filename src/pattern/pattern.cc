#include "src/pattern/pattern.h"

#include <algorithm>

namespace svx {

PatternNodeId Pattern::SetRoot(std::string_view label, uint8_t attrs,
                               Predicate pred) {
  SVX_CHECK_MSG(nodes_.empty(), "SetRoot on non-empty pattern");
  Node n;
  n.label = std::string(label);
  n.attrs = attrs;
  n.pred = std::move(pred);
  nodes_.push_back(std::move(n));
  return 0;
}

PatternNodeId Pattern::AddChild(PatternNodeId parent, std::string_view label,
                                Axis axis, uint8_t attrs, Predicate pred,
                                bool optional, bool nested) {
  SVX_CHECK(parent >= 0 && parent < size());
  Node n;
  n.label = std::string(label);
  n.parent = parent;
  n.axis = axis;
  n.attrs = attrs;
  n.pred = std::move(pred);
  n.optional = optional;
  n.nested = nested;
  PatternNodeId id = size();
  nodes_.push_back(std::move(n));
  nodes_[static_cast<size_t>(parent)].children.push_back(id);
  return id;
}

std::vector<PatternNodeId> Pattern::ReturnNodes() const {
  // Preorder traversal so that result-tuple columns follow document order of
  // the pattern, independent of construction order.
  std::vector<PatternNodeId> out;
  if (nodes_.empty()) return out;
  std::vector<PatternNodeId> stack{root()};
  while (!stack.empty()) {
    PatternNodeId cur = stack.back();
    stack.pop_back();
    if (node(cur).IsReturn()) out.push_back(cur);
    const auto& cs = node(cur).children;
    for (auto it = cs.rbegin(); it != cs.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

std::vector<PatternNodeId> Pattern::OptionalEdges() const {
  std::vector<PatternNodeId> out;
  for (PatternNodeId n = 1; n < size(); ++n) {
    if (node(n).optional) out.push_back(n);
  }
  return out;
}

bool Pattern::HasOptionalEdges() const {
  for (PatternNodeId n = 1; n < size(); ++n) {
    if (node(n).optional) return true;
  }
  return false;
}

bool Pattern::HasNestedEdges() const {
  for (PatternNodeId n = 1; n < size(); ++n) {
    if (node(n).nested) return true;
  }
  return false;
}

bool Pattern::HasPredicates() const {
  for (PatternNodeId n = 0; n < size(); ++n) {
    if (!node(n).pred.IsTrue()) return true;
  }
  return false;
}

int32_t Pattern::NestingDepth(PatternNodeId n) const {
  int32_t d = 0;
  for (PatternNodeId cur = n; cur != root(); cur = node(cur).parent) {
    if (node(cur).nested) ++d;
  }
  return d;
}

std::vector<PatternNodeId> Pattern::NestingAncestors(PatternNodeId n) const {
  std::vector<PatternNodeId> rev;
  for (PatternNodeId cur = n; cur != root(); cur = node(cur).parent) {
    if (node(cur).nested) rev.push_back(cur);
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

Pattern Pattern::Strict() const {
  Pattern p = *this;
  for (PatternNodeId n = 0; n < p.size(); ++n) {
    p.mutable_node(n).optional = false;
  }
  return p;
}

Pattern Pattern::EraseSubtrees(const std::vector<PatternNodeId>& roots,
                               std::vector<PatternNodeId>* old_to_new) const {
  std::vector<bool> erased(nodes_.size(), false);
  for (PatternNodeId r : roots) {
    SVX_CHECK_MSG(r != root(), "cannot erase the pattern root");
    for (PatternNodeId n : SubtreeNodes(r)) {
      erased[static_cast<size_t>(n)] = true;
    }
  }
  Pattern out;
  std::vector<PatternNodeId> map(nodes_.size(), -1);
  struct Item {
    PatternNodeId old_id;
    PatternNodeId new_parent;
  };
  std::vector<Item> stack{{root(), -1}};
  while (!stack.empty()) {
    Item it = stack.back();
    stack.pop_back();
    if (erased[static_cast<size_t>(it.old_id)]) continue;
    const Node& n = node(it.old_id);
    PatternNodeId nid;
    if (it.new_parent < 0) {
      nid = out.SetRoot(n.label, n.attrs, n.pred);
    } else {
      nid = out.AddChild(it.new_parent, n.label, n.axis, n.attrs, n.pred,
                         n.optional, n.nested);
    }
    map[static_cast<size_t>(it.old_id)] = nid;
    for (auto c = n.children.rbegin(); c != n.children.rend(); ++c) {
      stack.push_back({*c, nid});
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return out;
}

std::vector<PatternNodeId> Pattern::SubtreeNodes(PatternNodeId n) const {
  std::vector<PatternNodeId> out;
  std::vector<PatternNodeId> stack{n};
  while (!stack.empty()) {
    PatternNodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const auto& cs = node(cur).children;
    for (auto it = cs.rbegin(); it != cs.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

bool Pattern::IsAncestorOrSelf(PatternNodeId a, PatternNodeId b) const {
  for (PatternNodeId cur = b; cur >= 0; cur = node(cur).parent) {
    if (cur == a) return true;
  }
  return false;
}

}  // namespace svx
