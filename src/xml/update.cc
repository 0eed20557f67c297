#include "src/xml/update.h"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace svx {

/// Builds the next document version by splicing the previous version's
/// per-node arrays: surviving nodes keep their label ids (under a copy of
/// the old interner) and ORDPATHs, and node indexes past the splice point
/// shift by the region size. Each surviving ORDPATH and value is
/// copied once. Value ids are reassigned in preorder, so a deleted
/// subtree's values are dropped rather than kept.
class SubtreeSplice {
 public:
  /// Inserts `sub` as a child of `parent` at preorder position `at`: the
  /// position of the sibling it precedes, or the end of parent's subtree.
  static std::unique_ptr<Document> Insert(const Document& d, NodeIndex parent,
                                          NodeIndex at, const OrdPath& region,
                                          const Document& sub);

  /// Removes the subtree rooted at `target` (not the root).
  static std::unique_ptr<Document> Delete(const Document& d, NodeIndex target);

 private:
  /// Copies node `n`'s value (if any) into `o`, giving it the next id.
  static void CopyValue(const Document& from, NodeIndex n, Document* o) {
    const int32_t v = from.value_ids_[static_cast<size_t>(n)];
    if (v < 0) {
      o->value_ids_.push_back(-1);
      return;
    }
    o->value_ids_.push_back(static_cast<int32_t>(o->values_.size()));
    o->values_.push_back(from.values_[static_cast<size_t>(v)]);
  }
};

namespace {

/// The last child of `parent` before preorder position `at` (a child's
/// position or the end of parent's subtree), or kInvalidNode: the child
/// whose subtree holds node at - 1.
NodeIndex ChildBefore(const Document& doc, NodeIndex parent, NodeIndex at) {
  if (at == parent + 1) return kInvalidNode;
  NodeIndex n = at - 1;
  while (doc.parent(n) != parent) n = doc.parent(n);
  return n;
}

/// True for an attribute's label ("@id"): SerializeXml writes such a leaf
/// into its parent's start tag, before any element child.
bool IsAttribute(const std::string& label) {
  return !label.empty() && label[0] == '@';
}

}  // namespace

std::unique_ptr<Document> SubtreeSplice::Insert(const Document& d,
                                                NodeIndex parent, NodeIndex at,
                                                const OrdPath& region,
                                                const Document& sub) {
  auto out = std::make_unique<Document>();
  Document& o = *out;
  const NodeIndex k = sub.size();
  const auto head = static_cast<std::ptrdiff_t>(at);
  const size_t total = static_cast<size_t>(d.size() + k);
  o.label_interner_ = d.label_interner_;
  std::vector<int32_t> sub_labels(static_cast<size_t>(sub.labels().size()));
  for (int32_t l = 0; l < sub.labels().size(); ++l) {
    sub_labels[static_cast<size_t>(l)] =
        o.label_interner_.Intern(sub.labels().Get(l));
  }

  o.labels_.reserve(total);
  o.labels_.assign(d.labels_.begin(), d.labels_.begin() + head);
  for (int32_t l : sub.labels_) {
    o.labels_.push_back(sub_labels[static_cast<size_t>(l)]);
  }
  o.labels_.insert(o.labels_.end(), d.labels_.begin() + head, d.labels_.end());

  // Old indexes past `last_kept` move k places right (for parents that is
  // every index at or past the splice point); the subtree's own indexes
  // move to `at`. kInvalidNode (-1) stays put.
  auto splice = [&](const std::vector<NodeIndex>& old,
                    const std::vector<NodeIndex>& in_sub, NodeIndex last_kept,
                    std::vector<NodeIndex>* dst) {
    dst->reserve(total);
    for (NodeIndex i = 0; i < at; ++i) {
      const NodeIndex x = old[static_cast<size_t>(i)];
      dst->push_back(x <= last_kept ? x : x + k);
    }
    for (NodeIndex x : in_sub) dst->push_back(x == kInvalidNode ? x : x + at);
    for (NodeIndex i = at; i < d.size(); ++i) {
      const NodeIndex x = old[static_cast<size_t>(i)];
      dst->push_back(x <= last_kept ? x : x + k);
    }
  };
  splice(d.parents_, sub.parents_, at - 1, &o.parents_);
  o.parents_[static_cast<size_t>(at)] = parent;
  // A subtree ending exactly at the splice point ends before the new one,
  // unless it encloses it: `parent` and its ancestors grow by k.
  splice(d.subtree_ends_, sub.subtree_ends_, at, &o.subtree_ends_);
  for (NodeIndex a = parent; a != kInvalidNode; a = d.parent(a)) {
    o.subtree_ends_[static_cast<size_t>(a)] = d.subtree_end(a) + k;
  }

  o.value_ids_.reserve(total);
  o.values_.reserve(d.values_.size() + sub.values_.size());
  for (NodeIndex n = 0; n < at; ++n) CopyValue(d, n, &o);
  for (NodeIndex n = 0; n < k; ++n) CopyValue(sub, n, &o);
  for (NodeIndex n = at; n < d.size(); ++n) CopyValue(d, n, &o);

  // The subtree's ids are re-rooted under `region`: its root's "1" becomes
  // the region id.
  o.ord_paths_.reserve(total);
  o.ord_paths_.assign(d.ord_paths_.begin(), d.ord_paths_.begin() + head);
  const std::vector<int32_t>& prefix = region.components();
  for (const OrdPath& id : sub.ord_paths_) {
    std::vector<int32_t> comps;
    comps.reserve(prefix.size() + id.components().size() - 1);
    comps.insert(comps.end(), prefix.begin(), prefix.end());
    comps.insert(comps.end(), id.components().begin() + 1,
                 id.components().end());
    o.ord_paths_.emplace_back(std::move(comps));
  }
  o.ord_paths_.insert(o.ord_paths_.end(), d.ord_paths_.begin() + head,
                      d.ord_paths_.end());
  return out;
}

std::unique_ptr<Document> SubtreeSplice::Delete(const Document& d,
                                                NodeIndex target) {
  auto out = std::make_unique<Document>();
  Document& o = *out;
  const NodeIndex end = d.subtree_end(target);
  const NodeIndex k = end - target;
  const auto head = static_cast<std::ptrdiff_t>(target);
  const auto tail = static_cast<std::ptrdiff_t>(end);
  const size_t total = static_cast<size_t>(d.size() - k);
  o.label_interner_ = d.label_interner_;

  auto keep = [&](const std::vector<int32_t>& old, std::vector<int32_t>* dst) {
    dst->reserve(total);
    dst->assign(old.begin(), old.begin() + head);
    dst->insert(dst->end(), old.begin() + tail, old.end());
  };
  keep(d.labels_, &o.labels_);

  // Old indexes past the removed subtree move k places left. No survivor's
  // parent is a removed node, and a survivor's subtree ends at or before
  // the removed root or, for its ancestors, at or past the removed end.
  auto splice = [&](const std::vector<NodeIndex>& old,
                    std::vector<NodeIndex>* dst) {
    dst->reserve(total);
    for (NodeIndex i = 0; i < target; ++i) {
      const NodeIndex x = old[static_cast<size_t>(i)];
      dst->push_back(x < end ? x : x - k);
    }
    for (NodeIndex i = end; i < d.size(); ++i) {
      const NodeIndex x = old[static_cast<size_t>(i)];
      dst->push_back(x < end ? x : x - k);
    }
  };
  splice(d.parents_, &o.parents_);
  splice(d.subtree_ends_, &o.subtree_ends_);

  o.value_ids_.reserve(total);
  o.values_.reserve(d.values_.size());
  for (NodeIndex n = 0; n < target; ++n) CopyValue(d, n, &o);
  for (NodeIndex n = end; n < d.size(); ++n) CopyValue(d, n, &o);

  o.ord_paths_.reserve(total);
  o.ord_paths_.assign(d.ord_paths_.begin(), d.ord_paths_.begin() + head);
  o.ord_paths_.insert(o.ord_paths_.end(), d.ord_paths_.begin() + tail,
                      d.ord_paths_.end());
  return out;
}

Result<UpdateResult> InsertSubtree(const Document& doc, const OrdPath& parent,
                                   const Document& subtree,
                                   const OrdPath* insert_before) {
  NodeIndex parent_idx = doc.FindByOrdPath(parent);
  if (parent_idx == kInvalidNode) {
    return Status::NotFound("insert parent " + parent.ToString() +
                            " not in document");
  }
  if (subtree.size() == 0) {
    return Status::InvalidArgument("cannot insert an empty subtree");
  }
  // Keep the tree one that XML writes and reads back unchanged: an
  // attribute is a leaf, and an element's attributes precede its other
  // children.
  if (IsAttribute(doc.label(parent_idx))) {
    return Status::InvalidArgument("cannot insert under attribute " +
                                   parent.ToString());
  }
  const bool attribute = IsAttribute(subtree.label(subtree.root()));
  if (attribute && subtree.size() > 1) {
    return Status::InvalidArgument("attribute " + subtree.label(0) +
                                   " cannot have children");
  }

  OrdPath region;
  NodeIndex at = kInvalidNode;    // preorder position of the new root
  NodeIndex left = kInvalidNode;  // its preceding sibling, if any
  if (insert_before != nullptr) {
    NodeIndex before_idx = doc.FindByOrdPath(*insert_before);
    if (before_idx == kInvalidNode ||
        doc.parent(before_idx) != parent_idx) {
      return Status::NotFound("insert_before " + insert_before->ToString() +
                              " is not a child of " + parent.ToString());
    }
    if (!attribute && IsAttribute(doc.label(before_idx))) {
      return Status::InvalidArgument("an element cannot precede attribute " +
                                     insert_before->ToString());
    }
    // The caret id needs `before`'s immediate preceding sibling (invalid
    // when `before` is the first child).
    left = ChildBefore(doc, parent_idx, before_idx);
    region = OrdPath::CaretBefore(
        parent, left == kInvalidNode ? OrdPath() : doc.ord_path(left),
        doc.ord_path(before_idx));
    at = before_idx;
  } else {
    // Append: one past the largest *surviving* child ordinal. A child id
    // extends the parent's components, so the child's ordering key at this
    // level is its first component past the parent prefix — carets
    // included, `back()` would misread careted children. Note ids are
    // unique per document version, not across history: if the
    // largest-ordinal child was deleted earlier, its ordinal (like a
    // caret slot vacated by a delete) can be minted again.
    int32_t max_ordinal = 0;
    size_t level = parent.components().size();
    for (NodeIndex c = doc.first_child(parent_idx); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      max_ordinal = std::max(max_ordinal, doc.ord_path(c).components()[level]);
      left = c;
    }
    region = parent.Child(max_ordinal + 1);
    at = doc.subtree_end(parent_idx);
  }
  if (attribute && left != kInvalidNode && !IsAttribute(doc.label(left))) {
    return Status::InvalidArgument("attribute " + subtree.label(0) +
                                   " cannot follow an element child of " +
                                   parent.ToString());
  }

  UpdateResult out;
  out.doc = SubtreeSplice::Insert(doc, parent_idx, at, region, subtree);
  out.delta.kind = DocumentDelta::Kind::kInsert;
  out.delta.old_doc = &doc;
  out.delta.new_doc = out.doc.get();
  out.delta.region = std::move(region);
  out.delta.region_size = subtree.size();
  return out;
}

Result<UpdateResult> DeleteSubtree(const Document& doc,
                                   const OrdPath& target) {
  NodeIndex target_idx = doc.FindByOrdPath(target);
  if (target_idx == kInvalidNode) {
    return Status::NotFound("delete target " + target.ToString() +
                            " not in document");
  }
  if (target_idx == doc.root()) {
    return Status::InvalidArgument("cannot delete the document root");
  }

  UpdateResult out;
  out.doc = SubtreeSplice::Delete(doc, target_idx);
  out.delta.kind = DocumentDelta::Kind::kDelete;
  out.delta.old_doc = &doc;
  out.delta.new_doc = out.doc.get();
  out.delta.region = target;
  out.delta.region_size = doc.subtree_end(target_idx) - target_idx;
  return out;
}

}  // namespace svx
