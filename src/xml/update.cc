#include "src/xml/update.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace svx {

/// Builds the next document version by splicing the previous version's
/// flat buffers: surviving nodes keep their label ids (under the old
/// interner, shared unless the subtree brings a new label), ORDPATH bytes
/// and values, node indexes past the splice point shift by the region
/// size, and byte offsets past it by the region's bytes. Every array and
/// buffer is copied with a few memcpys and one pass of offset shifts; a
/// deleted subtree's bytes are dropped.
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
  /// `old`'s node range [from, to) appended to `dst`, each offset moved by
  /// `shift` (modulo 2^32: a negative shift wraps). A shift never carries
  /// into kHasValue, since every offset stays below it.
  static void AppendShifted(const std::vector<uint32_t>& old, NodeIndex from,
                            NodeIndex to, uint32_t shift,
                            std::vector<uint32_t>* dst) {
    for (NodeIndex i = from; i < to; ++i) {
      dst->push_back(old[static_cast<size_t>(i)] + shift);
    }
  }

  /// `old` with `sub` spliced in at node `at`: the buffer bytes, then the
  /// end offsets (`sub`'s node range shifted to where it lands).
  static void SpliceIn(const std::string& old_bytes,
                       const std::vector<uint32_t>& old_ends,
                       const std::string& sub_bytes,
                       const std::vector<uint32_t>& sub_ends, NodeIndex at,
                       std::string* bytes, std::vector<uint32_t>* ends) {
    const uint32_t head = Document::Begin(old_ends, static_cast<size_t>(at));
    const auto added = static_cast<uint32_t>(sub_bytes.size());
    SVX_CHECK_MSG(old_bytes.size() + added < Document::kHasValue,
                  "document buffer exceeds 2 GiB");
    bytes->reserve(old_bytes.size() + added);
    bytes->append(old_bytes, 0, head);
    bytes->append(sub_bytes);
    bytes->append(old_bytes, head);
    ends->reserve(old_ends.size() + sub_ends.size());
    ends->assign(old_ends.begin(), old_ends.begin() + at);
    AppendShifted(sub_ends, 0, static_cast<NodeIndex>(sub_ends.size()), head,
                  ends);
    AppendShifted(old_ends, at, static_cast<NodeIndex>(old_ends.size()), added,
                  ends);
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

/// `d`'s interner, or a copy that also holds every label of `sub` when `d`
/// lacks one; `*sub_labels` maps `sub`'s label ids to the result's.
std::shared_ptr<const StringInterner> MergeLabels(
    const std::shared_ptr<const StringInterner>& base, const Document& sub,
    std::vector<int32_t>* sub_labels) {
  std::shared_ptr<StringInterner> grown;
  const StringInterner* labels = base.get();
  sub_labels->resize(static_cast<size_t>(sub.labels().size()));
  for (int32_t l = 0; l < sub.labels().size(); ++l) {
    const std::string& s = sub.labels().Get(l);
    int32_t id = labels->Find(s);
    if (id == StringInterner::kNone) {
      if (grown == nullptr) {
        grown = std::make_shared<StringInterner>(*base);
        labels = grown.get();
      }
      id = grown->Intern(s);
    }
    (*sub_labels)[static_cast<size_t>(l)] = id;
  }
  if (grown == nullptr) return base;
  return grown;
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
  std::vector<int32_t> sub_labels;
  o.label_interner_ = MergeLabels(d.label_interner_, sub, &sub_labels);

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

  SpliceIn(d.values_, d.value_ends_, sub.values_, sub.value_ends_, at,
           &o.values_, &o.value_ends_);

  // The subtree's ids are re-rooted under `region`: its root's "1" (one
  // byte) becomes the region's bytes.
  std::string sub_ids;
  std::vector<uint32_t> sub_id_ends;
  sub_ids.reserve(sub.ids_.size() +
                  static_cast<size_t>(k) * region.bytes().size());
  sub_id_ends.reserve(static_cast<size_t>(k));
  for (NodeIndex j = 0; j < k; ++j) {
    sub_ids.append(region.bytes());
    sub_ids.append(sub.IdBytes(j).substr(1));
    sub_id_ends.push_back(static_cast<uint32_t>(sub_ids.size()));
  }
  SpliceIn(d.ids_, d.id_ends_, sub_ids, sub_id_ends, at, &o.ids_, &o.id_ends_);
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

  // The removed nodes' bytes go; later offsets move back by their count.
  auto cut = [&](const std::string& bytes, const std::vector<uint32_t>& ends,
                 std::string* dst, std::vector<uint32_t>* dst_ends) {
    const uint32_t from = Document::Begin(ends, static_cast<size_t>(target));
    const uint32_t to = Document::Begin(ends, static_cast<size_t>(end));
    dst->reserve(bytes.size() - (to - from));
    dst->append(bytes, 0, from);
    dst->append(bytes, to);
    dst_ends->reserve(total);
    dst_ends->assign(ends.begin(), ends.begin() + head);
    AppendShifted(ends, end, d.size(), from - to, dst_ends);
  };
  cut(d.values_, d.value_ends_, &o.values_, &o.value_ends_);
  cut(d.ids_, d.id_ends_, &o.ids_, &o.id_ends_);
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
  // attribute is a leaf with a value (XML writes a valueless one as x="",
  // which reads back with an empty value), and an element's attributes
  // precede its other children.
  if (IsAttribute(doc.label(parent_idx))) {
    return Status::InvalidArgument("cannot insert under attribute " +
                                   parent.ToString());
  }
  const bool attribute = IsAttribute(subtree.label(subtree.root()));
  if (attribute && subtree.size() > 1) {
    return Status::InvalidArgument("attribute " + subtree.label(0) +
                                   " cannot have children");
  }
  if (attribute && !subtree.has_value(subtree.root())) {
    return Status::InvalidArgument("attribute " + subtree.label(0) +
                                   " has no value");
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
    // extends the parent's bytes, so the child's ordering key at this level
    // is its first component past the parent prefix — carets included, its
    // last component would misread careted children. Note ids are
    // unique per document version, not across history: if the
    // largest-ordinal child was deleted earlier, its ordinal (like a
    // caret slot vacated by a delete) can be minted again.
    int32_t max_ordinal = 0;
    for (NodeIndex c = doc.first_child(parent_idx); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      size_t level = parent.bytes().size();
      max_ordinal =
          std::max(max_ordinal, doc.ord_path(c).ComponentAt(&level));
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
