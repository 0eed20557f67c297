// Document updates with stable structural identifiers (the ID-based storage
// design of paper §1 "Exploiting ID properties"): a subtree insert or delete
// produces a new Document plus a DocumentDelta naming the affected ORDPATH
// region. The new version splices the old one's flat buffers (document.h):
// the label id, parent and subtree-end arrays, and the ORDPATH and value
// bytes with their end offsets, are copied with a few memcpys; indexes and
// offsets past the splice point shift by the region's size; a deleted
// subtree's bytes are dropped; and the label interner is shared with the
// old version unless an insert brings a label it lacks. So an update
// copies bytes, not nodes: it allocates a handful of buffers and makes no
// per-node string lookup.
// Surviving nodes keep their ORDPATH ids bit-for-bit:
//   * DeleteSubtree leaves sibling ordinals untouched (ordinal gaps are
//     legal Dewey ids, document order is preserved),
//   * InsertSubtree without an `insert_before` sibling appends the new
//     subtree as the last child of its parent with ordinal
//     max(existing child ordinals) + 1,
//   * InsertSubtree before a given sibling carets the new subtree's root id
//     between its neighbors (OrdPath::CaretBefore), so the insert lands in
//     document order without renumbering anything.
// Stability is what makes incremental view maintenance possible: extents
// key tuples by ORDPATH, so tuples of unaffected nodes never change.
// Ids are unique within each document version but not across history: a
// slot vacated by a delete (the max ordinal for appends, a caret position
// for insert-before) may be minted again by a later insert. Maintenance
// is per-delta — every delta is evaluated against one (old, new) version
// pair — so re-minted ids are indistinguishable from fresh ones there;
// consumers correlating ids across many versions (e.g. a future delta
// log) must pair them with a version number.
#ifndef SVX_XML_UPDATE_H_
#define SVX_XML_UPDATE_H_

#include <memory>

#include "src/util/status.h"
#include "src/xml/document.h"

namespace svx {

/// Describes one applied subtree update. Both documents are borrowed: the
/// caller keeps them alive while the delta (or anything derived from it,
/// e.g. a maintenance pass over a ViewCatalog) is in use.
struct DocumentDelta {
  enum class Kind { kInsert, kDelete };

  Kind kind = Kind::kInsert;
  const Document* old_doc = nullptr;
  const Document* new_doc = nullptr;

  /// ORDPATH of the affected subtree root: the inserted subtree's root (an
  /// id of new_doc) for kInsert, the deleted subtree's root (an id of
  /// old_doc) for kDelete. Every added/removed node has `region` as an
  /// ORDPATH prefix; every other node survives with an unchanged id.
  OrdPath region;

  /// Number of nodes added (kInsert) or removed (kDelete).
  int32_t region_size = 0;
};

/// A freshly built document together with the delta leading to it.
struct UpdateResult {
  std::unique_ptr<Document> doc;
  /// delta.new_doc == doc.get(); delta.old_doc is the input document.
  DocumentDelta delta;
};

/// Inserts a copy of `subtree` (a standalone document; its root becomes the
/// new node) as a child of the node identified by `parent`: immediately
/// before the sibling identified by `*insert_before` when given (the new
/// root's id is careted between its neighbors), as the last child
/// otherwise. Fails with NotFound if `parent` is not in `doc`, or if
/// `insert_before` does not name a child of `parent`. Fails with
/// InvalidArgument where SerializeXml could not write the result back as
/// the same tree: under an attribute ("@" label), an attribute with
/// children or without a value, an attribute after an element sibling, or
/// an element before an attribute sibling. Neither function builds the new
/// version's summary; SummaryBuilder::Build reads it from the new document.
[[nodiscard]] Result<UpdateResult> InsertSubtree(
    const Document& doc, const OrdPath& parent, const Document& subtree,
    const OrdPath* insert_before = nullptr);

/// Removes the subtree rooted at the node identified by `target`. Fails if
/// `target` is not in `doc` or is the document root.
[[nodiscard]] Result<UpdateResult> DeleteSubtree(const Document& doc,
                                                 const OrdPath& target);

}  // namespace svx

#endif  // SVX_XML_UPDATE_H_
