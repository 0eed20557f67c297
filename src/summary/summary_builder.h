// Linear-time strong-Dataguide construction (paper §2.3: "Strong Dataguides
// can be built and maintained in linear time out of tree-structured data").
// Building also annotates the document with per-node path ids and computes
// the enhanced-summary integrity constraints (strong / one-to-one edges) by
// counting children during the single pass (§4.1). The pass compares label
// ids, not strings: each document label is interned into the summary once,
// through a table indexed by the document's label id, and children are
// counted per path in a flat array reset per parent. Paths are numbered in
// order of first occurrence, so a document and the same tree parsed afresh
// get the same summary. Rebuilding after an update is still linear in the
// document; maintaining the summary from a delta alone is open work.
#ifndef SVX_SUMMARY_SUMMARY_BUILDER_H_
#define SVX_SUMMARY_SUMMARY_BUILDER_H_

#include <memory>

#include "src/summary/summary.h"
#include "src/xml/document.h"

namespace svx {

/// Builds the summary of `doc`, annotating `doc` with path ids and the
/// by-path node index (Document::nodes_on_path).
class SummaryBuilder {
 public:
  /// Single-document build + annotate.
  static std::unique_ptr<Summary> Build(Document* doc);

  /// Incremental build across several documents sharing one vocabulary
  /// (used to grow a summary the way the paper grows XMark11 -> XMark233).
  SummaryBuilder();
  void Add(Document* doc);
  std::unique_ptr<Summary> Finish();

 private:
  std::unique_ptr<Summary> summary_;
  // Per summary edge (indexed by child path id): statistics over all
  // document nodes seen on the parent path.
  std::vector<int64_t> parent_occurrences_;  // nodes on parent path
  std::vector<int64_t> min_children_;        // min #children on this path
  std::vector<int64_t> max_children_;        // max #children on this path
};

/// True iff S(doc) equals `summary` (paper: S1 |= d iff S(d) = S1),
/// including the integrity-constraint flags.
bool Conforms(const Document& doc, const Summary& summary);

/// Weak conformance: every rooted path of `doc` exists in `summary` and
/// strong edges of `summary` are respected by `doc`. This is the |= used
/// when evaluating patterns over canonical trees, which are sub-documents.
bool WeaklyConforms(const Document& doc, const Summary& summary);

}  // namespace svx

#endif  // SVX_SUMMARY_SUMMARY_BUILDER_H_
