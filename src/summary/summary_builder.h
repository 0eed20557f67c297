// Linear-time strong-Dataguide construction (paper §2.3: "Strong Dataguides
// can be built and maintained in linear time out of tree-structured data").
// One pass over one document maps every node to its rooted label path and
// counts children per path, which yields the enhanced-summary integrity
// constraints (strong / one-to-one edges, §4.1). The build only reads the
// document: the node-to-path map is local to the call, so any number of
// threads may summarize one shared document. The pass compares label ids,
// not strings: each document label is interned into the summary once,
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

/// Builds the summary of one document; it holds no state between builds.
class SummaryBuilder {
 public:
  /// The sealed summary S(doc) of a non-empty document.
  static std::unique_ptr<Summary> Build(const Document* doc);
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
