// Shard routing for the sharded catalog: the document is partitioned into N
// contiguous ORDPATH ranges cut at top-level subtree boundaries (the
// LiquidXML-style subtree/path-range fragmentation), and both document
// deltas and view extent rows route to the shard owning their range.
//
// Why top-level subtrees: ORDPATH order is document order with ancestors
// preceding descendants, so the subtree of a depth-2 node is exactly the
// half-open ORDPATH interval [id, next-sibling-id). Cutting only at depth-2
// boundaries means any update region (always depth >= 2 — root insert/delete
// is forbidden) falls entirely inside one shard, and any anchored view row
// belongs to the shard of its anchor node.
#ifndef SVX_VIEWSTORE_SHARD_ROUTER_H_
#define SVX_VIEWSTORE_SHARD_ROUTER_H_

#include <string>
#include <vector>

#include "src/pattern/pattern.h"
#include "src/util/status.h"
#include "src/xml/document.h"
#include "src/xml/node_id.h"

namespace svx {

/// Immutable ORDPATH-range partition of a document. Shard i covers ids in
/// [boundaries()[i-1], boundaries()[i]) with shard 0 covering everything
/// before boundaries()[0] (the root id among it) and the last shard
/// everything after the final boundary. Boundaries are the ORDPATHs of the
/// top-level children starting shards 1..N-1.
class ShardRouter {
 public:
  /// Cuts `doc` into at most `num_shards` ranges, greedily balancing
  /// top-level subtree sizes. The effective shard count is
  /// min(num_shards, number of top-level children), never less than 1.
  static ShardRouter Partition(const Document& doc, int num_shards);

  int num_shards() const {
    return static_cast<int>(boundaries_.size()) + 1;
  }

  /// Shard owning `id`: the number of boundaries <= id in document order.
  /// Total — every valid ORDPATH routes somewhere, including ids careted
  /// between existing siblings.
  int Route(const OrdPath& id) const;

  const std::vector<OrdPath>& boundaries() const { return boundaries_; }

  /// One line per boundary, for the shards.txt manifest.
  std::string Serialize() const;
  /// Rebuilds a router from Serialize() output (recovery path). A line that
  /// is not an ORDPATH, a boundary whose depth is not 2, or boundaries that
  /// are not strictly increasing are a ParseError: a damaged file must not
  /// open as a store with fewer shards.
  [[nodiscard]] static Result<ShardRouter> Deserialize(const std::string& text);

 private:
  explicit ShardRouter(std::vector<OrdPath> boundaries)
      : boundaries_(std::move(boundaries)) {}

  std::vector<OrdPath> boundaries_;  // sorted, depth-2 ORDPATHs
};

/// Result of the per-view partitionability analysis.
struct ViewAnchor {
  /// True when every row of the view can be attributed to one shard.
  bool partitionable = false;
  /// The anchor return node (first qualifying ID return node in preorder).
  PatternNodeId node = -1;
  /// Index of the anchor's ".id" column in the view schema.
  int32_t column = -1;
};

/// Decides whether a view's extent can be row-partitioned by shard. A view
/// is partitionable iff it has a return node `a` carrying kAttrId such that
///   * `a` is not the pattern root (root rows span every shard),
///   * `a` is at nesting depth 0 (its id appears as a top-level column and
///     is never null),
///   * no edge on the root path to `a` is optional (so the column is never
///     ⊥-padded),
///   * every pattern node is an ancestor-or-self of `a` or a descendant of
///     `a` — then a document change inside one top-level subtree can only
///     create or delete rows whose anchor lies in that same subtree.
/// Views failing the test go to the catalog's global (unsharded) store.
ViewAnchor AnalyzeViewAnchor(const Pattern& pattern,
                             const std::string& view_name);

}  // namespace svx

#endif  // SVX_VIEWSTORE_SHARD_ROUTER_H_
