// Sharded materialized-view catalog: partitions the document into N
// ORDPATH ranges cut at top-level subtree boundaries (shard_router.h) and
// runs one independent ViewCatalog per range — each with its own writer
// mutex, epoch stream, store directory and (optionally) write-ahead delta
// log — plus one "global" catalog holding the views whose rows cannot be
// attributed to a single range (AnalyzeViewAnchor).
//
// Writes: ApplyUpdate routes each DocumentDelta to the shard owning its
// region (ShardRouter::Route). In async mode every shard has a writer lane — a
// queue drained by a background thread that coalesces everything queued
// into ONE ApplyUpdateBatch pass publishing ONE epoch — so a burst of K
// deltas against one shard costs one maintenance pass, and writers against
// different shards share no mutex beyond the brief lock that records the
// latest document (which Materialize binds the skipped catalogs to).
//
// Reads: Snapshot() pins one CatalogSnapshot per shard (scatter);
// ShardedSnapshot::ExecuteQuery plans the query once, through shard 0's
// query entry point CatalogSnapshot::Rewrite (its cache and view index —
// every shard holds the same view definitions), executes that plan against
// each shard's extents in turn, and merges the slices in document order by
// the anchor ORDPATH (gather). Queries that are not shard-local (no
// anchoring return id, or nodes off the anchor spine), and anchored queries
// no shard view can answer, are served by the global catalog's
// CatalogSnapshot::Query instead.
//
// On-disk layout under the store directory:
//   shards.txt     one boundary ORDPATH per line (N-1 lines)
//   shard-<i>/     per-shard ViewCatalog store (manifest, extents, WAL)
//   global/        the global catalog's store
// Open() re-creates the router from shards.txt and Load()s every catalog,
// which replays each shard's delta log independently. A damaged shards.txt
// (see ShardRouter::Deserialize), or a shard-<k>/ directory at or past the
// router's shard count, fails Open instead of opening fewer shards.
#ifndef SVX_VIEWSTORE_SHARDED_CATALOG_H_
#define SVX_VIEWSTORE_SHARDED_CATALOG_H_

#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/viewstore/shard_router.h"
#include "src/viewstore/view_catalog.h"
#include "src/xml/update.h"

namespace svx {

struct ShardedCatalogOptions {
  /// Requested shard count; the effective count is capped by the number of
  /// top-level subtrees in the document (see ShardRouter::Partition).
  int num_shards = 4;
  /// Store directory (shards.txt + one subdirectory per catalog). Empty =
  /// in-memory.
  std::string dir;
  /// Per-shard write-ahead delta log (see view_catalog.h). Requires dir.
  bool enable_delta_log = false;
  /// Background writer lanes: ApplyUpdate enqueues and returns, a per-shard
  /// thread drains the queue in coalesced batches. When false, ApplyUpdate
  /// applies synchronously in the caller's thread.
  bool async = false;
  /// One decoded-extent memory budget shared by every shard catalog and the
  /// global catalog (view_catalog.h); <= 0 = unlimited.
  int64_t memory_budget_bytes = 0;
};

/// One pinned CatalogSnapshot per shard (plus the global catalog's), taken
/// without any cross-shard barrier: shards publish epochs independently, so
/// the per-shard snapshots may pin different document versions — readers
/// get per-shard consistency, not a cross-shard transaction.
class ShardedSnapshot {
 public:
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const std::shared_ptr<const CatalogSnapshot>& shard(int i) const {
    return shards_[static_cast<size_t>(i)];
  }
  const std::shared_ptr<const CatalogSnapshot>& global() const {
    return global_;
  }

  /// Scatter-gather query execution. Shard-local queries (the pattern has
  /// an anchoring return id and every node on its spine — the same test
  /// that shards views) are rewritten once on shard 0
  /// (CatalogSnapshot::Rewrite), executed against every shard's extents,
  /// and merged in document order; other queries, and shard-local ones
  /// shard 0 finds no rewriting for, are served by the global catalog
  /// (CatalogSnapshot::Query). Every pinned snapshot must carry a bound
  /// document and summary (BindDocument / shared-pointer Load). `trace`
  /// receives shard 0's rewrite spans (cache-lookup, and the rewrite phases
  /// on a miss), one shard-execute span per shard (attribute `shard`, the
  /// executor's operator spans under it) and a merge span, or the global
  /// catalog's Query spans on a fallback.
  [[nodiscard]] Result<Table> ExecuteQuery(const Pattern& query,
                                           TraceSpan* trace = nullptr) const;

  /// Sum of the pinned epochs across shards and global — the monotone
  /// counter benchmarks diff to count epochs published.
  uint64_t EpochSum() const;

 private:
  friend class ShardedCatalog;
  std::vector<std::shared_ptr<const CatalogSnapshot>> shards_;
  std::shared_ptr<const CatalogSnapshot> global_;
};

class ShardedCatalog {
 public:
  /// Partitions `doc` and creates empty shard catalogs bound to
  /// doc/summary. Writes shards.txt when options.dir is set.
  static Result<std::unique_ptr<ShardedCatalog>> Create(
      const ShardedCatalogOptions& options,
      std::shared_ptr<const Document> doc,
      std::shared_ptr<const Summary> summary);

  /// Recovers a store Create()d earlier: reads shards.txt, Load()s every
  /// catalog (replaying per-shard delta logs) against `doc`.
  static Result<std::unique_ptr<ShardedCatalog>> Open(
      const ShardedCatalogOptions& options,
      std::shared_ptr<const Document> doc,
      std::shared_ptr<const Summary> summary);

  /// Stops the writer lanes, draining their queues first.
  ~ShardedCatalog();

  ShardedCatalog(const ShardedCatalog&) = delete;
  ShardedCatalog& operator=(const ShardedCatalog&) = delete;

  int num_shards() const { return router_->num_shards(); }
  const ShardRouter& router() const { return *router_; }

  /// Evaluates `def` over `doc` once and registers the extent with every
  /// shard (each shard's partition filter keeps only its rows) — or, when
  /// the view is not partitionable, with the global catalog holding the
  /// full extent. Call at setup or after Flush(), with the latest document.
  /// Every catalog is first bound to the latest document (Create's or
  /// Open's, or the last ApplyUpdate's new_doc): updates skip the shards
  /// that do not own their region and an empty global catalog, and content
  /// cells resolve in their catalog's document.
  [[nodiscard]] Status Materialize(const ViewDef& def, const Document& doc);

  /// Routes `delta` to the shard owning its region (and to the global
  /// catalog when it holds views). Sync mode applies in this thread; async
  /// mode enqueues onto the shard's writer lane and returns — a lane drains
  /// its whole queue into one coalesced maintenance pass per wakeup.
  /// `new_doc` must be delta.new_doc.
  [[nodiscard]] Status ApplyUpdate(const DocumentDelta& delta,
                                   std::shared_ptr<const Document> new_doc,
                                   std::shared_ptr<const Summary> new_summary,
                                   TraceSpan* span = nullptr);

  /// Async mode: blocks until every lane's queue is empty and no batch is
  /// in flight, then returns the first sticky lane error (if any). Sync
  /// mode: returns OK immediately.
  [[nodiscard]] Status Flush();

  /// Checkpoints every catalog (Flush()es first in async mode): extents are
  /// persisted and each shard's delta log rotates and truncates.
  [[nodiscard]] Status Save();

  /// Pins one snapshot per shard plus the global catalog's (no barrier —
  /// see ShardedSnapshot).
  ShardedSnapshot Snapshot() const;

  /// One JSON object aggregating per-shard serving state: each shard's
  /// DebugMetrics() object (epoch id/age, WAL depth), the global catalog's,
  /// and cross-shard aggregates (epoch_sum, max_epoch_age_us,
  /// wal_depth_total). Also refreshes the per-shard
  /// svx_shard_epoch_age_us{shard="i"} gauges.
  std::string DebugMetrics() const;

  /// Direct access for tests and benchmarks.
  ViewCatalog* shard_catalog(int i) {
    return shards_[static_cast<size_t>(i)].get();
  }
  ViewCatalog* global_catalog() { return global_.get(); }

 private:
  /// One queued update: the delta plus shared ownership of its successor
  /// document/summary, pinned until the lane's batch publishes them.
  struct Pending {
    DocumentDelta delta;
    std::shared_ptr<const Document> new_doc;
    std::shared_ptr<const Summary> new_summary;
  };

  /// One writer lane: a queue drained by one background thread. The lane
  /// mutex orders producers; draining the whole queue per wakeup is the
  /// multi-writer batching.
  struct Lane {
    Mutex mu;
    CondVar cv;
    std::deque<Pending> queue SVX_GUARDED_BY(mu);
    bool busy SVX_GUARDED_BY(mu) = false;
    bool stop SVX_GUARDED_BY(mu) = false;
    Status error SVX_GUARDED_BY(mu);  // first failed batch, sticky
    std::thread thread;
  };

  ShardedCatalog(const ShardedCatalogOptions& options,
                 std::shared_ptr<const ShardRouter> router,
                 std::shared_ptr<const Document> doc,
                 std::shared_ptr<const Summary> summary);

  void StartLanes();
  void LaneLoop(Lane* lane, ViewCatalog* catalog);
  Status EnqueueTo(Lane* lane, const DocumentDelta& delta,
                   std::shared_ptr<const Document> new_doc,
                   std::shared_ptr<const Summary> new_summary);

  /// Binds every catalog whose epoch is not on doc_ to doc_/summary_. A
  /// skipped catalog's extents are unchanged by the updates it skipped
  /// (region routing), so only its document moves.
  void BindLatestDocument() SVX_EXCLUDES(doc_mu_);

  ShardedCatalogOptions options_;
  std::shared_ptr<const ShardRouter> router_;
  /// The latest document and its summary: Create's or Open's, then the
  /// new_doc of each accepted ApplyUpdate.
  Mutex doc_mu_;
  std::shared_ptr<const Document> doc_ SVX_GUARDED_BY(doc_mu_);
  std::shared_ptr<const Summary> summary_ SVX_GUARDED_BY(doc_mu_);
  std::vector<std::unique_ptr<ViewCatalog>> shards_;
  std::unique_ptr<ViewCatalog> global_;
  /// lanes_[i] drives shards_[i]; lanes_.back() drives global_ (async only).
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace svx

#endif  // SVX_VIEWSTORE_SHARDED_CATALOG_H_
