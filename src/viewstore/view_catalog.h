// Persistent materialized-view store (cf. the pequod cache server): a
// catalog of view definitions with their materialized extents and
// statistics, serialized to a store directory and reloaded on startup.
//
// Concurrency model: the catalog publishes immutable CatalogSnapshot epochs
// behind one swap-only pointer (catalog_snapshot.h). Readers call
// Snapshot() — a constant-time shared-locked pointer copy — and never
// block on maintenance work; every mutator serializes on an internal
// writer mutex, builds the successor epoch off the read path, and
// publishes it by swapping the pointer (the only instant the exclusive
// side of the epoch lock is held). std::atomic<std::shared_ptr> would make
// the read side lock-free outright, but libstdc++ 12's implementation is
// not ThreadSanitizer-clean (its lock-bit protocol trips TSan even on a
// minimal load/store loop), and a race-checkable store beats shaving one
// uncontended rwlock off a path that then rewrites and executes a query.
// The single-threaded convenience accessors (views(), Find(),
// rewrite_cache(), ExecutorCatalog(), ...) read the current epoch and
// return borrowed pointers that stay valid until the next mutation —
// concurrent readers must hold a Snapshot() instead.
//
// On-disk layout under the store directory:
//   manifest.txt            "svx-viewstore 3", then "epoch <E>",
//                           optionally "wal <G>", then one
//                           "view <name> <generation> <pattern>" line per
//                           view (ParsePattern syntax)
//   <name>.<gen>.extent     binary extent (see extent_io.h)
//   <name>.<gen>.stats      text statistics (see statistics.h)
//   wal.<gen>.log           write-ahead delta log segment (delta_log.h),
//                           present in delta-log mode
// Extent/stats files are immutable once written: every changed extent is
// saved under a fresh generation and the manifest is flipped last, so a
// crash at any point leaves the previous manifest referencing complete,
// unmixed files of the previous generations. Unreferenced generations (and
// WAL segments below the manifest's floor) are swept after a successful
// save and on Load(). Load() reads only this layout: any other manifest
// header, extent version or WAL segment version fails with the version it
// found, and such a store is rebuilt from the document.
//
// Delta-log durability (ViewCatalogOptions::enable_delta_log): instead of
// rewriting changed extents on every maintenance pass, ApplyUpdate appends
// one checksummed record to the current WAL segment before publishing. It
// holds, for every view the pass re-encoded (touched or rebuilt), the bytes
// a checkpoint would write for its .extent and .stats files. The manifest
// records the epoch E its extents capture and the segment-generation floor
// G; recovery loads the extents, reads records with epoch > E from segments
// >= G (tolerating a torn final record or header in the newest segment),
// installs each logged view's last entry the way the manifest's files are
// installed, and resumes. A successful Save() checkpoints: extents are
// persisted, the manifest advances E and G, the log rotates to a fresh
// segment and stale segments are swept.
#ifndef SVX_VIEWSTORE_VIEW_CATALOG_H_
#define SVX_VIEWSTORE_VIEW_CATALOG_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/algebra/executor.h"
#include "src/containment/memo.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/rewriting/view.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/viewstore/catalog_snapshot.h"
#include "src/viewstore/cost_model.h"
#include "src/viewstore/delta_log.h"
#include "src/viewstore/memory_budget.h"
#include "src/viewstore/rewrite_cache.h"
#include "src/viewstore/statistics.h"
#include "src/xml/update.h"

namespace svx {

/// What one ApplyUpdate pass did, per catalog.
struct MaintenanceStats {
  int32_t views_touched = 0;    // views whose extent changed
  int32_t views_rebuilt = 0;    // fell back to full rematerialization
  int32_t views_shared = 0;     // carried into the new epoch unchanged
  int64_t tuples_inserted = 0;  // across all incremental deltas
  int64_t tuples_deleted = 0;
  int32_t deltas_applied = 0;   // batch size of the pass
};

/// Construction options (the string-only constructor remains equivalent to
/// {.dir = s}).
struct ViewCatalogOptions {
  /// Store directory; created on Save() if missing. Empty = in-memory.
  std::string dir;
  /// Write-ahead delta-log durability (requires a store directory; see the
  /// file comment). Maintenance passes append to the log instead of
  /// rewriting extents; Save() checkpoints and rotates.
  bool enable_delta_log = false;
  /// Memory budget for decoded extents, in bytes; <= 0 = unlimited (every
  /// decoded extent stays resident — the pre-budget behavior). The
  /// compressed columnar extents are always resident; when the decoded
  /// tables exceed the budget the coldest are evicted and re-decoded
  /// lazily on the next access (memory_budget.h).
  int64_t memory_budget_bytes = 0;
  /// Share one budget across several catalogs (ShardedCatalog passes one
  /// to all shards). When set, memory_budget_bytes is ignored.
  std::shared_ptr<MemoryBudget> memory_budget;
};

/// Row-level partition filter for catalogs that store only one shard's
/// slice of each extent (ShardedCatalog installs one per shard). Called
/// under the writer mutex whenever a full extent enters the catalog — Add
/// and maintenance rebuilds — so persisted and maintained extents stay
/// shard-pure.
class ExtentPartition {
 public:
  virtual ~ExtentPartition() = default;
  /// Drops rows this partition does not own, in place. Must leave the
  /// extent of a view it cannot attribute untouched.
  virtual void Filter(const ViewDef& def, Table* extent) const = 0;
};

/// A set of materialized views backed by a store directory.
class ViewCatalog {
 public:
  ViewCatalog();
  /// `dir` is created on Save() if missing.
  explicit ViewCatalog(std::string dir);
  explicit ViewCatalog(ViewCatalogOptions options);

  const std::string& dir() const { return dir_; }
  int32_t size() const { return Current()->size(); }

  /// The current epoch's views (single-threaded convenience; see file
  /// comment for the borrowing rules).
  const std::vector<std::shared_ptr<const StoredView>>& views() const {
    return Current()->views();
  }

  /// The current epoch: a constant-time pointer copy under the shared side
  /// of the epoch lock (writers hold the exclusive side only for their
  /// final pointer swap — never while computing the successor). Readers
  /// hold the returned shared_ptr for as long as they use anything reached
  /// through it; the epoch (and the document it pins, if bound) stays
  /// alive until the last holder drops it.
  std::shared_ptr<const CatalogSnapshot> Snapshot() const
      SVX_EXCLUDES(snapshot_mu_) {
    metrics::SnapshotAcquisitions()->Add(1);
    ReaderMutexLock lock(&snapshot_mu_);
    return snapshot_;
  }

  /// Publishes a successor epoch that pins `doc` (and its `summary`) with
  /// shared ownership, so readers of that epoch keep the document alive.
  /// Use once at startup; afterwards ApplyUpdateBatch with a shared
  /// `new_doc` keeps successive epochs bound to successive documents.
  void BindDocument(std::shared_ptr<const Document> doc,
                    std::shared_ptr<const Summary> summary)
      SVX_EXCLUDES(writer_mu_);

  /// Evaluates `def` over `doc` and registers the result (replacing any
  /// same-named view). Statistics are computed at materialization time.
  [[nodiscard]] Status Materialize(const ViewDef& def, const Document& doc)
      SVX_EXCLUDES(writer_mu_);

  /// Registers an externally produced extent. Rows are brought into the
  /// canonical extent order (Table::SortRowsCanonical), so equal extents
  /// are stored byte-identically however they were produced.
  [[nodiscard]] Status Add(ViewDef def, Table extent)
      SVX_EXCLUDES(writer_mu_);

  /// Maintains every stored extent under a document update. The pass first
  /// routes the delta: a view whose pattern has no wildcard and none of the
  /// labels of the nodes the delta adds or removes carries its StoredView
  /// into the successor epoch without being decoded (counted in
  /// views_shared), since every embedding avoids those nodes and so exists
  /// in both versions with the same cells (a content cell is its node's
  /// ORDPATH, which the node keeps). Every other view is decoded and gets a
  /// tuple-level delta (src/maintenance/); the pass builds a successor
  /// epoch applying them — sharing untouched extents with the current
  /// epoch, falling back to rematerialization when incremental evaluation
  /// does not apply — refreshes statistics in O(|delta|) through per-view
  /// value-count caches, persists changed extents under fresh generations
  /// when the catalog has a store directory (in delta-log mode, logs them
  /// to the WAL instead), and publishes the successor, whose document() is
  /// delta.new_doc, with one pointer swap. Afterwards every extent is
  /// byte-identical to a fresh materialization over delta.new_doc. Readers
  /// of older epochs are undisturbed (but with this overload the epoch
  /// borrows delta.new_doc: the caller owns both documents' lifetimes, as
  /// with delta itself). A delta whose region does not name a non-root node
  /// of its document skips no view.
  [[nodiscard]] Status ApplyUpdate(const DocumentDelta& delta,
                                   MaintenanceStats* out_stats = nullptr)
      SVX_EXCLUDES(writer_mu_);

  /// Coalesced maintenance: applies an in-order run of deltas from one
  /// document's update history as ONE maintenance pass publishing ONE epoch
  /// — the multi-writer batching the sharded catalog's writer queues drain
  /// into. The run may be gapped (a shard's subsequence of the full
  /// stream), provided the omitted updates touch no rows of any stored
  /// view — the sharded catalog's region routing guarantees exactly this.
  /// `new_doc`, when given, must be the last delta's new_doc: the successor
  /// epoch then takes shared ownership of it and `new_summary`, so the
  /// writer may drop the old document right after — old-epoch readers keep
  /// it alive through their snapshot (concurrent serving uses this, also
  /// for a batch of one); without it the epoch borrows the last delta's
  /// new_doc, as ApplyUpdate does. The batch is routed as one delta whose
  /// added and removed nodes are every step's. Per view, the tuple deltas
  /// of the steps are folded over a private working extent. `span`
  /// (optional) gets a "maintenance_pass" child span carrying
  /// deltas/epoch/views_touched attrs (and the shard label when set).
  [[nodiscard]] Status ApplyUpdateBatch(
      const std::vector<DocumentDelta>& deltas,
      std::shared_ptr<const Document> new_doc,
      std::shared_ptr<const Summary> new_summary,
      MaintenanceStats* out_stats = nullptr, TraceSpan* span = nullptr)
      SVX_EXCLUDES(writer_mu_);

  /// Installs the shard row filter (see ExtentPartition). Set before the
  /// catalog is used concurrently.
  void SetExtentPartition(std::shared_ptr<const ExtentPartition> partition)
      SVX_EXCLUDES(writer_mu_);

  /// Tags this catalog's per-shard metric series (`...{shard="N"}`) and
  /// DebugMetrics()/trace output with a shard index. Set once at setup.
  void SetShardLabel(int shard) SVX_EXCLUDES(writer_mu_);

  /// Removes the named view from the catalog (files are swept on the next
  /// Save()). NotFound when no such view is registered.
  [[nodiscard]] Status Drop(const std::string& name)
      SVX_EXCLUDES(writer_mu_);

  const StoredView* Find(const std::string& name) const {
    return Current()->Find(name);
  }

  /// Total row-major serialized size of all extents.
  int64_t TotalBytes() const { return Current()->TotalBytes(); }

  /// Total compressed (columnar) size of all extents — what the store
  /// actually keeps resident; compare against TotalBytes() for the
  /// compression ratio.
  int64_t TotalCompressedBytes() const {
    return Current()->TotalCompressedBytes();
  }

  /// The current epoch's rewrite cache (src/viewstore/rewrite_cache.h):
  /// the cache of its summary's structure for the current view set. Add,
  /// Drop and Load drop every cache and start an empty one. A document
  /// change with a summary (ApplyUpdateBatch / BindDocument) keeps the
  /// cache when the summary StructurallyEquals the bound one, and otherwise
  /// serves the cache of the new summary's structure, created the first
  /// time that structure appears (up to kMaxRewriteCaches structures; the
  /// table is dropped whole when full). A document change without a
  /// summary, or with none bound before, starts empty. All of the catalog's
  /// caches share one set of cumulative hit/miss/invalidation counters.
  RewriteCache* rewrite_cache() const { return Current()->rewrite_cache(); }

  /// Structures whose rewrite caches the catalog keeps at once.
  static constexpr size_t kMaxRewriteCaches = 256;

  /// The current epoch's pinned containment memo (pass as
  /// RewriterOptions::memo). Shared across view-set-only mutations, whose
  /// decisions it does not affect, and across document changes whose
  /// summary StructurallyEquals the bound one; every other document change
  /// (ApplyUpdate / Load / BindDocument) starts a fresh one.
  ContainmentMemo* containment_memo() const {
    return Current()->containment_memo();
  }

  /// Writes manifest, extents and statistics under dir(). Crash-safe:
  /// changed extents are written under fresh generation-suffixed names
  /// (plus a temp-file + rename per file), the manifest is renamed into
  /// place last, and only then are unreferenced generations swept — an
  /// interrupted save leaves the previous manifest pointing at the
  /// previous, still complete files.
  [[nodiscard]] Status Save() const SVX_EXCLUDES(writer_mu_);

  /// Replaces the catalog contents with the store at dir(). The loaded
  /// epoch borrows `doc` as its document() (the caller keeps it alive).
  /// Every content reference of the store's extents and WAL entries must
  /// name a node of `doc` (may be nullptr when no view stores content). A
  /// manifest that names a view twice, or statistics that do not fit their
  /// extent (CheckViewStatsFit), are a ParseError.
  [[nodiscard]] Status Load(const Document* doc) SVX_EXCLUDES(writer_mu_);

  /// Load for concurrent serving: the loaded epoch owns `doc`/`summary`.
  [[nodiscard]] Status Load(std::shared_ptr<const Document> doc,
                            std::shared_ptr<const Summary> summary)
      SVX_EXCLUDES(writer_mu_);

  /// Executor bindings for the current epoch's extents (borrowed pointers;
  /// valid until the next mutation — concurrent readers use
  /// Snapshot()->ExecutorCatalog()).
  Catalog ExecutorCatalog() const { return Current()->ExecutorCatalog(); }

  /// Cost model over all registered views' statistics (by value; prefer
  /// Snapshot()->cost_model() to avoid the copy).
  CostModel BuildCostModel() const { return Current()->cost_model(); }

  /// One JSON object describing the current epoch for debug endpoints:
  /// epoch id and age, view count and bytes, live epoch count, and the
  /// epoch's rewrite-cache counters. Also refreshes the svx_epoch_current
  /// and svx_epoch_age_us gauges so a registry render taken afterwards
  /// reflects this catalog.
  std::string DebugMetrics() const;

  /// WAL records appended since the last checkpoint — the replay depth a
  /// crash right now would incur (0 without a delta log).
  int64_t wal_depth() const {
    return wal_depth_.load(std::memory_order_relaxed);
  }

  /// The decoded-extent memory budget this catalog charges (never null;
  /// unlimited unless configured, possibly shared across catalogs).
  const std::shared_ptr<MemoryBudget>& memory_budget() const {
    return budget_;
  }

 private:
  /// The current epoch for the single-threaded convenience accessors. The
  /// returned shared_ptr keeps the epoch alive for the full expression;
  /// borrowed pointers derived from it stay valid while the catalog still
  /// holds that epoch (i.e. until the next mutation).
  std::shared_ptr<const CatalogSnapshot> Current() const { return Snapshot(); }

  /// What a published epoch replaces; decides what it carries over.
  enum class Change {
    kViews,     // Add / Drop: a new view set over the same document
    kStore,     // Load: a new view set and document
    kDocument,  // ApplyUpdate / BindDocument: a new document, same views
  };

  /// Builds and publishes the successor epoch (writer mutex held). kStore
  /// and kDocument bind the epoch's document/summary to the given values
  /// (the document possibly borrowed, the summary possibly null), except
  /// that a kDocument summary that StructurallyEquals the bound one keeps
  /// the bound object; kViews keeps the current bindings, and doc/summary
  /// must be null. The executor catalog's document is the epoch's. The
  /// rewrite cache, memo and view index follow the rules of rewrite_cache()
  /// and containment_memo().
  void PublishLocked(std::vector<std::shared_ptr<const StoredView>> views,
                     std::shared_ptr<const Document> doc,
                     std::shared_ptr<const Summary> summary, Change change)
      SVX_REQUIRES(writer_mu_);

  /// Drops every structure's rewrite cache, counting one invalidation when
  /// any of them, or `bound` (the epoch's cache, possibly not in the
  /// table), held plans.
  void DropRewriteCachesLocked(const RewriteCache* bound)
      SVX_REQUIRES(writer_mu_);

  /// The rewrite-cache table's slot for a structure key (null when new);
  /// adding a key to a full table drops the table first.
  std::shared_ptr<RewriteCache>& RewriteCacheSlotLocked(const std::string& key)
      SVX_REQUIRES(writer_mu_);

  /// Writes every not-yet-persisted view under a fresh generation, flips
  /// the manifest recording `epoch` as the persisted state (and the WAL
  /// floor in delta-log mode), sweeps unreferenced files (writer mutex
  /// held). In delta-log mode this is the checkpoint: the log rotates to a
  /// fresh segment and stale segments are swept.
  Status PersistLocked(
      const std::vector<std::shared_ptr<const StoredView>>& views,
      uint64_t epoch) const SVX_REQUIRES(writer_mu_);

  Status ApplyUpdateBatchImpl(const std::vector<DocumentDelta>& deltas,
                              std::shared_ptr<const Document> new_doc,
                              std::shared_ptr<const Summary> new_summary,
                              MaintenanceStats* out_stats, TraceSpan* span)
      SVX_EXCLUDES(writer_mu_);
  Status LoadImpl(std::shared_ptr<const Document> doc,
                  std::shared_ptr<const Summary> summary)
      SVX_EXCLUDES(writer_mu_);

  /// Opens (lazily) the current WAL segment for appending.
  Status EnsureWalLocked() const SVX_REQUIRES(writer_mu_);

  std::string dir_;
  bool enable_delta_log_ = false;
  /// Decoded-extent accounting; every StoredView's residency slot is
  /// charged here. Set in the ctor, immutable afterwards.
  std::shared_ptr<MemoryBudget> budget_;
  /// Serializes every mutator (and Save). Readers never take it.
  mutable Mutex writer_mu_;
  /// Guards only snapshot_ itself: shared for the reader pointer copy,
  /// exclusive for the writer's publish swap.
  mutable SharedMutex snapshot_mu_;
  std::shared_ptr<const CatalogSnapshot> snapshot_ SVX_GUARDED_BY(snapshot_mu_);
  uint64_t next_epoch_ SVX_GUARDED_BY(writer_mu_) = 1;
  mutable uint64_t next_generation_ SVX_GUARDED_BY(writer_mu_) = 1;
  /// True once the generation counters are seeded from dir_ (by Load or
  /// by PersistLocked's directory scan): next_generation_ exceeds every
  /// extent generation there, and wal_generation_ names a segment of this
  /// catalog's own log — the cross-process never-reuse guard.
  mutable bool generation_seeded_ SVX_GUARDED_BY(writer_mu_) = false;

  /// The cumulative counters every rewrite cache of this catalog shares.
  const std::shared_ptr<RewriteCache::Counters> cache_counters_ =
      std::make_shared<RewriteCache::Counters>();
  /// Rewrite caches of the current view set by Summary::StructureKey. The
  /// bound summary's cache enters the table when an update moves to another
  /// structure, so the key is computed only for summaries that differ.
  std::unordered_map<std::string, std::shared_ptr<RewriteCache>>
      rewrite_caches_ SVX_GUARDED_BY(writer_mu_);

  /// Shard row filter (null = whole extents); writer-side only.
  std::shared_ptr<const ExtentPartition> partition_ SVX_GUARDED_BY(writer_mu_);
  /// Shard label (-1 = none). Atomic: set once at setup, read by the
  /// lock-free DebugMetrics path.
  std::atomic<int> shard_{-1};
  /// Cached `...{shard="N"}` labeled handles (set by SetShardLabel so the
  /// maintenance hot path never does a registry lookup).
  std::atomic<Counter*> shard_passes_{nullptr};
  std::atomic<Counter*> shard_deltas_{nullptr};
  std::atomic<Gauge*> shard_epoch_age_{nullptr};

  // ---- Delta-log state (all writer-side; mutable because Save() and
  // PersistLocked are const like next_generation_) ----
  /// Open segment for appends; null until the first WAL write.
  mutable std::unique_ptr<DeltaLog> wal_ SVX_GUARDED_BY(writer_mu_);
  /// Generation of the segment appends go to.
  mutable uint64_t wal_generation_ SVX_GUARDED_BY(writer_mu_) = 1;
  /// Oldest segment generation recovery must replay (the manifest's floor).
  mutable uint64_t wal_floor_ SVX_GUARDED_BY(writer_mu_) = 1;
  /// Records appended since the last checkpoint — the replay depth a crash
  /// right now would incur. Atomic only for DebugMetrics visibility.
  mutable std::atomic<int64_t> wal_depth_{0};
};

}  // namespace svx

#endif  // SVX_VIEWSTORE_VIEW_CATALOG_H_
