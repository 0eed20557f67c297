// One immutable epoch of the view store, shared between concurrent readers.
//
// The read-mostly serving model (cf. LiquidXML-style redistribution while
// serving): readers acquire the current CatalogSnapshot with a
// shared-locked pointer copy (ViewCatalog::Snapshot()) and then work
// entirely against its immutable world — view definitions, extents, the
// document their content references resolve in, statistics, a prebuilt
// cost model, a lazily built shared ViewIndex, an executor catalog that
// resolves view names against the epoch's views, plus the snapshot's pinned
// containment memo and rewrite cache (both internally synchronized). The
// memo, cache and index may be shared with neighbouring epochs: epochs of
// one summary object share all three, and epochs of one summary structure
// (with the same view set) share the rewrite cache, whose plans hold on
// every document of that structure.
// Query() is the one query entry point over that world: it plans through
// Rewrite() (rewrite cache, memo, shared ViewIndex and cost model) and
// executes the cheapest plan over the epoch's extents, so a reader serves a
// query with `catalog.Snapshot()->Query(pattern)`.
// Writers (Materialize / Add / Drop / ApplyUpdate / Load) never mutate a
// published snapshot: they build a successor off the read path under the
// catalog's writer mutex and publish it with a single pointer swap. An old
// epoch is retired automatically when its last reader drops the
// shared_ptr; extents the maintenance pass did not touch are shared
// between epochs (copy-on-maintenance), so a snapshot swap is cheap.
#ifndef SVX_VIEWSTORE_CATALOG_SNAPSHOT_H_
#define SVX_VIEWSTORE_CATALOG_SNAPSHOT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/columnar.h"
#include "src/algebra/executor.h"
#include "src/containment/memo.h"
#include "src/rewriting/view.h"
#include "src/rewriting/view_index.h"
#include "src/summary/summary.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/viewstore/cost_model.h"
#include "src/viewstore/memory_budget.h"
#include "src/viewstore/rewrite_cache.h"
#include "src/viewstore/statistics.h"
#include "src/xml/document.h"

namespace svx {

/// One catalog entry: definition, compressed columnar extent, statistics,
/// serialized sizes. Immutable once published in a snapshot — maintenance
/// replaces the whole object (copy-on-maintenance) instead of editing it in
/// place, so readers of older epochs keep a consistent extent.
///
/// The extent's truth is `columnar` (columnar.h): dictionary/delta
/// compressed and always resident. A view that an epoch does not touch
/// carries its whole StoredView into the next epoch. The decoded row-major
/// table is a cache managed by the catalog's MemoryBudget — `table()`
/// decodes on demand and the budget may evict the decoded form again under
/// memory pressure (the compressed truth never leaves).
struct StoredView {
  ViewDef def;
  ViewStats stats;
  /// Row-major serialized size (ExtentByteSize), maintained incrementally
  /// by maintenance: the bytes the decoded table charges against the
  /// memory budget.
  int64_t extent_bytes = 0;
  /// The compressed extent. Never null on a published view. Its
  /// SerializedByteSize is what it costs to keep resident.
  ColumnarExtentPtr columnar;
  /// This view's decoded-table slot in the catalog's MemoryBudget.
  std::shared_ptr<ExtentResidency> residency;

  /// The decoded extent, pinned: the returned shared_ptr keeps the table
  /// alive across evictions. Decodes on a miss (counted as a reload).
  [[nodiscard]] Result<TablePtr> table() const;

  /// The resident decoded table, or null without decoding.
  TablePtr TryResident() const;

  /// Installs `t` as the resident decoded table (charging extent_bytes to
  /// the budget); keeps the first installation on a race.
  void InstallResident(TablePtr t) const;

  /// Persistence generation of this extent's on-disk files
  /// ("<name>.<generation>.extent"/".stats"); 0 = not persisted yet.
  /// Writer-private: assigned under the catalog's writer mutex when the
  /// view is saved, never read on the read path.
  mutable uint64_t generation = 0;

  /// Per-column value counts for O(|delta|) statistics refresh
  /// (statistics.h). Writer-private like `generation`: built on first
  /// maintenance, handed to the successor StoredView on every ApplyUpdate,
  /// never read on the read path.
  mutable std::shared_ptr<ValueCountCache> value_counts;
};

/// An immutable epoch of the catalog (see file comment). Construction and
/// publication are the ViewCatalog's business; readers only consume.
class CatalogSnapshot {
 public:
  /// Maintains the svx_epochs_live gauge: +1 at construction, -1 when the
  /// last holder (reader or catalog) drops the epoch — live minus one is
  /// the number of retired epochs still pinned by readers.
  ~CatalogSnapshot();
  // ExecutorCatalog() resolves names through a callback that holds `this`.
  CatalogSnapshot(const CatalogSnapshot&) = delete;
  CatalogSnapshot& operator=(const CatalogSnapshot&) = delete;

  /// Monotonically increasing epoch number (1 = the catalog's initial
  /// empty snapshot).
  uint64_t epoch() const { return epoch_; }

  /// Microseconds since this epoch was constructed (≈ published): the
  /// serving staleness the future server's admission control gates on.
  int64_t AgeMicros() const;

  const std::vector<std::shared_ptr<const StoredView>>& views() const {
    return views_;
  }
  int32_t size() const { return static_cast<int32_t>(views_.size()); }

  const StoredView* Find(const std::string& name) const;

  /// Total row-major serialized size of all extents (ExtentByteSize).
  int64_t TotalBytes() const;

  /// Total compressed columnar size of all extents.
  int64_t TotalCompressedBytes() const;

  /// The document this epoch's content references resolve in (the
  /// executor catalog's document), set by every bind, load and update.
  /// The epoch owns it when the catalog serves with shared ownership
  /// (ViewCatalog::BindDocument, ApplyUpdateBatch with a shared new_doc,
  /// the shared-pointer Load): holding the snapshot then keeps the
  /// document alive, which lets a maintenance pass retire the old document
  /// while old-epoch readers still read it. In the caller-owned modes
  /// (Load(const Document*), ApplyUpdate(delta)) the epoch borrows it and
  /// the caller keeps it alive. Null before any document is bound.
  const Document* document() const { return doc_.get(); }

  /// The summary of document(), when bound; nullptr otherwise. An update
  /// whose summary StructurallyEquals the bound one keeps the bound object
  /// (same numbering, so document()'s path ids agree with it): successive
  /// epochs may return the same summary for different documents.
  const Summary* summary() const { return summary_.get(); }

  /// Executor bindings for this epoch's extents: a scan resolves its view
  /// name against views() and reads through StoredView::table(), so it pins
  /// the resident decoded table, and a cold scan decodes the whole extent
  /// once and installs it under the memory budget. Content navigation
  /// resolves references in document(). Nothing is bound per view, so
  /// neither a read nor a publish builds a catalog. The reference is owned
  /// by the epoch and valid while the caller holds the snapshot
  /// shared_ptr.
  const Catalog& ExecutorCatalog() const;

  /// Cost model over this epoch's statistics, prebuilt at publication.
  const CostModel& cost_model() const { return cost_model_; }

  /// The cheapest equivalent rewriting of `query` over this epoch's views
  /// (one result: RewriterOptions::max_results 1, other options at their
  /// defaults). Probes the epoch's rewrite cache first, under a key salt
  /// computed once per epoch on first use, so a hit builds no Rewriter and
  /// copies no view definition; only a miss plans, through the containment
  /// memo, shared ViewIndex and cost model. InvalidArgument when no summary
  /// is bound (BindDocument / the shared-pointer Load); NotFound when no
  /// rewriting exists. `trace` receives the cache-lookup span and, on a
  /// miss, the rewrite phase spans; `stats` the search counters (replayed
  /// from the cache on a hit).
  [[nodiscard]] Result<Rewriting> Rewrite(const Pattern& query,
                                          TraceSpan* trace = nullptr,
                                          RewriteStats* stats = nullptr) const;

  /// The query entry point: Rewrite(), then Execute the plan over
  /// ExecutorCatalog() under the same trace. Same errors as Rewrite(), plus
  /// any execution error; an execution NotFound (the plan names a view the
  /// epoch cannot scan) is reported as Internal, so NotFound always means
  /// that no rewriting exists.
  [[nodiscard]] Result<Table> Query(const Pattern& query,
                                    TraceSpan* trace = nullptr,
                                    RewriteStats* stats = nullptr) const;

  /// This epoch's rewrite cache: the catalog's cache for its summary's
  /// structure and view set (ViewCatalog::rewrite_cache). Thread-safe and
  /// shared by every reader of every epoch that serves it; a view-set
  /// mutation or a load publishes an epoch with an empty one (that is the
  /// invalidation).
  RewriteCache* rewrite_cache() const { return rewrite_cache_.get(); }

  /// This epoch's pinned containment memo (pass as RewriterOptions::memo).
  /// Thread-safe; bound to summary(): shared across view-set-only
  /// mutations and across updates that keep the summary object, replaced
  /// by every other document change.
  ContainmentMemo* containment_memo() const { return memo_.get(); }

  /// The shared, snapshot-owned ViewIndex over this epoch's views for
  /// `summary` — what Rewrite() plans with; pass as
  /// RewriterOptions::shared_view_index to a Rewriter whose views were added
  /// in views() order. When `summary` is this snapshot's own summary() (the
  /// serving path), the index is built once under an internal mutex, or
  /// carried from a predecessor epoch with the same summary object and
  /// view definitions, and shared by all readers of the epoch;
  /// for any other summary (whose lifetime the snapshot cannot pin) a fresh
  /// uncached index is returned, owned by the caller's shared_ptr.
  /// `expansion` does not select an index: signatures depend on no
  /// expansion option (ViewIndex).
  std::shared_ptr<const ViewIndex> ViewIndexFor(
      const Summary& summary, const ExpansionOptions& expansion) const
      SVX_EXCLUDES(index_mu_);

 private:
  friend class ViewCatalog;
  CatalogSnapshot();

  /// RewriteCache::KeySalt of ServingOptions(), computed on first use
  /// (never at publish).
  const std::string& KeySalt() const;

  /// The options Rewrite() plans with, less the per-call trace and view
  /// index.
  RewriterOptions ServingOptions() const;

  uint64_t epoch_ = 0;
  std::chrono::steady_clock::time_point birth_;
  std::vector<std::shared_ptr<const StoredView>> views_;
  std::shared_ptr<const Document> doc_;
  std::shared_ptr<const Summary> summary_;
  std::shared_ptr<RewriteCache> rewrite_cache_;
  std::shared_ptr<ContainmentMemo> memo_;
  CostModel cost_model_;

  mutable Mutex index_mu_;
  mutable std::shared_ptr<const ViewIndex> index_
      SVX_GUARDED_BY(index_mu_);  // over summary_: carried or built lazily

  // Resolves each view name against views_ when a scan asks for it; its
  // document is doc_, set before publication.
  Catalog executor_catalog_;

  mutable Mutex key_salt_mu_;  // serializes KeySalt()'s first computation
  mutable std::string key_salt_storage_ SVX_GUARDED_BY(key_salt_mu_);
  /// &key_salt_storage_ once written, published with release order.
  mutable std::atomic<const std::string*> key_salt_{nullptr};
};

}  // namespace svx

#endif  // SVX_VIEWSTORE_CATALOG_SNAPSHOT_H_
