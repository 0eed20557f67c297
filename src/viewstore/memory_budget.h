// Catalog-level memory accounting for decoded extents (cf. pequod's
// pqmemory tracking): the compressed columnar form of every extent is
// always resident; the decoded row-major Table is a cache entry charged
// against a MemoryBudget and evicted LRU-cold when the budget overflows.
//
// Pinning is by shared_ptr: eviction only resets the budget's own TablePtr,
// so a snapshot reader or in-flight plan holding the pointer keeps the
// decoded table alive (and its bytes are freed only when the last pin
// drops). Every decoded table can be evicted: its compressed form decodes
// it again.
//
// One MemoryBudget may be shared by several catalogs (ShardedCatalog gives
// all shards one budget); a default-constructed budget is unlimited and
// degenerates to a plain always-resident cache, which is the pre-budget
// behavior.
#ifndef SVX_VIEWSTORE_MEMORY_BUDGET_H_
#define SVX_VIEWSTORE_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>

#include "src/algebra/relation.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace svx {

class ExtentResidency;

/// Shared accounting across every ExtentResidency charged to it. All state
/// is behind one mutex; decode work always happens outside it.
class MemoryBudget {
 public:
  /// `limit_bytes` <= 0 means unlimited (nothing is ever evicted).
  explicit MemoryBudget(int64_t limit_bytes = 0) : limit_(limit_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  int64_t limit_bytes() const { return limit_; }
  int64_t resident_bytes() const SVX_EXCLUDES(mu_);

  /// Cumulative counts for DebugMetrics; the same events also feed the
  /// global svx_extent_* metrics.
  int64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  int64_t reloads() const { return reloads_.load(std::memory_order_relaxed); }

  /// Records one decode-from-columnar (an eviction reload or first cold
  /// use) taking `us` microseconds.
  void NoteReload(int64_t us);

 private:
  friend class ExtentResidency;
  struct Slot;

  TablePtr Lookup(Slot* slot) SVX_EXCLUDES(mu_);
  TablePtr Install(Slot* slot, TablePtr table, int64_t bytes)
      SVX_EXCLUDES(mu_);
  void Detach(Slot* slot) SVX_EXCLUDES(mu_);
  void EnforceLocked(const Slot* exempt) SVX_REQUIRES(mu_);

  const int64_t limit_;
  mutable Mutex mu_;
  int64_t resident_ SVX_GUARDED_BY(mu_) = 0;
  std::list<Slot*> lru_ SVX_GUARDED_BY(mu_);  // front = hottest
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> reloads_{0};
};

/// One stored view's residency slot: holds (via the budget) the cached
/// decoded Table. Created once per StoredView rebuild and shared by every
/// epoch that shares the view.
class ExtentResidency {
 public:
  /// `budget` must be non-null (use a default MemoryBudget for unlimited).
  explicit ExtentResidency(std::shared_ptr<MemoryBudget> budget);
  ~ExtentResidency();
  ExtentResidency(const ExtentResidency&) = delete;
  ExtentResidency& operator=(const ExtentResidency&) = delete;

  /// The cached decoded table, touching it in the LRU; null if evicted or
  /// never installed. The returned shared_ptr is the caller's pin.
  TablePtr Get() const;

  /// Offers a decoded table. First wins: if a concurrent decode already
  /// installed one, that one is kept and returned (the caller's copy is
  /// discarded) so references handed out earlier stay stable. `bytes` is
  /// the decoded (row-major serialized) size charged against the budget.
  TablePtr Install(TablePtr table, int64_t bytes) const;

  /// Declares this extent's compressed payload size, maintaining the global
  /// svx_extent_compressed_bytes gauge across the residency's lifetime.
  void SetCompressedBytes(int64_t bytes) const;

  MemoryBudget* budget() const { return budget_.get(); }

 private:
  std::shared_ptr<MemoryBudget> budget_;
  std::unique_ptr<MemoryBudget::Slot> slot_;  // state guarded by budget_->mu_
};

}  // namespace svx

#endif  // SVX_VIEWSTORE_MEMORY_BUDGET_H_
