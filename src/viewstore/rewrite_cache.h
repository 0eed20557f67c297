// Catalog-level cache of rewrite results.
//
// Million-user traffic is dominated by repeat queries, and a Rewrite() call
// is pure given (query, view set, summary structure, rewriter options): the
// ranked rewriting list can be cached under the query's canonical pattern
// text (salted by CachedRewrite with the rewriter's configuration) and
// served in microseconds.
//
// A rewriting found under summary S is equivalent to its query on every
// document that conforms to S (the paper's summary-constrained
// containment), and a plan names views, columns, labels and predicates,
// never a path id. So a ViewCatalog keeps one cache per summary *structure*
// (Summary::StructureKey) for its current view set, and each
// CatalogSnapshot serves the cache of its summary's structure: a document
// update whose summary keeps its structure (or returns to an earlier one)
// serves the plans cached before it, while a view-set mutation (Add / Drop
// / Load) drops every cache. Statistics do drift between the epochs that
// share a cache, so a hit re-ranks its rewritings with the reader's cost
// model. All of a catalog's caches count into one set of cumulative
// hit/miss/invalidation counters.
//
// Thread-safe: an internal mutex guards the table, so concurrent readers
// — of one epoch or of several epochs sharing the cache — share warm
// entries.
//
// Entries hold immutable plans (PlanPtr points to a const PlanNode); a hit
// copies the rewriting list, which shares the cached plans with every other
// reader of the entry.
#ifndef SVX_VIEWSTORE_REWRITE_CACHE_H_
#define SVX_VIEWSTORE_REWRITE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/pattern/pattern.h"
#include "src/rewriting/rewriter.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace svx {

class RewriteCache {
 public:
  /// Cumulative lookup counters. A catalog's caches share one set, so the
  /// counts never go backwards when the catalog moves between caches.
  struct Counters {
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
    /// Publishes that discarded cached plans (ViewCatalog).
    std::atomic<size_t> invalidations{0};
  };

  /// A cache counting into `counters`, or into a set of its own when null.
  explicit RewriteCache(std::shared_ptr<Counters> counters = nullptr);

  /// Cache key of a query pattern (its round-trippable text form).
  static std::string KeyFor(const Pattern& q);

  /// Returns true and fills `out` with the cached rewritings (ranked order
  /// preserved, plans shared) when `key` is cached. An entry may hold zero
  /// rewritings — "no rewriting exists" is equally worth caching. With a
  /// non-null `stats`, the search counters recorded at insert time
  /// (candidates built/pruned, equivalence tests, memo hits/misses, ...) are
  /// copied into it, so a warm hit reports the work its entry originally
  /// cost instead of zeros. The whole recorded RewriteStats is copied,
  /// timing fields and hit count included; CachedRewrite resets those for
  /// the warm lookup.
  bool Lookup(const std::string& key, std::vector<Rewriting>* out,
              RewriteStats* stats = nullptr) const SVX_EXCLUDES(mu_);

  /// Caches `rewritings` (plans shared) under `key`, replacing any previous
  /// entry, together with the search stats that produced them (replayed on
  /// hits — see Lookup). When the cache is full, the whole table is dropped
  /// first — a crude but constant-time eviction; `kMaxEntries` is high
  /// enough that this only guards against unbounded ad-hoc query streams.
  void Insert(const std::string& key, const std::vector<Rewriting>& rewritings,
              const RewriteStats* stats = nullptr) SVX_EXCLUDES(mu_);

  size_t size() const SVX_EXCLUDES(mu_);
  size_t hits() const;
  size_t misses() const;
  size_t invalidations() const;

  /// Entries held before an insert of a new key drops the table.
  static constexpr size_t kMaxEntries = 4096;

 private:
  struct Entry {
    std::vector<Rewriting> rewritings;
    RewriteStats stats;  // the miss-time search counters
  };

  mutable Mutex mu_;
  std::unordered_map<std::string, Entry> entries_ SVX_GUARDED_BY(mu_);
  const std::shared_ptr<Counters> counters_;
};

/// Rewrites `q` through `cache`: serves a hit (setting
/// stats->rewrite_cache_hits and the timing fields), otherwise calls
/// rewriter->Rewrite(q, stats) and caches the ok() result. A hit is
/// re-ranked with the rewriter's cost model (RankByCost), so its est_cost
/// reflects the reader's statistics, not those of the epoch that cached
/// it. With a null cache this is exactly rewriter->Rewrite.
[[nodiscard]] Result<std::vector<Rewriting>> CachedRewrite(
    RewriteCache* cache, Rewriter* rewriter, const Pattern& q,
    RewriteStats* stats = nullptr);

}  // namespace svx

#endif  // SVX_VIEWSTORE_REWRITE_CACHE_H_
