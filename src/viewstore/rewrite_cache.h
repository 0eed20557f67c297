// Catalog-level cache of rewrite results.
//
// Million-user traffic is dominated by repeat queries, and a Rewrite() call
// is pure given (query, view set, summary, rewriter options): the ranked
// rewriting list can be cached under the query's canonical pattern text
// (salted by CachedRewrite with the rewriter's configuration) and served in
// microseconds.
// Each CatalogSnapshot owns one cache: a catalog mutation (Materialize /
// Add / Drop / ApplyUpdate / Load) publishes a successor snapshot with a
// fresh cache (carrying the cumulative hit/miss/invalidation counters), so
// a hit is always as fresh as a recomputation against that snapshot's view
// set and document.
//
// Thread-safe: an internal mutex guards the table, so concurrent readers
// of one snapshot share warm entries.
//
// Entries hold immutable plans (PlanPtr points to a const PlanNode); a hit
// copies the rewriting list, which shares the cached plans with every other
// reader of the entry.
#ifndef SVX_VIEWSTORE_REWRITE_CACHE_H_
#define SVX_VIEWSTORE_REWRITE_CACHE_H_

#include <cstdint>
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

  /// Seeds the cumulative counters from a predecessor cache, counting one
  /// invalidation when the predecessor held entries — how a successor
  /// snapshot's fresh cache keeps hit/miss observability continuous.
  void CarryCountersFrom(const RewriteCache& prior) SVX_EXCLUDES(mu_);

  size_t size() const SVX_EXCLUDES(mu_);
  size_t hits() const SVX_EXCLUDES(mu_);
  size_t misses() const SVX_EXCLUDES(mu_);
  size_t invalidations() const SVX_EXCLUDES(mu_);

  /// Entries held before an insert of a new key drops the table.
  static constexpr size_t kMaxEntries = 4096;

 private:
  struct Entry {
    std::vector<Rewriting> rewritings;
    RewriteStats stats;  // the miss-time search counters
  };

  mutable Mutex mu_;
  std::unordered_map<std::string, Entry> entries_ SVX_GUARDED_BY(mu_);
  mutable size_t hits_ SVX_GUARDED_BY(mu_) = 0;
  mutable size_t misses_ SVX_GUARDED_BY(mu_) = 0;
  size_t invalidations_ SVX_GUARDED_BY(mu_) = 0;
};

/// Rewrites `q` through `cache`: serves a hit (setting
/// stats->rewrite_cache_hits and the timing fields), otherwise calls
/// rewriter->Rewrite(q, stats) and caches the ok() result. With a null
/// cache this is exactly rewriter->Rewrite.
[[nodiscard]] Result<std::vector<Rewriting>> CachedRewrite(
    RewriteCache* cache, Rewriter* rewriter, const Pattern& q,
    RewriteStats* stats = nullptr);

}  // namespace svx

#endif  // SVX_VIEWSTORE_REWRITE_CACHE_H_
