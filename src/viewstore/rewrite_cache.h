// Catalog-level cache of rewrite results.
//
// Million-user traffic is dominated by repeat queries, and a Rewrite() call
// is pure given (query, view set, summary structure, rewriter options): the
// ranked rewriting list can be cached under the query's canonical pattern
// text (salted with the rewriter's configuration, RewriteCache::KeySalt)
// and served in microseconds.
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
#include <functional>
#include <memory>
#include <string>
#include <string_view>
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

  /// What a lookup appends to KeyFor(q): the configuration of a rewriter
  /// over `num_views` views whose options have `options_fingerprint`
  /// (RewriterOptionsFingerprint). The ranked list depends on it, not just
  /// on the query, so rewriters with different configurations sharing one
  /// cache do not serve each other mismatched plans. Distinct cost models
  /// or view sets of equal size are not distinguished; don't share a cache
  /// across those.
  static std::string KeySalt(int32_t num_views,
                             std::string_view options_fingerprint);

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

/// The search a cached rewrite runs on a miss: finds the ranked
/// rewritings of `q`, filling `stats` (never null). The query is an
/// argument, not a capture, so a caller's lambda stays small enough for
/// std::function to hold without allocating.
using RewriteSearch = std::function<Result<std::vector<Rewriting>>(
    const Pattern& q, RewriteStats* stats)>;

/// The cache policy, in two forms. This one probes `cache` (non-null) under
/// KeyFor(q) + `key_salt`, in a cache-lookup span under `trace`, before any
/// search state exists. A hit is re-ranked with `cost_model` (RankByCost),
/// so its est_cost reflects the reader's statistics, not those of the epoch
/// that cached it; `stats` receives the counters recorded at insert time,
/// with rewrite_cache_hits and the timing fields set for the warm lookup. A
/// miss runs `search` and caches its ok() result unless the search was cut
/// short (time_budget_hit or search_truncated). CatalogSnapshot::Rewrite
/// serves through this form with a salt it computes once per epoch.
[[nodiscard]] Result<std::vector<Rewriting>> CachedRewrite(
    RewriteCache* cache, std::string_view key_salt, const Pattern& q,
    const CostModel* cost_model, TraceSpan* trace, RewriteStats* stats,
    const RewriteSearch& search);

/// The same policy for a caller that built its own rewriter: salts the key
/// with KeySalt(its view count, its options' fingerprint), re-ranks a hit
/// with the rewriter's cost model, traces under its options' trace, and
/// searches with rewriter->Rewrite(q). A rewriter configured like the query
/// entry point (max_results 1, the snapshot's cost model, views added in
/// views() order) shares cache entries with CatalogSnapshot::Rewrite. With
/// a null cache this is exactly rewriter->Rewrite.
[[nodiscard]] Result<std::vector<Rewriting>> CachedRewrite(
    RewriteCache* cache, Rewriter* rewriter, const Pattern& q,
    RewriteStats* stats = nullptr);

}  // namespace svx

#endif  // SVX_VIEWSTORE_REWRITE_CACHE_H_
