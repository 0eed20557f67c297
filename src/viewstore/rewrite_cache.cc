#include "src/viewstore/rewrite_cache.h"

#include <utility>

#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace svx {

RewriteCache::RewriteCache(std::shared_ptr<Counters> counters)
    : counters_(counters != nullptr ? std::move(counters)
                                    : std::make_shared<Counters>()) {}

std::string RewriteCache::KeyFor(const Pattern& q) {
  return PatternToString(q);
}

bool RewriteCache::Lookup(const std::string& key, std::vector<Rewriting>* out,
                          RewriteStats* stats) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    counters_->misses.fetch_add(1, std::memory_order_relaxed);
    metrics::RewriteCacheMisses()->Add(1);
    return false;
  }
  counters_->hits.fetch_add(1, std::memory_order_relaxed);
  metrics::RewriteCacheHits()->Add(1);
  *out = it->second.rewritings;
  // Replay the search counters the entry cost when it was computed.
  // Truncated searches are never cached (see CachedRewrite), so a hit is
  // always a complete search.
  if (stats != nullptr) *stats = it->second.stats;
  return true;
}

void RewriteCache::Insert(const std::string& key,
                          const std::vector<Rewriting>& rewritings,
                          const RewriteStats* stats) {
  Entry entry;
  entry.rewritings = rewritings;
  if (stats != nullptr) entry.stats = *stats;
  MutexLock lock(&mu_);
  if (entries_.size() >= kMaxEntries && entries_.find(key) == entries_.end()) {
    entries_.clear();
  }
  entries_[key] = std::move(entry);
}

size_t RewriteCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

size_t RewriteCache::hits() const {
  return counters_->hits.load(std::memory_order_relaxed);
}

size_t RewriteCache::misses() const {
  return counters_->misses.load(std::memory_order_relaxed);
}

size_t RewriteCache::invalidations() const {
  return counters_->invalidations.load(std::memory_order_relaxed);
}

Result<std::vector<Rewriting>> CachedRewrite(RewriteCache* cache,
                                             Rewriter* rewriter,
                                             const Pattern& q,
                                             RewriteStats* stats) {
  if (cache == nullptr) return rewriter->Rewrite(q, stats);
  Timer timer;
  // The ranked list depends on the rewriter's configuration and view set,
  // not just the query — salt the key with every result-affecting option so
  // rewriters with different configurations sharing one catalog cache do
  // not serve each other mismatched plans. Distinct cost models or view
  // sets of equal size are not distinguished; don't share a catalog across
  // those.
  const std::string key =
      StrFormat("%s|v%d|", RewriteCache::KeyFor(q).c_str(),
                rewriter->num_views()) +
      RewriterOptionsFingerprint(rewriter->options());
  std::vector<Rewriting> cached;
  bool hit;
  {
    ScopedSpan span(rewriter->options().trace, "cache-lookup");
    hit = cache->Lookup(key, &cached, stats);
    span.Attr("hit", hit ? "true" : "false");
  }
  if (hit) {
    // The entry may have been ranked under another epoch's statistics: one
    // cache serves every epoch of a summary structure.
    RankByCost(rewriter->options().cost_model, &cached, stats);
    if (stats != nullptr) {
      stats->rewrite_cache_hits = 1;
      stats->results = cached.size();  // authoritative even for entries
                                       // inserted without stats
      stats->setup_ms = 0;
      stats->first_ms = timer.ElapsedMillis();
      stats->total_ms = timer.ElapsedMillis();
    }
    return cached;
  }
  RewriteStats local_stats;
  RewriteStats* effective = stats != nullptr ? stats : &local_stats;
  Result<std::vector<Rewriting>> fresh = rewriter->Rewrite(q, effective);
  // A time-budget-truncated search is load-dependent, and a budget-truncated
  // search (search_truncated: a candidate overflowed the merged-piece cap)
  // dropped plans it never examined; caching either would pin a transiently
  // inferior (possibly empty) plan list until the next catalog mutation.
  if (fresh.ok() && !effective->time_budget_hit &&
      !effective->search_truncated) {
    cache->Insert(key, *fresh, effective);
  }
  return fresh;
}

}  // namespace svx
