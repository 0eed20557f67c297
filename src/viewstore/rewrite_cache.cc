#include "src/viewstore/rewrite_cache.h"

#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace svx {

std::string RewriteCache::KeyFor(const Pattern& q) {
  return PatternToString(q);
}

bool RewriteCache::Lookup(const std::string& key, std::vector<Rewriting>* out,
                          RewriteStats* stats) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    metrics::RewriteCacheMisses()->Add(1);
    return false;
  }
  ++hits_;
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

void RewriteCache::CarryCountersFrom(const RewriteCache& prior) {
  TwoMutexLock lock(&mu_, &prior.mu_);
  hits_ = prior.hits_;
  misses_ = prior.misses_;
  invalidations_ = prior.invalidations_ + (prior.entries_.empty() ? 0 : 1);
}

size_t RewriteCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

size_t RewriteCache::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}

size_t RewriteCache::misses() const {
  MutexLock lock(&mu_);
  return misses_;
}

size_t RewriteCache::invalidations() const {
  MutexLock lock(&mu_);
  return invalidations_;
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
