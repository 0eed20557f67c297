#include "src/viewstore/rewrite_cache.h"

#include <utility>

#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/timer.h"

namespace svx {

RewriteCache::RewriteCache(std::shared_ptr<Counters> counters)
    : counters_(counters != nullptr ? std::move(counters)
                                    : std::make_shared<Counters>()) {}

std::string RewriteCache::KeyFor(const Pattern& q) {
  return PatternToString(q);
}

std::string RewriteCache::KeySalt(int32_t num_views,
                                  std::string_view options_fingerprint) {
  // No printf: a snapshot computes this on its first read, when printf's
  // code is rarely in cache.
  std::string salt = "|v";
  salt += std::to_string(num_views);
  salt += "|";
  salt += options_fingerprint;
  return salt;
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

Result<std::vector<Rewriting>> CachedRewrite(
    RewriteCache* cache, std::string_view key_salt, const Pattern& q,
    const CostModel* cost_model, TraceSpan* trace, RewriteStats* stats,
    const RewriteSearch& search) {
  Timer timer;
  std::string key = RewriteCache::KeyFor(q);
  key += key_salt;
  std::vector<Rewriting> cached;
  bool hit;
  {
    ScopedSpan span(trace, "cache-lookup");
    hit = cache->Lookup(key, &cached, stats);
    span.Attr("hit", hit ? "true" : "false");
  }
  if (hit) {
    // The entry may have been ranked under another epoch's statistics: one
    // cache serves every epoch of a summary structure.
    RankByCost(cost_model, &cached, stats);
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
  Result<std::vector<Rewriting>> fresh = search(q, effective);
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

Result<std::vector<Rewriting>> CachedRewrite(RewriteCache* cache,
                                             Rewriter* rewriter,
                                             const Pattern& q,
                                             RewriteStats* stats) {
  if (cache == nullptr) return rewriter->Rewrite(q, stats);
  const RewriterOptions& options = rewriter->options();
  const std::string salt = RewriteCache::KeySalt(
      rewriter->num_views(), RewriterOptionsFingerprint(options));
  return CachedRewrite(
      cache, salt, q, options.cost_model, options.trace, stats,
      [rewriter](const Pattern& query, RewriteStats* search_stats) {
        return rewriter->Rewrite(query, search_stats);
      });
}

}  // namespace svx
