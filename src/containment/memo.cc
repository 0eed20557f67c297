#include "src/containment/memo.h"

#include <algorithm>

#include "src/observability/metrics.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/strings.h"

namespace svx {

namespace {

/// Table size at which an insert drops the table whole (see memo.h).
constexpr size_t kMaxEntries = 1u << 16;

}  // namespace

Result<bool> ContainmentMemo::LookupOrCompute(
    std::string key, const std::function<Result<bool>()>& compute) {
  {
    MutexLock lock(&mu_);
    auto it = table_.find(key);
    if (it != table_.end()) {
      ++hits_;
      metrics::ContainmentMemoHits()->Add(1);
      return it->second;
    }
    ++misses_;
  }
  metrics::ContainmentMemoMisses()->Add(1);
  // Compute outside the lock: containment tests are the expensive part, and
  // a duplicate computation by a racing thread is just a wasted lookup.
  Result<bool> r = compute();
  if (r.ok()) {
    MutexLock lock(&mu_);
    if (table_.size() >= kMaxEntries) table_.clear();
    table_.emplace(std::move(key), *r);
  }
  return r;
}

Result<bool> ContainmentMemo::Contained(const Pattern& p, const Pattern& q,
                                        const Summary& summary,
                                        const ContainmentOptions& options) {
  std::string key = "C\x1f" + ContainmentOptionsFingerprint(options) + "\x1f" +
                    PatternToString(p) + "\x1f" + PatternToString(q);
  return LookupOrCompute(std::move(key), [&]() {
    return IsContained(p, q, summary, options);
  });
}

Result<bool> ContainmentMemo::ContainedInUnion(
    const Pattern& p, const std::vector<const Pattern*>& qs,
    const Summary& summary, const ContainmentOptions& options,
    const std::vector<CanonicalTree>* p_model) {
  std::vector<std::string> members;
  members.reserve(qs.size());
  for (const Pattern* q : qs) members.push_back(PatternToString(*q));
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  std::string key = "U\x1f" + ContainmentOptionsFingerprint(options) + "\x1f" +
                    PatternToString(p) + "\x1f" + Join(members, "\x1e");
  return LookupOrCompute(std::move(key), [&]() {
    return IsContainedInUnion(p, qs, summary, options, nullptr, p_model);
  });
}

void ContainmentMemo::Clear() {
  MutexLock lock(&mu_);
  table_.clear();
}

size_t ContainmentMemo::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}

size_t ContainmentMemo::misses() const {
  MutexLock lock(&mu_);
  return misses_;
}

size_t ContainmentMemo::size() const {
  MutexLock lock(&mu_);
  return table_.size();
}

}  // namespace svx
