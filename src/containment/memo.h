// Memoized containment decisions.
//
// The rewriter tests structurally identical pattern pairs over and over:
// TryMatch rebuilds the same per-piece test patterns across assignments and
// candidates, and the union phase re-checks overlapping subsets. Containment
// is a pure function of (p, q-set, summary, options), so decisions are
// memoized under the key
//
//   direction tag · options fingerprint · canonical(p) · canonical(q1..qm)
//
// where canonical() is the round-trippable ParsePattern serialization (two
// patterns with equal text have equal semantics) and union members are
// sorted (union containment is order-independent).
//
// A memo is bound to ONE summary: the key deliberately omits it, so share a
// memo only across calls that use the same summary, and Clear() it whenever
// the summary changes. Each CatalogSnapshot pins a memo with exactly this
// lifecycle: shared across Rewrite() calls against that snapshot, and
// carried into the successor while the successor keeps the summary object
// (view-set mutations, and updates whose summary StructurallyEquals the
// bound one); any other document change publishes a fresh memo.
//
// Thread-safe: the table is guarded by an internal mutex so concurrent
// readers of one snapshot can share the memo. Lookups and inserts lock;
// containment itself is computed outside the lock (two threads may race to
// compute the same miss — both get the right answer, one insert wins).
//
// Only ok() results are memoized; resource-exhausted decisions are retried.
// The table holds at most 65536 decisions: an insert into a full table drops
// it whole (constant-time eviction, like RewriteCache), which bounds the
// memory of a snapshot-pinned memo serving an unbounded ad-hoc query stream.
#ifndef SVX_CONTAINMENT_MEMO_H_
#define SVX_CONTAINMENT_MEMO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/containment/containment.h"
#include "src/pattern/pattern.h"
#include "src/summary/summary.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace svx {

class ContainmentMemo {
 public:
  /// Memoized IsContained(p, q, summary, options).
  [[nodiscard]] Result<bool> Contained(const Pattern& p, const Pattern& q,
                                       const Summary& summary,
                                       const ContainmentOptions& options)
      SVX_EXCLUDES(mu_);

  /// Memoized IsContainedInUnion(p, qs, summary, options). `p_model` is
  /// forwarded on a miss (see containment.h); it does not enter the key.
  [[nodiscard]] Result<bool> ContainedInUnion(
      const Pattern& p, const std::vector<const Pattern*>& qs,
      const Summary& summary, const ContainmentOptions& options,
      const std::vector<CanonicalTree>* p_model = nullptr) SVX_EXCLUDES(mu_);

  /// Drops every entry (call when the summary changes).
  void Clear() SVX_EXCLUDES(mu_);

  size_t hits() const SVX_EXCLUDES(mu_);
  size_t misses() const SVX_EXCLUDES(mu_);
  size_t size() const SVX_EXCLUDES(mu_);

 private:
  Result<bool> LookupOrCompute(std::string key,
                               const std::function<Result<bool>()>& compute)
      SVX_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::unordered_map<std::string, bool> table_ SVX_GUARDED_BY(mu_);
  size_t hits_ SVX_GUARDED_BY(mu_) = 0;
  size_t misses_ SVX_GUARDED_BY(mu_) = 0;
};

}  // namespace svx

#endif  // SVX_CONTAINMENT_MEMO_H_
