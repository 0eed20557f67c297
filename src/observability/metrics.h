// Process-wide metric registry: striped atomic counters, gauges, and
// log-bucketed latency histograms, with Prometheus-text exposition.
//
// Design constraints, in order:
//   1. Cheap enough to leave on in Release. Counter::Add is one relaxed
//      fetch_add on a cache-line-private stripe chosen by thread; Histogram::
//      Observe is two relaxed fetch_adds plus a bit_width. No locks anywhere
//      on the update path — the registry mutex is only taken at registration
//      (first use per site, a static-local) and at render time.
//   2. TSan/thread-safety clean per the PR-6 discipline: the name→metric maps
//      are SVX_GUARDED_BY the registry mutex; the metric objects themselves
//      are all-atomic and need none.
//   3. Removable: building with -DSVX_METRICS_DISABLED (CMake option
//      SVX_DISABLE_METRICS) turns every update into an inline no-op, which is
//      what the CI overhead gate compares against.
//
// Reads (Value(), Count(), renders) are racy-by-design snapshots: relaxed
// loads summed across stripes/buckets. That is the standard contract for
// monitoring counters — a render concurrent with updates sees some recent
// value, not a linearizable cut.
//
// Registered metrics live for the process lifetime (pointers are stable and
// never freed); handles can be cached in static locals at the call site.
#ifndef SVX_OBSERVABILITY_METRICS_H_
#define SVX_OBSERVABILITY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace svx {

namespace internal {
/// Index of this thread's counter stripe: threads are assigned round-robin
/// on first use, so up to kCounterStripes concurrent writers never share a
/// cache line.
size_t ThreadStripeIndex();
}  // namespace internal

/// Monotonically increasing sum, striped across cache lines so concurrent
/// writers on different cores do not bounce one line between them.
class Counter {
 public:
  static constexpr size_t kStripes = 16;

  void Add(int64_t delta) {
#ifndef SVX_METRICS_DISABLED
    stripes_[internal::ThreadStripeIndex() & (kStripes - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  int64_t Value() const {
    int64_t sum = 0;
    for (const Stripe& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> v{0};
  };
  Stripe stripes_[kStripes];
};

/// Last-write-wins instantaneous value (epoch id, live snapshot count, ...).
/// Gauges are written from serialized contexts (the catalog writer lock) or
/// balanced ctor/dtor pairs, so a single atomic suffices — no striping.
class Gauge {
 public:
  void Set(int64_t value) {
#ifndef SVX_METRICS_DISABLED
    v_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  void Add(int64_t delta) {
#ifndef SVX_METRICS_DISABLED
    v_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucketed histogram of non-negative integer samples (latencies are
/// recorded in microseconds, sizes in their natural unit). Bucket 0 holds
/// exact zeros; bucket i ≥ 1 holds [2^(i-1), 2^i), which keeps Observe at two
/// relaxed atomic increments.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(int64_t value) {
#ifndef SVX_METRICS_DISABLED
    uint64_t v = value <= 0 ? 0 : static_cast<uint64_t>(value);
    size_t b = v == 0 ? 0 : static_cast<size_t>(64 - __builtin_clzll(v));
    if (b >= kBuckets) b = kBuckets - 1;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(static_cast<int64_t>(v), std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  int64_t Count() const;
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Inclusive upper bound of bucket b (0, 1, 3, 7, 15, ...).
  static double BucketUpperBound(size_t b);

  int64_t BucketCount(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> sum_{0};
};

/// Name → metric table with exposition. One process-wide instance
/// (Global()); tests construct private registries.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& Global();

  /// Finds or creates the named metric. The help string is kept from the
  /// first registration; later calls with a different help are fine and
  /// ignored. Registering the same name as two different kinds aborts —
  /// that is a programming error, not an operational condition.
  Counter* counter(std::string_view name, std::string_view help = "")
      SVX_EXCLUDES(mu_);
  Gauge* gauge(std::string_view name, std::string_view help = "")
      SVX_EXCLUDES(mu_);
  Histogram* histogram(std::string_view name, std::string_view help = "")
      SVX_EXCLUDES(mu_);

  /// Prometheus text exposition format, families sorted by name. Histograms
  /// render cumulative _bucket{le=...} lines up to the last non-empty
  /// bucket, then +Inf, _sum and _count.
  std::string RenderPrometheusText() const SVX_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  Entry* FindOrCreate(std::string_view name, std::string_view help, Kind kind)
      SVX_EXCLUDES(mu_);

  mutable Mutex mu_;
  // std::deque never moves elements, so handed-out pointers stay valid
  // while the map grows.
  std::deque<Counter> counters_ SVX_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ SVX_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ SVX_GUARDED_BY(mu_);
  std::map<std::string, Entry> entries_ SVX_GUARDED_BY(mu_);
};

// ---- The standard metric catalog -------------------------------------------
//
// Every instrumented site in the library goes through one of these accessors,
// so the metric name, kind and help string have exactly one definition.
// Accessors cache the handle in a function-local static: after the first
// call they are a load plus the atomic update. RegisterStandardMetrics()
// touches every accessor so exposition shows the full catalog (zero-valued)
// even for domains a process never exercised.
namespace metrics {

// Rewrite domain.
Counter* RewriteCalls();
Counter* RewriteResults();
Counter* RewriteCandidatesBuilt();
Counter* RewriteCandidatesPruned();
Counter* RewriteEquivalenceTests();
Histogram* RewriteLatencyUs();
Counter* RewriteCacheHits();
Counter* RewriteCacheMisses();

// Plan enumeration (DP rewriter search).
Counter* PlansGenerated();
Counter* PlansDominated();
Histogram* PlanEnumLatencyUs();

// Containment domain.
Counter* ContainmentMemoHits();
Counter* ContainmentMemoMisses();

// Maintenance domain.
Counter* MaintenancePasses();
Counter* MaintenanceViewsTouched();
Counter* MaintenanceViewsRebuilt();
Counter* MaintenanceViewsShared();
Counter* MaintenanceTuplesInserted();
Counter* MaintenanceTuplesDeleted();
Histogram* MaintenanceApplyLatencyUs();

// Epoch / serving domain.
Gauge* EpochCurrent();
Counter* EpochPublishes();
Gauge* EpochAgeUs();
Gauge* EpochsLive();
Counter* SnapshotAcquisitions();
Histogram* EpochPublishLagUs();

// Executor (serving work) domain.
Counter* ExecutorRuns();
Counter* ExecutorRowsScanned();
Counter* ExecutorRowsEmitted();
Histogram* ExecutorLatencyUs();

// Persistence domain.
Counter* PersistBytesWritten();
Counter* PersistFilesWritten();

// Columnar extent / memory budget domain.
Gauge* ExtentResidentBytes();
Gauge* ExtentCompressedBytes();
Counter* ExtentEvictions();
Counter* ExtentReloads();
Histogram* ExtentReloadUs();

// Sharding / durability domain (PR 8). The per-process totals aggregate
// across shards; the Shard* accessors return per-shard labeled series
// (`base{shard="N"}`) so exposition can attribute epoch age and delta flow
// to an individual shard. Labeled series render inside the same Prometheus
// family as their base name.
Counter* DeltasCoalesced();
Counter* DeltasApplied();
Counter* WalBytesWritten();
Counter* WalRecordsAppended();
Counter* WalReplays();
Counter* WalTornTruncations();

/// `base{shard="N"}` labeled counter/gauge in the global registry. Handles
/// are stable for the process lifetime; callers cache them per shard.
Counter* ShardCounter(std::string_view base, int shard,
                      std::string_view help = "");
Gauge* ShardGauge(std::string_view base, int shard,
                  std::string_view help = "");

/// Per-shard epoch age gauge, svx_shard_epoch_age_us{shard="N"}.
Gauge* ShardEpochAgeUs(int shard);

/// Forces registration of the whole catalog above, so a render covers every
/// domain regardless of which code paths have run. Benches call this once
/// at startup.
void RegisterStandardMetrics();

}  // namespace metrics
}  // namespace svx

#endif  // SVX_OBSERVABILITY_METRICS_H_
