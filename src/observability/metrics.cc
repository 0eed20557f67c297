#include "src/observability/metrics.h"

#include <cmath>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace svx {

namespace internal {

size_t ThreadStripeIndex() {
  static std::atomic<size_t> next{0};
  // Round-robin assignment on first use gives adjacent worker threads
  // distinct stripes; a thread keeps its stripe for its lifetime.
  static thread_local size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace internal

int64_t Histogram::Count() const {
  int64_t n = 0;
  for (size_t b = 0; b < kBuckets; ++b) n += BucketCount(b);
  return n;
}

double Histogram::BucketUpperBound(size_t b) {
  if (b == 0) return 0;
  return std::ldexp(1.0, static_cast<int>(b)) - 1;  // 2^b - 1
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Entry* MetricRegistry::FindOrCreate(std::string_view name,
                                                    std::string_view help,
                                                    Kind kind) {
  MutexLock lock(&mu_);
  auto [it, inserted] = entries_.try_emplace(std::string(name));
  Entry& e = it->second;
  if (inserted) {
    e.kind = kind;
    e.help = std::string(help);
    switch (kind) {
      case Kind::kCounter: e.counter = &counters_.emplace_back(); break;
      case Kind::kGauge: e.gauge = &gauges_.emplace_back(); break;
      case Kind::kHistogram: e.histogram = &histograms_.emplace_back(); break;
    }
  }
  SVX_CHECK_MSG(e.kind == kind, "metric re-registered with a different kind");
  return &e;
}

Counter* MetricRegistry::counter(std::string_view name,
                                 std::string_view help) {
  return FindOrCreate(name, help, Kind::kCounter)->counter;
}

Gauge* MetricRegistry::gauge(std::string_view name, std::string_view help) {
  return FindOrCreate(name, help, Kind::kGauge)->gauge;
}

Histogram* MetricRegistry::histogram(std::string_view name,
                                     std::string_view help) {
  return FindOrCreate(name, help, Kind::kHistogram)->histogram;
}

namespace {

std::string FormatValue(double v) {
  // Integral values (the common case: counts, microsecond sums) print
  // without a fractional part; interpolated quantiles keep three digits.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.3f", v);
}

void RenderHistogramText(const std::string& name, const Histogram& h,
                         std::string* out) {
  size_t last = 0;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (h.BucketCount(b) > 0) last = b;
  }
  int64_t cum = 0;
  for (size_t b = 0; b <= last; ++b) {
    cum += h.BucketCount(b);
    *out += StrFormat("%s_bucket{le=\"%s\"} %lld\n", name.c_str(),
                      FormatValue(Histogram::BucketUpperBound(b)).c_str(),
                      static_cast<long long>(cum));
  }
  // Buckets past `last` are empty, so cum already equals the total count.
  *out += StrFormat("%s_bucket{le=\"+Inf\"} %lld\n", name.c_str(),
                    static_cast<long long>(cum));
  *out += StrFormat("%s_sum %lld\n", name.c_str(),
                    static_cast<long long>(h.Sum()));
  *out += StrFormat("%s_count %lld\n", name.c_str(),
                    static_cast<long long>(cum));
}

}  // namespace

std::string MetricRegistry::RenderPrometheusText() const {
  MutexLock lock(&mu_);
  std::string out;
  // Labeled series (`base{shard="0"}`) share one Prometheus family with
  // their base name; HELP/TYPE must appear once per family, not once per
  // series. The map's sort order keeps a family's series adjacent ('{'
  // collates after every metric-name character), so tracking the previous
  // family name is enough to dedupe.
  std::string prev_family;
  for (const auto& [name, e] : entries_) {
    std::string family = name.substr(0, name.find('{'));
    if (family != prev_family) {
      prev_family = family;
      if (!e.help.empty()) {
        out += StrFormat("# HELP %s %s\n", family.c_str(), e.help.c_str());
      }
      switch (e.kind) {
        case Kind::kCounter:
          out += StrFormat("# TYPE %s counter\n", family.c_str());
          break;
        case Kind::kGauge:
          out += StrFormat("# TYPE %s gauge\n", family.c_str());
          break;
        case Kind::kHistogram:
          out += StrFormat("# TYPE %s histogram\n", family.c_str());
          break;
      }
    }
    switch (e.kind) {
      case Kind::kCounter:
        out += StrFormat("%s %lld\n", name.c_str(),
                         static_cast<long long>(e.counter->Value()));
        break;
      case Kind::kGauge:
        out += StrFormat("%s %lld\n", name.c_str(),
                         static_cast<long long>(e.gauge->Value()));
        break;
      case Kind::kHistogram:
        // Histograms are never registered with labels (the _bucket/_sum
        // suffixes would collide with the label syntax).
        RenderHistogramText(name, *e.histogram, &out);
        break;
    }
  }
  return out;
}

namespace metrics {

// Each accessor registers on first call and caches the handle; the names
// below are the complete standard catalog (README "Observability" documents
// the same list).

Counter* RewriteCalls() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_rewrite_calls_total", "Rewriter::Rewrite invocations");
  return m;
}
Counter* RewriteResults() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_rewrite_results_total", "Rewritings returned across all calls");
  return m;
}
Counter* RewriteCandidatesBuilt() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_rewrite_candidates_built_total",
      "View-pattern match candidates constructed");
  return m;
}
Counter* RewriteCandidatesPruned() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_rewrite_candidates_pruned_total",
      "Candidates discarded by coverage/index pruning");
  return m;
}
Counter* RewriteEquivalenceTests() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_rewrite_equivalence_tests_total",
      "Containment-based equivalence tests run by the rewriter");
  return m;
}
Histogram* RewriteLatencyUs() {
  static Histogram* const m = MetricRegistry::Global().histogram(
      "svx_rewrite_latency_us", "End-to-end Rewriter::Rewrite latency (us)");
  return m;
}
Counter* RewriteCacheHits() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_rewrite_cache_hits_total", "RewriteCache lookups served warm");
  return m;
}
Counter* RewriteCacheMisses() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_rewrite_cache_misses_total",
      "RewriteCache lookups that fell through to the rewriter");
  return m;
}

Counter* PlansGenerated() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_plans_generated_total",
      "Partial plans constructed by the rewrite plan enumeration");
  return m;
}

Counter* PlansDominated() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_plans_dominated_total",
      "Partial plans discarded by the enumerator's dominance check");
  return m;
}

Histogram* PlanEnumLatencyUs() {
  static Histogram* const m = MetricRegistry::Global().histogram(
      "svx_plan_enum_us", "Plan-enumeration phase latency (us)");
  return m;
}

Counter* ContainmentMemoHits() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_containment_memo_hits_total",
      "Containment decisions answered from the memo");
  return m;
}
Counter* ContainmentMemoMisses() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_containment_memo_misses_total",
      "Containment decisions computed and memoized");
  return m;
}

Counter* MaintenancePasses() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_maintenance_passes_total", "ApplyUpdate maintenance passes");
  return m;
}
Counter* MaintenanceViewsTouched() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_maintenance_views_touched_total",
      "Views whose extent changed during maintenance");
  return m;
}
Counter* MaintenanceViewsRebuilt() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_maintenance_views_rebuilt_total",
      "Views maintained by full rematerialization");
  return m;
}
Counter* MaintenanceViewsShared() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_maintenance_views_shared_total",
      "Extents carried into the successor epoch unchanged");
  return m;
}
Counter* MaintenanceTuplesInserted() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_maintenance_tuples_inserted_total",
      "Delta tuples inserted into view extents");
  return m;
}
Counter* MaintenanceTuplesDeleted() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_maintenance_tuples_deleted_total",
      "Delta tuples deleted from view extents");
  return m;
}
Histogram* MaintenanceApplyLatencyUs() {
  static Histogram* const m = MetricRegistry::Global().histogram(
      "svx_maintenance_apply_latency_us",
      "ApplyUpdate latency, delta evaluation through publish (us)");
  return m;
}

Gauge* EpochCurrent() {
  static Gauge* const m = MetricRegistry::Global().gauge(
      "svx_epoch_current", "Epoch id of the published catalog snapshot");
  return m;
}
Counter* EpochPublishes() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_epoch_publish_total", "Catalog snapshot publications");
  return m;
}
Gauge* EpochAgeUs() {
  static Gauge* const m = MetricRegistry::Global().gauge(
      "svx_epoch_age_us",
      "Age of the published snapshot (us); refreshed by DebugMetrics()");
  return m;
}
Gauge* EpochsLive() {
  static Gauge* const m = MetricRegistry::Global().gauge(
      "svx_epochs_live",
      "Live CatalogSnapshot epochs (current + retired ones pinned by readers)");
  return m;
}
Counter* SnapshotAcquisitions() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_snapshot_acquisitions_total", "ViewCatalog::Snapshot() calls");
  return m;
}
Histogram* EpochPublishLagUs() {
  static Histogram* const m = MetricRegistry::Global().histogram(
      "svx_epoch_publish_lag_us",
      "Maintenance start to epoch publish lag (us)");
  return m;
}

Counter* ExecutorRuns() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_executor_runs_total", "Plan executions");
  return m;
}
Counter* ExecutorRowsScanned() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_executor_rows_scanned_total", "Rows read from view extents");
  return m;
}
Counter* ExecutorRowsEmitted() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_executor_rows_emitted_total", "Rows in executed plans' results");
  return m;
}
Histogram* ExecutorLatencyUs() {
  static Histogram* const m = MetricRegistry::Global().histogram(
      "svx_executor_latency_us", "Plan execution latency (us)");
  return m;
}

Counter* PersistBytesWritten() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_persist_bytes_written_total",
      "Bytes written to the on-disk store (extents, stats, manifest)");
  return m;
}
Counter* PersistFilesWritten() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_persist_files_written_total", "Files written to the on-disk store");
  return m;
}

Gauge* ExtentResidentBytes() {
  static Gauge* const m = MetricRegistry::Global().gauge(
      "svx_extent_resident_bytes",
      "Decoded (row-major) extent bytes currently resident across all "
      "memory budgets");
  return m;
}
Gauge* ExtentCompressedBytes() {
  static Gauge* const m = MetricRegistry::Global().gauge(
      "svx_extent_compressed_bytes",
      "Serialized columnar extent bytes held by live stored views");
  return m;
}
Counter* ExtentEvictions() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_extent_evictions_total",
      "Decoded extents evicted by memory-budget pressure");
  return m;
}
Counter* ExtentReloads() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_extent_reloads_total",
      "Extents decoded back from columnar storage after eviction (or first "
      "cold use)");
  return m;
}
Histogram* ExtentReloadUs() {
  static Histogram* const m = MetricRegistry::Global().histogram(
      "svx_extent_reload_us", "Latency of decoding an extent from columnar "
      "storage (us)");
  return m;
}

Counter* DeltasCoalesced() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_deltas_coalesced_total",
      "Queued document deltas folded into an already-pending maintenance "
      "batch instead of publishing their own epoch");
  return m;
}
Counter* DeltasApplied() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_deltas_applied_total",
      "Document deltas applied across all shards");
  return m;
}
Counter* WalBytesWritten() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_wal_bytes_total", "Bytes appended to write-ahead delta logs");
  return m;
}
Counter* WalRecordsAppended() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_wal_records_total", "Records appended to write-ahead delta logs");
  return m;
}
Counter* WalReplays() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_wal_replays_total",
      "Write-ahead log records replayed during catalog recovery");
  return m;
}
Counter* WalTornTruncations() {
  static Counter* const m = MetricRegistry::Global().counter(
      "svx_wal_torn_truncations_total",
      "Torn final WAL records truncated at the last valid checksum");
  return m;
}

Counter* ShardCounter(std::string_view base, int shard,
                      std::string_view help) {
  return MetricRegistry::Global().counter(
      StrFormat("%s{shard=\"%d\"}", std::string(base).c_str(), shard), help);
}
Gauge* ShardGauge(std::string_view base, int shard, std::string_view help) {
  return MetricRegistry::Global().gauge(
      StrFormat("%s{shard=\"%d\"}", std::string(base).c_str(), shard), help);
}

Gauge* ShardEpochAgeUs(int shard) {
  return ShardGauge("svx_shard_epoch_age_us", shard,
                    "Age of the shard's published snapshot (us); refreshed "
                    "by DebugMetrics()");
}

void RegisterStandardMetrics() {
  RewriteCalls();
  RewriteResults();
  RewriteCandidatesBuilt();
  RewriteCandidatesPruned();
  RewriteEquivalenceTests();
  RewriteLatencyUs();
  RewriteCacheHits();
  RewriteCacheMisses();
  PlansGenerated();
  PlansDominated();
  PlanEnumLatencyUs();
  ContainmentMemoHits();
  ContainmentMemoMisses();
  MaintenancePasses();
  MaintenanceViewsTouched();
  MaintenanceViewsRebuilt();
  MaintenanceViewsShared();
  MaintenanceTuplesInserted();
  MaintenanceTuplesDeleted();
  MaintenanceApplyLatencyUs();
  EpochCurrent();
  EpochPublishes();
  EpochAgeUs();
  EpochsLive();
  SnapshotAcquisitions();
  EpochPublishLagUs();
  ExecutorRuns();
  ExecutorRowsScanned();
  ExecutorRowsEmitted();
  ExecutorLatencyUs();
  PersistBytesWritten();
  PersistFilesWritten();
  ExtentResidentBytes();
  ExtentCompressedBytes();
  ExtentEvictions();
  ExtentReloads();
  ExtentReloadUs();
  DeltasCoalesced();
  DeltasApplied();
  WalBytesWritten();
  WalRecordsAppended();
  WalReplays();
  WalTornTruncations();
}

}  // namespace metrics
}  // namespace svx
