#include "src/viewstore/catalog_snapshot.h"

#include <utility>

#include "src/observability/metrics.h"
#include "src/rewriting/rewriter.h"
#include "src/util/check.h"
#include "src/util/timer.h"
#include "src/viewstore/cost_constants.h"

namespace svx {

Result<TablePtr> StoredView::table() const {
  SVX_DCHECK(columnar != nullptr && residency != nullptr);
  TablePtr t = residency->Get();
  if (t != nullptr) return t;
  Timer timer;
  Result<Table> decoded = columnar->Decode();
  if (!decoded.ok()) return decoded.status();
  residency->budget()->NoteReload(
      static_cast<int64_t>(timer.ElapsedMicros()));
  return residency->Install(
      std::make_shared<Table>(std::move(decoded).value()), extent_bytes);
}

TablePtr StoredView::TryResident() const {
  return residency == nullptr ? nullptr : residency->Get();
}

void StoredView::InstallResident(TablePtr t) const {
  residency->Install(std::move(t), extent_bytes);
}

CatalogSnapshot::CatalogSnapshot()
    : birth_(std::chrono::steady_clock::now()),
      executor_catalog_([this](const std::string& name) -> Result<TablePtr> {
        const StoredView* v = Find(name);
        if (v == nullptr) {
          return Status::NotFound("view not materialized: " + name);
        }
        return v->table();
      }) {
  metrics::EpochsLive()->Add(1);
}

CatalogSnapshot::~CatalogSnapshot() { metrics::EpochsLive()->Add(-1); }

int64_t CatalogSnapshot::AgeMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - birth_)
      .count();
}

const StoredView* CatalogSnapshot::Find(const std::string& name) const {
  for (const auto& v : views_) {
    if (v->def.name == name) return v.get();
  }
  return nullptr;
}

int64_t CatalogSnapshot::TotalBytes() const {
  int64_t total = 0;
  for (const auto& v : views_) total += v->extent_bytes;
  return total;
}

int64_t CatalogSnapshot::TotalCompressedBytes() const {
  int64_t total = 0;
  for (const auto& v : views_) total += v->columnar->SerializedByteSize();
  return total;
}

namespace {

/// RewriterOptionsFingerprint of a snapshot's serving options. Those differ
/// between snapshots only in their cost model's constants, which every
/// snapshot a ViewCatalog publishes takes from CalibratedCostConstants():
/// the first fingerprint is kept for the process and reused while the
/// constants match, so an epoch's first read formats no fingerprint.
std::string ServingFingerprint(const RewriterOptions& serving) {
  const uint64_t model = CostConstantsFingerprint(
      serving.cost_model->constants, serving.cost_model->default_rows);
  static const std::pair<uint64_t, std::string> first{
      model, RewriterOptionsFingerprint(serving)};
  return model == first.first ? first.second
                              : RewriterOptionsFingerprint(serving);
}

}  // namespace

const std::string& CatalogSnapshot::KeySalt() const {
  // Double-checked rather than std::call_once, whose first call ends in a
  // futex wake-up system call even when no reader waits: an epoch's first
  // read would pay it.
  if (const std::string* salt = key_salt_.load(std::memory_order_acquire)) {
    return *salt;
  }
  MutexLock lock(&key_salt_mu_);
  if (key_salt_.load(std::memory_order_relaxed) == nullptr) {
    key_salt_storage_ =
        RewriteCache::KeySalt(size(), ServingFingerprint(ServingOptions()));
    key_salt_.store(&key_salt_storage_, std::memory_order_release);
  }
  return key_salt_storage_;
}

RewriterOptions CatalogSnapshot::ServingOptions() const {
  RewriterOptions opts;
  opts.max_results = 1;
  opts.cost_model = &cost_model_;
  opts.memo = memo_.get();
  return opts;
}

const Catalog& CatalogSnapshot::ExecutorCatalog() const {
  return executor_catalog_;
}

Result<Rewriting> CatalogSnapshot::Rewrite(const Pattern& query,
                                           TraceSpan* trace,
                                           RewriteStats* stats) const {
  if (summary_ == nullptr) {
    return Status::InvalidArgument(
        "snapshot has no bound document/summary (use BindDocument or the "
        "shared-pointer Load)");
  }
  Result<std::vector<Rewriting>> rws = CachedRewrite(
      rewrite_cache_.get(), KeySalt(), query, &cost_model_, trace,
      stats, [this, trace](const Pattern& q, RewriteStats* search_stats) {
        RewriterOptions opts = ServingOptions();
        opts.trace = trace;
        std::shared_ptr<const ViewIndex> index =
            ViewIndexFor(*summary_, opts.expansion);
        opts.shared_view_index = index.get();
        Rewriter rewriter(*summary_, opts);
        for (const auto& v : views_) rewriter.AddView(v->def);
        return rewriter.Rewrite(q, search_stats);
      });
  if (!rws.ok()) return rws.status();
  if (rws->empty()) return Status::NotFound("no rewriting for query");
  return std::move(rws->front());
}

Result<Table> CatalogSnapshot::Query(const Pattern& query, TraceSpan* trace,
                                     RewriteStats* stats) const {
  Result<Rewriting> rw = Rewrite(query, trace, stats);
  if (!rw.ok()) return rw.status();
  Result<Table> out = Execute(*rw->plan, ExecutorCatalog(), trace);
  // NotFound means "no rewriting" only: a plan over this epoch's views that
  // names a view the epoch cannot scan is an inconsistency, not a miss.
  if (!out.ok() && out.status().code() == StatusCode::kNotFound) {
    return Status::Internal(out.status().message());
  }
  return out;
}

std::shared_ptr<const ViewIndex> CatalogSnapshot::ViewIndexFor(
    const Summary& summary, const ExpansionOptions& /*expansion*/) const {
  auto build = [&]() {
    auto index = std::make_shared<ViewIndex>(summary);
    for (const auto& v : views_) index->AddView(v->def);
    return index;
  };
  // Only the snapshot's own summary can key the cache: its lifetime is
  // pinned by the snapshot, so the identity can never be recycled. A
  // caller-owned summary could be freed and its address reused by a
  // different summary while this snapshot lives (ABA), which would serve
  // an index over the wrong path-id space — build those fresh, uncached.
  if (&summary != summary_.get()) return build();
  MutexLock lock(&index_mu_);
  // Built under the lock: concurrent first readers wait instead of
  // duplicating the per-view signature computation.
  if (index_ == nullptr) index_ = build();
  return index_;
}

}  // namespace svx
