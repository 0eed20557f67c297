#include "src/viewstore/catalog_snapshot.h"

#include <utility>

#include "src/observability/metrics.h"
#include "src/rewriting/rewriter.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace svx {

Result<TablePtr> StoredView::table() const {
  SVX_DCHECK(columnar != nullptr && residency != nullptr);
  TablePtr t = residency->Get();
  if (t != nullptr) return t;
  Timer timer;
  Result<Table> decoded = columnar->Decode(decode_doc);
  if (!decoded.ok()) return decoded.status();
  residency->budget()->NoteReload(
      static_cast<int64_t>(timer.ElapsedMicros()));
  return residency->Install(
      std::make_shared<Table>(std::move(decoded).value()), extent_bytes,
      evictable());
}

TablePtr StoredView::TryResident() const {
  return residency == nullptr ? nullptr : residency->Get();
}

void StoredView::InstallResident(TablePtr t) const {
  residency->Install(std::move(t), extent_bytes, evictable());
}

CatalogSnapshot::CatalogSnapshot()
    : birth_(std::chrono::steady_clock::now()) {
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

Catalog CatalogSnapshot::ExecutorCatalog() const {
  Catalog catalog;
  for (const auto& v : views_) {
    // Borrowed pointer into the snapshot (valid while the caller holds it).
    const StoredView* raw = v.get();
    catalog.Register(v->def.name, [raw] { return raw->table(); });
  }
  return catalog;
}

Result<Rewriting> CatalogSnapshot::Rewrite(const Pattern& query,
                                           TraceSpan* trace,
                                           RewriteStats* stats) const {
  if (summary_ == nullptr) {
    return Status::InvalidArgument(
        "snapshot has no bound document/summary (use BindDocument or the "
        "shared-pointer Load)");
  }
  RewriterOptions opts;
  opts.max_results = 1;
  opts.cost_model = &cost_model_;
  opts.memo = memo_.get();
  opts.trace = trace;
  std::shared_ptr<const ViewIndex> index =
      ViewIndexFor(*summary_, opts.expansion);
  opts.shared_view_index = index.get();
  Rewriter rewriter(*summary_, opts);
  for (const auto& v : views_) rewriter.AddView(v->def);
  Result<std::vector<Rewriting>> rws =
      CachedRewrite(rewrite_cache_.get(), &rewriter, query, stats);
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
