#include "src/viewstore/sharded_catalog.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "src/algebra/executor.h"
#include "src/observability/trace.h"
#include "src/util/fileio.h"
#include "src/util/strings.h"

namespace svx {

namespace {

namespace fs = std::filesystem;

/// Keeps only the rows whose anchor id routes to this shard. Views without
/// an anchor are left untouched (they live in the global catalog; a shard
/// should never hold one, but Filter must not corrupt it if it does).
class ShardPartition : public ExtentPartition {
 public:
  ShardPartition(std::shared_ptr<const ShardRouter> router, int shard)
      : router_(std::move(router)), shard_(shard) {}

  void Filter(const ViewDef& def, Table* extent) const override {
    ViewAnchor anchor = AnalyzeViewAnchor(def.pattern);
    if (!anchor.partitionable || anchor.column < 0 ||
        anchor.column >= extent->schema().size()) {
      return;
    }
    std::vector<Tuple>& rows = extent->mutable_rows();
    size_t out = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const Value& id = rows[i][static_cast<size_t>(anchor.column)];
      if (!id.IsId() || router_->Route(id.AsId()) != shard_) continue;
      if (out != i) rows[out] = std::move(rows[i]);
      ++out;
    }
    rows.resize(out);
  }

 private:
  const std::shared_ptr<const ShardRouter> router_;
  const int shard_;
};

/// Merges per-shard result slices into one table in canonical document
/// order. Slices of an anchored query are disjoint (each row carries its
/// anchor id, owned by exactly one shard), so concatenating and sorting
/// once yields the document-order result without a k-way merge.
Table MergeSlices(std::vector<Table> parts) {
  Table out(parts.front().schema());
  for (Table& t : parts) {
    for (Tuple& row : t.mutable_rows()) {
      out.mutable_rows().push_back(std::move(row));
    }
  }
  out.SortRowsCanonical();
  return out;
}

}  // namespace

Result<Table> ShardedSnapshot::ExecuteQuery(const Pattern& query,
                                            TraceSpan* trace) const {
  // The same locality test that shards views: an anchored query's result
  // rows each live in exactly one shard, so shard slices partition the full
  // result. Anything else (no anchoring return id, nodes off the spine —
  // e.g. a cross-subtree join) must see whole extents: the global catalog.
  ViewAnchor anchor = AnalyzeViewAnchor(query);
  if (!anchor.partitionable || shards_.empty()) {
    return global_->Query(query, trace);
  }
  // Every shard stores the same view definitions, so a rewriting found on
  // one shard is valid on all of them: rewrite ONCE (through shard 0's
  // caches), then execute the plan against each shard's extents. A plan
  // references views by name; each shard's executor resolves its own
  // slice.
  Result<Rewriting> rw = shards_[0]->Rewrite(query, trace);
  if (!rw.ok()) {
    if (rw.status().code() == StatusCode::kNotFound) {
      // No shard can serve the query from its views (identical view sets)
      // — fall back to the global catalog.
      return global_->Query(query, trace);
    }
    return rw.status();
  }
  const PlanNode& plan = *rw->plan;
  std::vector<Table> parts;
  parts.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ScopedSpan span(trace, "shard-execute");
    span.Attr("shard", static_cast<int64_t>(i));
    Result<Table> part = Execute(plan, shards_[i]->ExecutorCatalog(),
                                 span.get());
    if (!part.ok()) return part.status();
    parts.push_back(std::move(*part));
  }
  ScopedSpan merge(trace, "merge");
  return MergeSlices(std::move(parts));
}

uint64_t ShardedSnapshot::EpochSum() const {
  uint64_t sum = global_ != nullptr ? global_->epoch() : 0;
  for (const auto& s : shards_) sum += s->epoch();
  return sum;
}

ShardedCatalog::ShardedCatalog(const ShardedCatalogOptions& options,
                               std::shared_ptr<const ShardRouter> router,
                               std::shared_ptr<const Document> doc,
                               std::shared_ptr<const Summary> summary)
    : options_(options),
      router_(std::move(router)),
      doc_(std::move(doc)),
      summary_(std::move(summary)) {
  const int n = router_->num_shards();
  // One budget across every catalog: a shard decoding an extent can evict
  // another shard's cold table, so the cap is global, not per shard.
  auto budget =
      std::make_shared<MemoryBudget>(options_.memory_budget_bytes);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ViewCatalogOptions vo;
    if (!options_.dir.empty()) {
      vo.dir = (fs::path(options_.dir) / StrFormat("shard-%d", i)).string();
    }
    vo.enable_delta_log = options_.enable_delta_log;
    vo.memory_budget = budget;
    auto catalog = std::make_unique<ViewCatalog>(std::move(vo));
    catalog->SetShardLabel(i);
    catalog->SetExtentPartition(std::make_shared<ShardPartition>(router_, i));
    shards_.push_back(std::move(catalog));
  }
  ViewCatalogOptions go;
  if (!options_.dir.empty()) {
    go.dir = (fs::path(options_.dir) / "global").string();
  }
  go.enable_delta_log = options_.enable_delta_log;
  go.memory_budget = std::move(budget);
  global_ = std::make_unique<ViewCatalog>(std::move(go));
}

ShardedCatalog::~ShardedCatalog() {
  for (auto& lane : lanes_) {
    MutexLock lock(&lane->mu);
    lane->stop = true;
    lane->cv.SignalAll();
  }
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::Create(
    const ShardedCatalogOptions& options, std::shared_ptr<const Document> doc,
    std::shared_ptr<const Summary> summary) {
  if (doc == nullptr) {
    return Status::InvalidArgument("sharded catalog requires a document");
  }
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.enable_delta_log && options.dir.empty()) {
    return Status::InvalidArgument("delta log requires a store directory");
  }
  auto router = std::make_shared<ShardRouter>(
      ShardRouter::Partition(*doc, options.num_shards));
  if (!options.dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.dir, ec);
    if (ec) {
      return Status::Internal("cannot create store dir " + options.dir + ": " +
                              ec.message());
    }
    SVX_RETURN_IF_ERROR(
        WriteFileAtomic((fs::path(options.dir) / "shards.txt").string(),
                        router->Serialize()));
  }
  std::unique_ptr<ShardedCatalog> catalog(
      new ShardedCatalog(options, std::move(router), doc, summary));
  for (auto& shard : catalog->shards_) shard->BindDocument(doc, summary);
  catalog->global_->BindDocument(std::move(doc), std::move(summary));
  catalog->StartLanes();
  return catalog;
}

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::Open(
    const ShardedCatalogOptions& options, std::shared_ptr<const Document> doc,
    std::shared_ptr<const Summary> summary) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("Open requires a store directory");
  }
  if (doc == nullptr) {
    return Status::InvalidArgument("sharded catalog requires a document");
  }
  Result<std::string> boundaries =
      ReadFileBytes((fs::path(options.dir) / "shards.txt").string());
  if (!boundaries.ok()) return boundaries.status();
  Result<ShardRouter> parsed = ShardRouter::Deserialize(*boundaries);
  if (!parsed.ok()) return parsed.status();
  auto router = std::make_shared<ShardRouter>(std::move(*parsed));
  // A shard directory past the router's count means shards.txt lost lines:
  // opening would silently drop that shard's views.
  std::error_code ec;
  for (const fs::directory_entry& e :
       fs::directory_iterator(options.dir, ec)) {
    const std::string name = e.path().filename().string();
    if (!e.is_directory() || !name.starts_with("shard-")) continue;
    std::optional<int64_t> k = ParseInt64(name.substr(6));
    if (k.has_value() && *k >= router->num_shards()) {
      return Status::ParseError(
          StrFormat("shards.txt names %d shards but the store has %s/",
                    router->num_shards(), name.c_str()));
    }
  }
  std::unique_ptr<ShardedCatalog> catalog(
      new ShardedCatalog(options, std::move(router), doc, summary));
  auto recover = [&](ViewCatalog* c) -> Status {
    // A catalog that never checkpointed has no manifest (it also has no
    // views — view-set mutations checkpoint immediately); start it empty.
    if (!fs::exists(fs::path(c->dir()) / "manifest.txt")) {
      c->BindDocument(doc, summary);
      return Status::OK();
    }
    return c->Load(doc, summary);
  };
  for (auto& shard : catalog->shards_) {
    SVX_RETURN_IF_ERROR(recover(shard.get()));
  }
  SVX_RETURN_IF_ERROR(recover(catalog->global_.get()));
  catalog->StartLanes();
  return catalog;
}

void ShardedCatalog::StartLanes() {
  if (!options_.async) return;
  lanes_.reserve(shards_.size() + 1);
  for (auto& shard : shards_) {
    auto lane = std::make_unique<Lane>();
    lane->thread =
        std::thread(&ShardedCatalog::LaneLoop, this, lane.get(), shard.get());
    lanes_.push_back(std::move(lane));
  }
  auto lane = std::make_unique<Lane>();
  lane->thread =
      std::thread(&ShardedCatalog::LaneLoop, this, lane.get(), global_.get());
  lanes_.push_back(std::move(lane));
}

void ShardedCatalog::LaneLoop(Lane* lane, ViewCatalog* catalog) {
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(&lane->mu);
      while (lane->queue.empty() && !lane->stop) lane->cv.Wait(&lane->mu);
      if (lane->queue.empty()) break;  // stop requested and fully drained
      // Drain everything queued into one batch — the coalescing: K deltas
      // become one maintenance pass and one published epoch.
      batch.assign(std::make_move_iterator(lane->queue.begin()),
                   std::make_move_iterator(lane->queue.end()));
      lane->queue.clear();
      lane->busy = true;
    }
    std::vector<DocumentDelta> deltas;
    deltas.reserve(batch.size());
    for (const Pending& p : batch) deltas.push_back(p.delta);
    Status s = catalog->ApplyUpdateBatch(deltas, batch.back().new_doc,
                                         batch.back().new_summary);
    {
      MutexLock lock(&lane->mu);
      lane->busy = false;
      if (!s.ok() && lane->error.ok()) lane->error = s;
      lane->cv.SignalAll();
    }
  }
}

Status ShardedCatalog::EnqueueTo(Lane* lane, const DocumentDelta& delta,
                                 std::shared_ptr<const Document> new_doc,
                                 std::shared_ptr<const Summary> new_summary) {
  MutexLock lock(&lane->mu);
  if (lane->stop) return Status::Internal("sharded catalog is shutting down");
  if (!lane->error.ok()) return lane->error;  // sticky: fail fast
  lane->queue.push_back(
      Pending{delta, std::move(new_doc), std::move(new_summary)});
  lane->cv.SignalAll();
  return Status::OK();
}

Status ShardedCatalog::ApplyUpdate(const DocumentDelta& delta,
                                   std::shared_ptr<const Document> new_doc,
                                   std::shared_ptr<const Summary> new_summary,
                                   TraceSpan* span) {
  if (new_doc == nullptr || new_doc.get() != delta.new_doc) {
    return Status::InvalidArgument(
        "shared document must be the delta's new_doc");
  }
  // A delta's region has depth >= 2 (the root is never inserted or
  // deleted) and the router cuts only at top-level subtree boundaries, so
  // the region lies in exactly one shard: routing is a lookup, not a split.
  const int target = router_->Route(delta.region);
  // The global catalog sees every delta (its views span all shards); skip
  // it while it holds none so empty passes don't dilute the batching.
  // Materialize binds the catalogs skipped here to the latest document.
  const bool global_active = global_->size() > 0;
  if (!options_.async) {
    SVX_RETURN_IF_ERROR(shards_[static_cast<size_t>(target)]->ApplyUpdateBatch(
        {delta}, new_doc, new_summary, nullptr, span));
    if (global_active) {
      SVX_RETURN_IF_ERROR(global_->ApplyUpdateBatch(
          {delta}, new_doc, new_summary, nullptr, span));
    }
  } else {
    SVX_RETURN_IF_ERROR(EnqueueTo(lanes_[static_cast<size_t>(target)].get(),
                                  delta, new_doc, new_summary));
    if (global_active) {
      SVX_RETURN_IF_ERROR(
          EnqueueTo(lanes_.back().get(), delta, new_doc, new_summary));
    }
  }
  MutexLock lock(&doc_mu_);
  doc_ = std::move(new_doc);
  summary_ = std::move(new_summary);
  return Status::OK();
}

Status ShardedCatalog::Flush() {
  Status first = Status::OK();
  for (auto& lane : lanes_) {
    MutexLock lock(&lane->mu);
    while (!lane->queue.empty() || lane->busy) lane->cv.Wait(&lane->mu);
    if (first.ok() && !lane->error.ok()) first = lane->error;
  }
  return first;
}

void ShardedCatalog::BindLatestDocument() {
  std::shared_ptr<const Document> doc;
  std::shared_ptr<const Summary> summary;
  {
    MutexLock lock(&doc_mu_);
    doc = doc_;
    summary = summary_;
  }
  auto bind = [&](ViewCatalog* c) {
    if (c->Snapshot()->document() != doc.get()) c->BindDocument(doc, summary);
  };
  for (auto& shard : shards_) bind(shard.get());
  bind(global_.get());
}

Status ShardedCatalog::Materialize(const ViewDef& def, const Document& doc) {
  SVX_RETURN_IF_ERROR(Flush());
  BindLatestDocument();
  ViewAnchor anchor = AnalyzeViewAnchor(def.pattern);
  Table extent = MaterializeView(def.pattern, def.name, doc);
  if (!anchor.partitionable) {
    return global_->Add(def, std::move(extent));
  }
  // One evaluation, N registrations: each shard's partition filter keeps
  // only the rows it owns.
  for (auto& shard : shards_) {
    SVX_RETURN_IF_ERROR(shard->Add(def, extent));
  }
  return Status::OK();
}

Status ShardedCatalog::Save() {
  if (options_.dir.empty()) {
    return Status::InvalidArgument("sharded catalog has no store dir");
  }
  SVX_RETURN_IF_ERROR(Flush());
  for (auto& shard : shards_) SVX_RETURN_IF_ERROR(shard->Save());
  return global_->Save();
}

ShardedSnapshot ShardedCatalog::Snapshot() const {
  ShardedSnapshot snap;
  snap.shards_.reserve(shards_.size());
  for (const auto& shard : shards_) snap.shards_.push_back(shard->Snapshot());
  snap.global_ = global_->Snapshot();
  return snap;
}

std::string ShardedCatalog::DebugMetrics() const {
  uint64_t epoch_sum = 0;
  int64_t max_age_us = 0;
  int64_t wal_depth_total = 0;
  std::string out = StrFormat("{\"num_shards\":%d,\"async\":%s,\"shards\":[",
                              num_shards(), options_.async ? "true" : "false");
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i != 0) out += ',';
    out += shards_[i]->DebugMetrics();
    std::shared_ptr<const CatalogSnapshot> snap = shards_[i]->Snapshot();
    epoch_sum += snap->epoch();
    max_age_us = std::max(max_age_us, snap->AgeMicros());
    wal_depth_total += shards_[i]->wal_depth();
  }
  out += "],\"global\":";
  out += global_->DebugMetrics();
  epoch_sum += global_->Snapshot()->epoch();
  wal_depth_total += global_->wal_depth();
  out += StrFormat(
      ",\"epoch_sum\":%llu,\"max_epoch_age_us\":%lld,\"wal_depth_total\":%lld}",
      static_cast<unsigned long long>(epoch_sum),
      static_cast<long long>(max_age_us),
      static_cast<long long>(wal_depth_total));
  return out;
}

}  // namespace svx
