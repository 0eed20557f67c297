#include "src/viewstore/view_catalog.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "src/maintenance/delta_evaluator.h"
#include "src/pattern/pattern_parser.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/check.h"
#include "src/util/fileio.h"
#include "src/util/json_writer.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/extent_io.h"

namespace svx {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestHeader[] = "svx-viewstore 3";

bool SafeName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    // '@' and '#' appear in attribute/text labels ("B3_@category") and are
    // plain filename characters on POSIX.
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
              c == '@' || c == '#';
    if (!ok) return false;
  }
  return name[0] != '.';
}

std::string ExtentFileName(const StoredView& v) {
  return StrFormat("%s.%llu.extent", v.def.name.c_str(),
                   static_cast<unsigned long long>(v.generation));
}

std::string StatsFileName(const StoredView& v) {
  return StrFormat("%s.%llu.stats", v.def.name.c_str(),
                   static_cast<unsigned long long>(v.generation));
}

/// Removes every *.extent / *.stats / *.tmp file under `dir` that `live`
/// does not reference (replaced generations, dropped views, interrupted
/// temps). Best-effort.
void SweepUnreferenced(const std::string& dir,
                       const std::unordered_set<std::string>& live) {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    std::string ext = entry.path().extension().string();
    if (ext != ".extent" && ext != ".stats" && ext != ".tmp") continue;
    if (live.count(name) != 0) continue;
    std::error_code remove_ec;
    fs::remove(entry.path(), remove_ec);
  }
}

std::unordered_set<std::string> LiveFileSet(
    const std::vector<std::shared_ptr<const StoredView>>& views) {
  std::unordered_set<std::string> live{"manifest.txt"};
  for (const auto& v : views) {
    live.insert(ExtentFileName(*v));
    live.insert(StatsFileName(*v));
  }
  return live;
}

/// A document the caller keeps alive, held the way an epoch holds an owned
/// one.
std::shared_ptr<const Document> Borrowed(const Document* doc) {
  return std::shared_ptr<const Document>(std::shared_ptr<const Document>(),
                                         doc);
}

/// Installs `extent` as `sv`'s stored representation: encodes the columnar
/// truth, installs the decoded table resident against `budget`, and records
/// the byte sizes.
/// `extent_bytes` is the row-major serialized size — callers either track
/// it incrementally or pass ExtentByteSize(extent).
void SetExtent(StoredView* sv, Table extent, int64_t extent_bytes,
               const std::shared_ptr<MemoryBudget>& budget) {
  sv->extent_bytes = extent_bytes;
  sv->columnar =
      std::make_shared<ColumnarExtent>(ColumnarExtent::Encode(extent));
  sv->residency = std::make_shared<ExtentResidency>(budget);
  sv->residency->SetCompressedBytes(sv->columnar->SerializedByteSize());
  sv->InstallResident(std::make_shared<Table>(std::move(extent)));
}

/// Installs persisted bytes as `sv`'s stored representation: a manifest
/// entry's .extent/.stats files, or a WAL entry holding the same bytes. The
/// extent loads without materializing rows and stays cold until something
/// scans it; every content reference must resolve in `doc`, and the
/// statistics must describe the extent.
Status InstallPersisted(StoredView* sv, std::string_view extent_file,
                        std::string_view stats_text, const Document* doc,
                        const std::shared_ptr<MemoryBudget>& budget) {
  Result<ColumnarLoad> load = DeserializeExtentColumnar(extent_file);
  if (!load.ok()) return load.status();
  const ColumnarExtent& columnar = *load->columnar;
  if (columnar.has_content()) {
    if (doc == nullptr) {
      return Status::InvalidArgument(
          "extent has content references but no document was supplied");
    }
    // Validate every reference off the chunks: a cold columnar extent must
    // never fail its lazy decode later.
    SVX_RETURN_IF_ERROR(columnar.ForEachContentId([&](const OrdPath& id) {
      if (doc->FindByOrdPath(id) == kInvalidNode) {
        return Status::NotFound("content reference " + id.ToString() +
                                " not in the document");
      }
      return Status::OK();
    }));
  }
  Result<ViewStats> stats = ParseViewStats(stats_text);
  if (!stats.ok()) return stats.status();
  SVX_RETURN_IF_ERROR(
      CheckViewStatsFit(*stats, columnar.schema(), columnar.num_rows()));
  sv->stats = std::move(*stats);
  sv->extent_bytes = load->uncompressed_bytes;
  sv->residency = std::make_shared<ExtentResidency>(budget);
  sv->residency->SetCompressedBytes(columnar.SerializedByteSize());
  sv->columnar = std::move(load->columnar);
  return Status::OK();
}

/// The distinct labels of the nodes `deltas` add or remove, or nullopt when
/// some delta's region does not resolve to a non-root node of the document
/// it lives in (delta evaluation then decides, and rebuilds).
std::optional<std::vector<std::string_view>> RegionLabels(
    const std::vector<DocumentDelta>& deltas) {
  std::vector<std::string_view> labels;
  for (const DocumentDelta& delta : deltas) {
    const Document& doc = delta.kind == DocumentDelta::Kind::kInsert
                              ? *delta.new_doc
                              : *delta.old_doc;
    const NodeIndex root = doc.FindByOrdPath(delta.region);
    if (root == kInvalidNode || root == doc.root()) return std::nullopt;
    std::vector<bool> seen(static_cast<size_t>(doc.labels().size()), false);
    for (NodeIndex n = root; n < doc.subtree_end(root); ++n) {
      const auto id = static_cast<size_t>(doc.label_id(n));
      if (seen[id]) continue;
      seen[id] = true;
      const std::string& label = doc.label(n);
      if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
        labels.push_back(label);
      }
    }
  }
  return labels;
}

/// False when a batch whose added and removed nodes carry only `labels`
/// leaves `pattern`'s extent as it is: no node of the pattern is a
/// wildcard or carries one of the labels. Every embedding then avoids the
/// added and removed nodes, and such an embedding exists in both versions
/// with the same cells, since surviving nodes keep their ids, labels,
/// values and structural relations (a content cell is its node's id); so
/// every optional edge pads and every nested group aggregates as before.
bool MayTouch(const Pattern& pattern,
              const std::vector<std::string_view>& labels) {
  for (PatternNodeId i = 0; i < pattern.size(); ++i) {
    const Pattern::Node& node = pattern.node(i);
    if (node.IsWildcard() ||
        std::find(labels.begin(), labels.end(), node.label) != labels.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

ViewCatalog::ViewCatalog() : ViewCatalog(std::string()) {}

ViewCatalog::ViewCatalog(std::string dir)
    : ViewCatalog([&] {
        ViewCatalogOptions o;
        o.dir = std::move(dir);
        return o;
      }()) {}

ViewCatalog::ViewCatalog(ViewCatalogOptions options)
    : dir_(std::move(options.dir)),
      enable_delta_log_(options.enable_delta_log && !dir_.empty()),
      budget_(options.memory_budget != nullptr
                  ? std::move(options.memory_budget)
                  : std::make_shared<MemoryBudget>(
                        options.memory_budget_bytes)) {
  // NOLINTNEXTLINE(modernize-make-shared): private ctor, friend-only access.
  auto initial = std::shared_ptr<CatalogSnapshot>(new CatalogSnapshot());
  initial->epoch_ = next_epoch_++;
  initial->rewrite_cache_ = std::make_shared<RewriteCache>(cache_counters_);
  initial->memo_ = std::make_shared<ContainmentMemo>();
  snapshot_ = std::move(initial);
}

void ViewCatalog::SetExtentPartition(
    std::shared_ptr<const ExtentPartition> partition) {
  MutexLock lock(&writer_mu_);
  partition_ = std::move(partition);
}

void ViewCatalog::SetShardLabel(int shard) {
  shard_.store(shard, std::memory_order_relaxed);
  if (shard >= 0) {
    // Resolve the labeled handles once: the maintenance hot path only loads
    // these atomics, never touching the registry mutex.
    shard_passes_.store(
        metrics::ShardCounter("svx_maintenance_passes_total", shard,
                              "Maintenance passes applied to this shard."),
        std::memory_order_release);
    shard_deltas_.store(
        metrics::ShardCounter("svx_deltas_applied_total", shard,
                              "Document deltas folded into this shard."),
        std::memory_order_release);
    shard_epoch_age_.store(metrics::ShardEpochAgeUs(shard),
                           std::memory_order_release);
  } else {
    shard_passes_.store(nullptr, std::memory_order_release);
    shard_deltas_.store(nullptr, std::memory_order_release);
    shard_epoch_age_.store(nullptr, std::memory_order_release);
  }
}

void ViewCatalog::PublishLocked(
    std::vector<std::shared_ptr<const StoredView>> views,
    std::shared_ptr<const Document> doc,
    std::shared_ptr<const Summary> summary, Change change) {
  std::shared_ptr<const CatalogSnapshot> old = Current();
  // NOLINTNEXTLINE(modernize-make-shared): private ctor, friend-only access.
  auto snap = std::shared_ptr<CatalogSnapshot>(new CatalogSnapshot());
  snap->epoch_ = next_epoch_++;
  snap->views_ = std::move(views);
  if (change == Change::kViews) {
    // Same document: the bindings and the summary-bound memo carry; cached
    // plans may name a dropped view or miss a cheaper one over a new view.
    snap->doc_ = old->doc_;
    snap->summary_ = old->summary_;
    snap->memo_ = old->memo_;
    DropRewriteCachesLocked(old->rewrite_cache_.get());
    snap->rewrite_cache_ = std::make_shared<RewriteCache>(cache_counters_);
  } else if (change == Change::kStore || summary == nullptr ||
             old->summary_ == nullptr) {
    // A loaded store, or no structure to match on either side: start over.
    snap->doc_ = std::move(doc);
    snap->summary_ = std::move(summary);
    snap->memo_ = std::make_shared<ContainmentMemo>();
    DropRewriteCachesLocked(old->rewrite_cache_.get());
    snap->rewrite_cache_ = std::make_shared<RewriteCache>(cache_counters_);
  } else if (summary == old->summary_ ||
             summary->StructurallyEquals(*old->summary_)) {
    // Same structure under the same numbering: the new document's path ids
    // agree with the bound summary, so the epoch keeps that object and with
    // it the memo, the cache and the view index over the same view defs.
    snap->doc_ = std::move(doc);
    snap->summary_ = old->summary_;
    snap->memo_ = old->memo_;
    snap->rewrite_cache_ = old->rewrite_cache_;
    std::shared_ptr<const ViewIndex> index;
    {
      MutexLock lock(&old->index_mu_);
      index = old->index_;
    }
    MutexLock lock(&snap->index_mu_);
    snap->index_ = std::move(index);
  } else {
    // Another structure, or the same one renumbered: plans carry (they name
    // no path id) but the memo and view index do not. File the bound cache
    // under its structure and serve the new structure's.
    snap->doc_ = std::move(doc);
    snap->summary_ = std::move(summary);
    snap->memo_ = std::make_shared<ContainmentMemo>();
    RewriteCacheSlotLocked(old->summary_->StructureKey()) =
        old->rewrite_cache_;
    std::shared_ptr<RewriteCache>& slot =
        RewriteCacheSlotLocked(snap->summary_->StructureKey());
    if (slot == nullptr) slot = std::make_shared<RewriteCache>(cache_counters_);
    snap->rewrite_cache_ = slot;
  }
  snap->executor_catalog_.set_document(snap->doc_.get());
  snap->cost_model_.constants = CalibratedCostConstants();
  for (const auto& v : snap->views_) {
    snap->cost_model_.AddViewStats(v->def.name, v->stats);
  }
  // The successor is complete; the exclusive side of the epoch lock is
  // held only for this swap. The displaced epoch is released outside the
  // lock — when the writer holds its last reference, retiring it tears
  // down extents (possibly a whole document), which must not block
  // readers.
  const uint64_t published_epoch = snap->epoch_;
  std::shared_ptr<const CatalogSnapshot> retired;
  {
    WriterMutexLock lock(&snapshot_mu_);
    retired = std::move(snapshot_);
    snapshot_ = std::move(snap);
  }
  metrics::EpochCurrent()->Set(static_cast<int64_t>(published_epoch));
  metrics::EpochPublishes()->Add(1);
}

void ViewCatalog::DropRewriteCachesLocked(const RewriteCache* bound) {
  bool held = bound != nullptr && bound->size() > 0;
  for (const auto& entry : rewrite_caches_) {
    held = held || entry.second->size() > 0;
  }
  if (held) {
    cache_counters_->invalidations.fetch_add(1, std::memory_order_relaxed);
  }
  rewrite_caches_.clear();
}

std::shared_ptr<RewriteCache>& ViewCatalog::RewriteCacheSlotLocked(
    const std::string& key) {
  if (rewrite_caches_.size() >= kMaxRewriteCaches &&
      rewrite_caches_.find(key) == rewrite_caches_.end()) {
    DropRewriteCachesLocked(nullptr);
  }
  return rewrite_caches_[key];
}

void ViewCatalog::BindDocument(std::shared_ptr<const Document> doc,
                               std::shared_ptr<const Summary> summary) {
  MutexLock lock(&writer_mu_);
  PublishLocked(Current()->views(), std::move(doc), std::move(summary),
                Change::kDocument);
}

Status ViewCatalog::Materialize(const ViewDef& def, const Document& doc) {
  return Add(def, MaterializeView(def.pattern, def.name, doc));
}

Status ViewCatalog::Add(ViewDef def, Table extent) {
  if (!SafeName(def.name)) {
    return Status::InvalidArgument("view name not storable: " + def.name);
  }
  // The extent format cannot represent rows without columns; reject them
  // here so Save()/Load() round-trips everything this catalog accepts.
  if (extent.schema().size() == 0 && extent.NumRows() > 0) {
    return Status::InvalidArgument(
        "zero-column extent with rows is not storable: " + def.name);
  }
  MutexLock lock(&writer_mu_);
  if (partition_ != nullptr) partition_->Filter(def, &extent);
  extent.SortRowsCanonical();
  std::vector<std::shared_ptr<const StoredView>> next = Current()->views();
  auto stored = std::make_shared<StoredView>();
  stored->def = std::move(def);
  stored->stats = ComputeViewStats(extent);
  const int64_t bytes = ExtentByteSize(extent);
  SetExtent(stored.get(), std::move(extent), bytes, budget_);

  bool replaced = false;
  for (auto& v : next) {
    if (v->def.name == stored->def.name) {
      v = std::move(stored);
      replaced = true;
      break;
    }
  }
  if (!replaced) next.push_back(std::move(stored));
  PublishLocked(std::move(next), nullptr, nullptr, Change::kViews);
  if (enable_delta_log_) {
    // A view-set mutation changes what WAL replay must resolve by name;
    // checkpoint immediately so no log record can ever reference a view
    // the persisted manifest does not know.
    std::shared_ptr<const CatalogSnapshot> cur = Current();
    return PersistLocked(cur->views(), cur->epoch());
  }
  return Status::OK();
}

Status ViewCatalog::Drop(const std::string& name) {
  MutexLock lock(&writer_mu_);
  std::vector<std::shared_ptr<const StoredView>> next = Current()->views();
  auto it = std::find_if(next.begin(), next.end(),
                         [&](const auto& v) { return v->def.name == name; });
  if (it == next.end()) return Status::NotFound("no such view: " + name);
  next.erase(it);
  PublishLocked(std::move(next), nullptr, nullptr, Change::kViews);
  if (enable_delta_log_) {
    std::shared_ptr<const CatalogSnapshot> cur = Current();
    return PersistLocked(cur->views(), cur->epoch());
  }
  return Status::OK();
}

Status ViewCatalog::Save() const {
  if (dir_.empty()) return Status::InvalidArgument("catalog has no store dir");
  MutexLock lock(&writer_mu_);
  std::shared_ptr<const CatalogSnapshot> cur = Current();
  return PersistLocked(cur->views(), cur->epoch());
}

Status ViewCatalog::EnsureWalLocked() const {
  if (wal_ != nullptr && wal_->generation() == wal_generation_) {
    return Status::OK();
  }
  Result<std::unique_ptr<DeltaLog>> log = DeltaLog::Open(dir_, wal_generation_);
  if (!log.ok()) return log.status();
  wal_ = std::move(log).value();
  return Status::OK();
}

Status ViewCatalog::PersistLocked(
    const std::vector<std::shared_ptr<const StoredView>>& views,
    uint64_t epoch) const {
  if (dir_.empty()) return Status::InvalidArgument("catalog has no store dir");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create store dir " + dir_ + ": " +
                            ec.message());
  }
  // Never-reuse is a cross-process property: a fresh catalog saving into a
  // directory another instance populated (without Load()ing it) must not
  // re-mint generations already on disk — overwriting "<name>.<gen>.extent"
  // in place would reopen the crash window the generations close. Nor may
  // it append to that instance's WAL segment, whose records would replay
  // over this catalog's state. Seed both counters past everything present,
  // once per catalog: this save's floor then retires every segment there.
  if (!generation_seeded_) {
    uint64_t max_gen = 0;
    uint64_t max_segment = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
      if (ec) break;
      if (!entry.is_regular_file()) continue;
      uint64_t segment = 0;
      if (DeltaLog::ParseSegmentFileName(entry.path().filename().string(),
                                         &segment)) {
        max_segment = std::max(max_segment, segment);
        continue;
      }
      std::string ext = entry.path().extension().string();
      if (ext != ".extent" && ext != ".stats") continue;
      std::string stem = entry.path().stem().string();  // "<name>.<gen>"
      size_t dot = stem.rfind('.');
      if (dot == std::string::npos) continue;  // not "<name>.<gen>"
      std::optional<int64_t> gen = ParseInt64(stem.substr(dot + 1));
      if (gen && *gen > 0) {
        max_gen = std::max(max_gen, static_cast<uint64_t>(*gen));
      }
    }
    next_generation_ = std::max(next_generation_, max_gen + 1);
    wal_generation_ = std::max(wal_generation_, max_segment + 1);
    generation_seeded_ = true;
  }
  // Extents and stats first, each under a generation-suffixed name that no
  // previous save ever used (plus a temp + rename per file), the manifest
  // last: a crash anywhere mid-save leaves the previous manifest
  // referencing only complete files of the previous generations — file
  // names are never reused, so versions cannot mix.
  // The v3 manifest records the epoch its extents capture; in delta-log
  // mode it also advances the WAL segment floor past the current segment,
  // making this save the checkpoint that retires every earlier record.
  const uint64_t new_floor = wal_generation_ + 1;
  std::string manifest(kManifestHeader);
  manifest.push_back('\n');
  manifest += StrFormat("epoch %llu\n", static_cast<unsigned long long>(epoch));
  if (enable_delta_log_) {
    manifest +=
        StrFormat("wal %llu\n", static_cast<unsigned long long>(new_floor));
  }
  for (const auto& v : views) {
    if (v->generation == 0 ||
        !fs::exists(fs::path(dir_) / ExtentFileName(*v)) ||
        !fs::exists(fs::path(dir_) / StatsFileName(*v))) {
      v->generation = next_generation_++;
      std::string extent_bytes =
          SerializeColumnarExtent(*v->columnar, v->extent_bytes);
      std::string stats_bytes = ViewStatsToString(v->stats);
      SVX_RETURN_IF_ERROR(
          WriteFileAtomic(fs::path(dir_) / ExtentFileName(*v), extent_bytes));
      SVX_RETURN_IF_ERROR(
          WriteFileAtomic(fs::path(dir_) / StatsFileName(*v), stats_bytes));
      metrics::PersistBytesWritten()->Add(
          static_cast<int64_t>(extent_bytes.size() + stats_bytes.size()));
      metrics::PersistFilesWritten()->Add(2);
    }
    manifest += StrFormat("view %s %llu %s\n", v->def.name.c_str(),
                          static_cast<unsigned long long>(v->generation),
                          PatternToString(v->def.pattern).c_str());
  }
  SVX_RETURN_IF_ERROR(
      WriteFileAtomic(fs::path(dir_) / "manifest.txt", manifest));
  metrics::PersistBytesWritten()->Add(static_cast<int64_t>(manifest.size()));
  metrics::PersistFilesWritten()->Add(1);
  SweepUnreferenced(dir_, LiveFileSet(views));
  // Rotate and truncate the delta log: the manifest (already flipped) names
  // `new_floor`, so records in the old segments can never replay again —
  // close the old segment, open the fresh one, sweep the rest. A crash
  // between the flip and the end of the fresh segment's header is safe:
  // replay from a floor with no segments, or from a torn header, is empty,
  // and the extents are complete.
  wal_generation_ = new_floor;
  wal_floor_ = new_floor;
  wal_depth_.store(0, std::memory_order_relaxed);
  if (enable_delta_log_) {
    wal_.reset();
    SVX_RETURN_IF_ERROR(EnsureWalLocked());
  }
  DeltaLog::SweepSegments(dir_, new_floor);
  return Status::OK();
}

Status ViewCatalog::ApplyUpdate(const DocumentDelta& delta,
                                MaintenanceStats* out_stats) {
  return ApplyUpdateBatchImpl({delta}, nullptr, nullptr, out_stats, nullptr);
}

Status ViewCatalog::ApplyUpdateBatch(const std::vector<DocumentDelta>& deltas,
                                     std::shared_ptr<const Document> new_doc,
                                     std::shared_ptr<const Summary> new_summary,
                                     MaintenanceStats* out_stats,
                                     TraceSpan* span) {
  if (deltas.empty()) return Status::InvalidArgument("empty delta batch");
  if (new_doc != nullptr && new_doc.get() != deltas.back().new_doc) {
    return Status::InvalidArgument(
        "shared document must be the last delta's new_doc");
  }
  return ApplyUpdateBatchImpl(deltas, std::move(new_doc),
                              std::move(new_summary), out_stats, span);
}

Status ViewCatalog::ApplyUpdateBatchImpl(
    const std::vector<DocumentDelta>& deltas,
    std::shared_ptr<const Document> new_doc,
    std::shared_ptr<const Summary> new_summary, MaintenanceStats* out_stats,
    TraceSpan* span) {
  for (const DocumentDelta& delta : deltas) {
    if (delta.old_doc == nullptr || delta.new_doc == nullptr) {
      return Status::InvalidArgument("document delta without documents");
    }
  }
  const Document& final_doc = *deltas.back().new_doc;
  Timer timer;
  ScopedSpan pass_span(span, "maintenance_pass");
  const int shard = shard_.load(std::memory_order_relaxed);
  if (shard >= 0) pass_span.Attr("shard", static_cast<int64_t>(shard));
  pass_span.Attr("deltas", static_cast<int64_t>(deltas.size()));
  MutexLock lock(&writer_mu_);
  std::shared_ptr<const CatalogSnapshot> cur = Current();
  MaintenanceStats ms;
  ms.deltas_applied = static_cast<int32_t>(deltas.size());
  // In delta-log mode the whole pass logs as one record holding every view
  // it re-encodes.
  std::vector<WalViewDelta> wal_views;
  std::vector<std::shared_ptr<const StoredView>> next;
  next.reserve(cur->views().size());
  // Route the batch before decoding anything: a view no added or removed
  // node can match keeps its stored view, cold or not.
  const std::optional<std::vector<std::string_view>> region_labels =
      RegionLabels(deltas);
  for (const std::shared_ptr<const StoredView>& v : cur->views()) {
    if (region_labels.has_value() &&
        !MayTouch(v->def.pattern, *region_labels)) {
      next.push_back(v);
      ++ms.views_shared;
      continue;
    }
    // The view's value-count cache, built from the pre-batch extent on
    // first use and folded step by step (writer-private, see StoredView).
    std::shared_ptr<ValueCountCache> cache = std::move(v->value_counts);
    // Delta evaluation needs the decoded rows; `base` decodes them back in
    // if the budget evicted the table, and pins them for the whole pass.
    Result<TablePtr> base_result = v->table();
    if (!base_result.ok()) return base_result.status();
    TablePtr base = std::move(base_result).value();
    // Copy-on-maintenance, lazily: readers of the current epoch keep the
    // pre-update extent; `extent` always points at the rows the next step's
    // delta must be computed against; `working` is the successor's private
    // row-major copy, encoded columnar once the batch is folded.
    std::shared_ptr<StoredView> nv;
    Table working;
    const Table* extent = base.get();
    auto ensure_copy = [&]() {
      if (nv != nullptr) return;
      nv = std::make_shared<StoredView>();
      nv->def = v->def;
      nv->extent_bytes = v->extent_bytes;
      nv->stats = v->stats;
      working = *base;
      extent = &working;
    };
    bool rebuilt = false;
    auto rebuild = [&]() {
      ensure_copy();
      Table fresh = MaterializeView(v->def.pattern, v->def.name, final_doc);
      if (partition_ != nullptr) partition_->Filter(v->def, &fresh);
      fresh.SortRowsCanonical();
      working = std::move(fresh);
      nv->extent_bytes = ExtentByteSize(working);
      cache = nullptr;  // counts describe the discarded extent
      rebuilt = true;
      ++ms.views_rebuilt;
      ++ms.views_touched;
    };
    for (const DocumentDelta& delta : deltas) {
      TableDelta td =
          ComputeViewDelta(v->def.pattern, v->def.name, *extent, delta);
      if (td.full_rebuild) {
        // Rebuilding from the batch's final document subsumes every
        // remaining step: stop folding.
        rebuild();
        break;
      }
      if (td.Empty()) continue;
      ensure_copy();
      if (cache == nullptr) {
        // Must describe the pre-step extent: build before mutating rows.
        cache = std::make_shared<ValueCountCache>(BuildValueCounts(*extent));
      }
      std::vector<Tuple>& rows = working.mutable_rows();
      int64_t deleted = 0;
      if (!td.delete_rows.empty()) {
        // The delta was computed against this very extent (same row
        // order), so dropping by index avoids re-encoding rows for key
        // matching.
        size_t next_delete = 0;
        size_t out = 0;
        for (size_t i = 0; i < rows.size(); ++i) {
          if (next_delete < td.delete_rows.size() &&
              static_cast<int64_t>(i) == td.delete_rows[next_delete]) {
            nv->extent_bytes -= TupleByteSize(rows[i]);
            ++deleted;
            ++next_delete;
            continue;
          }
          if (out != i) rows[out] = std::move(rows[i]);
          ++out;
        }
        rows.resize(out);
      }
      // Byte sizes track per-tuple cell sizes (rows carry no per-row
      // header), so the recorded size stays exact without a full recount.
      for (const Tuple& t : td.inserts) {
        nv->extent_bytes += TupleByteSize(t);
        rows.push_back(t);
      }
      nv->stats = RefreshViewStatsCached(nv->stats, working.schema(),
                                         cache.get(), td.deletes, td.inserts);
      // The next step's delta is computed against canonical row order.
      working.SortRowsCanonical();
      ms.tuples_deleted += deleted;
      ms.tuples_inserted += static_cast<int64_t>(td.inserts.size());
    }
    if (!rebuilt && nv == nullptr) {
      // No step changed a row: the stored view — and its on-disk
      // generation — carries into the new epoch as-is, shared with readers
      // of older epochs.
      v->value_counts = std::move(cache);
      next.push_back(v);
      ++ms.views_shared;
      continue;
    }
    if (rebuilt) {
      nv->stats = ComputeViewStats(working);
    } else {
      ++ms.views_touched;
      nv->value_counts = std::move(cache);
    }
    // generation 0: persisted fresh. extent_bytes is exact: a rebuild
    // recounts it, and the incremental accounting (TupleByteSize
    // adds/removes above) tracks it without a recount.
    const int64_t bytes = nv->extent_bytes;
    SetExtent(nv.get(), std::move(working), bytes, budget_);
    if (enable_delta_log_) {
      wal_views.push_back({v->def.name,
                           SerializeColumnarExtent(*nv->columnar, bytes),
                           ViewStatsToString(nv->stats)});
    }
    next.push_back(std::move(nv));
  }
  if (out_stats != nullptr) *out_stats = ms;
  // Delta evaluation is done; everything past this point — durability and
  // the publish swap — is time the new epoch exists but is not yet served.
  const int64_t maintained_us = static_cast<int64_t>(timer.ElapsedMicros());
  // The epoch PublishLocked will mint; recorded in the WAL before the swap
  // so replay can tell which records a persisted manifest already covers.
  const uint64_t publish_epoch = next_epoch_;
  pass_span.Attr("epoch", publish_epoch);
  pass_span.Attr("views_touched", static_cast<int64_t>(ms.views_touched));
  pass_span.Attr("views_rebuilt", static_cast<int64_t>(ms.views_rebuilt));
  if (enable_delta_log_) {
    if (!wal_views.empty()) {
      ScopedSpan wal_span(pass_span.get(), "wal_append");
      SVX_RETURN_IF_ERROR(EnsureWalLocked());
      WalRecord record;
      record.epoch = publish_epoch;
      record.views = std::move(wal_views);
      SVX_RETURN_IF_ERROR(wal_->Append(record));
      wal_depth_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (!dir_.empty()) {
    // Per-pass extent persistence without a WAL.
    ScopedSpan persist_span(pass_span.get(), "persist");
    SVX_RETURN_IF_ERROR(PersistLocked(next, publish_epoch));
  }
  if (new_doc == nullptr) new_doc = Borrowed(&final_doc);
  PublishLocked(std::move(next), std::move(new_doc), std::move(new_summary),
                Change::kDocument);
  const int64_t total_us = static_cast<int64_t>(timer.ElapsedMicros());
  metrics::MaintenancePasses()->Add(1);
  metrics::MaintenanceViewsTouched()->Add(ms.views_touched);
  metrics::MaintenanceViewsRebuilt()->Add(ms.views_rebuilt);
  metrics::MaintenanceViewsShared()->Add(ms.views_shared);
  metrics::MaintenanceTuplesInserted()->Add(ms.tuples_inserted);
  metrics::MaintenanceTuplesDeleted()->Add(ms.tuples_deleted);
  metrics::MaintenanceApplyLatencyUs()->Observe(total_us);
  metrics::EpochPublishLagUs()->Observe(total_us - maintained_us);
  metrics::DeltasApplied()->Add(static_cast<int64_t>(deltas.size()));
  if (deltas.size() > 1) {
    metrics::DeltasCoalesced()->Add(static_cast<int64_t>(deltas.size() - 1));
  }
  if (Counter* c = shard_passes_.load(std::memory_order_acquire)) c->Add(1);
  if (Counter* c = shard_deltas_.load(std::memory_order_acquire)) {
    c->Add(static_cast<int64_t>(deltas.size()));
  }
  return Status::OK();
}

Status ViewCatalog::Load(const Document* doc) {
  return LoadImpl(Borrowed(doc), nullptr);
}

Status ViewCatalog::Load(std::shared_ptr<const Document> doc,
                         std::shared_ptr<const Summary> summary) {
  return LoadImpl(std::move(doc), std::move(summary));
}

Status ViewCatalog::LoadImpl(std::shared_ptr<const Document> doc,
                             std::shared_ptr<const Summary> summary) {
  if (dir_.empty()) return Status::InvalidArgument("catalog has no store dir");
  Result<std::string> manifest =
      ReadFileBytes((fs::path(dir_) / "manifest.txt").string());
  if (!manifest.ok()) return manifest.status();

  MutexLock lock(&writer_mu_);
  std::vector<std::shared_ptr<StoredView>> loaded;
  std::set<std::string> names;  // a view named twice is a damaged manifest
  uint64_t max_generation = 0;
  uint64_t persisted_epoch = 0;  // epoch the manifest's extents capture
  uint64_t wal_floor = 0;        // first WAL segment generation to replay
  bool header_seen = false;
  for (const std::string& raw : Split(*manifest, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty()) continue;
    if (!header_seen) {
      // The store reads only the format it writes; an older store is
      // rebuilt from the document.
      if (line != kManifestHeader) {
        return Status::Unsupported(StrFormat(
            "manifest header \"%s\" (want \"%s\"); rebuild the store from "
            "the document",
            raw.c_str(), kManifestHeader));
      }
      header_seen = true;
      continue;
    }
    if (StartsWith(line, "epoch ")) {
      std::optional<int64_t> e = ParseInt64(line.substr(6));
      if (!e || *e < 0) {
        return Status::ParseError("bad epoch in manifest: " + raw);
      }
      persisted_epoch = static_cast<uint64_t>(*e);
      continue;
    }
    if (StartsWith(line, "wal ")) {
      std::optional<int64_t> g = ParseInt64(line.substr(4));
      if (!g || *g <= 0) {
        return Status::ParseError("bad wal floor in manifest: " + raw);
      }
      wal_floor = static_cast<uint64_t>(*g);
      continue;
    }
    if (!StartsWith(line, "view ")) {
      return Status::ParseError("bad manifest line: " + raw);
    }
    std::string_view rest = line.substr(5);
    size_t space = rest.find(' ');
    if (space == std::string_view::npos) {
      return Status::ParseError("bad manifest line: " + raw);
    }
    auto stored = std::make_shared<StoredView>();
    stored->def.name = std::string(rest.substr(0, space));
    if (!SafeName(stored->def.name)) {
      return Status::ParseError("unsafe view name in manifest: " + raw);
    }
    if (!names.insert(stored->def.name).second) {
      return Status::ParseError("view named twice in manifest: " + raw);
    }
    rest = rest.substr(space + 1);
    space = rest.find(' ');
    if (space == std::string_view::npos) {
      return Status::ParseError("bad manifest line: " + raw);
    }
    std::optional<int64_t> gen = ParseInt64(rest.substr(0, space));
    if (!gen || *gen <= 0) {
      return Status::ParseError("bad generation in manifest: " + raw);
    }
    stored->generation = static_cast<uint64_t>(*gen);
    max_generation = std::max(max_generation, stored->generation);
    rest = rest.substr(space + 1);
    Result<Pattern> pattern = ParsePattern(rest);
    if (!pattern.ok()) return pattern.status();
    stored->def.pattern = std::move(*pattern);
    Result<std::string> extent =
        ReadFileBytes((fs::path(dir_) / ExtentFileName(*stored)).string());
    if (!extent.ok()) return extent.status();
    Result<std::string> stats =
        ReadFileBytes((fs::path(dir_) / StatsFileName(*stored)).string());
    if (!stats.ok()) return stats.status();
    SVX_RETURN_IF_ERROR(
        InstallPersisted(stored.get(), *extent, *stats, doc.get(), budget_));
    loaded.push_back(std::move(stored));
  }
  if (!header_seen) return Status::ParseError("empty manifest");
  next_generation_ = std::max(next_generation_, max_generation + 1);
  std::vector<std::shared_ptr<const StoredView>> views(loaded.begin(),
                                                       loaded.end());
  // Sweep generations an interrupted save (or a pre-crash manifest flip)
  // left behind — everything the manifest we just loaded does not name.
  // After the sweep the manifest's max generation is the directory's, so
  // the counter is fully seeded. The sweep runs before WAL replay marks
  // views dirty, while every generation still names its live on-disk file.
  SweepUnreferenced(dir_, LiveFileSet(views));
  generation_seeded_ = true;
  // WAL recovery: replay the records past the persisted epoch from segments
  // at or above the manifest's floor, and sweep orphaned segments a
  // completed checkpoint retired. Each view named in a record installs its
  // last logged entry and drops to generation 0 so the next checkpoint
  // persists it fresh; until then the disk keeps the old extents *and* the
  // segments, so a crash mid-recovery just replays again.
  uint64_t max_segment = 0;
  {
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
      if (ec) break;
      uint64_t gen = 0;
      if (entry.is_regular_file() &&
          DeltaLog::ParseSegmentFileName(entry.path().filename().string(),
                                         &gen)) {
        max_segment = std::max(max_segment, gen);
      }
    }
  }
  DeltaLog::SweepSegments(dir_, wal_floor);
  Result<std::vector<WalRecord>> records =
      DeltaLog::Replay(dir_, wal_floor, persisted_epoch);
  if (!records.ok()) return records.status();
  uint64_t max_epoch = persisted_epoch;
  // A view's last logged entry is its state at the newest replayed epoch.
  std::vector<const WalViewDelta*> last(loaded.size(), nullptr);
  for (const WalRecord& rec : *records) {
    max_epoch = std::max(max_epoch, rec.epoch);
    for (const WalViewDelta& wd : rec.views) {
      auto it = std::find_if(loaded.begin(), loaded.end(), [&](const auto& v) {
        return v->def.name == wd.view;
      });
      if (it == loaded.end()) {
        // Checkpoints are forced on every view-set mutation, so a record
        // naming an unknown view means the store is corrupt.
        return Status::ParseError("WAL record references unknown view: " +
                                  wd.view);
      }
      last[static_cast<size_t>(it - loaded.begin())] = &wd;
    }
  }
  for (size_t i = 0; i < loaded.size(); ++i) {
    if (last[i] == nullptr) continue;
    SVX_RETURN_IF_ERROR(InstallPersisted(loaded[i].get(), last[i]->extent,
                                         last[i]->stats, doc.get(), budget_));
    loaded[i]->generation = 0;
  }
  // Seed the WAL counters: appends continue into the newest segment on
  // disk; the epoch counter resumes past everything ever published so
  // future WAL records never collide with replayed ones.
  wal_floor_ = std::max<uint64_t>(wal_floor, 1);
  wal_generation_ = std::max(wal_floor_, max_segment);
  wal_depth_.store(static_cast<int64_t>(records->size()),
                   std::memory_order_relaxed);
  next_epoch_ = std::max(next_epoch_, max_epoch + 1);
  PublishLocked(std::move(views), std::move(doc), std::move(summary),
                Change::kStore);
  return Status::OK();
}

std::string ViewCatalog::DebugMetrics() const {
  std::shared_ptr<const CatalogSnapshot> snap = Snapshot();
  const int64_t age_us = snap->AgeMicros();
  // Refresh the point-in-time gauges so a registry render taken right after
  // this call describes this catalog's serving state.
  metrics::EpochCurrent()->Set(static_cast<int64_t>(snap->epoch()));
  metrics::EpochAgeUs()->Set(age_us);
  if (Gauge* g = shard_epoch_age_.load(std::memory_order_acquire)) {
    g->Set(age_us);
  }
  const RewriteCache* cache = snap->rewrite_cache();
  const int shard = shard_.load(std::memory_order_relaxed);
  JsonWriter w;
  w.BeginObject();
  if (shard >= 0) w.KV("shard", static_cast<int64_t>(shard));
  w.KV("epoch", static_cast<uint64_t>(snap->epoch()));
  w.KV("epoch_age_us", age_us);
  w.KV("wal_depth", wal_depth_.load(std::memory_order_relaxed));
  w.KV("epochs_live", metrics::EpochsLive()->Value());
  w.KV("views", static_cast<int64_t>(snap->size()));
  w.KV("total_bytes", snap->TotalBytes());
  w.KV("extent_compressed_bytes", snap->TotalCompressedBytes());
  w.KV("extent_resident_bytes", budget_->resident_bytes());
  w.KV("extent_evictions", budget_->evictions());
  w.KV("extent_reloads", budget_->reloads());
  w.KV("memory_budget_bytes", budget_->limit_bytes());
  w.Key("rewrite_cache");
  w.BeginObject();
  w.KV("entries", static_cast<uint64_t>(cache->size()));
  w.KV("hits", static_cast<uint64_t>(cache->hits()));
  w.KV("misses", static_cast<uint64_t>(cache->misses()));
  w.KV("invalidations", static_cast<uint64_t>(cache->invalidations()));
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace svx
