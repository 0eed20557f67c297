// Serving benchmark for the svx materialized-view store: one closed-loop
// client serves XMark queries from the paper's section 5 base views and
// applies XMark item inserts and deletes, timing every operation end to end
// and, with --trace 1, layer by layer. README.md in this directory describes
// the workloads, the metrics and the correctness checks.
//
//   serve_bench --workload W --seed N --seconds S --trace 0|1 --store DIR
//
// The last line of stdout is one JSON object:
//   {"correct": b, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/algebra/executor.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/rewrite_cache.h"
#include "src/viewstore/sharded_catalog.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

/// XMark scale of the served document.
constexpr double kScale = 1.0;
/// Timed set-ups of a world that is dropped again, run back to back before
/// serving starts; setup_s is their median. They keep no store on disk:
/// store writes on a shared disk vary two- to threefold from minute to
/// minute.
constexpr int kSetups = 32;
/// The sharded workload's run is cut into segments, each opening with a
/// burst of updates, so that updates and queries are sampled across the
/// whole run: other load on the machine slows it for seconds at a time.
constexpr int kShardedSegments = 48;
constexpr int kUpdatesPerSegment = 16;
/// A pass of the update workload serves every query once, one update before
/// every kQueriesPerUpdate of them.
constexpr int kQueriesPerUpdate = 3;
constexpr int kCheckpointEvery = 8;
/// Inserted items the update stream keeps live on average.
constexpr int kLiveInserts = 8;
constexpr int kShards = 4;
/// Decoded-extent budget of the sharded workload, well under the decoded
/// size of the base views, so scans keep evicting and re-decoding.
constexpr int64_t kShardedBudgetBytes = 64 * 1024;

/// The served queries, in conjunctive form (GetXmarkQueryPatternConjunctive)
/// so the base views answer them. Left out: q1, q7 and q17 (no rewriting over
/// the base views at this scale), q13 (none with an empty containment memo)
/// and q18 (no id to anchor a sharded read on).
const int kQueryNumbers[] = {2,  4,  5,  6,  8,  9,  10, 11,
                             12, 14, 15, 16, 19, 20, 3};
/// Queries whose plan search stops at a bound (search_truncated) and so are
/// never cached: they plan on every call. The sharded workload leaves them
/// out, so that it measures cached scatter-gather reads; the update
/// workload plans every query anyway.
const int kUncachedQueries[] = {14, 15, 16, 19};

const char* const kWords[] = {"gold", "plated", "pen",  "fountain", "rare",
                              "fine", "blue",   "ink",  "paper",    "silver"};

enum class Workload { kUpdate, kSharded };

struct Options {
  Workload workload = Workload::kUpdate;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string store;
};

/// The served state: the current document version and the catalog over it.
struct World {
  std::shared_ptr<const Document> doc;
  std::shared_ptr<const Summary> summary;
  std::vector<ViewDef> views;
  std::unique_ptr<ViewCatalog> catalog;     // the update workload
  std::unique_ptr<ShardedCatalog> sharded;  // the sharded workload
};

/// The paper's section 5 base views: one {id,v} view per summary tag.
std::vector<ViewDef> BaseViews(const Summary& summary) {
  std::vector<std::string> tags;
  for (PathId s = 1; s < summary.size(); ++s) tags.push_back(summary.label(s));
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  const std::string& root = summary.label(summary.root());
  std::vector<ViewDef> views;
  for (size_t i = 0; i < tags.size(); ++i) {
    views.push_back({StrFormat("B%zu_%s", i, tags[i].c_str()),
                     MustParsePattern(StrFormat("%s(//%s{id,v})", root.c_str(),
                                                tags[i].c_str()))});
  }
  return views;
}

/// Generates the document and builds the workload's catalog over it. With
/// `on_disk`, the update workload's catalog keeps a store with a WAL.
Result<World> Setup(const Options& o, bool on_disk) {
  XmarkOptions xo;
  xo.scale = kScale;
  std::shared_ptr<Document> doc(GenerateXmark(xo));
  World w;
  w.summary = std::shared_ptr<const Summary>(SummaryBuilder::Build(doc.get()));
  w.doc = std::move(doc);
  w.views = BaseViews(*w.summary);
  if (o.workload == Workload::kSharded) {
    ShardedCatalogOptions so;
    so.num_shards = kShards;
    so.memory_budget_bytes = kShardedBudgetBytes;
    Result<std::unique_ptr<ShardedCatalog>> c =
        ShardedCatalog::Create(so, w.doc, w.summary);
    if (!c.ok()) return c.status();
    w.sharded = std::move(c).value();
    for (const ViewDef& d : w.views) {
      SVX_RETURN_IF_ERROR(w.sharded->Materialize(d, *w.doc));
    }
    return Result<World>(std::move(w));
  }
  ViewCatalogOptions co;
  if (on_disk) {
    co.dir = o.store;
    co.enable_delta_log = true;
  }
  w.catalog = std::make_unique<ViewCatalog>(co);
  for (const ViewDef& d : w.views) {
    SVX_RETURN_IF_ERROR(w.catalog->Materialize(d, *w.doc));
  }
  w.catalog->BindDocument(w.doc, w.summary);
  return Result<World>(std::move(w));
}

/// The update stream: new items inserted among the original items (half
/// careted before one of them, half appended to its region), or one of the
/// inserted items deleted again. Deletes get likelier the more inserted
/// items are live, so about kLiveInserts of them are, and the document stays
/// near its generated size however long the run. An inserted item has only
/// children every original item has, and only inserted items are deleted,
/// so the summary (and with it every query's rewriting) stays the same
/// across epochs.
class UpdateStream {
 public:
  UpdateStream(const Document& doc, uint64_t seed) : rng_(seed) {
    for (NodeIndex n = 0; n < doc.size(); ++n) {
      if (doc.label(n) == "item") originals_.push_back(doc.ord_path(n));
    }
  }

  Result<UpdateResult> Next(const Document& doc) {
    const double live = static_cast<double>(inserted_.size());
    if (rng_.Bernoulli(live / (2 * kLiveInserts))) {
      const size_t i = static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(inserted_.size()) - 1));
      const OrdPath target = inserted_[i];
      inserted_.erase(inserted_.begin() + static_cast<std::ptrdiff_t>(i));
      return DeleteSubtree(doc, target);
    }
    if (originals_.empty()) return Status::NotFound("document has no items");
    const OrdPath anchor = rng_.Pick(originals_);
    const NodeIndex at = doc.FindByOrdPath(anchor);
    if (at == kInvalidNode) {
      return Status::NotFound("item vanished: " + anchor.ToString());
    }
    const OrdPath parent = doc.ord_path(doc.parent(at));
    const char* location = Word();
    const int64_t quantity = rng_.Uniform(1, 10);
    const char* first = Word();
    const char* second = Word();
    Result<std::unique_ptr<Document>> item = ParseTreeNotation(StrFormat(
        "item(location=%s quantity=%lld name='%s %s' payment=Cash "
        "shipping='Will ship internationally')",
        location, static_cast<long long>(quantity), first, second));
    if (!item.ok()) return item.status();
    Result<UpdateResult> up = rng_.Bernoulli(0.5)
                                  ? InsertSubtree(doc, parent, **item, &anchor)
                                  : InsertSubtree(doc, parent, **item);
    if (up.ok()) inserted_.push_back(up->delta.region);
    return up;
  }

 private:
  const char* Word() {
    return kWords[rng_.Uniform(0, static_cast<int64_t>(std::size(kWords)) - 1)];
  }

  Rng rng_;
  std::vector<OrdPath> originals_;
  std::vector<OrdPath> inserted_;
};

/// One served query, timed at the layer boundaries it crosses (us).
struct Served {
  Result<Table> rows = Status::Internal("not served");
  double pin_us = 0;
  double bind_us = 0;
  double plan_us = 0;
  double exec_us = 0;
};

/// The single-catalog serving path: pin the current epoch, build a rewriter
/// over its views and shared view index, rewrite through the epoch's
/// rewrite cache, execute the cheapest plan over the epoch's extents.
Served ServeQuery(const ViewCatalog& catalog, const Pattern& q,
                  TraceSpan* trace) {
  Served s;
  Timer t;
  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
  s.pin_us = t.ElapsedMicros();
  t.Reset();
  RewriterOptions opts;
  opts.max_results = 1;
  opts.cost_model = &snap->cost_model();
  opts.memo = snap->containment_memo();
  opts.trace = trace;
  std::shared_ptr<const ViewIndex> index =
      snap->ViewIndexFor(*snap->summary(), opts.expansion);
  opts.shared_view_index = index.get();
  Rewriter rewriter(*snap->summary(), opts);
  for (const auto& v : snap->views()) rewriter.AddView(v->def);
  s.bind_us = t.ElapsedMicros();
  t.Reset();
  Result<std::vector<Rewriting>> rws =
      CachedRewrite(snap->rewrite_cache(), &rewriter, q);
  s.plan_us = t.ElapsedMicros();
  if (!rws.ok()) {
    s.rows = rws.status();
    return s;
  }
  if (rws->empty()) {
    s.rows = Status::NotFound("no rewriting");
    return s;
  }
  t.Reset();
  s.rows = Execute(*rws->front().plan, snap->ExecutorCatalog(), trace);
  s.exec_us = t.ElapsedMicros();
  return s;
}

/// The sharded serving path: pin one epoch per shard, then
/// ShardedSnapshot::ExecuteQuery (rewrite once, execute per shard, merge).
Served ServeSharded(const ShardedCatalog& catalog, const Pattern& q) {
  Served s;
  Timer t;
  ShardedSnapshot snap = catalog.Snapshot();
  s.pin_us = t.ElapsedMicros();
  t.Reset();
  s.rows = snap.ExecuteQuery(q);
  s.exec_us = t.ElapsedMicros();
  return s;
}

/// Cumulative program metrics the per-layer breakdown reads; the difference
/// of two readings covers the operations between them.
std::map<std::string, double> ReadProgramMetrics() {
  auto sum = [](Histogram* h) { return static_cast<double>(h->Sum()); };
  auto value = [](Counter* c) { return static_cast<double>(c->Value()); };
  return {
      {"rewrite_us", sum(metrics::RewriteLatencyUs())},
      {"exec_us", sum(metrics::ExecutorLatencyUs())},
      {"decode_us", sum(metrics::ExtentReloadUs())},
      {"decodes", value(metrics::ExtentReloads())},
      {"rows_scanned", value(metrics::ExecutorRowsScanned())},
      {"cache_hits", value(metrics::RewriteCacheHits())},
      {"cache_misses", value(metrics::RewriteCacheMisses())},
      {"memo_hits", value(metrics::ContainmentMemoHits())},
      {"memo_misses", value(metrics::ContainmentMemoMisses())},
      {"plans", value(metrics::PlansGenerated())},
      {"maintain_us", sum(metrics::MaintenanceApplyLatencyUs())},
      {"publish_lag_us", sum(metrics::EpochPublishLagUs())},
      {"views_touched", value(metrics::MaintenanceViewsTouched())},
      {"tuples", value(metrics::MaintenanceTuplesInserted()) +
                     value(metrics::MaintenanceTuplesDeleted())},
      {"wal_bytes", value(metrics::WalBytesWritten())},
      {"persist_bytes", value(metrics::PersistBytesWritten())},
  };
}

/// Linear interpolation between order statistics.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                     metrics[i].unit);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

using ProgramMetrics = std::map<std::string, double>;

/// Adds the change in the program's metrics since `before` into `*into`.
void AddProgramDelta(const ProgramMetrics& before, ProgramMetrics* into) {
  for (const auto& [k, v] : ReadProgramMetrics()) {
    (*into)[k] += v - before.at(k);
  }
}

/// The median over groups (passes, or segments) of each group's percentile
/// `p`: a stretch of other load on the machine moves a few groups, not the
/// median.
double MedianOfGroups(const std::vector<std::vector<double>>& groups,
                      double p) {
  std::vector<double> per_group;
  for (const std::vector<double>& g : groups) {
    per_group.push_back(Percentile(g, p));
  }
  return Percentile(std::move(per_group), 0.5);
}

size_t Samples(const std::vector<std::vector<double>>& groups) {
  size_t n = 0;
  for (const std::vector<double>& g : groups) n += g.size();
  return n;
}

class Bench {
 public:
  Bench(const Options& opts, World world)
      : opts_(opts),
        world_(std::move(world)),
        stream_(*world_.doc, opts.seed),
        order_rng_(opts.seed ^ 0x9e3779b97f4a7c15ULL) {
    for (size_t i = 0; i < std::size(kQueryNumbers); ++i) {
      queries_.push_back(GetXmarkQueryPatternConjunctive(kQueryNumbers[i]));
      if (opts.workload == Workload::kSharded &&
          std::count(std::begin(kUncachedQueries), std::end(kUncachedQueries),
                     kQueryNumbers[i]) > 0) {
        continue;
      }
      order_.push_back(i);
    }
    setup_resident_bytes_ = ResidentBytes();
    setup_compressed_bytes_ = CompressedBytes();
  }

  /// Times the set-ups, serves the workload for opts_.seconds (at least one
  /// pass, or one per segment), then checks the stored extents. False when
  /// a set-up fails.
  bool Run() {
    for (int i = 0; i < kSetups; ++i) {
      if (!TimeSetup()) return false;
    }
    if (opts_.workload == Workload::kUpdate) {
      Timer serving;
      do UpdatePass(); while (serving.ElapsedMillis() < opts_.seconds * 1000);
    } else {
      const double segment_ms = opts_.seconds * 1000 / kShardedSegments;
      for (int seg = 0; seg < kShardedSegments; ++seg) {
        Timer serving;
        for (int u = 0; u < kUpdatesPerSegment; ++u) UpdateOp();
        // Priming pass: fills the new epochs' rewrite caches and containment
        // memos -- costs a server pays once per epoch, not per query.
        for (size_t i : order_) QueryOp(i, /*record=*/false);
        do QueryPass(); while (serving.ElapsedMillis() < segment_ms);
        CloseQueryGroup();
      }
    }
    compressed_bytes_ = CompressedBytes();
    CheckStoredExtents();
    return true;
  }

  void Report() const {
    const size_t nq = Samples(query_groups_);
    const size_t nu = update_ms_.size();
    const bool correct = failed_ == 0 && checks_ok_ && nq > 0 && nu > 0;
    std::fprintf(stderr,
                 "servebench: %zu queries in %zu groups, %zu updates, "
                 "%zu set-ups, %lld failed, checks %s\n",
                 nq, query_groups_.size(), nu, setup_s_.size(),
                 static_cast<long long>(failed_), checks_ok_ ? "ok" : "FAILED");
    if (opts_.trace) {
      PrintResult(correct, attempted_, failed_, LayerMetrics());
      return;
    }
    PrintResult(
        correct, attempted_, failed_,
        {{"query_p50_ms", MedianOfGroups(query_groups_, 0.5), "ms"},
         {"query_p90_ms", MedianOfGroups(query_groups_, 0.9), "ms"},
         {"update_p50_ms", Percentile(update_ms_, 0.5), "ms"},
         {"setup_s", Percentile(setup_s_, 0.5), "s"},
         {"setup_resident_bytes", static_cast<double>(setup_resident_bytes_),
          "B"},
         {"setup_compressed_bytes",
          static_cast<double>(setup_compressed_bytes_), "B"},
         {"resident_bytes", Percentile(pass_resident_bytes_, 0.5), "B"},
         {"compressed_bytes", static_cast<double>(compressed_bytes_), "B"}});
  }

 private:
  void Add(const char* layer, double us) { layer_us_[layer] += us; }

  void CloseQueryGroup() {
    if (!cur_queries_.empty()) query_groups_.push_back(std::move(cur_queries_));
    cur_queries_.clear();
  }

  void Fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "servebench: %s\n", what.c_str());
  }

  /// The catalogs holding the served extents: the single catalog, or every
  /// shard's and the global one.
  std::vector<const ViewCatalog*> Catalogs() const {
    if (world_.catalog != nullptr) return {world_.catalog.get()};
    std::vector<const ViewCatalog*> catalogs;
    for (int i = 0; i < world_.sharded->num_shards(); ++i) {
      catalogs.push_back(world_.sharded->shard_catalog(i));
    }
    catalogs.push_back(world_.sharded->global_catalog());
    return catalogs;
  }

  /// Decoded extent bytes resident in the budget (shared by all shards).
  int64_t ResidentBytes() const {
    return Catalogs().front()->memory_budget()->resident_bytes();
  }

  int64_t CompressedBytes() const {
    int64_t bytes = 0;
    for (const ViewCatalog* c : Catalogs()) bytes += c->TotalCompressedBytes();
    return bytes;
  }

  /// Times the set-up of a world that is dropped again.
  bool TimeSetup() {
    Timer t;
    Result<World> w = Setup(opts_, /*on_disk=*/false);
    const double seconds = t.ElapsedMillis() / 1000;
    if (!w.ok()) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n",
                   w.status().ToString().c_str());
      return false;
    }
    setup_s_.push_back(seconds);
    return true;
  }

  /// A fresh seeded order of the queries.
  void Shuffle() {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[static_cast<size_t>(order_rng_.Uniform(
                                   0, static_cast<int64_t>(i) - 1))]);
    }
  }

  /// Serves every query once.
  void QueryPass() {
    Shuffle();
    for (size_t i : order_) QueryOp(i, /*record=*/true);
    RecordResidentBytes();
  }

  /// Update workload: rounds of one update and kQueriesPerUpdate queries on
  /// the epoch it publishes, until every query has been served once.
  void UpdatePass() {
    Shuffle();
    for (size_t n = 0; n < order_.size(); ++n) {
      if (n % kQueriesPerUpdate == 0) UpdateOp();
      QueryOp(order_[n], /*record=*/true);
    }
    CloseQueryGroup();
    RecordResidentBytes();
  }

  void RecordResidentBytes() {
    pass_resident_bytes_.push_back(static_cast<double>(ResidentBytes()));
  }

  /// Direct evaluation of query `i` over the current document version,
  /// computed once per version.
  const Table& Reference(size_t i) {
    if (refs_version_ != version_) {
      refs_.clear();
      refs_version_ = version_;
    }
    auto it = refs_.find(i);
    if (it == refs_.end()) {
      it = refs_.emplace(i, MaterializeView(queries_[i], "Q", *world_.doc))
               .first;
    }
    return it->second;
  }

  void QueryOp(size_t i, bool record) {
    ++attempted_;
    const bool traced = opts_.trace && record;
    std::optional<Trace> trace;
    if (traced) trace.emplace("query");
    TraceSpan* root = trace.has_value() ? trace->root() : nullptr;
    const ProgramMetrics before =
        traced ? ReadProgramMetrics() : ProgramMetrics{};
    Timer total;
    Served s = world_.sharded != nullptr
                   ? ServeSharded(*world_.sharded, queries_[i])
                   : ServeQuery(*world_.catalog, queries_[i], root);
    const double total_us = total.ElapsedMicros();
    if (traced) AddProgramDelta(before, &query_program_);
    if (!s.rows.ok()) {
      Fail(StrFormat("q%d: %s", kQueryNumbers[i],
                     s.rows.status().ToString().c_str()));
      return;
    }
    if (!s.rows->EqualsIgnoringOrder(Reference(i))) {
      Fail(StrFormat("q%d: result differs from direct evaluation",
                     kQueryNumbers[i]));
      return;
    }
    if (!record) return;
    cur_queries_.push_back(total_us / 1000);
    Add("q_total_us", total_us);
    Add("q_pin_us", s.pin_us);
    Add("q_bind_us", s.bind_us);
    Add("q_plan_us", s.plan_us);
    Add("q_exec_us", s.exec_us);
    if (!trace.has_value()) return;
    for (const auto& span : trace->root()->children()) {
      if (span->name() == "cache-lookup") {
        Add("q_lookup_us", static_cast<double>(span->duration_us()));
      }
      if (span->name() != "rewrite") continue;
      for (const auto& phase : span->children()) {
        const std::string& n = phase->name();
        const char* layer = n == "plan-enum"      ? "q_plan_enum_us"
                            : n == "expand-views" ? "q_plan_expand_us"
                            : n == "analyze" || n == "prune-views"
                                ? "q_plan_prune_us"
                                : "q_plan_rest_us";
        Add(layer, static_cast<double>(phase->duration_us()));
      }
    }
  }

  void UpdateOp() {
    ++attempted_;
    std::optional<Trace> trace;
    if (opts_.trace) trace.emplace("update");
    TraceSpan* root = trace.has_value() ? trace->root() : nullptr;
    const ProgramMetrics before =
        opts_.trace ? ReadProgramMetrics() : ProgramMetrics{};
    Timer total;
    Result<UpdateResult> up = stream_.Next(*world_.doc);
    if (!up.ok()) {
      Fail("update: " + up.status().ToString());
      return;
    }
    std::shared_ptr<Document> next(std::move(up->doc));
    std::shared_ptr<const Summary> summary(SummaryBuilder::Build(next.get()));
    const double doc_us = total.ElapsedMicros();
    Timer apply;
    Status s = world_.sharded != nullptr
                   ? world_.sharded->ApplyUpdate(up->delta, next, summary, root)
                   : world_.catalog->ApplyUpdateBatch({up->delta}, next,
                                                      summary, nullptr, root);
    const double apply_us = apply.ElapsedMicros();
    double checkpoint_us = 0;
    if (s.ok() && opts_.workload == Workload::kUpdate &&
        ++since_checkpoint_ == kCheckpointEvery) {
      since_checkpoint_ = 0;
      Timer checkpoint;
      s = world_.catalog->Save();
      checkpoint_us = checkpoint.ElapsedMicros();
    }
    const double total_us = total.ElapsedMicros();
    if (opts_.trace) AddProgramDelta(before, &update_program_);
    if (!s.ok()) {
      Fail("update: " + s.ToString());
      return;
    }
    world_.doc = std::move(next);
    world_.summary = std::move(summary);
    ++version_;
    update_ms_.push_back(total_us / 1000);
    Add("u_total_us", total_us);
    Add("u_doc_us", doc_us);
    Add("u_apply_us", apply_us);
    Add("u_checkpoint_us", checkpoint_us);
    if (!trace.has_value()) return;
    for (const auto& pass : trace->root()->children()) {
      if (pass->name() != "maintenance_pass") continue;
      Add("u_pass_us", static_cast<double>(pass->duration_us()));
      for (const auto& step : pass->children()) {
        if (step->name() == "wal_append") {
          Add("u_wal_us", static_cast<double>(step->duration_us()));
        } else if (step->name() == "persist") {
          Add("u_persist_pass_us", static_cast<double>(step->duration_us()));
        }
      }
    }
  }

  /// The view's extent as the catalog stores it: the single catalog's
  /// table, or the union of every shard's slice and the global catalog's.
  Result<Table> StoredExtent(const std::string& name) const {
    std::optional<Table> merged;
    for (const ViewCatalog* c : Catalogs()) {
      const StoredView* v = c->Find(name);
      if (v == nullptr) continue;
      Result<TablePtr> t = v->table();
      if (!t.ok()) return t.status();
      if (!merged.has_value()) merged.emplace((*t)->schema());
      for (const Tuple& row : (*t)->rows()) merged->AddRow(row);
    }
    if (!merged.has_value()) return Status::NotFound("view not stored");
    merged->SortRowsCanonical();
    return Result<Table>(std::move(*merged));
  }

  /// Every maintained extent must be byte-identical to materializing its
  /// view afresh over the final document. The update workload's store is
  /// then reopened from disk -- last checkpoint plus WAL replay -- and must
  /// hold the same bytes.
  void CheckStoredExtents() {
    std::map<std::string, std::string> fresh;
    for (const ViewDef& def : world_.views) {
      Table t = MaterializeView(def.pattern, def.name, *world_.doc);
      t.SortRowsCanonical();
      fresh[def.name] = SerializeExtent(t);
    }
    auto check = [&](const char* what, auto stored_extent) {
      for (const ViewDef& def : world_.views) {
        Result<Table> stored = stored_extent(def.name);
        if (!stored.ok() || SerializeExtent(*stored) != fresh[def.name]) {
          std::fprintf(stderr,
                       "servebench: %s extent of %s differs from "
                       "rematerialization\n",
                       what, def.name.c_str());
          checks_ok_ = false;
          return;
        }
      }
    };
    check("maintained",
          [this](const std::string& name) { return StoredExtent(name); });
    if (opts_.workload != Workload::kUpdate) return;
    ViewCatalogOptions co;
    co.dir = world_.catalog->dir();
    co.enable_delta_log = true;
    world_.catalog.reset();
    ViewCatalog reopened(co);
    Status loaded = reopened.Load(world_.doc, world_.summary);
    if (!loaded.ok()) {
      std::fprintf(stderr, "servebench: reopen: %s\n",
                   loaded.ToString().c_str());
      checks_ok_ = false;
      return;
    }
    check("reopened", [&reopened](const std::string& name) -> Result<Table> {
      const StoredView* v = reopened.Find(name);
      if (v == nullptr) return Status::NotFound("view not stored");
      Result<TablePtr> t = v->table();
      if (!t.ok()) return t.status();
      return Result<Table>(Table(**t));
    });
  }

  /// Mean time per query / update in each layer, and work per operation.
  /// Program metrics are differenced around each traced operation, so the
  /// query figures hold only the queries' own work and the update figures
  /// only the updates' (maintenance decodes count as decodes_per_update).
  std::vector<Metric> LayerMetrics() const {
    const double nq =
        static_cast<double>(std::max<size_t>(Samples(query_groups_), 1));
    const double nu =
        static_cast<double>(std::max<size_t>(update_ms_.size(), 1));
    auto layer = [this](const char* k) {
      auto it = layer_us_.find(k);
      return it == layer_us_.end() ? 0.0 : it->second;
    };
    auto q = [this](const char* k) {
      auto it = query_program_.find(k);
      return it == query_program_.end() ? 0.0 : it->second;
    };
    auto u = [this](const char* k) {
      auto it = update_program_.find(k);
      return it == update_program_.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    double plan = layer("q_plan_us");
    double exec = layer("q_exec_us");
    double fanout = 0;
    if (world_.sharded != nullptr) {
      // ShardedSnapshot::ExecuteQuery takes no trace: its planning and its
      // per-shard executions come from the program's latency histograms,
      // and the rest of the call is fan-out, cache lookup and merge.
      const double call = exec;
      plan = q("rewrite_us");
      exec = q("exec_us");
      fanout = call - plan - exec;
    }
    const double q_total = layer("q_total_us");
    const double q_other = q_total - layer("q_pin_us") - layer("q_bind_us") -
                           plan - exec - fanout;

    // A maintenance pass evaluates and re-encodes the view deltas, then
    // appends to the WAL (or persists the pass), then publishes; the
    // program's publish-lag histogram times everything after evaluation.
    const double lag = u("publish_lag_us");
    const double maintain = u("maintain_us") - lag;
    const double wal = layer("u_wal_us");
    const double persist =
        layer("u_persist_pass_us") + layer("u_checkpoint_us");
    const double publish = lag - wal - layer("u_persist_pass_us");
    const double route = layer("u_apply_us") - layer("u_pass_us");
    const double u_total = layer("u_total_us");
    const double u_other = u_total - layer("u_doc_us") - route - maintain -
                           wal - persist - publish;
    return {
        {"query_samples", static_cast<double>(Samples(query_groups_)), "count"},
        {"update_samples", static_cast<double>(update_ms_.size()), "count"},
        {"q_total_us", q_total / nq, "us"},
        {"q_pin_us", layer("q_pin_us") / nq, "us"},
        {"q_bind_us", layer("q_bind_us") / nq, "us"},
        {"q_plan_us", plan / nq, "us"},
        {"q_lookup_us", layer("q_lookup_us") / nq, "us"},
        {"q_plan_prune_us", layer("q_plan_prune_us") / nq, "us"},
        {"q_plan_expand_us", layer("q_plan_expand_us") / nq, "us"},
        {"q_plan_enum_us", layer("q_plan_enum_us") / nq, "us"},
        {"q_plan_rest_us", layer("q_plan_rest_us") / nq, "us"},
        {"q_exec_us", exec / nq, "us"},
        {"q_decode_us", q("decode_us") / nq, "us"},
        {"q_fanout_us", fanout / nq, "us"},
        {"q_other_us", q_other / nq, "us"},
        {"u_total_us", u_total / nu, "us"},
        {"u_doc_us", layer("u_doc_us") / nu, "us"},
        {"u_route_us", route / nu, "us"},
        {"u_maintain_us", maintain / nu, "us"},
        {"u_wal_us", wal / nu, "us"},
        {"u_persist_us", persist / nu, "us"},
        {"u_publish_us", publish / nu, "us"},
        {"u_other_us", u_other / nu, "us"},
        {"cache_hit_ratio",
         ratio(q("cache_hits"), q("cache_hits") + q("cache_misses")), "ratio"},
        {"memo_hit_ratio",
         ratio(q("memo_hits"), q("memo_hits") + q("memo_misses")), "ratio"},
        {"plans_per_query", q("plans") / nq, "count"},
        {"decodes_per_query", q("decodes") / nq, "count"},
        {"rows_scanned_per_query", q("rows_scanned") / nq, "count"},
        {"decodes_per_update", u("decodes") / nu, "count"},
        {"views_touched_per_update", u("views_touched") / nu, "count"},
        {"tuples_per_update", u("tuples") / nu, "count"},
        {"wal_bytes_per_update", u("wal_bytes") / nu, "B"},
        {"persist_bytes_per_update", u("persist_bytes") / nu, "B"},
    };
  }

  const Options opts_;
  World world_;
  UpdateStream stream_;
  std::vector<Pattern> queries_;
  std::vector<size_t> order_;
  Rng order_rng_;
  /// Updates applied so far: names the document version references are for.
  int64_t version_ = 0;
  int since_checkpoint_ = 0;
  std::map<size_t, Table> refs_;
  int64_t refs_version_ = -1;
  /// Query latencies (ms) of the open group, and of every closed one.
  std::vector<double> cur_queries_;
  std::vector<std::vector<double>> query_groups_;  // one per pass or segment
  std::vector<double> update_ms_;
  std::vector<double> setup_s_;
  int64_t setup_resident_bytes_ = 0;
  int64_t setup_compressed_bytes_ = 0;
  std::vector<double> pass_resident_bytes_;  // at the end of each pass
  int64_t compressed_bytes_ = 0;             // at the end of the run
  std::map<std::string, double> layer_us_;  // bench-side timers and spans
  ProgramMetrics query_program_;   // program metric deltas over queries
  ProgramMetrics update_program_;  // and over updates
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool checks_ok_ = true;
};

int Usage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload update|sharded "
               "--seed N --seconds S --trace 0|1 --store DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view val = argv[i + 1];
    if (key == "--workload") {
      if (val == "update") {
        o.workload = Workload::kUpdate;
      } else if (val == "sharded") {
        o.workload = Workload::kSharded;
      } else {
        return Usage();
      }
      have_workload = true;
    } else if (key == "--seed") {
      std::optional<int64_t> v = ParseInt64(val);
      if (!v.has_value() || *v < 0) return Usage();
      o.seed = static_cast<uint64_t>(*v);
      have_seed = true;
    } else if (key == "--seconds") {
      std::optional<double> v = ParseDouble(val);
      if (!v.has_value() || *v <= 0) return Usage();
      o.seconds = *v;
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return Usage();
      o.trace = val == "1";
    } else if (key == "--store") {
      o.store = std::string(val);
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || o.store.empty()) {
    return Usage();
  }

  Result<World> w = Setup(o, /*on_disk=*/o.workload == Workload::kUpdate);
  if (!w.ok()) {
    std::fprintf(stderr, "servebench: set-up failed: %s\n",
                 w.status().ToString().c_str());
    return 1;
  }
  Bench bench(o, std::move(w).value());
  if (!bench.Run()) return 1;
  bench.Report();
  return 0;
}

}  // namespace
}  // namespace svx

int main(int argc, char** argv) { return svx::Main(argc, argv); }
