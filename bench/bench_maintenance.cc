// Incremental maintenance benchmark: apply randomized subtree updates to an
// XMark document and maintain a view catalog incrementally, versus
// rematerializing every extent from scratch after each update. Reports
// per-(view, update-kind) scenario timings and writes machine-readable
// BENCH_maintenance.json into the working directory. Every scenario also
// verifies the maintained extent is byte-identical to rematerialization.
//
// With --shards=N (N > 1) the stream maintains a sync ShardedCatalog
// instead: verification merges the per-shard extent slices, and the
// maintenance counters stay zero (the sharded API does not surface them).
//
//   $ ./build/bench_maintenance [scale] [updates-per-scenario] [--shards N]
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/pattern/pattern_parser.h"
#include "src/summary/summary_builder.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"
#include "src/util/timer.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/sharded_catalog.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/xml/update.h"

namespace svx {
namespace {

struct ViewSpec {
  const char* name;
  const char* pattern;
};

const ViewSpec kViews[] = {
    {"item_names", "site(//item{id}(/name{id,v}))"},
    {"item_keywords_opt", "site(//item{id}(?//keyword{v}))"},
    {"item_keywords_nested", "site(//item{id}(n//keyword{id,v}))"},
    {"person_content", "site(//person{id,c})"},
    {"auction_bidders", "site(//open_auction{id}(//bidder{id}(/increase{v})))"},
};

enum class UpdateKind { kLeafInsert, kSubtreeInsert, kSubtreeDelete };

const char* UpdateKindName(UpdateKind k) {
  switch (k) {
    case UpdateKind::kLeafInsert:
      return "leaf-insert";
    case UpdateKind::kSubtreeInsert:
      return "subtree-insert";
    case UpdateKind::kSubtreeDelete:
      return "subtree-delete";
  }
  return "?";
}

/// A random node that may take children: anything but an attribute.
NodeIndex RandomParent(const Document& doc, Rng* rng) {
  NodeIndex n = kInvalidNode;
  do {
    n = static_cast<NodeIndex>(
        rng->Uniform(0, static_cast<int64_t>(doc.size()) - 1));
  } while (doc.label(n)[0] == '@');
  return n;
}

/// Picks an update of the given kind against `doc`; deterministic per rng.
Result<UpdateResult> MakeUpdate(const Document& doc, UpdateKind kind,
                                Rng* rng) {
  switch (kind) {
    case UpdateKind::kLeafInsert: {
      const NodeIndex n = RandomParent(doc, rng);
      return InsertSubtree(doc, doc.ord_path(n), *MustParseTree("keyword=k"));
    }
    case UpdateKind::kSubtreeInsert: {
      const NodeIndex n = RandomParent(doc, rng);
      return InsertSubtree(
          doc, doc.ord_path(n),
          *MustParseTree("item(name=fresh description(text=t keyword=new) "
                         "incategory=c payment=cash)"));
    }
    case UpdateKind::kSubtreeDelete: {
      // A random non-root subtree of bounded size (≤ 1% of the document).
      int32_t cap = std::max<int32_t>(doc.size() / 100, 4);
      for (int attempt = 0; attempt < 64; ++attempt) {
        NodeIndex n = static_cast<NodeIndex>(
            rng->Uniform(1, static_cast<int64_t>(doc.size()) - 1));
        if (doc.subtree_end(n) - n <= cap) {
          return DeleteSubtree(doc, doc.ord_path(n));
        }
      }
      return Status::NotFound("no deletable subtree under the size cap");
    }
  }
  return Status::Internal("unreachable");
}

struct ScenarioRow {
  std::string view;
  std::string update;
  int updates = 0;
  int32_t doc_nodes = 0;
  double avg_region = 0;     // nodes touched per update
  double maintain_ms = 0;    // ApplyUpdate total
  double remat_ms = 0;       // rematerialize-per-update total
  double speedup = 0;
  long long inserted = 0;
  long long deleted = 0;
  int touched = 0;  // extents changed (incrementally or by rebuild)
  int shared = 0;   // extents carried between epochs untouched
  int rebuilds = 0;
  bool identical = false;
};

/// The catalog a scenario maintains: one ViewCatalog or, with shards > 1, a
/// sync ShardedCatalog. Its three methods are the scenario's only per-kind
/// code.
class ScenarioCatalog {
 public:
  ScenarioCatalog(ViewDef def, int shards)
      : def_(std::move(def)), shards_(shards) {}

  /// Builds the catalog over `doc` and materializes the view in it.
  Status Materialize(std::shared_ptr<const Document> doc,
                     std::shared_ptr<const Summary> summary) {
    if (shards_ <= 1) {
      single_ = std::make_unique<ViewCatalog>();  // in-memory maintenance
      return single_->Materialize(def_, *doc);
    }
    ShardedCatalogOptions copts;
    copts.num_shards = shards_;
    SVX_ASSIGN_OR_RETURN(
        sharded_, ShardedCatalog::Create(copts, doc, std::move(summary)));
    return sharded_->Materialize(def_, *doc);
  }

  /// Maintains the view under `delta`; `next` is delta.new_doc.
  Status Apply(const DocumentDelta& delta,
               std::shared_ptr<const Document> next,
               std::shared_ptr<const Summary> next_summary,
               MaintenanceStats* ms) {
    if (single_ != nullptr) {
      return single_->ApplyUpdateBatch({delta}, std::move(next),
                                       std::move(next_summary), ms);
    }
    return sharded_->ApplyUpdate(delta, std::move(next),
                                 std::move(next_summary));
  }

  /// True when the maintained extent serializes like `fresh`'s and, in the
  /// single catalog, its incrementally refreshed statistics equal `fresh`'s.
  /// A sharded view is read back by merging its per-shard slices (or from
  /// the global catalog, which holds the views that cannot be partitioned).
  bool Matches(const StoredView& fresh) {
    const std::string want = SerializeExtent(*fresh.table().value());
    if (single_ != nullptr) {
      const StoredView* v = single_->Find(def_.name);
      return SerializeExtent(*v->table().value()) == want &&
             v->stats == fresh.stats;
    }
    if (const StoredView* v = sharded_->global_catalog()->Find(def_.name)) {
      return SerializeExtent(*v->table().value()) == want;
    }
    Table merged;
    for (int i = 0; i < sharded_->num_shards(); ++i) {
      TablePtr slice =
          sharded_->shard_catalog(i)->Find(def_.name)->table().value();
      if (i == 0) merged = Table(slice->schema());
      for (const Tuple& t : slice->rows()) merged.AddRow(t);
    }
    merged.SortRowsCanonical();
    return SerializeExtent(merged) == want;
  }

 private:
  ViewDef def_;
  int shards_;
  std::unique_ptr<ViewCatalog> single_;
  std::unique_ptr<ShardedCatalog> sharded_;
};

ScenarioRow RunScenario(const ViewSpec& spec, UpdateKind kind, double scale,
                        int updates, int shards) {
  ScenarioRow row;
  row.view = spec.name;
  row.update = UpdateKindName(kind);
  row.updates = updates;

  XmarkOptions opts;
  opts.scale = scale;
  std::shared_ptr<Document> doc(GenerateXmark(opts));
  std::shared_ptr<const Summary> summary(SummaryBuilder::Build(doc.get()));
  row.doc_nodes = doc->size();

  ViewDef def{spec.name, MustParsePattern(spec.pattern)};
  ScenarioCatalog catalog(def, shards);
  Status s = catalog.Materialize(doc, summary);
  if (!s.ok()) {
    std::fprintf(stderr, "materialize: %s\n", s.ToString().c_str());
    return row;
  }

  Rng rng(1234);
  Timer t;
  int64_t region_total = 0;
  for (int i = 0; i < updates; ++i) {
    Result<UpdateResult> r = MakeUpdate(*doc, kind, &rng);
    if (!r.ok()) continue;
    region_total += r->delta.region_size;
    std::shared_ptr<Document> next(std::move(r->doc));
    std::shared_ptr<const Summary> next_summary(
        SummaryBuilder::Build(next.get()));

    // Maintenance path.
    MaintenanceStats ms;
    t.Reset();
    Status apply = catalog.Apply(r->delta, next, next_summary, &ms);
    row.maintain_ms += t.ElapsedMillis();
    if (!apply.ok()) {
      std::fprintf(stderr, "apply: %s\n", apply.ToString().c_str());
      return row;
    }
    row.inserted += ms.tuples_inserted;
    row.deleted += ms.tuples_deleted;
    row.touched += ms.views_touched;
    row.shared += ms.views_shared;
    row.rebuilds += ms.views_rebuilt;

    // Rematerialization baseline: the same end state built from scratch
    // (materialize + canonicalize + statistics, as the fallback path does).
    t.Reset();
    ViewCatalog fresh;
    Status remat = fresh.Materialize(def, *next);
    row.remat_ms += t.ElapsedMillis();
    if (!remat.ok()) return row;

    doc = std::move(next);
    if (i + 1 == updates) {
      row.identical = catalog.Matches(*fresh.Find(spec.name));
    }
  }
  row.avg_region = static_cast<double>(region_total) / updates;  // updates >= 1
  row.speedup = row.maintain_ms > 0 ? row.remat_ms / row.maintain_ms : 0;
  return row;
}

void Run(double scale, int updates, int shards) {
  std::printf("=== Incremental maintenance vs rematerialization%s ===\n",
              shards > 1 ? " (sharded)" : "");
  std::vector<ScenarioRow> rows;
  std::printf("%-22s %-15s %7s %9s %12s %12s %8s %6s %5s\n", "view", "update",
              "nodes", "avg_region", "maintain(ms)", "remat(ms)", "speedup",
              "ident", "rblt");
  for (const ViewSpec& spec : kViews) {
    for (UpdateKind kind :
         {UpdateKind::kLeafInsert, UpdateKind::kSubtreeInsert,
          UpdateKind::kSubtreeDelete}) {
      ScenarioRow row = RunScenario(spec, kind, scale, updates, shards);
      std::printf("%-22s %-15s %7d %9.1f %12.2f %12.2f %7.1fx %6s %5d\n",
                  row.view.c_str(), row.update.c_str(), row.doc_nodes,
                  row.avg_region, row.maintain_ms, row.remat_ms, row.speedup,
                  row.identical ? "yes" : "NO", row.rebuilds);
      rows.push_back(std::move(row));
    }
  }

  int small_update_wins = 0;
  for (const ScenarioRow& r : rows) {
    bool small = r.doc_nodes > 0 &&
                 r.avg_region <= 0.01 * static_cast<double>(r.doc_nodes);
    if (small && r.identical && r.speedup > 1.0) ++small_update_wins;
  }
  std::printf("\nscenarios where maintenance beats rematerialization on "
              "small (≤1%%) updates: %d / %zu\n",
              small_update_wins, rows.size());

  JsonWriter w;
  w.BeginObject();
  w.KV("scale", scale);
  w.KV("shards", static_cast<int64_t>(shards));
  w.KV("updates_per_scenario", static_cast<int64_t>(updates));
  w.KV("small_update_wins", static_cast<int64_t>(small_update_wins));
  w.Key("scenarios");
  w.BeginArray();
  for (const ScenarioRow& r : rows) {
    w.BeginObject();
    w.KV("view", r.view);
    w.KV("update", r.update);
    w.KV("updates", static_cast<int64_t>(r.updates));
    w.KV("doc_nodes", static_cast<int64_t>(r.doc_nodes));
    w.KV("avg_region_nodes", r.avg_region);
    w.KV("maintain_ms", r.maintain_ms);
    w.KV("remat_ms", r.remat_ms);
    w.KV("speedup", r.speedup);
    w.KV("tuples_inserted", static_cast<int64_t>(r.inserted));
    w.KV("tuples_deleted", static_cast<int64_t>(r.deleted));
    w.KV("views_touched", static_cast<int64_t>(r.touched));
    w.KV("views_shared", static_cast<int64_t>(r.shared));
    w.KV("full_rebuilds", static_cast<int64_t>(r.rebuilds));
    w.KV("identical", r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteBenchFile("BENCH_maintenance.json", w.str());
  EmitMetricsSnapshot("BENCH_maintenance_metrics.prom");
}

}  // namespace
}  // namespace svx

int main(int argc, char** argv) {
  svx::BenchArgs args(argc, argv,
                      "bench_maintenance [scale] [updates-per-scenario] "
                      "[--shards N]");
  const double scale = args.Positional(0, "scale", 1.0, svx::kPositive);
  const int updates = args.Positional(1, "updates-per-scenario", 20, {1});
  const int shards = args.Flag("--shards", 1, {1, 256});
  args.Finish();
  svx::Run(scale, updates, shards);
  return 0;
}
