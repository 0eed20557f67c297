// Figure 15: XMark query rewriting (§5). For each of the 20 XMark query
// patterns, rewrite using
//   * one 2-node base view per XMark tag (root + the tag, storing ID, V) —
//     "to ensure some rewritings exist", and
//   * 100 random 3-node views with 50% optional edges, nodes storing
//     (structural) ID and V with probability 0.75,
// reporting the setup + Prop 3.4 pruning time, the time until the first
// equivalent rewriting, and the total rewriting time. The paper's shapes:
// the first rewriting is found fast (useful for early stopping), and view
// pruning keeps ~57% of the 183 views on average.
//
// On top of the paper's measurement, the harness routes the view set
// through the persistent ViewCatalog (materialize -> save -> load) and
// rewrites with the statistics-driven cost model, so the reported plans are
// the cheapest covers rather than arbitrary ones.
//
//   $ ./build/bench_fig15_rewriting [--extent-scale=X] [--memory-budget-mb=N]
//
// --extent-scale sets the XMark scale of the document the view set is
// materialized over (default 1.0; the summary is always built at 21.0, the
// paper's XMark233). --memory-budget-mb bounds the decoded-extent residency
// of the catalog: the compressed columnar extents stay resident, decoded
// tables beyond the budget are evicted LRU and re-decoded lazily — which is
// what makes full-scale materialization of the 183-view set feasible.
// Writes BENCH_fig15_rewriting.json and BENCH_fig15_metrics.prom.
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/base_views.h"
#include "bench/bench_common.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/util/json_writer.h"
#include "src/util/timer.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"

namespace svx {
namespace {

struct QueryRow {
  int number = 0;
  size_t views_kept = 0;
  double kept_pct = 0;
  double setup_ms = 0;
  double first_ms = -1;
  double total_ms = 0;
  size_t rewritings = 0;
  size_t equivalence_tests = 0;
  double cheapest_cost = -1;
};

void Run(double extent_scale, int64_t memory_budget_mb) {
  XmarkOptions opts;
  opts.scale = 21.0;  // the paper rewrites against the XMark233 summary
  std::unique_ptr<Document> doc = GenerateXmark(opts);
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());
  // One base view per distinct tag plus 100 random 3-node views.
  std::vector<ViewDef> views = BuildBaseTagViews(*summary);
  AddRandomViews(*summary, 100, &views);

  std::printf("=== Figure 15: XMark query rewriting ===\n");
  std::printf("summary: %d nodes; views: %zu (paper: 183)\n",
              summary->size(), views.size());

  // Store path: materialize the view set into a persistent catalog, save
  // and reload it, and drive the rewriter's plan ranking from the stored
  // statistics. The extents are materialized over an --extent-scale
  // document; the --memory-budget-mb residency bound is what lets the full
  // 183-view set materialize at scale >= 10 without holding every decoded
  // extent in memory at once (compressed columnar extents stay resident,
  // decoded tables are evicted LRU and re-decoded on demand).
  XmarkOptions stats_opts;
  stats_opts.scale = extent_scale;
  std::unique_ptr<Document> stats_doc = GenerateXmark(stats_opts);
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "svx_bench_fig15_store")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  ViewCatalogOptions copts;
  copts.dir = store_dir;
  copts.memory_budget_bytes = memory_budget_mb * 1024 * 1024;
  Timer store_timer;
  ViewCatalog catalog(copts);
  for (const ViewDef& v : views) {
    Status s = catalog.Materialize(v, *stats_doc);
    if (!s.ok()) std::printf("materialize %s: %s\n", v.name.c_str(),
                             s.ToString().c_str());
  }
  double materialize_ms = store_timer.ElapsedMillis();
  const std::shared_ptr<MemoryBudget>& wbudget = catalog.memory_budget();
  int64_t materialize_resident = wbudget->resident_bytes();
  int64_t materialize_evictions = wbudget->evictions();
  store_timer.Reset();
  Status store_status = catalog.Save();
  ViewCatalog reloaded(copts);
  if (store_status.ok()) store_status = reloaded.Load(stats_doc.get());
  double persist_ms = store_timer.ElapsedMillis();
  if (!store_status.ok()) {
    std::printf("view store unavailable (%s); continuing without costs\n",
                store_status.ToString().c_str());
  }
  CostModel model = reloaded.BuildCostModel();
  std::printf(
      "view store: materialized %.1f ms, save+load %.1f ms, "
      "%lld bytes (%lld compressed)\n",
      materialize_ms, persist_ms,
      static_cast<long long>(reloaded.TotalBytes()),
      static_cast<long long>(reloaded.TotalCompressedBytes()));
  std::printf(
      "memory budget: %lld MB; resident after materialize %lld bytes, "
      "evictions %lld\n\n",
      static_cast<long long>(memory_budget_mb),
      static_cast<long long>(materialize_resident),
      static_cast<long long>(materialize_evictions));

  std::printf("%6s %8s %8s %10s %10s %10s %9s %8s %10s\n", "query", "kept",
              "kept%", "setup(ms)", "first(ms)", "total(ms)", "#rewrit.",
              "tests", "cheapest");

  std::vector<QueryRow> rows;
  double kept_pct_total = 0;
  int kept_cells = 0;
  double first_total = 0;
  int first_count = 0;
  for (const XmarkQuery& q : XmarkQueryPatterns()) {
    RewriterOptions ropts;
    ropts.max_results = 3;
    ropts.max_plan_views = 3;
    ropts.time_budget_ms = 20000;
    if (store_status.ok()) ropts.cost_model = &model;
    Rewriter rewriter(*summary, ropts);
    for (const ViewDef& v : views) rewriter.AddView(v);

    // The paper's base views store ID and V only ("to ensure some
    // rewritings exist"), so the harness rewrites each query's conjunctive
    // value form: C outputs in value form, optional/nested edges required
    // (⊥ rows would need outer joins, which the §3.2 algebra does not
    // provide; a view set storing the optional subtrees can serve the
    // original forms — see the rewriter tests).
    Pattern qp = GetXmarkQueryPattern(q.number);
    for (PatternNodeId n = 0; n < qp.size(); ++n) {
      Pattern::Node& node = qp.mutable_node(n);
      if (node.attrs & kAttrContent) {
        node.attrs = (node.attrs & ~kAttrContent) | kAttrValue;
      }
      node.optional = false;
      node.nested = false;
    }

    RewriteStats stats;
    Result<std::vector<Rewriting>> out = rewriter.Rewrite(qp, &stats);
    QueryRow row;
    row.number = q.number;
    row.views_kept = stats.views_kept;
    row.kept_pct = stats.views_total == 0
                       ? 0
                       : 100.0 * static_cast<double>(stats.views_kept) /
                             static_cast<double>(stats.views_total);
    row.setup_ms = stats.setup_ms;
    row.first_ms = stats.first_ms;
    row.total_ms = stats.total_ms;
    row.rewritings = out.ok() ? out->size() : 0;
    row.equivalence_tests = stats.equivalence_tests;
    row.cheapest_cost = stats.cheapest_cost;
    kept_pct_total += row.kept_pct;
    ++kept_cells;
    if (stats.first_ms >= 0) {
      first_total += stats.first_ms;
      ++first_count;
    }
    std::printf("q%-5d %8zu %7.0f%% %10.1f %10.1f %10.1f %9zu %8zu %10.0f\n",
                q.number, row.views_kept, row.kept_pct, row.setup_ms,
                row.first_ms, row.total_ms, row.rewritings,
                row.equivalence_tests, row.cheapest_cost);
    rows.push_back(row);
  }
  std::printf("\naverage kept%%: %.0f%% (paper: ~57%%)",
              kept_cells ? kept_pct_total / kept_cells : 0);
  if (first_count > 0) {
    std::printf("; average time-to-first: %.1f ms (found for %d/20 queries)",
                first_total / first_count, first_count);
  }
  std::printf("\nShapes to check: first rewriting found quickly relative to "
              "total; pruning\nremoves a large fraction of the views.\n");

  // ---- BENCH_fig15_rewriting.json ----
  const std::shared_ptr<MemoryBudget>& budget = reloaded.memory_budget();
  JsonWriter w;
  w.BeginObject();
  w.KV("extent_scale", extent_scale);
  w.KV("memory_budget_mb", memory_budget_mb);
  w.KV("num_views", static_cast<int64_t>(reloaded.size()));
  w.KV("materialize_ms", materialize_ms);
  w.KV("persist_ms", persist_ms);
  w.KV("total_bytes", reloaded.TotalBytes());
  w.KV("total_compressed_bytes", reloaded.TotalCompressedBytes());
  w.KV("materialize_resident_bytes", materialize_resident);
  w.KV("materialize_evictions", materialize_evictions);
  w.KV("resident_bytes", budget->resident_bytes());
  w.KV("evictions", budget->evictions());
  w.KV("reloads", budget->reloads());
  w.KV("avg_kept_pct", kept_cells ? kept_pct_total / kept_cells : 0);
  w.Key("queries");
  w.BeginArray();
  for (const QueryRow& r : rows) {
    w.BeginObject();
    w.KV("query", static_cast<int64_t>(r.number));
    w.KV("views_kept", static_cast<uint64_t>(r.views_kept));
    w.KV("kept_pct", r.kept_pct);
    w.KV("setup_ms", r.setup_ms);
    w.KV("first_ms", r.first_ms);
    w.KV("total_ms", r.total_ms);
    w.KV("rewritings", static_cast<uint64_t>(r.rewritings));
    w.KV("equivalence_tests", static_cast<uint64_t>(r.equivalence_tests));
    w.KV("cheapest_cost", r.cheapest_cost);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteBenchFile("BENCH_fig15_rewriting.json", w.str());
  std::printf("catalog: %s\n", reloaded.DebugMetrics().c_str());
  EmitMetricsSnapshot("BENCH_fig15_metrics.prom");
}

}  // namespace
}  // namespace svx

int main(int argc, char** argv) {
  svx::BenchArgs args(argc, argv,
                      "bench_fig15_rewriting [--extent-scale=X] "
                      "[--memory-budget-mb=N]");
  const double extent_scale =
      args.Flag("--extent-scale", 1.0, svx::kPositive);
  const int64_t memory_budget_mb =
      args.Flag("--memory-budget-mb", int64_t{0}, svx::kNonNegative);
  args.Finish();
  svx::Run(extent_scale, memory_budget_mb);
  return 0;
}
