// Rewriter benchmark over the 20-query XMark workload, at one or more
// document scales. The base tag views are materialized into a store-backed
// ViewCatalog, and per query it measures
//   * baseline_ms  — the reference search, Rewriter::RewriteExhaustive (the
//                    paper's Algorithm 1: no view index, containment memo,
//                    DP or rewrite cache),
//   * cold_ms      — Rewriter::Rewrite (ViewIndex, coverage pruning, DP
//                    enumeration, catalog-pinned containment memo), first
//                    (cache-miss) call,
//   * warm_ms      — the same query again, served from the catalog's
//                    RewriteCache,
//   * exec_ms      — the cheapest plan's execution over the stored extents,
//                    the median of five runs after an untimed first one,
// and verifies that
//   * whenever the reference finds a rewriting, the DP enumerator finds one
//     too, and its cheapest plan's estimated cost is no worse than the
//     reference's cheapest — the DP search keeps the Pareto frontier, not
//     the full rewriting list, so it may return fewer alternatives but
//     never a worse best plan;
//   * the optimized cheapest plan, executed over the stored extents,
//     returns exactly the query's direct evaluation over the document;
//   * warm repeats hit the rewrite cache (except truncated searches, which
//     are deliberately never cached).
// Each query also reports whether the DP plan table filled
// (plan_table_full). After the query loop — so the timings above see only
// the freshly materialized catalog — the store is checkpointed (Save) and
// reopened (Load), and the save/load times and the extents' row-major and
// compressed byte totals are reported.
//
// Writes BENCH_rewriter.json, BENCH_rewriter_metrics.prom and (first scale
// only) the traced q13 span tree BENCH_rewriter_trace_q13.json into the
// working directory.
//
//   $ ./bench_rewriter [scale ...] [--ceiling-ms N] [--min-cost-corr R]
//                      [--min-compression X]
//
// With --ceiling-ms, exits non-zero when any cold rewrite exceeds N ms;
// with --min-cost-corr, when the per-scale Spearman correlation between
// estimated cost and measured execution time falls below R; with
// --min-compression, when the compressed extents are less than X times
// smaller than the row-major serialization — the CI regression guards.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/base_views.h"
#include "bench/bench_common.h"
#include "bench/spearman.h"
#include "src/algebra/executor.h"
#include "src/observability/trace.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/util/json_writer.h"
#include "src/util/timer.h"
#include "src/viewstore/rewrite_cache.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"

namespace svx {
namespace {

/// Timed executions of each cheapest plan; exec_ms is their median.
constexpr int kExecRuns = 5;

struct QueryRow {
  int number = 0;
  double baseline_ms = 0;
  double cold_ms = 0;
  double warm_ms = 0;
  size_t baseline_rewritings = 0;
  size_t rewritings = 0;
  size_t candidates_pruned = 0;
  size_t plans_generated = 0;
  size_t plans_dominated = 0;
  size_t memo_hits = 0;
  size_t memo_misses = 0;
  double estimated_cost = -1;  // cheapest plan's model cost
  double exec_ms = -1;  // median of kExecRuns timed executions of that plan
  bool search_truncated = false;
  bool plan_table_full = false;
  bool cache_hit_on_warm = false;
  /// The DP search discards dominated plans, so the optimized list is not a
  /// superset of the baseline's. The contract is: it finds a rewriting
  /// whenever the baseline does, and its cheapest costs no more.
  bool found_when_baseline_found = true;
  bool cost_not_worse = true;
  bool exec_matches_direct = true;
};

struct ScaleReport {
  double scale = 0;
  int32_t document_nodes = 0;
  int32_t summary_paths = 0;
  size_t num_views = 0;
  double geomean_speedup = 0;  // baseline_ms / cold_ms
  double max_cold_ms = 0;
  /// Spearman rank correlation between estimated_cost and exec_ms over the
  /// queries with a rewriting — the cost model's usefulness as a ranker.
  double cost_spearman = 0;
  /// Store round trip of the materialized catalog.
  bool store_ok = true;
  double save_ms = 0;
  double load_ms = 0;
  int64_t total_bytes = 0;       // row-major serialization of all extents
  int64_t compressed_bytes = 0;  // their columnar form
  double compression_ratio = 0;
  std::vector<QueryRow> rows;
};

std::vector<std::string> Compacts(const std::vector<Rewriting>& rws) {
  std::vector<std::string> out;
  out.reserve(rws.size());
  for (const Rewriting& r : rws) out.push_back(r.compact);
  return out;
}

/// Re-runs q13 cold with tracing on — a fresh Rewriter carrying
/// RewriterOptions::trace and a fresh RewriteCache so the span tree shows
/// the miss path (cache-lookup, every rewrite phase, plan execution) — and
/// writes the rendered tree to BENCH_rewriter_trace_q13.json.
void WriteTraceQ13(const ViewCatalog& catalog, const Summary& summary,
                   const RewriterOptions& fast_opts,
                   const Catalog& exec_catalog) {
  Trace trace("q13");
  RewriterOptions traced_opts = fast_opts;
  traced_opts.trace = trace.root();
  Rewriter traced(summary, traced_opts);
  for (const auto& v : catalog.views()) traced.AddView(v->def);
  Pattern qp = GetXmarkQueryPatternConjunctive(13);
  RewriteCache fresh_cache;
  RewriteStats stats;
  Result<std::vector<Rewriting>> rws =
      CachedRewrite(&fresh_cache, &traced, qp, &stats);
  if (rws.ok() && !rws->empty()) {
    Result<Table> out =
        Execute(*rws->front().plan, exec_catalog, trace.root());
    (void)out;
  }
  WriteBenchFile("BENCH_rewriter_trace_q13.json", trace.RenderJson());
}

ScaleReport RunScale(double scale, bool write_trace) {
  namespace fs = std::filesystem;
  ScaleReport report;
  report.scale = scale;

  XmarkOptions opts;
  opts.scale = scale;
  std::unique_ptr<Document> doc = GenerateXmark(opts);
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());
  std::vector<ViewDef> defs = BuildBaseTagViews(*summary);
  report.document_nodes = doc->size();
  report.summary_paths = summary->size();
  report.num_views = defs.size();

  const std::string store_dir =
      (fs::temp_directory_path() / "svx_bench_rewriter").string();
  std::error_code ec;
  fs::remove_all(store_dir, ec);  // a cold store per scale
  ViewCatalog catalog(store_dir);
  for (const ViewDef& d : defs) {
    Status s = catalog.Materialize(d, *doc);
    if (!s.ok()) {
      std::printf("materialize %s: %s\n", d.name.c_str(),
                  s.ToString().c_str());
      return report;
    }
  }
  CostModel model = catalog.BuildCostModel();
  Catalog exec_catalog = catalog.ExecutorCatalog();

  // One shared rewriter for both searches: Rewrite builds its ViewIndex
  // once at first use (registration-time cost, amortized over the
  // workload) and pins the catalog's containment memo; RewriteExhaustive
  // uses neither.
  RewriterOptions fast_opts;
  fast_opts.max_results = 4;
  fast_opts.time_budget_ms = 30000;
  fast_opts.cost_model = &model;
  fast_opts.memo = catalog.containment_memo();
  Rewriter rewriter(*summary, fast_opts);
  for (const auto& v : catalog.views()) rewriter.AddView(v->def);

  std::printf(
      "scale %.1f: %d nodes, %d paths, %zu views\n"
      "%6s %12s %9s %9s %7s %7s %7s %6s %6s %5s\n",
      scale, doc->size(), summary->size(), defs.size(), "query",
      "baseline(ms)", "cold(ms)", "warm(ms)", "#rw", "domin", "memoH",
      "cost", "exec", "hit");

  double log_speedup_sum = 0;
  for (const XmarkQuery& q : XmarkQueryPatterns()) {
    Pattern qp = GetXmarkQueryPatternConjunctive(q.number);
    QueryRow row;
    row.number = q.number;

    Timer t;
    Result<std::vector<Rewriting>> base_rws = rewriter.RewriteExhaustive(qp);
    row.baseline_ms = t.ElapsedMillis();
    row.baseline_rewritings = base_rws.ok() ? base_rws->size() : 0;

    RewriteStats cold_stats;
    t.Reset();
    Result<std::vector<Rewriting>> cold_rws = CachedRewrite(
        catalog.rewrite_cache(), &rewriter, qp, &cold_stats);
    row.cold_ms = t.ElapsedMillis();
    row.candidates_pruned = cold_stats.candidates_pruned;
    row.plans_generated = cold_stats.plans_generated;
    row.plans_dominated = cold_stats.plans_dominated;
    row.search_truncated = cold_stats.search_truncated;
    row.plan_table_full = cold_stats.plan_table_full;
    row.memo_hits = cold_stats.containment_memo_hits;
    row.memo_misses = cold_stats.containment_memo_misses;
    row.rewritings = cold_rws.ok() ? cold_rws->size() : 0;

    // Plan verification: the optimized search must find a rewriting
    // whenever the reference does, at no greater estimated cost. (The DP
    // search discards dominated plans, so list equality against the
    // reference is not the contract — cost parity is; plan_enum_test.cc
    // checks the same contract on hand-built and random worlds.)
    if (base_rws.ok() && cold_rws.ok()) {
      row.found_when_baseline_found =
          base_rws->empty() || !cold_rws->empty();
      if (!base_rws->empty() && !cold_rws->empty()) {
        row.cost_not_worse =
            cold_rws->front().est_cost <= base_rws->front().est_cost + 1e-6;
      }
    }

    // Execution verification: cheapest optimized plan ≡ direct evaluation.
    // The verifying run is untimed: it pays for whatever the search left in
    // the heap and caches, which says nothing about the plan's cost.
    if (cold_rws.ok() && !cold_rws->empty()) {
      const PlanNode& plan = *cold_rws->front().plan;
      row.estimated_cost = cold_rws->front().est_cost;
      Table reference = MaterializeView(qp, "Q", *doc);
      Result<Table> out = Execute(plan, exec_catalog);
      row.exec_matches_direct =
          out.ok() && out->EqualsIgnoringOrder(reference);
      std::vector<double> runs;
      for (int i = 0; i < kExecRuns; ++i) {
        t.Reset();
        Result<Table> again = Execute(plan, exec_catalog);
        runs.push_back(t.ElapsedMillis());
        row.exec_matches_direct = row.exec_matches_direct && again.ok();
      }
      std::nth_element(runs.begin(), runs.begin() + kExecRuns / 2, runs.end());
      row.exec_ms = runs[kExecRuns / 2];
    }

    RewriteStats warm_stats;
    t.Reset();
    Result<std::vector<Rewriting>> warm_rws = CachedRewrite(
        catalog.rewrite_cache(), &rewriter, qp, &warm_stats);
    row.warm_ms = t.ElapsedMillis();
    row.cache_hit_on_warm = warm_stats.rewrite_cache_hits > 0;
    bool warm_matches_cold = true;
    if (warm_rws.ok() && cold_rws.ok()) {
      warm_matches_cold = Compacts(*warm_rws) == Compacts(*cold_rws);
      row.found_when_baseline_found =
          row.found_when_baseline_found && warm_matches_cold;
    }

    log_speedup_sum +=
        std::log(row.baseline_ms / std::max(row.cold_ms, 1e-3));
    report.max_cold_ms = std::max(report.max_cold_ms, row.cold_ms);
    std::printf("q%-5d %12.1f %9.1f %9.3f %3zu/%-3zu %7zu %7zu %6s %6s %5s\n",
                row.number, row.baseline_ms, row.cold_ms, row.warm_ms,
                row.baseline_rewritings, row.rewritings, row.plans_dominated,
                row.memo_hits,
                row.found_when_baseline_found && row.cost_not_worse ? "ok"
                                                                    : "✗",
                row.exec_matches_direct ? "ok" : "BAD",
                row.cache_hit_on_warm ? "yes" : "NO");
    report.rows.push_back(row);
  }
  report.geomean_speedup =
      std::exp(log_speedup_sum / static_cast<double>(report.rows.size()));
  std::vector<double> est_costs, exec_ms;
  size_t table_full = 0;
  for (const QueryRow& q : report.rows) {
    if (q.estimated_cost >= 0 && q.exec_ms >= 0) {
      est_costs.push_back(q.estimated_cost);
      exec_ms.push_back(q.exec_ms);
    }
    if (q.plan_table_full) ++table_full;
  }
  report.cost_spearman = SpearmanCorrelation(est_costs, exec_ms);
  std::printf(
      "geomean cold speedup vs in-process baseline: %.2fx; "
      "Spearman(est cost, exec ms) = %.3f over %zu queries\n"
      "plan table full (max_plan_table %zu) on %zu of %zu queries\n",
      report.geomean_speedup, report.cost_spearman, est_costs.size(),
      fast_opts.max_plan_table, table_full, report.rows.size());
  if (write_trace) {
    WriteTraceQ13(catalog, *summary, fast_opts, exec_catalog);
  }

  // Store round trip: checkpoint the materialized catalog and reopen it.
  Timer t;
  Status stored = catalog.Save();
  report.save_ms = t.ElapsedMillis();
  ViewCatalog reloaded(store_dir);
  t.Reset();
  if (stored.ok()) stored = reloaded.Load(doc.get());
  report.load_ms = t.ElapsedMillis();
  if (!stored.ok()) {
    std::printf("store round trip: %s\n", stored.ToString().c_str());
    report.store_ok = false;
  }
  report.total_bytes = reloaded.TotalBytes();
  report.compressed_bytes = reloaded.TotalCompressedBytes();
  report.compression_ratio =
      report.compressed_bytes > 0
          ? static_cast<double>(report.total_bytes) /
                static_cast<double>(report.compressed_bytes)
          : 0;
  std::printf(
      "store: save %.1f ms, load %.1f ms; extents %lld bytes row-major, "
      "%lld compressed (%.2fx)\n\n",
      report.save_ms, report.load_ms,
      static_cast<long long>(report.total_bytes),
      static_cast<long long>(report.compressed_bytes),
      report.compression_ratio);
  // The metrics snapshot is written while both catalogs are open, so the
  // extent gauges count their live extents (svx_extent_compressed_bytes is
  // twice the compressed total above); each scale rewrites it with the
  // counters so far. DebugMetrics refreshes the queried catalog's epoch
  // gauges first.
  std::string debug = catalog.DebugMetrics();
  (void)debug;
  EmitMetricsSnapshot("BENCH_rewriter_metrics.prom");
  return report;
}

void WriteJson(const std::vector<ScaleReport>& reports) {
  JsonWriter w;
  w.BeginObject();
  w.Key("scales");
  w.BeginArray();
  for (const ScaleReport& r : reports) {
    w.BeginObject();
    w.KV("scale", r.scale);
    w.KV("document_nodes", static_cast<int64_t>(r.document_nodes));
    w.KV("summary_paths", static_cast<int64_t>(r.summary_paths));
    w.KV("num_views", static_cast<uint64_t>(r.num_views));
    w.KV("geomean_speedup", r.geomean_speedup);
    w.KV("max_cold_ms", r.max_cold_ms);
    w.KV("cost_spearman", r.cost_spearman);
    w.KV("save_ms", r.save_ms);
    w.KV("load_ms", r.load_ms);
    w.KV("total_bytes", r.total_bytes);
    w.KV("total_compressed_bytes", r.compressed_bytes);
    w.KV("compression_ratio", r.compression_ratio);
    w.Key("queries");
    w.BeginArray();
    for (const QueryRow& q : r.rows) {
      w.BeginObject();
      w.KV("query", static_cast<int64_t>(q.number));
      w.KV("baseline_ms", q.baseline_ms);
      w.KV("cold_ms", q.cold_ms);
      w.KV("warm_ms", q.warm_ms);
      w.KV("baseline_rewritings", static_cast<uint64_t>(q.baseline_rewritings));
      w.KV("rewritings", static_cast<uint64_t>(q.rewritings));
      w.KV("candidates_pruned", static_cast<uint64_t>(q.candidates_pruned));
      w.KV("plans_generated", static_cast<uint64_t>(q.plans_generated));
      w.KV("plans_dominated", static_cast<uint64_t>(q.plans_dominated));
      w.KV("estimated_cost", q.estimated_cost);
      w.KV("exec_ms", q.exec_ms);
      w.KV("search_truncated", q.search_truncated);
      w.KV("plan_table_full", q.plan_table_full);
      w.KV("containment_memo_hits", static_cast<uint64_t>(q.memo_hits));
      w.KV("containment_memo_misses", static_cast<uint64_t>(q.memo_misses));
      w.KV("rewrite_cache_hit_on_warm", q.cache_hit_on_warm);
      w.KV("found_when_baseline_found", q.found_when_baseline_found);
      w.KV("cost_not_worse", q.cost_not_worse);
      w.KV("exec_matches_direct", q.exec_matches_direct);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteBenchFile("BENCH_rewriter.json", w.str());
}

}  // namespace
}  // namespace svx

int main(int argc, char** argv) {
  svx::BenchArgs args(argc, argv,
                      "bench_rewriter [scale ...] [--ceiling-ms N] "
                      "[--min-cost-corr R] [--min-compression X]");
  std::vector<double> scales = args.Numbers(0, "scale", svx::kPositive);
  const double ceiling_ms = args.Flag("--ceiling-ms", -1.0, svx::kPositive);
  const double min_cost_corr = args.Flag("--min-cost-corr", -2.0, {-1, 1});
  const double min_compression =
      args.Flag("--min-compression", 0.0, svx::kPositive);
  args.Finish();
  if (scales.empty()) scales = {0.5, 1.0};
  svx::metrics::RegisterStandardMetrics();

  std::vector<svx::ScaleReport> reports;
  for (size_t i = 0; i < scales.size(); ++i) {
    reports.push_back(svx::RunScale(scales[i], /*write_trace=*/i == 0));
  }
  svx::WriteJson(reports);

  bool ok = true;
  for (const svx::ScaleReport& r : reports) {
    for (const svx::QueryRow& q : r.rows) {
      // Truncated searches are deliberately never cached (a later call
      // with a bigger budget must be able to do better), so only complete
      // searches are required to hit on the warm repeat.
      ok = ok && q.found_when_baseline_found && q.cost_not_worse &&
           q.exec_matches_direct &&
           (q.cache_hit_on_warm || q.search_truncated);
      if (ceiling_ms > 0 && q.cold_ms > ceiling_ms) {
        std::printf("FAIL: scale %.1f q%d cold %.1f ms exceeds ceiling %.1f "
                    "ms\n",
                    r.scale, q.number, q.cold_ms, ceiling_ms);
        ok = false;
      }
    }
    if (min_cost_corr > -2 && r.cost_spearman < min_cost_corr) {
      std::printf("FAIL: scale %.1f cost/exec Spearman %.3f below %.3f\n",
                  r.scale, r.cost_spearman, min_cost_corr);
      ok = false;
    }
    if (!r.store_ok) ok = false;
    if (min_compression > 0 && r.compression_ratio < min_compression) {
      std::printf("FAIL: scale %.1f compression ratio %.2fx below %.2fx\n",
                  r.scale, r.compression_ratio, min_compression);
      ok = false;
    }
  }
  if (!ok) std::printf("bench_rewriter: FAILED verification\n");
  return ok ? 0 : 1;
}
