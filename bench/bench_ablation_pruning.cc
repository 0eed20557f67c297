// Ablation B (DESIGN.md): the §3.3 pruning propositions. Prop 3.4 discards
// views unrelated to the query before the search; Prop 3.5 refuses join
// results whose pattern coincides with a child's. Both are toggled on the
// Figure 15 workload (a subset of queries, to keep the ablation fast).
#include <cstdio>

#include "bench/base_views.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"

namespace svx {
namespace {

struct Config {
  const char* name;
  bool prune_views;
  bool prune_same_pattern;
};

void Run() {
  XmarkOptions opts;
  opts.scale = 10.0;
  std::unique_ptr<Document> doc = GenerateXmark(opts);
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());

  // The Figure 15 view mix, reduced (per-tag base views + 40 random views).
  std::vector<ViewDef> views = BuildBaseTagViews(*summary);
  AddRandomViews(*summary, 40, &views);

  const Config configs[] = {
      {"all pruning on", true, true},
      {"no Prop 3.4 (view pruning)", false, true},
      {"no Prop 3.5 (same-pattern)", true, false},
      {"no pruning", false, false},
  };
  const int queries[] = {1, 2, 5, 6, 13, 17, 18};

  std::printf("=== Ablation B: rewriting pruning (Props 3.4 / 3.5) ===\n");
  std::printf("views: %zu; queries: 7 of the XMark set\n\n", views.size());
  std::printf("%-30s %10s %12s %12s %10s\n", "configuration", "total(ms)",
              "candidates", "equiv.tests", "results");

  for (const Config& cfg : configs) {
    double total_ms = 0;
    size_t candidates = 0;
    size_t tests = 0;
    size_t results = 0;
    for (int qn : queries) {
      // Fixed search budget: the fair comparison is how much the search
      // achieves within it, not time-to-early-stop.
      RewriterOptions ropts;
      ropts.max_results = 50;
      ropts.max_plan_views = 2;
      ropts.prune_views = cfg.prune_views;
      ropts.prune_same_pattern = cfg.prune_same_pattern;
      ropts.time_budget_ms = 5000;
      Rewriter rewriter(*summary, ropts);
      for (const ViewDef& v : views) rewriter.AddView(v);
      RewriteStats stats;
      (void)rewriter.Rewrite(GetXmarkQueryPattern(qn), &stats);
      total_ms += stats.total_ms;
      candidates += stats.candidates_built + stats.join_candidates;
      tests += stats.equivalence_tests;
      results += stats.results;
    }
    std::printf("%-30s %10.1f %12zu %12zu %10zu\n", cfg.name, total_ms,
                candidates, tests, results);
  }
  std::printf(
      "\nShapes to check: within a fixed search budget, pruning finds at "
      "least as many\nrewritings while wasting fewer candidates/tests "
      "(Props 3.4/3.5 discard only\nredundant work).\n");
}

}  // namespace
}  // namespace svx

int main() {
  svx::Run();
  return 0;
}
