// Nested XQuery -> tree pattern -> view-based rewriting -> execution: the
// full pipeline of the paper on its §1 example query, with the view extent
// served from a persistent ViewCatalog (materialize -> save -> reload) and
// the plan picked by the statistics-driven cost model.
//
//   $ ./build/examples/xquery_rewriting
#include <cstdio>
#include <filesystem>

#include "src/algebra/executor.h"
#include "src/algebra/plan_printer.h"
#include "src/pattern/pattern_parser.h"
#include "src/pattern/pattern_printer.h"
#include "src/rewriting/rewriter.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/xquery/xquery_translator.h"

int main() {
  using namespace svx;

  // The §1 example query: items having mail, their names, and per item the
  // keywords of its listitems, grouped (nested FLWR).
  const char* query =
      "for $x in doc(\"XMark.xml\")//item[.//mail] return "
      "<res>{ $x/name/text(), "
      "for $y in $x//listitem return <key>{ $y//keyword }</key> }</res>";
  std::printf("XQuery:\n  %s\n\n", query);

  Result<Pattern> q = XQueryToPattern(query, "site");
  if (!q.ok()) {
    std::printf("translation error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  std::printf("tree pattern: %s\n\n", PatternToString(*q).c_str());

  XmarkOptions opts;
  opts.scale = 1.0;
  std::unique_ptr<Document> doc = GenerateXmark(opts);
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());

  // Two views that can both answer the query: V1 stores exactly the query's
  // needs (the intro's V1 shape); VWide additionally stores every item
  // subtree element, making it a strictly costlier cover.
  std::vector<ViewDef> defs = {
      {"V1",
       MustParsePattern("site(//item{id}(//mail ?/name{v} "
                        "?//listitem{id}(?//keyword{c})))")},
      {"VWide",
       MustParsePattern("site(//item{id}(//mail ?/name{v} "
                        "?//listitem{id}(?//keyword{c}) ?//*{id,l}))")},
  };

  // Materialize into a store directory, then reload — the extents below are
  // served from disk, not from the materialization pass.
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "svx_example_store").string();
  {
    ViewCatalog catalog(store_dir);
    for (const ViewDef& d : defs) {
      Status s = catalog.Materialize(d, *doc);
      if (!s.ok()) {
        std::printf("materialize error: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    Status s = catalog.Save();
    if (!s.ok()) {
      std::printf("save error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  ViewCatalog store(store_dir);
  Status loaded = store.Load(doc.get());
  if (!loaded.ok()) {
    std::printf("load error: %s\n", loaded.ToString().c_str());
    return 1;
  }
  std::printf("view store %s: %lld bytes\n", store_dir.c_str(),
              static_cast<long long>(store.TotalBytes()));
  for (const auto& v : store.views()) {
    std::printf("  %s extent: %lld rows (%lld bytes)\n", v->def.name.c_str(),
                static_cast<long long>(v->stats.num_rows),
                static_cast<long long>(v->extent_bytes));
  }

  CostModel model = store.BuildCostModel();
  RewriterOptions ropts;
  ropts.cost_model = &model;
  ropts.max_results = 4;
  Rewriter rewriter(*summary, ropts);
  for (const auto& v : store.views()) rewriter.AddView(v->def);
  Result<std::vector<Rewriting>> rws = rewriter.Rewrite(*q);
  if (!rws.ok() || rws->empty()) {
    std::printf("no rewriting found\n");
    return 1;
  }
  std::printf("\n%zu rewritings, cost-ranked:\n", rws->size());
  for (const Rewriting& r : *rws) {
    std::printf("  cost %8.0f  %s\n", r.est_cost, r.compact.c_str());
  }
  std::printf("\ncheapest plan:\n%s\n",
              PlanToString(*(*rws)[0].plan).c_str());

  Catalog catalog = store.ExecutorCatalog();
  Result<Table> result = Execute(*(*rws)[0].plan, catalog);
  if (!result.ok()) {
    std::printf("execution error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // Compare against direct evaluation of the pattern on the document.
  Table reference = MaterializeView(*q, "Q", *doc);
  const bool equal = result->EqualsIgnoringOrder(reference);
  std::printf("plan rows: %lld; direct evaluation rows: %lld; equal: %s\n",
              static_cast<long long>(result->NumRows()),
              static_cast<long long>(reference.NumRows()),
              equal ? "yes" : "NO");
  for (int64_t i = 0; i < result->NumRows() && i < 3; ++i) {
    const Tuple& row = result->row(i);
    std::printf("  item %s name=%s groups=%s\n", row[0].ToString().c_str(),
                row[1].ToString().c_str(), row[2].ToString(false).c_str());
  }
  return equal ? 0 : 1;
}
