// The paper's §1 scenario end-to-end on a generated XMark document: two
// materialized views that share no stored node are combined by an ID
// equality join on their structural identifiers; content navigation digs
// keyword data out of a stored C attribute.
//
//   $ ./build/examples/xmark_views
#include <cstdio>

#include "src/algebra/executor.h"
#include "src/algebra/plan_printer.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/workload/xmark.h"

int main() {
  using namespace svx;

  XmarkOptions opts;
  opts.scale = 1.0;
  std::unique_ptr<Document> doc = GenerateXmark(opts);
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());
  std::printf("XMark-like document: %d nodes, summary: %d paths\n\n",
              doc->size(), summary->size());

  // V1: items with the content of their descriptions (the intro's V1 keeps
  // listitem content; description content subsumes it here).
  // V2: items with their names — V1 and V2 share no stored node, but the
  // stored IDs are structural, so they can be combined (§1 "Exploiting ID
  // properties").
  std::vector<ViewDef> defs = {
      {"V1", MustParsePattern("site(//item{id}(/description{c}))")},
      {"V2", MustParsePattern("site(//item{id}(/name{v}))")},
  };
  std::vector<MaterializedView> views = MaterializeAll(defs, *doc);
  Catalog catalog;
  // V1's content cells are ORDPATHs; navigating them reads this document.
  catalog.set_document(doc.get());
  for (const MaterializedView& v : views) {
    std::printf("%s: %lld rows\n", v.def.name.c_str(),
                static_cast<long long>(v.extent.NumRows()));
    catalog.Register(v.def.name, &v.extent);
  }

  Rewriter rewriter(*summary);
  for (const ViewDef& d : defs) rewriter.AddView(d);

  // Query 1: name + description of every item — needs the ID join.
  {
    Pattern q =
        MustParsePattern("site(//item(/name{v} /description{c}))");
    Result<std::vector<Rewriting>> rws = rewriter.Rewrite(q);
    if (!rws.ok() || rws->empty()) {
      std::printf("\nquery 1: no rewriting found\n");
      return 1;
    }
    std::printf("\nquery 1 plan: %s\n", (*rws)[0].compact.c_str());
    Result<Table> t = Execute(*(*rws)[0].plan, catalog);
    if (!t.ok()) {
      std::printf("query 1 execution error: %s\n",
                  t.status().ToString().c_str());
      return 1;
    }
    std::printf("rows: %lld (sample below)\n",
                static_cast<long long>(t->NumRows()));
    for (int64_t i = 0; i < t->NumRows() && i < 3; ++i) {
      std::printf("  %s | %s\n", t->row(i)[0].ToString().c_str(),
                  t->row(i)[1].ToString(false).c_str());
    }
  }

  // Query 2: description keywords of items — no view stores keyword nodes,
  // but V1's content attribute can be navigated (§1: "we can extract the
  // keyword elements by navigating inside the content").
  {
    Pattern q =
        MustParsePattern("site(//item{id}(/description(//keyword{v})))");
    Result<std::vector<Rewriting>> rws = rewriter.Rewrite(q);
    if (!rws.ok() || rws->empty()) {
      std::printf("\nquery 2: no rewriting found\n");
      return 1;
    }
    std::printf("\nquery 2 plan: %s\n", (*rws)[0].compact.c_str());
    Result<Table> t = Execute(*(*rws)[0].plan, catalog);
    if (!t.ok()) {
      std::printf("query 2 execution error: %s\n",
                  t.status().ToString().c_str());
      return 1;
    }
    std::printf("rows: %lld (sample below)\n",
                static_cast<long long>(t->NumRows()));
    for (int64_t i = 0; i < t->NumRows() && i < 3; ++i) {
      std::printf("  %s | %s\n", t->row(i)[0].ToString().c_str(),
                  t->row(i)[1].ToString().c_str());
    }
  }
  return 0;
}
