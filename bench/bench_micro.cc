// Micro-benchmarks (google-benchmark) for the operations the experiments
// compose: summary construction, subtree insert and delete, canonical model
// building, containment, satisfiability, view materialization and plan
// execution.
#include <benchmark/benchmark.h>

#include "src/algebra/executor.h"
#include "src/containment/containment.h"
#include "src/pattern/canonical.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

struct World {
  std::unique_ptr<Document> doc;
  std::unique_ptr<Summary> summary;
  World() {
    XmarkOptions opts;
    opts.scale = 2.0;
    doc = GenerateXmark(opts);
    summary = SummaryBuilder::Build(doc.get());
  }
};

World& TheWorld() {
  static World* world = new World();
  return *world;
}

/// XMark at scale range(0) / 10.
std::unique_ptr<Document> XmarkAtArg(const benchmark::State& state) {
  XmarkOptions opts;
  opts.scale = static_cast<double>(state.range(0)) / 10;
  return GenerateXmark(opts);
}

/// The document's middle item: where the update benchmarks insert and
/// delete.
NodeIndex MiddleItem(const Document& doc) {
  std::vector<NodeIndex> items;
  for (NodeIndex n = 0; n < doc.size(); ++n) {
    if (doc.label(n) == "item") items.push_back(n);
  }
  return items[items.size() / 2];
}

void BM_SummaryBuild(benchmark::State& state) {
  std::unique_ptr<Document> doc = XmarkAtArg(state);
  for (auto _ : state) {
    // Building rewrites every path id of the document's annotation, so the
    // same document serves every iteration.
    std::unique_ptr<Summary> s = SummaryBuilder::Build(doc.get());
    benchmark::DoNotOptimize(s->size());
  }
  state.SetItemsProcessed(state.iterations() * doc->size());
}
BENCHMARK(BM_SummaryBuild)->Arg(10)->Arg(20)->Arg(80);

/// Appends one item (the shape servebench's update stream inserts) next to
/// the middle item; each iteration builds a new version of the same input.
void BM_InsertSubtree(benchmark::State& state) {
  std::unique_ptr<Document> doc = XmarkAtArg(state);
  const OrdPath parent = doc->ord_path(doc->parent(MiddleItem(*doc)));
  Result<std::unique_ptr<Document>> item = ParseTreeNotation(
      "item(location=Chad quantity=3 name='gold ring' payment=Cash "
      "shipping='Will ship internationally')");
  SVX_CHECK(item.ok());
  for (auto _ : state) {
    Result<UpdateResult> up = InsertSubtree(*doc, parent, **item);
    benchmark::DoNotOptimize(up->doc->size());
  }
  state.SetItemsProcessed(state.iterations() * doc->size());
}
BENCHMARK(BM_InsertSubtree)->Arg(10)->Arg(80);

/// Deletes the middle item.
void BM_DeleteSubtree(benchmark::State& state) {
  std::unique_ptr<Document> doc = XmarkAtArg(state);
  const OrdPath target = doc->ord_path(MiddleItem(*doc));
  for (auto _ : state) {
    Result<UpdateResult> up = DeleteSubtree(*doc, target);
    benchmark::DoNotOptimize(up->doc->size());
  }
  state.SetItemsProcessed(state.iterations() * doc->size());
}
BENCHMARK(BM_DeleteSubtree)->Arg(10)->Arg(80);

void BM_CanonicalModel(benchmark::State& state) {
  World& w = TheWorld();
  Pattern p = GetXmarkQueryPattern(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Result<std::vector<CanonicalTree>> m =
        BuildCanonicalModel(p, *w.summary);
    benchmark::DoNotOptimize(m.ok());
  }
}
BENCHMARK(BM_CanonicalModel)->Arg(1)->Arg(6)->Arg(7)->Arg(14);

void BM_SelfContainment(benchmark::State& state) {
  World& w = TheWorld();
  Pattern p = GetXmarkQueryPattern(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Result<bool> c = IsContained(p, p, *w.summary);
    benchmark::DoNotOptimize(c.ok());
  }
}
BENCHMARK(BM_SelfContainment)->Arg(1)->Arg(6)->Arg(7);

void BM_NegativeContainment(benchmark::State& state) {
  World& w = TheWorld();
  Pattern p = MustParsePattern("site(//item{id})");
  Pattern q = MustParsePattern("site(//open_auction{id})");
  for (auto _ : state) {
    Result<bool> c = IsContained(p, q, *w.summary);
    benchmark::DoNotOptimize(c.ok());
  }
}
BENCHMARK(BM_NegativeContainment);

void BM_Satisfiability(benchmark::State& state) {
  World& w = TheWorld();
  Pattern p = MustParsePattern("site(//item{id}(/name{v} //keyword))");
  for (auto _ : state) {
    Result<bool> s = IsSatisfiable(p, *w.summary);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_Satisfiability);

void BM_ViewMaterialization(benchmark::State& state) {
  World& w = TheWorld();
  Pattern p = MustParsePattern("site(//item{id}(/name{v}))");
  for (auto _ : state) {
    Table t = MaterializeView(p, "V", *w.doc);
    benchmark::DoNotOptimize(t.NumRows());
  }
}
BENCHMARK(BM_ViewMaterialization);

void BM_StructuralJoinExecution(benchmark::State& state) {
  World& w = TheWorld();
  Table items =
      MaterializeView(MustParsePattern("site(//item{id})"), "I", *w.doc);
  Table names =
      MaterializeView(MustParsePattern("site(//name{id,v})"), "N", *w.doc);
  Catalog catalog;
  catalog.Register("I", &items);
  catalog.Register("N", &names);
  PlanPtr plan = MakeStructJoin(MakeViewScan("I", items.schema()),
                                MakeViewScan("N", names.schema()), 0, 0,
                                StructAxis::kAncestor);
  for (auto _ : state) {
    Result<Table> t = Execute(*plan, catalog);
    benchmark::DoNotOptimize(t.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          (items.NumRows() + names.NumRows()));
}
BENCHMARK(BM_StructuralJoinExecution);

void BM_IdJoinExecution(benchmark::State& state) {
  World& w = TheWorld();
  Table a = MaterializeView(MustParsePattern("site(//item{id}(/name{v}))"),
                            "A", *w.doc);
  Table b = MaterializeView(
      MustParsePattern("site(//item{id}(/quantity{v}))"), "B", *w.doc);
  Catalog catalog;
  catalog.Register("A", &a);
  catalog.Register("B", &b);
  PlanPtr plan = MakeIdEqJoin(MakeViewScan("A", a.schema()),
                              MakeViewScan("B", b.schema()), 0, 0);
  for (auto _ : state) {
    Result<Table> t = Execute(*plan, catalog);
    benchmark::DoNotOptimize(t.ok());
  }
}
BENCHMARK(BM_IdJoinExecution);

}  // namespace
}  // namespace svx

BENCHMARK_MAIN();
