#include "src/viewstore/catalog_snapshot.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/algebra/executor.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/viewstore/view_catalog.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

std::shared_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::shared_ptr<Document>(std::move(r).value());
}

TEST(CatalogSnapshot, EpochsAreImmutableAndMonotonic) {
  std::shared_ptr<Document> d = Doc("a(b=1 b=2)");
  ViewCatalog catalog;
  std::shared_ptr<const CatalogSnapshot> empty = catalog.Snapshot();
  EXPECT_EQ(empty->size(), 0);

  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  std::shared_ptr<const CatalogSnapshot> one = catalog.Snapshot();
  EXPECT_GT(one->epoch(), empty->epoch());
  ASSERT_NE(one->Find("V"), nullptr);
  EXPECT_EQ(one->Find("V")->stats.num_rows, 2);

  // A document update publishes a successor; the held epoch is unchanged.
  Result<UpdateResult> up = InsertSubtree(*d, OrdPath::Root(), *Doc("b=3"));
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(up->delta).ok());
  std::shared_ptr<const CatalogSnapshot> two = catalog.Snapshot();
  EXPECT_GT(two->epoch(), one->epoch());
  EXPECT_EQ(one->Find("V")->stats.num_rows, 2) << "published epoch mutated";
  EXPECT_EQ(two->Find("V")->stats.num_rows, 3);
  // The old epoch still executes against its own extents.
  Result<Table> rows =
      Execute(*MakeViewScan("V", one->Find("V")->table().value()->schema()),
              one->ExecutorCatalog());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->NumRows(), 2);
}

TEST(CatalogSnapshot, UntouchedContentFreeViewsAreSharedAcrossEpochs) {
  std::shared_ptr<Document> d = Doc("a(b=1 c=2)");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"VB", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"VC", MustParsePattern("a(/c{id,v})")}, *d).ok());
  std::shared_ptr<const CatalogSnapshot> before = catalog.Snapshot();

  Result<UpdateResult> up = InsertSubtree(*d, OrdPath::Root(), *Doc("b=7"));
  ASSERT_TRUE(up.ok());
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(up->delta, &ms).ok());
  EXPECT_EQ(ms.views_touched, 1);
  EXPECT_EQ(ms.views_shared, 1);
  std::shared_ptr<const CatalogSnapshot> after = catalog.Snapshot();
  // Copy-on-maintenance: the untouched view is the same object in both
  // epochs, the touched one was replaced.
  EXPECT_EQ(before->Find("VC"), after->Find("VC"));
  EXPECT_NE(before->Find("VB"), after->Find("VB"));
}

TEST(CatalogSnapshot, OldEpochKeepsRetiredDocumentAlive) {
  std::shared_ptr<Document> d = Doc("a(b(x=1) b(x=2))");
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(d.get()));
  ViewCatalog catalog;
  // A content view stores references INTO the document, so epoch lifetime
  // must pin document lifetime.
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,c})")}, *d).ok());
  catalog.BindDocument(d, summary);
  std::shared_ptr<const CatalogSnapshot> old_epoch = catalog.Snapshot();
  EXPECT_EQ(old_epoch->document(), d.get());

  Result<UpdateResult> up = InsertSubtree(*d, OrdPath::Root(), *Doc("b(x=3)"));
  ASSERT_TRUE(up.ok());
  std::shared_ptr<Document> d2(std::move(up->doc));
  std::shared_ptr<Summary> summary2(SummaryBuilder::Build(d2.get()));
  ASSERT_TRUE(catalog.ApplyUpdateBatch({up->delta}, d2, summary2).ok());

  // The writer drops every reference to the old document; the held epoch
  // keeps it alive and its content references stay valid.
  std::weak_ptr<Document> old_doc_alive = d;
  d.reset();
  summary.reset();
  ASSERT_FALSE(old_doc_alive.expired());
  const StoredView* v = old_epoch->Find("V");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->stats.num_rows, 2);
  TablePtr extent = v->table().value();
  for (const Tuple& row : extent->rows()) {
    const Value& content = row[1];
    ASSERT_TRUE(content.IsContent());
    EXPECT_EQ(content.AsContent().doc, old_epoch->document());
  }
  // The new epoch serves the new document...
  EXPECT_EQ(catalog.Snapshot()->document(), d2.get());
  // ...and retiring the last reader retires the old document with it.
  old_epoch.reset();
  EXPECT_TRUE(old_doc_alive.expired());
}

TEST(CatalogSnapshot, RewriteCacheIsFreshPerEpochWithContinuousCounters) {
  std::shared_ptr<Document> d = Doc("a(b=1 b=2 c=3)");
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(d.get()));
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  catalog.BindDocument(d, summary);

  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
  Pattern q = MustParsePattern("a(/b{v})");
  Result<Table> cold = snap->Query(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->EqualsIgnoringOrder(MaterializeView(q, "q", *d)));
  EXPECT_EQ(snap->rewrite_cache()->size(), 1u);
  EXPECT_EQ(snap->rewrite_cache()->misses(), 1u);
  RewriteStats warm;
  ASSERT_TRUE(snap->Query(q, nullptr, &warm).ok());
  EXPECT_EQ(warm.rewrite_cache_hits, 1u);

  // A view-set mutation: successor epoch starts cold (that IS the
  // invalidation) but the cumulative counters carry.
  ASSERT_TRUE(
      catalog.Materialize({"W", MustParsePattern("a(/c{id,v})")}, *d).ok());
  std::shared_ptr<const CatalogSnapshot> next = catalog.Snapshot();
  EXPECT_NE(next->rewrite_cache(), snap->rewrite_cache());
  EXPECT_EQ(next->rewrite_cache()->size(), 0u);
  EXPECT_EQ(next->rewrite_cache()->misses(), 1u);
  EXPECT_EQ(next->rewrite_cache()->invalidations(), 1u);
  // The old epoch still serves its plans.
  EXPECT_EQ(snap->rewrite_cache()->size(), 1u);
  // The containment memo is summary-bound, not view-set-bound: shared.
  EXPECT_EQ(next->containment_memo(), snap->containment_memo());

  // A document change replaces the memo.
  Result<UpdateResult> up = InsertSubtree(*d, OrdPath::Root(), *Doc("b=9"));
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(up->delta).ok());
  EXPECT_NE(catalog.Snapshot()->containment_memo(), snap->containment_memo());
}

TEST(CatalogSnapshot, QueryErrorContracts) {
  std::shared_ptr<Document> d = Doc("a(b=1 b=2 c=3)");
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(d.get()));
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  Pattern served = MustParsePattern("a(/b{v})");
  Pattern unserved = MustParsePattern("a(/c{v})");

  // No bound summary: nothing to plan against.
  Result<Table> unbound = catalog.Snapshot()->Query(served);
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), StatusCode::kInvalidArgument);

  // Bound, but no view stores c: no rewriting exists.
  catalog.BindDocument(d, summary);
  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
  Result<Table> none = snap->Query(unserved);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
  Result<Rewriting> no_plan = snap->Rewrite(unserved);
  ASSERT_FALSE(no_plan.ok());
  EXPECT_EQ(no_plan.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(snap->Query(served).ok());
}

TEST(CatalogSnapshot, SharedViewIndexMatchesPerRewriterIndex) {
  std::shared_ptr<Document> d = Doc("a(b=1 b=2 c(e=3))");
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(d.get()));
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"VB", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"VE", MustParsePattern("a(//e{id,v})")}, *d).ok());
  catalog.BindDocument(d, summary);
  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();

  RewriterOptions opts;
  std::shared_ptr<const ViewIndex> index =
      snap->ViewIndexFor(*snap->summary(), opts.expansion);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 2);
  // The pinned summary's index is built once per snapshot; every later
  // request returns the same object.
  EXPECT_EQ(snap->ViewIndexFor(*snap->summary(), opts.expansion).get(),
            index.get());
  // A caller-owned summary (lifetime not pinned by the snapshot) gets a
  // fresh, uncached index — correct results, no ABA hazard.
  std::unique_ptr<Summary> external = SummaryBuilder::Build(d.get());
  EXPECT_NE(snap->ViewIndexFor(*external, opts.expansion).get(),
            index.get());

  for (const char* q : {"a(/b{v})", "a(//e{v})", "a(/c{id})"}) {
    Rewriter with_shared(*summary, [&]() {
      RewriterOptions o;
      o.shared_view_index = index.get();
      return o;
    }());
    Rewriter without(*summary);
    for (const auto& v : snap->views()) {
      with_shared.AddView(v->def);
      without.AddView(v->def);
    }
    Result<std::vector<Rewriting>> a =
        with_shared.Rewrite(MustParsePattern(q));
    Result<std::vector<Rewriting>> b = without.Rewrite(MustParsePattern(q));
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    ASSERT_EQ(a->size(), b->size()) << q;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].compact, (*b)[i].compact) << q;
    }
  }
}

}  // namespace
}  // namespace svx
