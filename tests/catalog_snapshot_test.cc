#include "src/viewstore/catalog_snapshot.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "src/algebra/executor.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/util/strings.h"
#include "src/viewstore/extent_io.h"
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

/// The first node labeled `label`, in document order.
OrdPath FirstNode(const Document& d, const std::string& label) {
  for (NodeIndex n = 0; n < d.size(); ++n) {
    if (d.label(n) == label) return d.ord_path(n);
  }
  ADD_FAILURE() << "no " << label << " node";
  return OrdPath::Root();
}

/// Publishes `up`'s document with a freshly built summary, as a server
/// does after every update, and returns that document (null on failure).
std::shared_ptr<Document> Publish(ViewCatalog* catalog,
                                  Result<UpdateResult> up) {
  if (!up.ok()) {
    ADD_FAILURE() << up.status().ToString();
    return nullptr;
  }
  std::shared_ptr<Document> next(std::move(up->doc));
  std::shared_ptr<const Summary> summary(SummaryBuilder::Build(next.get()));
  Status s = catalog->ApplyUpdateBatch({up->delta}, next, summary);
  if (!s.ok()) {
    ADD_FAILURE() << s.ToString();
    return nullptr;
  }
  return next;
}

/// Serves `q` from the current epoch, reporting whether the rewrite cache
/// answered it.
Result<Table> Serve(const ViewCatalog& catalog, const Pattern& q,
                    bool* hit = nullptr) {
  RewriteStats stats;
  Result<Table> out = catalog.Snapshot()->Query(q, nullptr, &stats);
  if (hit != nullptr) *hit = stats.rewrite_cache_hits == 1;
  return out;
}

/// Every item under asia has a description, so the edge item->description
/// is strong and the view, which keeps every element under regions that
/// has a description child, holds exactly the items.
constexpr char kDescribedItems[] =
    "site(regions(asia(item(description(text=x) name=a) "
    "item(description(text=y) name=b))))";
constexpr char kDescribedView[] = "site(//regions(//*{id}(/description)))";

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
  // A content view's references resolve in the epoch's document, so epoch
  // lifetime must pin document lifetime.
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
    EXPECT_NE(old_epoch->document()->FindByOrdPath(content.AsContent().id),
              kInvalidNode);
  }
  // The new epoch serves the new document...
  EXPECT_EQ(catalog.Snapshot()->document(), d2.get());
  // ...and retiring the last reader retires the old document with it.
  old_epoch.reset();
  EXPECT_TRUE(old_doc_alive.expired());
}

TEST(CatalogSnapshot, QueryResultsOutliveTheirSnapshot) {
  std::shared_ptr<Document> d = Doc("site(item(k=1) item(k=2 x) item(k=3))");
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(d.get()));
  ViewCatalog catalog;
  const Pattern q = MustParsePattern("site(//item{id,c})");
  ASSERT_TRUE(catalog.Materialize({"V", q}, *d).ok());
  catalog.BindDocument(d, summary);
  // The rows of a temporary snapshot's answer, content cells included.
  Result<Table> kept = catalog.Snapshot()->Query(q);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  ASSERT_EQ(kept->NumRows(), 3);
  Table sorted = *kept;
  sorted.SortRowsCanonical();
  const std::string before = SerializeExtent(sorted);

  // Publish the next document and drop every other reference to the old
  // one: no epoch, reader or writer holds it any more.
  std::weak_ptr<Document> old_doc = d;
  ASSERT_NE(Publish(&catalog, InsertSubtree(*d, OrdPath::Root(),
                                            *Doc("item(k=4)"))),
            nullptr);
  d.reset();
  summary.reset();
  ASSERT_TRUE(old_doc.expired());

  // The kept rows are values, not views into the retired document.
  kept->SortRowsCanonical();
  EXPECT_EQ(SerializeExtent(*kept), before);
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

TEST(CatalogSnapshot, FlagFlipMissesAndTheReturningStructureHits) {
  std::shared_ptr<Document> d0 = Doc(kDescribedItems);
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern(kDescribedView)}, *d0).ok());
  catalog.BindDocument(d0, SummaryBuilder::Build(d0.get()));
  const Pattern q = MustParsePattern("site(//item{id})");
  bool hit = true;
  Result<Table> first = Serve(catalog, q, &hit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->NumRows(), 2);
  EXPECT_FALSE(hit);

  // An item without a description: item->description stops being strong,
  // the view no longer holds every item, and no rewriting exists.
  Result<UpdateResult> ins =
      InsertSubtree(*d0, FirstNode(*d0, "asia"), *Doc("item(name=c)"));
  ASSERT_TRUE(ins.ok());
  const OrdPath inserted = ins->delta.region;
  std::shared_ptr<Document> d1 = Publish(&catalog, std::move(ins));
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(MaterializeView(q, "q", *d1).NumRows(), 3);
  Result<Table> flipped = Serve(catalog, q);
  ASSERT_FALSE(flipped.ok()) << "served " << flipped->NumRows()
                             << " rows planned under the old flags";
  EXPECT_EQ(flipped.status().code(), StatusCode::kNotFound);

  // Deleting it restores the first structure, whose cached plan serves.
  std::shared_ptr<Document> d2 =
      Publish(&catalog, DeleteSubtree(*d1, inserted));
  ASSERT_NE(d2, nullptr);
  Result<Table> back = Serve(catalog, q, &hit);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(hit);
  EXPECT_TRUE(back->EqualsIgnoringOrder(MaterializeView(q, "q", *d2)));
}

TEST(CatalogSnapshot, RenumberedSummaryServesTheCachedPlan) {
  std::shared_ptr<Document> d0 = Doc("r(a(b=1 c=2) a(b=3 c=4))");
  std::shared_ptr<const Summary> s0(SummaryBuilder::Build(d0.get()));
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("r(//b{id,v})")}, *d0).ok());
  catalog.BindDocument(d0, s0);
  const Pattern q = MustParsePattern("r(/a(/b{v}))");
  bool hit = true;
  ASSERT_TRUE(Serve(catalog, q, &hit).ok());
  EXPECT_FALSE(hit);

  // A first `a` listing c before b numbers /r/a/c before /r/a/b.
  const OrdPath first_a = FirstNode(*d0, "a");
  std::shared_ptr<Document> d1 =
      Publish(&catalog, InsertSubtree(*d0, OrdPath::Root(),
                                      *Doc("a(c=5 b=6)"), &first_a));
  ASSERT_NE(d1, nullptr);
  const Summary& s1 = *catalog.Snapshot()->summary();
  EXPECT_NE(s1.Resolve("/r/a/b"), s0->Resolve("/r/a/b"));
  EXPECT_FALSE(s1.StructurallyEquals(*s0));
  EXPECT_EQ(s1.StructureKey(), s0->StructureKey());

  Result<Table> rows = Serve(catalog, q, &hit);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(hit);
  EXPECT_TRUE(rows->EqualsIgnoringOrder(MaterializeView(q, "q", *d1)));
}

TEST(CatalogSnapshot, HitIsRankedWithTheServingEpochsStatistics) {
  std::shared_ptr<Document> d0 = Doc("a(b=1 b=2 c=3)");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d0).ok());
  catalog.BindDocument(d0, SummaryBuilder::Build(d0.get()));
  const Pattern q = MustParsePattern("a(/b{v})");
  Result<Rewriting> cold = catalog.Snapshot()->Rewrite(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Two more b rows: same summary, different statistics.
  std::shared_ptr<Document> d1 =
      Publish(&catalog, InsertSubtree(*d0, OrdPath::Root(), *Doc("b=4")));
  ASSERT_NE(d1, nullptr);
  std::shared_ptr<Document> d2 =
      Publish(&catalog, InsertSubtree(*d1, OrdPath::Root(), *Doc("b=5")));
  ASSERT_NE(d2, nullptr);
  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
  RewriteStats stats;
  Result<Rewriting> warm = snap->Rewrite(q, nullptr, &stats);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(stats.rewrite_cache_hits, 1u);
  EXPECT_NE(warm->est_cost, cold->est_cost);
  EXPECT_DOUBLE_EQ(warm->est_cost,
                   snap->cost_model().EstimateCost(*warm->plan));
  EXPECT_DOUBLE_EQ(stats.cheapest_cost, warm->est_cost);
}

TEST(CatalogSnapshot, CacheCountersNeverDecreaseAcrossStructures) {
  std::shared_ptr<Document> d0 = Doc(kDescribedItems);
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern(kDescribedView)}, *d0).ok());
  catalog.BindDocument(d0, SummaryBuilder::Build(d0.get()));
  const Pattern q = MustParsePattern("site(//item{id})");
  struct Counts {
    size_t hits, misses, invalidations;
  };
  std::vector<Counts> seen;
  auto serve_twice = [&]() {
    (void)Serve(catalog, q);
    (void)Serve(catalog, q);
    const RewriteCache* c = catalog.rewrite_cache();
    seen.push_back({c->hits(), c->misses(), c->invalidations()});
  };
  serve_twice();  // structure A
  Result<UpdateResult> ins =
      InsertSubtree(*d0, FirstNode(*d0, "asia"), *Doc("item(name=c)"));
  ASSERT_TRUE(ins.ok());
  const OrdPath inserted = ins->delta.region;
  std::shared_ptr<Document> d1 = Publish(&catalog, std::move(ins));
  ASSERT_NE(d1, nullptr);
  serve_twice();  // structure B
  std::shared_ptr<Document> d2 =
      Publish(&catalog, DeleteSubtree(*d1, inserted));
  ASSERT_NE(d2, nullptr);
  serve_twice();  // A again: its cache, with the counters it shares

  ASSERT_EQ(seen.size(), 3u);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].hits, seen[i - 1].hits) << i;
    EXPECT_GE(seen[i].misses, seen[i - 1].misses) << i;
    EXPECT_GE(seen[i].invalidations, seen[i - 1].invalidations) << i;
  }
  EXPECT_EQ(seen.back().hits, 4u);    // A's second serve, B's, A's two
  EXPECT_EQ(seen.back().misses, 2u);  // A's and B's first serve
  // Moving between structures discards no cached plan.
  EXPECT_EQ(seen.back().invalidations, 0u);
}

TEST(CatalogSnapshot, FullStructureTableIsDroppedWhole) {
  // Each round inserts a child with a label of its own and deletes it
  // again: a new structure, then back to the first one, whose cache hits.
  std::shared_ptr<Document> d = Doc("a(b=1)");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  catalog.BindDocument(d, SummaryBuilder::Build(d.get()));
  const Pattern q = MustParsePattern("a(/b{v})");
  ASSERT_TRUE(Serve(catalog, q).ok());
  bool hit = false;
  for (size_t i = 0; i < ViewCatalog::kMaxRewriteCaches; ++i) {
    Result<UpdateResult> ins = InsertSubtree(
        *d, OrdPath::Root(), *Doc(StrFormat("c%zu=1", i)));
    ASSERT_TRUE(ins.ok());
    const OrdPath region = ins->delta.region;
    std::shared_ptr<Document> with = Publish(&catalog, std::move(ins));
    ASSERT_NE(with, nullptr);
    ASSERT_TRUE(Serve(catalog, q).ok());  // fills the new structure's cache
    d = Publish(&catalog, DeleteSubtree(*with, region));
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(Serve(catalog, q, &hit).ok());
    if (i + 1 < ViewCatalog::kMaxRewriteCaches) {
      ASSERT_TRUE(hit) << i;
    }
  }
  // The last new structure met a full table (the first structure and 255
  // others) and dropped it whole, first structure included.
  EXPECT_FALSE(hit);
  EXPECT_EQ(catalog.rewrite_cache()->invalidations(), 1u);
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

TEST(CatalogSnapshot, EntryPointAndExplicitRewriterShareCacheEntries) {
  std::shared_ptr<Document> d = Doc("a(b=1 b=2 c(e=3))");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"VB", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"VE", MustParsePattern("a(//e{id,v})")}, *d).ok());
  catalog.BindDocument(d, SummaryBuilder::Build(d.get()));
  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();

  // A rewriter built the way a server that plans by hand builds one: one
  // result, the epoch's cost model, memo and shared index, views in
  // views() order.
  RewriterOptions opts;
  opts.max_results = 1;
  opts.cost_model = &snap->cost_model();
  opts.memo = snap->containment_memo();
  std::shared_ptr<const ViewIndex> index =
      snap->ViewIndexFor(*snap->summary(), opts.expansion);
  opts.shared_view_index = index.get();
  Rewriter rewriter(*snap->summary(), opts);
  for (const auto& v : snap->views()) rewriter.AddView(v->def);

  // Cached by the entry point, served to the explicit rewriter...
  const Pattern qb = MustParsePattern("a(/b{v})");
  Result<Rewriting> by_entry = snap->Rewrite(qb);
  ASSERT_TRUE(by_entry.ok()) << by_entry.status().ToString();
  RewriteStats stats;
  Result<std::vector<Rewriting>> served =
      CachedRewrite(snap->rewrite_cache(), &rewriter, qb, &stats);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(stats.rewrite_cache_hits, 1u);
  ASSERT_EQ(served->size(), 1u);
  EXPECT_EQ(served->front().plan.get(), by_entry->plan.get());

  // ...and the reverse.
  const Pattern qe = MustParsePattern("a(//e{v})");
  Result<std::vector<Rewriting>> by_rewriter =
      CachedRewrite(snap->rewrite_cache(), &rewriter, qe);
  ASSERT_TRUE(by_rewriter.ok()) << by_rewriter.status().ToString();
  ASSERT_EQ(by_rewriter->size(), 1u);
  stats = RewriteStats();
  Result<Rewriting> hit = snap->Rewrite(qe, nullptr, &stats);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(stats.rewrite_cache_hits, 1u);
  EXPECT_EQ(hit->plan.get(), by_rewriter->front().plan.get());
}

TEST(CatalogSnapshot, ConcurrentFirstReadersShareOneCatalog) {
  std::shared_ptr<Document> d0 = Doc("a(b=1 b=2 c=3)");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d0).ok());
  catalog.BindDocument(d0, SummaryBuilder::Build(d0.get()));
  std::shared_ptr<Document> d1 =
      Publish(&catalog, InsertSubtree(*d0, OrdPath::Root(), *Doc("b=4")));
  ASSERT_NE(d1, nullptr);

  // Every reader takes the freshly published epoch, then all of them ask
  // it for its catalog and a query at once, racing to compute the epoch's
  // cache-key salt: half query first, half take the catalog first.
  std::shared_ptr<const CatalogSnapshot> published = catalog.Snapshot();
  const Pattern q = MustParsePattern("a(/b{v})");
  const Table want = MaterializeView(q, "q", *d1);
  constexpr int kReaders = 4;
  std::latch start(kReaders);
  std::vector<const Catalog*> seen(kReaders, nullptr);
  std::vector<std::string> errors(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
      start.arrive_and_wait();
      Result<Table> got = Status::Internal("not queried");
      if (r % 2 == 0) got = snap->Query(q);
      seen[r] = &snap->ExecutorCatalog();
      if (r % 2 == 1) got = snap->Query(q);
      if (!got.ok()) {
        errors[r] = got.status().ToString();
      } else if (!got->EqualsIgnoringOrder(want)) {
        errors[r] = "answer differs from direct evaluation";
      }
    });
  }
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(errors[r], "") << r;
    EXPECT_EQ(seen[r], &published->ExecutorCatalog()) << r;
  }
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
