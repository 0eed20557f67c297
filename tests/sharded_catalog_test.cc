#include "src/viewstore/sharded_catalog.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/algebra/executor.h"
#include "src/pattern/pattern_parser.h"
#include "src/pattern/pattern_printer.h"
#include "src/rewriting/rewriter.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/util/check.h"
#include "src/util/fileio.h"
#include "src/util/strings.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/shard_router.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

struct TempDir {
  TempDir() {
    path = (fs::temp_directory_path() /
            ("svx_sharded_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int counter;
  std::string path;
};
int TempDir::counter = 0;

constexpr const char* kBaseDoc =
    "site(item(name=i0 keyword=k0) person(name=p0) item(name=i1)"
    " person(name=p1) item(name=i2 keyword=k2) item(name=i3))";

// The sharded (anchored) views plus one global (root-anchored) view.
constexpr const char* kItemNames = "site(//item{id}(/name{id,v}))";
constexpr const char* kItemKeywords = "site(//item{id}(?//keyword{v}))";
constexpr const char* kPersonNames = "site{id}(//person(/name{v}))";

/// Sorts both tables canonically and compares row-by-row with
/// CompareTuples, so the check is independent of column naming.
void ExpectSameRows(Table a, Table b, const std::string& what) {
  a.SortRowsCanonical();
  b.SortRowsCanonical();
  ASSERT_EQ(a.rows().size(), b.rows().size()) << what;
  for (size_t i = 0; i < a.rows().size(); ++i) {
    EXPECT_EQ(CompareTuples(a.rows()[i], b.rows()[i]), 0)
        << what << " row " << i;
  }
}

/// Concatenates the per-shard extents of `name` into one canonical table.
Table MergeShardExtents(ShardedCatalog* catalog, const std::string& name) {
  const StoredView* first = catalog->shard_catalog(0)->Find(name);
  EXPECT_NE(first, nullptr);
  Table merged(first->table().value()->schema());
  for (int i = 0; i < catalog->num_shards(); ++i) {
    const StoredView* v = catalog->shard_catalog(i)->Find(name);
    EXPECT_NE(v, nullptr);
    TablePtr extent = v->table().value();
    for (const Tuple& t : extent->rows()) merged.AddRow(t);
  }
  merged.SortRowsCanonical();
  return merged;
}

/// A chained random update stream off `base`: item inserts (appended and
/// careted mid-sibling, so new ids land in every shard), keyword inserts
/// below existing top-level subtrees, and top-level deletes.
struct Stream {
  std::vector<std::shared_ptr<const Document>> docs;        // docs[0] = base
  std::vector<std::shared_ptr<const Summary>> summaries;    // aligned
  std::vector<DocumentDelta> deltas;                        // deltas[i]: i->i+1
};

Stream BuildStream(int ops, uint32_t seed) {
  Stream s;
  std::unique_ptr<Document> base = Doc(kBaseDoc);
  std::shared_ptr<Summary> base_summary(SummaryBuilder::Build(base.get()));
  s.docs.emplace_back(std::move(base));
  s.summaries.push_back(base_summary);

  std::mt19937 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const Document& cur = *s.docs.back();
    std::vector<NodeIndex> top = cur.children(cur.root());
    Result<UpdateResult> up = [&]() -> Result<UpdateResult> {
      switch (rng() % 4) {
        case 0: {  // append a new item
          std::unique_ptr<Document> sub =
              Doc("item(name=n" + std::to_string(i) + ")");
          return InsertSubtree(cur, OrdPath::Root(), *sub);
        }
        case 1: {  // caret a new item before a random sibling
          std::unique_ptr<Document> sub =
              Doc("item(name=c" + std::to_string(i) + " keyword=kc" +
                  std::to_string(i) + ")");
          OrdPath before = cur.ord_path(top[rng() % top.size()]);
          return InsertSubtree(cur, OrdPath::Root(), *sub, &before);
        }
        case 2: {  // grow an existing top-level subtree
          std::unique_ptr<Document> sub = Doc("keyword=z" + std::to_string(i));
          return InsertSubtree(cur, cur.ord_path(top[rng() % top.size()]),
                               *sub);
        }
        default: {  // delete a top-level subtree (keep a few around)
          if (top.size() <= 3) {
            std::unique_ptr<Document> sub =
                Doc("item(name=d" + std::to_string(i) + ")");
            return InsertSubtree(cur, OrdPath::Root(), *sub);
          }
          return DeleteSubtree(cur, cur.ord_path(top[rng() % top.size()]));
        }
      }
    }();
    EXPECT_TRUE(up.ok()) << up.status().ToString();
    s.deltas.push_back(up->delta);
    std::shared_ptr<Document> next(std::move(up->doc));
    s.summaries.emplace_back(SummaryBuilder::Build(next.get()));
    s.docs.push_back(std::move(next));
  }
  return s;
}

Status MaterializeAll(ShardedCatalog* catalog, const Document& doc) {
  SVX_RETURN_IF_ERROR(catalog->Materialize(
      {"item_names", MustParsePattern(kItemNames)}, doc));
  SVX_RETURN_IF_ERROR(catalog->Materialize(
      {"item_keywords", MustParsePattern(kItemKeywords)}, doc));
  return catalog->Materialize({"person_names", MustParsePattern(kPersonNames)},
                              doc);
}

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

TEST(ShardRouter, PartitionCapsAtTopLevelSubtreesAndBalances) {
  std::unique_ptr<Document> doc = Doc(kBaseDoc);  // 6 top-level subtrees
  ShardRouter r4 = ShardRouter::Partition(*doc, 4);
  EXPECT_EQ(r4.num_shards(), 4);
  ShardRouter r16 = ShardRouter::Partition(*doc, 16);
  EXPECT_LE(r16.num_shards(), 6);
  EXPECT_EQ(ShardRouter::Partition(*doc, 1).num_shards(), 1);
  // Every shard of the 4-way cut owns at least one top-level subtree.
  std::vector<int> owned(4, 0);
  for (NodeIndex child : doc->children(doc->root())) {
    ++owned[static_cast<size_t>(r4.Route(doc->ord_path(child)))];
  }
  for (int count : owned) EXPECT_GE(count, 1);
}

TEST(ShardRouter, RoutesTotallyAndByContainingSubtree) {
  std::unique_ptr<Document> doc = Doc(kBaseDoc);
  ShardRouter router = ShardRouter::Partition(*doc, 4);
  // The root precedes every boundary: shard 0.
  EXPECT_EQ(router.Route(doc->ord_path(doc->root())), 0);
  // A descendant routes with the top-level subtree containing it, and
  // shard assignment is monotone in document order.
  int prev = 0;
  for (NodeIndex child : doc->children(doc->root())) {
    int shard = router.Route(doc->ord_path(child));
    EXPECT_GE(shard, prev);
    prev = shard;
    for (NodeIndex grandchild : doc->children(child)) {
      EXPECT_EQ(router.Route(doc->ord_path(grandchild)), shard);
    }
  }
  EXPECT_EQ(prev, router.num_shards() - 1);
}

TEST(ShardRouter, SerializeRoundTrips) {
  std::unique_ptr<Document> doc = Doc(kBaseDoc);
  ShardRouter router = ShardRouter::Partition(*doc, 3);
  Result<ShardRouter> back = ShardRouter::Deserialize(router.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_shards(), router.num_shards());
  for (size_t i = 0; i < router.boundaries().size(); ++i) {
    EXPECT_EQ(back->boundaries()[i].Compare(router.boundaries()[i]), 0);
  }
}

TEST(ShardRouter, AnchorAnalysis) {
  // Anchored on the item return id: partitionable.
  ViewAnchor a = AnalyzeViewAnchor(MustParsePattern(kItemNames));
  EXPECT_TRUE(a.partitionable);
  EXPECT_GE(a.column, 0);
  // Optional edges below the anchor do not break partitionability.
  EXPECT_TRUE(
      AnalyzeViewAnchor(MustParsePattern(kItemKeywords)).partitionable);
  // The only id return is the pattern root: rows span every shard.
  EXPECT_FALSE(
      AnalyzeViewAnchor(MustParsePattern(kPersonNames)).partitionable);
  // No id return at all.
  EXPECT_FALSE(
      AnalyzeViewAnchor(MustParsePattern("site(//item(/name{v}))"))
          .partitionable);
}

TEST(ShardRouter, AnchorColumnIsTheViewSchemasIdColumn) {
  // AnalyzeViewAnchor counts the anchor's column without building the
  // schema; the reference finds it by name in the built schema.
  XmarkOptions xo;
  xo.scale = 1.0;
  std::unique_ptr<Document> doc = GenerateXmark(xo);
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());
  std::vector<Pattern> patterns;
  // The base views: one {id,v} view per summary tag.
  std::vector<std::string> tags;
  for (PathId s = 1; s < summary->size(); ++s) {
    tags.push_back(summary->label(s));
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  for (const std::string& tag : tags) {
    patterns.push_back(MustParsePattern("site(//" + tag + "{id,v})"));
  }
  EXPECT_EQ(patterns.size(), 79u);
  for (int q = 1; q <= 20; ++q) {
    patterns.push_back(GetXmarkQueryPatternConjunctive(q));
  }
  // bench_concurrent's views and queries, and anchors below ancestors that
  // store attributes of their own.
  for (const char* p : {
           "site(//item{id}(/name{id,v}))",
           "site(//item{id}(?//keyword{v}))",
           "site(//item{id}(n//keyword{id,v}))",
           "site(//person{id}(/name{id,v}))",
           "site(//open_auction{id}(//bidder{id}(/increase{v})))",
           "site(//item{id}(/name{v}))",
           "site(//item{id}(/name{id,v} ?//keyword{v}))",
           "site(//person{id}(/name{v}))",
           "site{id,l}(/regions{v}(//item{id}(/name{id,v})))",
           "site{c}(//open_auction{id,v,c}(//bidder{id}(/increase{v})))",
       }) {
    patterns.push_back(MustParsePattern(p));
  }
  int anchored = 0;
  int not_first = 0;
  for (const Pattern& p : patterns) {
    const ViewAnchor anchor = AnalyzeViewAnchor(p);
    if (!anchor.partitionable) continue;
    ++anchored;
    const int32_t want =
        ViewSchema(p, "V").Find(StrFormat("V.n%d.id", anchor.node));
    EXPECT_EQ(anchor.column, want) << PatternToString(p);
    if (want > 0) ++not_first;
  }
  EXPECT_GE(anchored, 100);
  EXPECT_GE(not_first, 2);  // not every anchor is the first column
}

// ---------------------------------------------------------------------------
// ShardedCatalog
// ---------------------------------------------------------------------------

TEST(ShardedCatalog, PartitionablePlacementAndGlobalFallback) {
  Stream s = BuildStream(0, 1);
  ShardedCatalogOptions options;
  options.num_shards = 4;
  Result<std::unique_ptr<ShardedCatalog>> catalog =
      ShardedCatalog::Create(options, s.docs[0], s.summaries[0]);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_TRUE(MaterializeAll(catalog->get(), *s.docs[0]).ok());
  // Anchored views live in every shard, not in the global catalog.
  EXPECT_EQ((*catalog)->global_catalog()->Find("item_names"), nullptr);
  int total_rows = 0;
  for (int i = 0; i < (*catalog)->num_shards(); ++i) {
    const StoredView* v = (*catalog)->shard_catalog(i)->Find("item_names");
    ASSERT_NE(v, nullptr);
    total_rows += static_cast<int>(v->table().value()->rows().size());
  }
  EXPECT_EQ(total_rows, 4);  // one row per item in kBaseDoc
  // The root-anchored view lives only in the global catalog.
  EXPECT_NE((*catalog)->global_catalog()->Find("person_names"), nullptr);
  EXPECT_EQ((*catalog)->shard_catalog(0)->Find("person_names"), nullptr);
}

/// The differential property test: a random update stream applied to a
/// 4-shard catalog and to a single ViewCatalog must leave byte-identical
/// per-view extents (after the canonical sort) and identical query results.
TEST(ShardedCatalog, DifferentialAgainstSingleCatalog) {
  Stream s = BuildStream(32, 20260808);

  ViewCatalog single;
  single.BindDocument(s.docs[0], s.summaries[0]);
  for (const char* spec : {kItemNames, kItemKeywords, kPersonNames}) {
    std::string name = spec == kItemNames      ? "item_names"
                       : spec == kItemKeywords ? "item_keywords"
                                               : "person_names";
    ASSERT_TRUE(
        single.Materialize({name, MustParsePattern(spec)}, *s.docs[0]).ok());
  }

  ShardedCatalogOptions options;
  options.num_shards = 4;
  Result<std::unique_ptr<ShardedCatalog>> sharded =
      ShardedCatalog::Create(options, s.docs[0], s.summaries[0]);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(MaterializeAll(sharded->get(), *s.docs[0]).ok());

  for (size_t i = 0; i < s.deltas.size(); ++i) {
    ASSERT_TRUE(single
                    .ApplyUpdateBatch({s.deltas[i]}, s.docs[i + 1],
                                      s.summaries[i + 1])
                    .ok());
    ASSERT_TRUE((*sharded)
                    ->ApplyUpdate(s.deltas[i], s.docs[i + 1],
                                  s.summaries[i + 1])
                    .ok());
  }

  // Per-view extents: merged shard slices byte-identical to the single
  // catalog's canonical extent.
  for (const char* name : {"item_names", "item_keywords"}) {
    Table merged = MergeShardExtents(sharded->get(), name);
    EXPECT_EQ(SerializeExtent(merged),
              SerializeExtent(*single.Find(name)->table().value()))
        << name;
  }
  EXPECT_EQ(
      SerializeExtent(*(*sharded)
                           ->global_catalog()
                           ->Find("person_names")
                           ->table()
                           .value()),
      SerializeExtent(*single.Find("person_names")->table().value()));

  // Query results: scatter-gather and the global fallback agree with the
  // single catalog's query entry point, and both with direct evaluation
  // over the final document.
  std::shared_ptr<const CatalogSnapshot> ssnap = single.Snapshot();
  ShardedSnapshot sharded_snap = (*sharded)->Snapshot();
  for (const char* q :
       {"site(//item{id}(/name{v}))", "site(//item{id}(?//keyword{v}))",
        "site{id}(//person(/name{v}))"}) {
    Pattern query = MustParsePattern(q);
    Result<Table> expect = ssnap->Query(query);
    ASSERT_TRUE(expect.ok()) << q << ": " << expect.status().ToString();
    Result<Table> got = sharded_snap.ExecuteQuery(query);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    ExpectSameRows(*got, *expect, q);
    ExpectSameRows(*got, MaterializeView(query, "q", *s.docs.back()),
                   std::string(q) + " vs direct evaluation");
  }
}

/// An anchored query that no shard view can answer falls back to the
/// global catalog: shard 0 finds no rewriting (NotFound), and the global
/// catalog's root-anchored view with an optional person edge answers it.
TEST(ShardedCatalog, AnchoredQueryWithoutShardRewritingUsesGlobalCatalog) {
  Stream s = BuildStream(0, 1);
  ShardedCatalogOptions options;
  options.num_shards = 4;
  Result<std::unique_ptr<ShardedCatalog>> catalog =
      ShardedCatalog::Create(options, s.docs[0], s.summaries[0]);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_TRUE((*catalog)
                  ->Materialize({"item_names", MustParsePattern(kItemNames)},
                                *s.docs[0])
                  .ok());
  ASSERT_TRUE(
      (*catalog)
          ->Materialize({"persons_opt", MustParsePattern(
                                            "site(?//person{id}(/name{v}))")},
                        *s.docs[0])
          .ok());
  ASSERT_NE((*catalog)->global_catalog()->Find("persons_opt"), nullptr);

  Pattern query = MustParsePattern("site(//person{id}(/name{v}))");
  ASSERT_TRUE(AnalyzeViewAnchor(query).partitionable);
  ShardedSnapshot snap = (*catalog)->Snapshot();
  Result<Rewriting> on_shard = snap.shard(0)->Rewrite(query);
  ASSERT_FALSE(on_shard.ok());
  EXPECT_EQ(on_shard.status().code(), StatusCode::kNotFound);

  Result<Table> got = snap.ExecuteQuery(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->NumRows(), 2);
  ExpectSameRows(*got, MaterializeView(query, "q", *s.docs[0]),
                 "global fallback vs direct evaluation");
}

/// A content cell is its node's ORDPATH, so rows that shards maintained
/// under different document versions are equal values: after an update
/// that only shard 1 applies, the sharded content read still equals direct
/// evaluation, under Table equality and not only under CompareTuples.
TEST(ShardedCatalog, ContentReadEqualsDirectEvaluation) {
  std::shared_ptr<Document> doc =
      Doc("site(a(item(k=1) item(k=2)) b(item(k=3)))");
  std::shared_ptr<const Summary> summary(SummaryBuilder::Build(doc.get()));
  ShardedCatalogOptions options;
  options.num_shards = 2;
  Result<std::unique_ptr<ShardedCatalog>> catalog =
      ShardedCatalog::Create(options, doc, summary);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const Pattern q = MustParsePattern("site(//item{id,c})");
  ASSERT_TRUE((*catalog)->Materialize({"items", q}, *doc).ok());

  const OrdPath b = doc->ord_path(doc->children(doc->root())[1]);
  ASSERT_EQ((*catalog)->router().Route(b), 1);
  Result<UpdateResult> up = InsertSubtree(*doc, b, *Doc("item(k=4)"));
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  std::shared_ptr<Document> next(std::move(up->doc));
  std::shared_ptr<const Summary> next_summary(
      SummaryBuilder::Build(next.get()));
  ASSERT_TRUE(
      (*catalog)->ApplyUpdate(up->delta, next, next_summary).ok());

  ShardedSnapshot snap = (*catalog)->Snapshot();
  EXPECT_EQ(snap.shard(0)->document(), doc.get()) << "shard 0 was not routed";
  EXPECT_EQ(snap.shard(1)->document(), next.get());
  Result<Table> got = snap.ExecuteQuery(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const Table want = MaterializeView(q, "q", *next);
  ASSERT_EQ(got->NumRows(), 4);
  EXPECT_TRUE(got->EqualsIgnoringOrder(want)) << got->ToString();
}

/// An update reaches only the shard owning its region, and the global
/// catalog only while it holds views, yet content cells resolve in their
/// catalog's document. So Materialize binds every skipped catalog to the
/// latest document first: a global content view added after an insert the
/// empty global catalog skipped answers a query navigating inside it with
/// the inserted item.
TEST(ShardedCatalog, MaterializeAfterUpdateBindsSkippedCatalogs) {
  std::shared_ptr<Document> doc =
      Doc("site(a(item(k=1) item(k=2)) b(item(k=3)))");
  std::shared_ptr<const Summary> summary(SummaryBuilder::Build(doc.get()));
  ShardedCatalogOptions options;
  options.num_shards = 2;
  Result<std::unique_ptr<ShardedCatalog>> catalog =
      ShardedCatalog::Create(options, doc, summary);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const OrdPath b = doc->ord_path(doc->children(doc->root())[1]);
  ASSERT_EQ((*catalog)->router().Route(b), 1);
  Result<UpdateResult> up = InsertSubtree(*doc, b, *Doc("item(k=4)"));
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  std::shared_ptr<Document> next(std::move(up->doc));
  std::shared_ptr<const Summary> next_summary(
      SummaryBuilder::Build(next.get()));
  ASSERT_TRUE((*catalog)->ApplyUpdate(up->delta, next, next_summary).ok());
  EXPECT_EQ((*catalog)->global_catalog()->Snapshot()->document(), doc.get())
      << "the empty global catalog skips updates";

  // The optional edge keeps the view off the shards (AnalyzeViewAnchor).
  const Pattern items = MustParsePattern("site(?//item{id,c})");
  ASSERT_FALSE(AnalyzeViewAnchor(items).partitionable);
  ASSERT_TRUE((*catalog)->Materialize({"items", items}, *next).ok());
  ASSERT_NE((*catalog)->global_catalog()->Find("items"), nullptr);

  ShardedSnapshot snap = (*catalog)->Snapshot();
  for (int i = 0; i < snap.num_shards(); ++i) {
    EXPECT_EQ(snap.shard(i)->document(), next.get()) << "shard " << i;
  }
  EXPECT_EQ(snap.global()->document(), next.get());
  const Pattern q = MustParsePattern("site(//item{id}(/k{v}))");
  Result<Table> got = snap.ExecuteQuery(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->NumRows(), 4);
  EXPECT_TRUE(got->EqualsIgnoringOrder(MaterializeView(q, "q", *next)))
      << got->ToString();
}

/// Async writer lanes coalesce a queued burst into few maintenance passes:
/// far fewer epochs published than deltas applied, same final extents.
TEST(ShardedCatalog, AsyncLanesCoalesceBursts) {
  const int kOps = 60;
  Stream s = BuildStream(kOps, 7);

  ShardedCatalogOptions options;
  options.num_shards = 4;
  options.async = true;
  Result<std::unique_ptr<ShardedCatalog>> catalog =
      ShardedCatalog::Create(options, s.docs[0], s.summaries[0]);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_TRUE((*catalog)
                  ->Materialize({"item_names", MustParsePattern(kItemNames)},
                                *s.docs[0])
                  .ok());

  const uint64_t epochs_before = (*catalog)->Snapshot().EpochSum();
  // The whole precomputed stream is enqueued in a tight loop, so lanes see
  // deep queues and drain them as coalesced batches.
  for (size_t i = 0; i < s.deltas.size(); ++i) {
    ASSERT_TRUE((*catalog)
                    ->ApplyUpdate(s.deltas[i], s.docs[i + 1],
                                  s.summaries[i + 1])
                    .ok());
  }
  ASSERT_TRUE((*catalog)->Flush().ok());
  const uint64_t epochs_after = (*catalog)->Snapshot().EpochSum();
  const uint64_t published = epochs_after - epochs_before;
  EXPECT_GE(published, 1u);
  EXPECT_LE(2 * published, static_cast<uint64_t>(kOps))
      << "expected >=2x batching, got " << published << " epochs for "
      << kOps << " deltas";

  Table fresh = MaterializeView(MustParsePattern(kItemNames), "item_names",
                                *s.docs.back());
  fresh.SortRowsCanonical();
  EXPECT_EQ(SerializeExtent(MergeShardExtents(catalog->get(), "item_names")),
            SerializeExtent(fresh));
}

/// Crash recovery: a WAL-enabled sharded store is dropped mid-stream
/// without Save(); Open() replays every shard's delta log back to the
/// exact extents.
TEST(ShardedCatalog, CrashRecoveryReplaysPerShardLogs) {
  TempDir dir;
  Stream s = BuildStream(24, 99);

  ShardedCatalogOptions options;
  options.num_shards = 4;
  options.dir = dir.path;
  options.enable_delta_log = true;
  options.async = true;
  {
    Result<std::unique_ptr<ShardedCatalog>> catalog =
        ShardedCatalog::Create(options, s.docs[0], s.summaries[0]);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    ASSERT_TRUE(MaterializeAll(catalog->get(), *s.docs[0]).ok());
    for (size_t i = 0; i < s.deltas.size(); ++i) {
      ASSERT_TRUE((*catalog)
                      ->ApplyUpdate(s.deltas[i], s.docs[i + 1],
                                    s.summaries[i + 1])
                      .ok());
    }
    ASSERT_TRUE((*catalog)->Flush().ok());
    // Maintenance went to the logs, not the extent files.
    uint64_t wal_depth = 0;
    for (int i = 0; i < (*catalog)->num_shards(); ++i) {
      wal_depth += static_cast<uint64_t>(
          (*catalog)->shard_catalog(i)->wal_depth());
    }
    EXPECT_GT(wal_depth, 0u);
    // No Save(): dropping the catalog is the crash.
  }

  Result<std::unique_ptr<ShardedCatalog>> recovered =
      ShardedCatalog::Open(options, s.docs.back(), s.summaries.back());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (const char* spec : {kItemNames, kItemKeywords}) {
    std::string name = spec == kItemNames ? "item_names" : "item_keywords";
    Table fresh = MaterializeView(MustParsePattern(spec), name, *s.docs.back());
    fresh.SortRowsCanonical();
    EXPECT_EQ(SerializeExtent(MergeShardExtents(recovered->get(), name)),
              SerializeExtent(fresh))
        << name;
  }
  Table fresh_persons = MaterializeView(MustParsePattern(kPersonNames),
                                        "person_names", *s.docs.back());
  fresh_persons.SortRowsCanonical();
  EXPECT_EQ(
      SerializeExtent(*(*recovered)
                           ->global_catalog()
                           ->Find("person_names")
                           ->table()
                           .value()),
      SerializeExtent(fresh_persons));

  // The recovered store serves scatter-gather queries.
  ShardedSnapshot snap = (*recovered)->Snapshot();
  Result<Table> got =
      snap.ExecuteQuery(MustParsePattern("site(//item{id}(/name{v}))"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Table expect = MaterializeView(
      MustParsePattern("site(//item{id}(/name{v}))"), "q", *s.docs.back());
  ExpectSameRows(*got, expect, "post-recovery query");

  // A Save() checkpoints every shard and truncates the logs.
  ASSERT_TRUE((*recovered)->Save().ok());
  for (int i = 0; i < (*recovered)->num_shards(); ++i) {
    EXPECT_EQ((*recovered)->shard_catalog(i)->wal_depth(), 0);
  }
}

/// A damaged shards.txt must not open as a store with fewer shards: that
/// would silently drop every view row of the lost shards.
TEST(ShardedCatalog, OpenRejectsDamagedShardsFile) {
  TempDir dir;
  Stream s = BuildStream(0, 1);
  ShardedCatalogOptions options;
  options.num_shards = 4;
  options.dir = dir.path;
  std::string saved_extent;
  {
    Result<std::unique_ptr<ShardedCatalog>> catalog =
        ShardedCatalog::Create(options, s.docs[0], s.summaries[0]);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    ASSERT_EQ((*catalog)->num_shards(), 4);
    ASSERT_TRUE(MaterializeAll(catalog->get(), *s.docs[0]).ok());
    ASSERT_TRUE((*catalog)->Save().ok());
    TablePtr last =
        (*catalog)->shard_catalog(3)->Find("item_names")->table().value();
    ASSERT_GT(last->NumRows(), 0);
    saved_extent = SerializeExtent(*last);
  }
  const std::string shards_file = (fs::path(dir.path) / "shards.txt").string();
  Result<std::string> intact = ReadFileBytes(shards_file);
  ASSERT_TRUE(intact.ok());
  std::vector<std::string> lines = Split(Trim(*intact), '\n');
  ASSERT_EQ(lines.size(), 3u);

  auto open_with = [&](const std::vector<std::string>& ls) {
    EXPECT_TRUE(WriteFileBytes(shards_file, Join(ls, "\n")).ok());
    return ShardedCatalog::Open(options, s.docs[0], s.summaries[0]);
  };
  for (const std::vector<std::string>& damaged :
       std::vector<std::vector<std::string>>{
           {lines[0], "1.", lines[2]},        // torn line
           {lines[0], lines[1]},              // last line dropped
           {"x", lines[1], lines[2]},         // not an ORDPATH
           {lines[2], lines[1], lines[0]}}) {  // out of order
    EXPECT_FALSE(open_with(damaged).ok()) << Join(damaged, " | ");
  }
  Result<std::unique_ptr<ShardedCatalog>> reopened = open_with(lines);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->num_shards(), 4);
  const StoredView* last = (*reopened)->shard_catalog(3)->Find("item_names");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(SerializeExtent(*last->table().value()), saved_extent);
}

TEST(ShardedCatalog, DebugMetricsAggregates) {
  Stream s = BuildStream(4, 3);
  ShardedCatalogOptions options;
  options.num_shards = 3;
  Result<std::unique_ptr<ShardedCatalog>> catalog =
      ShardedCatalog::Create(options, s.docs[0], s.summaries[0]);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_TRUE(MaterializeAll(catalog->get(), *s.docs[0]).ok());
  for (size_t i = 0; i < s.deltas.size(); ++i) {
    ASSERT_TRUE((*catalog)
                    ->ApplyUpdate(s.deltas[i], s.docs[i + 1],
                                  s.summaries[i + 1])
                    .ok());
  }
  std::string json = (*catalog)->DebugMetrics();
  EXPECT_NE(json.find("\"num_shards\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"global\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"epoch_sum\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_epoch_age_us\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wal_depth_total\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace svx
