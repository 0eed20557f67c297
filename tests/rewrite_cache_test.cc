#include "src/viewstore/rewrite_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "src/pattern/pattern_parser.h"
#include "src/summary/summary_builder.h"
#include "src/viewstore/view_catalog.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::vector<std::string> Compacts(const std::vector<Rewriting>& rws) {
  std::vector<std::string> out;
  for (const Rewriting& r : rws) out.push_back(r.compact);
  return out;
}

class RewriteCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = Doc("a(b=1 b=2 c=3)");
    summary_ = SummaryBuilder::Build(doc_.get());
    ASSERT_TRUE(
        catalog_.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *doc_)
            .ok());
  }

  Rewriter MakeRewriter(RewriterOptions opts = {}) {
    opts.memo = catalog_.containment_memo();
    Rewriter rw(*summary_, opts);
    for (const auto& v : catalog_.views()) rw.AddView(v->def);
    return rw;
  }

  std::vector<Rewriting> RewriteCached(Rewriter* rw, std::string_view q,
                                       RewriteStats* stats = nullptr) {
    Result<std::vector<Rewriting>> r = CachedRewrite(
        catalog_.rewrite_cache(), rw, MustParsePattern(q), stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  std::unique_ptr<Document> doc_;
  std::unique_ptr<Summary> summary_;
  ViewCatalog catalog_;  // no store dir: in-memory only
};

TEST_F(RewriteCacheTest, HitServesIdenticalPlans) {
  Rewriter rw = MakeRewriter();
  RewriteStats cold;
  std::vector<Rewriting> first = RewriteCached(&rw, "a(/b{v})", &cold);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(cold.rewrite_cache_hits, 0u);
  EXPECT_EQ(catalog_.rewrite_cache()->misses(), 1u);

  RewriteStats warm;
  std::vector<Rewriting> second = RewriteCached(&rw, "a(/b{v})", &warm);
  EXPECT_EQ(warm.rewrite_cache_hits, 1u);
  EXPECT_EQ(catalog_.rewrite_cache()->hits(), 1u);
  EXPECT_EQ(Compacts(first), Compacts(second));
  // A hit shares the cached plan; PlanNode is const through PlanPtr, so no
  // caller can change what the next hit serves.
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(first[0].plan.get(), second[0].plan.get());
}

TEST_F(RewriteCacheTest, EmptyResultIsCachedToo) {
  Rewriter rw = MakeRewriter();
  // The view stores b columns only; a c query has no rewriting.
  std::vector<Rewriting> none = RewriteCached(&rw, "a(/c{v})");
  EXPECT_TRUE(none.empty());
  RewriteStats warm;
  std::vector<Rewriting> again = RewriteCached(&rw, "a(/c{v})", &warm);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(warm.rewrite_cache_hits, 1u);
}

TEST_F(RewriteCacheTest, ApplyUpdateInvalidates) {
  Rewriter rw = MakeRewriter();
  std::vector<Rewriting> cold = RewriteCached(&rw, "a(/b{v})");
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 1u);
  ASSERT_TRUE(catalog_.containment_memo()->size() > 0 ||
              catalog_.containment_memo()->misses() > 0);

  std::unique_ptr<Document> sub = Doc("b=9");
  Result<UpdateResult> up = InsertSubtree(*doc_, OrdPath::Root(), *sub);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  ASSERT_TRUE(catalog_.ApplyUpdate(up->delta).ok());

  // Cached plan dropped, memo cleared.
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 0u);
  EXPECT_EQ(catalog_.containment_memo()->size(), 0u);

  // Re-rewriting matches a fresh rewriter's output over the new world.
  std::unique_ptr<Summary> new_summary = SummaryBuilder::Build(up->doc.get());
  Rewriter fresh(*new_summary);
  for (const auto& v : catalog_.views()) fresh.AddView(v->def);
  Result<std::vector<Rewriting>> expect =
      fresh.Rewrite(MustParsePattern("a(/b{v})"));
  ASSERT_TRUE(expect.ok());

  summary_ = std::move(new_summary);
  doc_ = std::move(up->doc);
  Rewriter rw2 = MakeRewriter();
  RewriteStats stats;
  std::vector<Rewriting> recomputed = RewriteCached(&rw2, "a(/b{v})", &stats);
  EXPECT_EQ(stats.rewrite_cache_hits, 0u) << "stale plan served after update";
  EXPECT_EQ(Compacts(recomputed), Compacts(*expect));
}

TEST_F(RewriteCacheTest, ViewAddAndDropInvalidate) {
  Rewriter rw = MakeRewriter();
  RewriteCached(&rw, "a(/b{v})");
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 1u);

  // Add: a new view can enable new (cheaper) plans.
  ASSERT_TRUE(
      catalog_.Materialize({"W", MustParsePattern("a(/c{id,v})")}, *doc_)
          .ok());
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 0u);

  Rewriter rw2 = MakeRewriter();
  RewriteCached(&rw2, "a(/c{v})");
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 1u);

  // Drop: cached plans may reference the dropped view.
  ASSERT_TRUE(catalog_.Drop("W").ok());
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 0u);
  EXPECT_EQ(catalog_.Find("W"), nullptr);
  EXPECT_FALSE(catalog_.Drop("W").ok());

  // After the drop, the c query has no rewriting again — and the fresh
  // (uncached) result reflects that.
  Rewriter rw3 = MakeRewriter();
  RewriteStats stats;
  std::vector<Rewriting> none = RewriteCached(&rw3, "a(/c{v})", &stats);
  EXPECT_EQ(stats.rewrite_cache_hits, 0u);
  EXPECT_TRUE(none.empty());
}

TEST_F(RewriteCacheTest, WarmHitReplaysSearchCounters) {
  Rewriter rw = MakeRewriter();
  RewriteStats cold;
  std::vector<Rewriting> first = RewriteCached(&rw, "a(/b{v})", &cold);
  ASSERT_FALSE(first.empty());
  ASSERT_GT(cold.candidates_built, 0u);

  RewriteStats warm;
  std::vector<Rewriting> second = RewriteCached(&rw, "a(/b{v})", &warm);
  ASSERT_EQ(warm.rewrite_cache_hits, 1u);
  ASSERT_FALSE(second.empty());
  // The hit replays the insert-time search counters instead of leaving the
  // caller's stats zeroed — dashboards see what the cached entry cost.
  EXPECT_EQ(warm.views_total, cold.views_total);
  EXPECT_EQ(warm.views_kept, cold.views_kept);
  EXPECT_EQ(warm.candidates_built, cold.candidates_built);
  EXPECT_EQ(warm.join_candidates, cold.join_candidates);
  EXPECT_EQ(warm.equivalence_tests, cold.equivalence_tests);
  EXPECT_EQ(warm.candidates_pruned, cold.candidates_pruned);
  EXPECT_EQ(warm.containment_memo_hits, cold.containment_memo_hits);
  EXPECT_EQ(warm.containment_memo_misses, cold.containment_memo_misses);
  EXPECT_EQ(warm.results, cold.results);
  EXPECT_EQ(warm.cheapest_cost, cold.cheapest_cost);
  EXPECT_EQ(warm.costliest_cost, cold.costliest_cost);
}

// Rewriters that differ only in the DP plan-table cap must not share cache
// entries: the query needs a join of VA and VC, which a one-plan table
// never builds, so the capped rewriter finds nothing where the default one
// finds a rewriting.
TEST_F(RewriteCacheTest, PlanTableCapIsPartOfTheKey) {
  ASSERT_TRUE(
      catalog_.Materialize({"VA", MustParsePattern("a{id}(/b{v})")}, *doc_)
          .ok());
  ASSERT_TRUE(
      catalog_.Materialize({"VC", MustParsePattern("a{id}(/c{v})")}, *doc_)
          .ok());
  const char* q = "a{id}(/b{v} /c{v})";
  Rewriter wide = MakeRewriter();
  ASSERT_FALSE(RewriteCached(&wide, q).empty());

  RewriterOptions capped_opts;
  capped_opts.max_plan_table = 1;
  Rewriter capped = MakeRewriter(capped_opts);
  RewriteStats uncached_stats;
  Result<std::vector<Rewriting>> uncached =
      capped.Rewrite(MustParsePattern(q), &uncached_stats);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_TRUE(uncached_stats.plan_table_full);

  RewriteStats stats;
  std::vector<Rewriting> served = RewriteCached(&capped, q, &stats);
  EXPECT_EQ(stats.rewrite_cache_hits, 0u)
      << "served the uncapped rewriter's entry";
  EXPECT_EQ(Compacts(served), Compacts(*uncached));
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 2u);

  // The capped result is cached under its own key, and a hit replays the
  // table-full flag with the rest of the search counters.
  RewriteStats warm;
  EXPECT_EQ(Compacts(RewriteCached(&capped, q, &warm)), Compacts(*uncached));
  EXPECT_EQ(warm.rewrite_cache_hits, 1u);
  EXPECT_TRUE(warm.plan_table_full);
}

TEST(RewriteCacheUnit, EvictionClearsWhenFull) {
  RewriteCache cache;
  std::vector<Rewriting> empty;
  for (size_t i = 0; i < RewriteCache::kMaxEntries; ++i) {
    cache.Insert("q" + std::to_string(i), empty);
  }
  EXPECT_EQ(cache.size(), RewriteCache::kMaxEntries);
  // Full: the table is dropped, then the new key inserted.
  const std::string last = "q" + std::to_string(RewriteCache::kMaxEntries);
  cache.Insert(last, empty);
  EXPECT_EQ(cache.size(), 1u);
  std::vector<Rewriting> out;
  EXPECT_TRUE(cache.Lookup(last, &out));
  EXPECT_FALSE(cache.Lookup("q0", &out));
}

}  // namespace
}  // namespace svx
