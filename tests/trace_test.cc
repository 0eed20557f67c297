#include "src/observability/trace.h"

#include <gtest/gtest.h>

#include "src/pattern/pattern_parser.h"
#include "src/summary/summary_builder.h"
#include "src/util/json_writer.h"
#include "src/viewstore/sharded_catalog.h"
#include "src/viewstore/view_catalog.h"
#include "src/xml/builder.h"

namespace svx {
namespace {

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(TraceSpanTest, NullParentIsInert) {
  ScopedSpan span(nullptr, "ignored");
  EXPECT_EQ(span.get(), nullptr);
  span.Attr("key", int64_t{1});  // must be a no-op, not a crash
  ScopedSpan child(span.get(), "nested");
  EXPECT_EQ(child.get(), nullptr);
}

TEST(TraceSpanTest, TreeShapeAndDurations) {
  Trace trace("root");
  TraceSpan* a = trace.root()->StartChild("a");
  TraceSpan* a1 = a->StartChild("a1");
  a1->End();
  a->End();
  TraceSpan* b = trace.root()->StartChild("b");
  b->End();

  ASSERT_EQ(trace.root()->children().size(), 2u);
  const TraceSpan* found_a = trace.root()->FindChild("a");
  ASSERT_NE(found_a, nullptr);
  EXPECT_EQ(found_a->children().size(), 1u);
  EXPECT_NE(found_a->FindChild("a1"), nullptr);
  EXPECT_EQ(trace.root()->FindChild("missing"), nullptr);
  EXPECT_GE(found_a->duration_us(), found_a->FindChild("a1")->duration_us());
  EXPECT_GE(trace.root()->FindChild("b")->duration_us(), 0);
}

TEST(TraceSpanTest, EndIsIdempotent) {
  Trace trace("root");
  TraceSpan* a = trace.root()->StartChild("a");
  a->End();
  int64_t d = a->duration_us();
  a->End();
  EXPECT_EQ(a->duration_us(), d);
}

TEST(TraceSpanTest, RenderJsonEscapesAndShapes) {
  Trace trace("q\"uote");
  TraceSpan* a = trace.root()->StartChild("child");
  a->AddAttr("view", "a\nb");
  a->AddAttr("rows", int64_t{42});
  a->AddAttr("cost", 1.5);
  a->End();
  std::string json = trace.RenderJson();
  EXPECT_NE(json.find("\"q\\\"uote\""), std::string::npos);
  EXPECT_NE(json.find("\"a\\nb\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"cost\": 1.500"), std::string::npos);
  EXPECT_NE(json.find("\"duration_us\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

class ServingTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::shared_ptr<Document> doc = Doc("a(b=1 b=2 c=3)");
    std::shared_ptr<Summary> summary = SummaryBuilder::Build(doc.get());
    ASSERT_TRUE(
        catalog_.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *doc)
            .ok());
    catalog_.BindDocument(std::move(doc), std::move(summary));
  }

  ViewCatalog catalog_;
};

TEST_F(ServingTraceTest, NestedRewriteProducesPhaseSpans) {
  Trace trace("query");
  Result<Table> out =
      catalog_.Snapshot()->Query(MustParsePattern("a(/b{v})"), trace.root());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 2);

  // cache-lookup (miss) and the rewrite span, as siblings under the root.
  EXPECT_NE(trace.root()->FindChild("cache-lookup"), nullptr);
  const TraceSpan* rewrite = trace.root()->FindChild("rewrite");
  ASSERT_NE(rewrite, nullptr);
  EXPECT_FALSE(rewrite->children().empty());
  EXPECT_NE(rewrite->FindChild("analyze"), nullptr);
  EXPECT_NE(rewrite->FindChild("prune-views"), nullptr);
  // The DP enumerator folds single-view matching and join enumeration into
  // one plan-enum phase.
  EXPECT_NE(rewrite->FindChild("plan-enum"), nullptr);
  EXPECT_NE(rewrite->FindChild("rank-by-cost"), nullptr);

  // The executor attaches a per-operator span tree under the same root,
  // after the cache-lookup and rewrite spans.
  EXPECT_GT(trace.root()->children().size(), 2u);

  std::string json = trace.RenderJson();
  EXPECT_NE(json.find("\"rewrite\""), std::string::npos);
  EXPECT_NE(json.find("\"table_full\": \"false\""), std::string::npos);
  EXPECT_NE(json.find("out_rows"), std::string::npos);
}

TEST_F(ServingTraceTest, WarmLookupTracesTheHit) {
  Pattern q = MustParsePattern("a(/b{v})");
  ASSERT_TRUE(catalog_.Snapshot()->Rewrite(q).ok());

  Trace trace("warm");
  ASSERT_TRUE(catalog_.Snapshot()->Rewrite(q, trace.root()).ok());

  // Served warm: a cache-lookup span but no rewrite phases.
  EXPECT_NE(trace.root()->FindChild("cache-lookup"), nullptr);
  EXPECT_EQ(trace.root()->FindChild("rewrite"), nullptr);
  EXPECT_NE(trace.RenderJson().find("\"hit\": \"true\""), std::string::npos);
}

TEST(ShardedTraceTest, CachedAnchoredReadTracesEveryShardAndTheMerge) {
  std::shared_ptr<Document> doc(
      Doc("site(item(name=i0) item(name=i1) item(name=i2) item(name=i3))"));
  std::shared_ptr<const Summary> summary(SummaryBuilder::Build(doc.get()));
  ShardedCatalogOptions options;
  options.num_shards = 2;
  Result<std::unique_ptr<ShardedCatalog>> catalog =
      ShardedCatalog::Create(options, doc, summary);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const ViewDef view{"item_names",
                     MustParsePattern("site(//item{id}(/name{id,v}))")};
  ASSERT_TRUE((*catalog)->Materialize(view, *doc).ok());
  const Pattern q = MustParsePattern("site(//item{id}(/name{v}))");
  ShardedSnapshot snap = (*catalog)->Snapshot();
  ASSERT_GE(snap.num_shards(), 2);
  ASSERT_TRUE(snap.ExecuteQuery(q).ok());  // caches the plan

  Trace trace("sharded");
  Result<Table> out = snap.ExecuteQuery(q, trace.root());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 4);

  // Shard 0's rewrite is a cache hit: a cache-lookup span, no phases.
  EXPECT_NE(trace.root()->FindChild("cache-lookup"), nullptr);
  EXPECT_EQ(trace.root()->FindChild("rewrite"), nullptr);
  // One shard-execute span per shard, each over the executor's operator
  // spans, then one merge span.
  int executes = 0;
  int merges = 0;
  for (const auto& child : trace.root()->children()) {
    if (child->name() == "shard-execute") {
      ++executes;
      EXPECT_FALSE(child->children().empty()) << executes;
    }
    if (child->name() == "merge") ++merges;
  }
  EXPECT_EQ(executes, snap.num_shards());
  EXPECT_EQ(merges, 1);
  const std::string json = trace.RenderJson();
  EXPECT_NE(json.find("\"hit\": \"true\""), std::string::npos);
  for (int i = 0; i < snap.num_shards(); ++i) {
    EXPECT_NE(json.find("\"shard\": " + std::to_string(i)),
              std::string::npos)
        << i;
  }
}

}  // namespace
}  // namespace svx
