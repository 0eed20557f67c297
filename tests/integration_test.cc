// Integration tests: the full pipeline — generate an XMark-like document,
// build its Dataguide, materialize views, translate or parse queries,
// rewrite them, execute the plans and compare with direct evaluation — on
// realistic (paper §1) scenarios.
#include <gtest/gtest.h>

#include "src/algebra/executor.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/annotated_pattern.h"
#include "src/rewriting/rewriter.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/util/rng.h"
#include "src/workload/pattern_generator.h"
#include "src/workload/xmark.h"
#include "src/xquery/xquery_translator.h"

namespace svx {
namespace {

class XmarkPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    XmarkOptions opts;
    opts.scale = 0.7;
    opts.seed = 7;
    doc_ = GenerateXmark(opts);
    summary_ = SummaryBuilder::Build(doc_.get());
    catalog_.set_document(doc_.get());
  }

  void AddViews(std::vector<std::pair<std::string, std::string>> defs) {
    for (auto& [name, text] : defs) {
      ViewDef def{name, MustParsePattern(text)};
      views_.push_back({def, MaterializeView(def.pattern, name, *doc_)});
    }
    for (const MaterializedView& v : views_) {
      catalog_.Register(v.def.name, &v.extent);
    }
  }

  /// Rewrites `q` and checks every returned plan computes exactly the
  /// direct evaluation of the pattern. Returns the number of rewritings.
  size_t CheckQuery(const Pattern& q, bool expect_found = true) {
    Rewriter rewriter(*summary_);
    for (const MaterializedView& v : views_) rewriter.AddView(v.def);
    Result<std::vector<Rewriting>> rws = rewriter.Rewrite(q);
    EXPECT_TRUE(rws.ok());
    if (!rws.ok()) return 0;
    if (expect_found) {
      EXPECT_FALSE(rws->empty());
    }
    Table reference = MaterializeView(q, "Q", *doc_);
    for (const Rewriting& r : *rws) {
      Result<Table> t = Execute(*r.plan, catalog_);
      EXPECT_TRUE(t.ok()) << t.status().ToString();
      if (!t.ok()) continue;
      EXPECT_TRUE(t->EqualsIgnoringOrder(reference))
          << "plan " << r.compact << " returned " << t->NumRows()
          << " rows, reference has " << reference.NumRows();
    }
    return rws->size();
  }

  std::unique_ptr<Document> doc_;
  std::unique_ptr<Summary> summary_;
  std::vector<MaterializedView> views_;
  Catalog catalog_;
};

TEST_F(XmarkPipeline, ItemNameViewAnswersRegionQueries) {
  AddViews({{"V", "site(//item{id}(/name{v}))"}});
  CheckQuery(MustParsePattern("site(//regions(//item(/name{v})))"));
  CheckQuery(MustParsePattern("site(//item{id})"));
}

TEST_F(XmarkPipeline, IdJoinAcrossTwoViews) {
  AddViews({{"V1", "site(//item{id}(/quantity{v}))"},
            {"V2", "site(//item{id}(/name{v}))"}});
  CheckQuery(MustParsePattern("site(//item(/name{v} /quantity{v}))"));
}

TEST_F(XmarkPipeline, StructuralJoinRebuildsScope) {
  AddViews({{"VA", "site(//open_auction{id})"},
            {"VI", "site(//increase{id,v})"}});
  CheckQuery(MustParsePattern(
      "site(//open_auctions(/open_auction{id}(/bidder(/increase{v}))))"));
}

TEST_F(XmarkPipeline, ContentNavigationServesKeywordQuery) {
  AddViews({{"V", "site(//item{id}(/description{c}))"}});
  CheckQuery(
      MustParsePattern("site(//item{id}(/description(//keyword{v})))"));
}

TEST_F(XmarkPipeline, IntroNestedQueryFromDedicatedView) {
  AddViews({{"V1",
             "site(//item{id}(//mail ?/name{v} "
             "?//listitem{id}(?//keyword{c})))"}});
  Result<Pattern> q = XQueryToPattern(
      "for $x in doc(\"XMark.xml\")//item[.//mail] return "
      "<res>{ $x/name/text(), "
      "for $y in $x//listitem return <key>{ $y//keyword }</key> }</res>",
      "site");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  CheckQuery(*q);
}

TEST_F(XmarkPipeline, PersonProfileQueries) {
  AddViews({{"VP", "site(//person{id}(/name{v}))"},
            {"VG", "site(//profile{id}(/gender{v}))"}});
  CheckQuery(MustParsePattern(
      "site(//people(/person{id}(/name{v} /profile(/gender{v}))))"));
}

TEST_F(XmarkPipeline, UnsatisfiableQueryHasTrivialAnswer) {
  AddViews({{"V", "site(//item{id})"}});
  // No 'nonexistent' tag anywhere: the reference extent is empty and the
  // rewriter need not find anything.
  Pattern q = MustParsePattern("site(//nonexistent{id})");
  Rewriter rewriter(*summary_);
  for (const MaterializedView& v : views_) rewriter.AddView(v.def);
  Result<std::vector<Rewriting>> rws = rewriter.Rewrite(q);
  ASSERT_TRUE(rws.ok());
  for (const Rewriting& r : *rws) {
    Result<Table> t = Execute(*r.plan, catalog_);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->NumRows(), 0);
  }
}

// Randomized end-to-end: a random query whose own pattern is also a view
// must always be rewritable, and every plan must reproduce the reference.
class RandomRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RandomRoundTrip, QueryAsViewAlwaysRewrites) {
  int seed = GetParam();
  XmarkOptions opts;
  opts.scale = 0.4;
  opts.seed = 11;
  std::unique_ptr<Document> doc = GenerateXmark(opts);
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());

  Rng rng(static_cast<uint64_t>(seed) * 6151 + 13);
  PatternGenOptions gen;
  gen.num_nodes = 3 + seed % 3;
  gen.num_return = 1;
  gen.p_pred = 0.0;
  gen.p_optional = 0.0;
  // Wildcard nodes can exceed the piece budget (the rewriter then refuses
  // the view rather than track an incomplete union); keep labels concrete.
  gen.p_star = 0.0;
  gen.return_labels = {"item"};
  Result<Pattern> q = GeneratePattern(*summary, gen, &rng);
  if (!q.ok()) GTEST_SKIP();
  // Give every return node ID+V so the view is self-sufficient.
  Pattern view_pattern = *q;
  for (PatternNodeId n : view_pattern.ReturnNodes()) {
    view_pattern.mutable_node(n).attrs = kAttrId;
  }

  ViewDef def{"SELF", view_pattern};
  // Views whose skeleton has too many summary embeddings are refused by the
  // expansion (the piece-set union would be incomplete otherwise); such
  // draws are out of scope for the round-trip property.
  Result<std::vector<Candidate>> expanded =
      ExpandView(def, *summary, {}, ExpansionOptions{});
  if (!expanded.ok() || expanded->empty()) GTEST_SKIP();

  MaterializedView view{def, MaterializeView(view_pattern, "SELF", *doc)};
  Catalog catalog;
  catalog.Register("SELF", &view.extent);

  Pattern query = view_pattern;  // identical demands
  Rewriter rewriter(*summary);
  rewriter.AddView(def);
  Result<std::vector<Rewriting>> rws = rewriter.Rewrite(query);
  ASSERT_TRUE(rws.ok());
  ASSERT_FALSE(rws->empty());
  Table reference = MaterializeView(query, "Q", *doc);
  for (const Rewriting& r : *rws) {
    Result<Table> t = Execute(*r.plan, catalog);
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE(t->EqualsIgnoringOrder(reference)) << r.compact;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomRoundTrip, ::testing::Range(0, 20));

}  // namespace
}  // namespace svx
