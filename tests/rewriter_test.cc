#include "src/rewriting/rewriter.h"

#include <gtest/gtest.h>

#include "src/algebra/executor.h"
#include "src/algebra/plan_printer.h"
#include "src/pattern/pattern_parser.h"
#include "src/summary/summary_builder.h"
#include "src/summary/summary_io.h"
#include "src/viewstore/cost_model.h"
#include "src/xml/builder.h"

namespace svx {
namespace {

std::unique_ptr<Summary> Sum(std::string_view s) {
  Result<std::unique_ptr<Summary>> r = ParseSummary(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::vector<Rewriting> RunRewrite(Rewriter* rw, std::string_view q,
                           RewriteStats* stats = nullptr) {
  Result<std::vector<Rewriting>> r = rw->Rewrite(MustParsePattern(q), stats);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(Rewriter, IdentityRewriting) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/b{id})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{id})");
  ASSERT_FALSE(out.empty());
  EXPECT_NE(out[0].compact.find("V"), std::string::npos);
}

TEST(Rewriter, SummaryEquivalentView) {
  // §3.2: S = r(a(b)), q = /r//a//b, view = /r//b — equivalent under S.
  std::unique_ptr<Summary> s = Sum("r(a(b))");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("r(//b{id})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "r(//a(//b{id}))");
  EXPECT_FALSE(out.empty());
}

TEST(Rewriter, NoRewritingWhenViewTooNarrow) {
  std::unique_ptr<Summary> s = Sum("a(b d(b))");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/b{id})")});  // misses /a/d/b
  std::vector<Rewriting> out = RunRewrite(&rw, "a(//b{id})");
  EXPECT_TRUE(out.empty());
}

TEST(Rewriter, AttributeMismatchNoRewriting) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/b{id})")});
  // The query needs the value, the view stores only the id.
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{v})");
  EXPECT_TRUE(out.empty());
}

TEST(Rewriter, ProjectionOfWiderView) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/b{id,v,l})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{v})");
  ASSERT_FALSE(out.empty());
  // Output schema must be exactly the query column.
  EXPECT_EQ(out[0].plan->schema.size(), 1);
  EXPECT_EQ(out[0].plan->schema.column(0).kind, ColumnKind::kValue);
}

TEST(Rewriter, Figure6StructuralJoin) {
  // q = b under a; p1 provides all b's, p2 provides a's:
  // (p2 ⋈≺ p1) ≡S q. p4 is unrelated and pruned (Prop 3.4).
  std::unique_ptr<Summary> s = Sum("r(b a(b(c)) e(f))");
  Rewriter rw(*s);
  rw.AddView({"P1", MustParsePattern("r(//b{id})")});
  rw.AddView({"P2", MustParsePattern("r(//a{id})")});
  rw.AddView({"P4", MustParsePattern("r(/e{id}(/f))")});
  RewriteStats stats;
  std::vector<Rewriting> out = RunRewrite(&rw, "r(/a(/b{id}))", &stats);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(stats.views_total, 3u);
  EXPECT_EQ(stats.views_kept, 2u);  // P4 pruned by Prop 3.4
  bool join_found = false;
  for (const Rewriting& r : out) {
    join_found = join_found ||
                 (r.compact.find("P1") != std::string::npos &&
                  r.compact.find("P2") != std::string::npos);
  }
  EXPECT_TRUE(join_found) << out[0].compact;
}

TEST(Rewriter, Figure6UnionRewriting) {
  // Considering p1 = r//b as the query, a possible rewriting is q ∪ p3
  // (q = b under a, p3 = direct b child).
  std::unique_ptr<Summary> s = Sum("r(b a(b(c)))");
  Rewriter rw(*s);
  rw.AddView({"Q", MustParsePattern("r(//a(//b{id}))")});
  rw.AddView({"P3", MustParsePattern("r(/b{id})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "r(//b{id})");
  ASSERT_FALSE(out.empty());
  bool union_found = false;
  for (const Rewriting& r : out) {
    union_found = union_found || r.compact.find("∪") != std::string::npos;
  }
  EXPECT_TRUE(union_found);
}

TEST(Rewriter, Figure5JoinPlusUnion) {
  // The Fig. 5 phenomenon: covering all b's needs (p1 ⋈= p2) ∪ p3 (or other
  // unions); no single view suffices.
  std::unique_ptr<Summary> s = Sum("r(a(c(b)) c(a(b)) b)");
  Rewriter rw(*s);
  rw.AddView({"P1", MustParsePattern("r(//a(//b{id}))")});
  rw.AddView({"P2", MustParsePattern("r(//c(//b{id}))")});
  rw.AddView({"P3", MustParsePattern("r(/b{id})")});
  RewriterOptions opts;
  opts.max_results = 8;
  Rewriter rw2(*s, opts);
  rw2.AddView({"P1", MustParsePattern("r(//a(//b{id}))")});
  rw2.AddView({"P2", MustParsePattern("r(//c(//b{id}))")});
  rw2.AddView({"P3", MustParsePattern("r(/b{id})")});
  std::vector<Rewriting> out = RunRewrite(&rw2, "r(//b{id})");
  ASSERT_FALSE(out.empty());
  for (const Rewriting& r : out) {
    // Every rewriting must be a union (no single candidate covers /r/b and
    // the deep paths simultaneously).
    EXPECT_NE(r.compact.find("∪"), std::string::npos) << r.compact;
    EXPECT_NE(r.compact.find("P3"), std::string::npos) << r.compact;
  }
}

TEST(Rewriter, Figure5NoPatternEquivalentToJoin) {
  // q4 = b's under a-above-c only: the join of p1 and p2 mixes both
  // orders (Prop 3.3) and cannot serve q4; no rewriting exists.
  std::unique_ptr<Summary> s = Sum("r(a(c(b)) c(a(b)) b)");
  Rewriter rw(*s);
  rw.AddView({"P1", MustParsePattern("r(//a(//b{id}))")});
  rw.AddView({"P2", MustParsePattern("r(//c(//b{id}))")});
  rw.AddView({"P3", MustParsePattern("r(/b{id})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "r(//a(//c(//b{id})))");
  EXPECT_TRUE(out.empty());
}

TEST(Rewriter, IntroIdEqualityJoin) {
  // §1 "Exploiting ID properties": V1 and V2 have no common *stored* node
  // data, but structural IDs allow combining them on the item ids.
  std::unique_ptr<Summary> s = Sum("site(item(name description))");
  Rewriter rw(*s);
  rw.AddView({"V1", MustParsePattern("site(//item{id}(/description{c}))")});
  rw.AddView({"V2", MustParsePattern("site(//item{id}(/name{v}))")});
  std::vector<Rewriting> out =
      RunRewrite(&rw, "site(//item(/name{v} /description{c}))");
  ASSERT_FALSE(out.empty());
  bool joined = false;
  for (const Rewriting& r : out) {
    joined = joined || (r.compact.find("V1") != std::string::npos &&
                        r.compact.find("V2") != std::string::npos);
  }
  EXPECT_TRUE(joined);
}

TEST(Rewriter, VirtualParentIdJoin) {
  // §4.6: V stores c's id; the id of its parent b derives from it (navfID),
  // enabling a rewriting of a query on b.
  std::unique_ptr<Summary> s = Sum("a(b(c!))");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(//c{id,v})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(//b{id})");
  ASSERT_FALSE(out.empty());
}

TEST(Rewriter, ProjectedPlanDropsUnreadAppendOperators) {
  // V's base plan derives c's parent and grandparent ids (navfID ↑1 under
  // ↑2); a rewriting keeps only the derives whose columns it reads.
  Result<std::unique_ptr<Document>> doc =
      ParseTreeNotation("a(b(c=1) b(c=2))");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::unique_ptr<Summary> s = SummaryBuilder::Build(doc->get());
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(//c{id,v})")});

  std::vector<Rewriting> values = RunRewrite(&rw, "a(//c{v})");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].compact, "project(V)");

  std::vector<Rewriting> parents = RunRewrite(&rw, "a(//b{id})");
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0].compact, "project(navfID(V))");
  const PlanNode& derive = *parents[0].plan->children[0];
  ASSERT_EQ(derive.kind, PlanKind::kDeriveParent);
  EXPECT_EQ(derive.derive_steps, 1);
}

TEST(Rewriter, ContentUnfoldingNavigation) {
  // §1/§4.6: keyword data is reachable only by navigating inside stored
  // content (the A.C attribute of V1 in the intro example).
  std::unique_ptr<Summary> s = Sum("site(item(desc(keyword!)))");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("site(//item{id,c})")});
  std::vector<Rewriting> out =
      RunRewrite(&rw, "site(//item{id}(//keyword{v}))");
  ASSERT_FALSE(out.empty());
  bool nav = false;
  for (const Rewriting& r : out) {
    nav = nav || r.compact.find("navC") != std::string::npos;
  }
  EXPECT_TRUE(nav) << out[0].compact;
}

TEST(Rewriter, LabelSelectionAdaptation) {
  // §4.6: a wildcard view node storing L serves a labeled query node via
  // σ L = label.
  std::unique_ptr<Summary> s = Sum("a(b c)");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/*{id,l})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{id})");
  // The piece for path /a/b has a concrete label; either the piece pinning
  // or the σ makes this work.
  ASSERT_FALSE(out.empty());
}

TEST(Rewriter, ValueSelectionAdaptation) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/b{id,v})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{id,v}[v>3])");
  ASSERT_FALSE(out.empty());
  bool has_select = false;
  for (const Rewriting& r : out) {
    has_select = has_select || r.compact.find("select") != std::string::npos;
  }
  EXPECT_TRUE(has_select) << out[0].compact;
}

TEST(Rewriter, PredicateContainedViewNeedsNoSelection) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/b{id}[v=4])")});
  // View stores exactly v=4 nodes; query wants v=4.
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{id}[v=4])");
  EXPECT_FALSE(out.empty());
  // But the view cannot answer the broader query.
  std::vector<Rewriting> broader = RunRewrite(&rw, "a(/b{id}[v>0])");
  EXPECT_TRUE(broader.empty());
}

TEST(Rewriter, OptionalViewAnswersRequiredQuery) {
  // The view keeps items without names (⊥); σ ≠ ⊥ strengthens it.
  std::unique_ptr<Summary> s = Sum("a(i(x))");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/i{id}(?/x{id}))")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/i{id}(/x{id}))");
  ASSERT_FALSE(out.empty());
}

TEST(Rewriter, RequiredViewCannotAnswerOptionalQuery) {
  // The view lost the items without x; the optional query needs them.
  std::unique_ptr<Summary> s = Sum("a(i(x))");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/i{id}(/x{id}))")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/i{id}(?/x{id}))");
  EXPECT_TRUE(out.empty());
}

TEST(Rewriter, OptionalViewAnswersOptionalQuery) {
  std::unique_ptr<Summary> s = Sum("a(i(x))");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/i{id}(?/x{id}))")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/i{id}(?/x{id}))");
  EXPECT_FALSE(out.empty());
}

TEST(Rewriter, StatsPopulated) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/b{id})")});
  RewriteStats stats;
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{id})", &stats);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(stats.views_total, 1u);
  EXPECT_EQ(stats.views_kept, 1u);
  EXPECT_GE(stats.equivalence_tests, 1u);
  EXPECT_GE(stats.first_ms, 0.0);
  EXPECT_GE(stats.total_ms, stats.first_ms);
  EXPECT_EQ(stats.results, out.size());
}

TEST(Rewriter, CoverageEarlyOutOnUnservableColumn) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  Rewriter rw(*s);
  rw.AddView({"V", MustParsePattern("a(/b{id})")});
  // The view is Prop 3.4-related but stores no V column: the signature
  // proves no view combination can serve the value, so the rewriter
  // answers empty without expanding or testing anything.
  RewriteStats stats;
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{v})", &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.views_kept, 1u);
  EXPECT_EQ(stats.candidates_pruned, 1u);  // the kept view, never expanded
  EXPECT_EQ(stats.candidates_built, 0u);
  EXPECT_EQ(stats.equivalence_tests, 0u);
}

TEST(Rewriter, MemoStatsPopulated) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  ContainmentMemo memo;
  RewriterOptions opts;
  opts.memo = &memo;
  Rewriter rw(*s, opts);
  rw.AddView({"V", MustParsePattern("a(/b{id})")});
  RewriteStats first;
  RunRewrite(&rw, "a(/b{id})", &first);
  EXPECT_GT(first.containment_memo_misses, 0u);
  // The same query again reuses the pinned memo's decisions.
  RewriteStats second;
  RunRewrite(&rw, "a(/b{id})", &second);
  EXPECT_GT(second.containment_memo_hits, 0u);
  EXPECT_EQ(second.containment_memo_misses, 0u);
}

// Both views rewrite the query, but max_results = 1 stops the search (and
// the union phase) at the first rewriting.
TEST(Rewriter, MaxResultsOneStopsAtFirst) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  RewriterOptions opts;
  opts.max_results = 1;
  Rewriter rw(*s, opts);
  rw.AddView({"V1", MustParsePattern("a(/b{id})")});
  rw.AddView({"V2", MustParsePattern("a(//b{id})")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/b{id})");
  EXPECT_EQ(out.size(), 1u);
}

// End-to-end: rewrite, execute over materialized extents, compare with the
// direct evaluation of the query.
class RewriteExecuteTest : public ::testing::Test {
 protected:
  void SetUpWorld(std::string_view doc_text,
                  std::vector<std::pair<std::string, std::string>> views) {
    Result<std::unique_ptr<Document>> d = ParseTreeNotation(doc_text);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    doc_ = std::move(*d);
    summary_ = SummaryBuilder::Build(doc_.get());
    catalog_.set_document(doc_.get());
    rewriter_ = std::make_unique<Rewriter>(*summary_);
    for (auto& [name, pattern] : views) {
      ViewDef def{name, MustParsePattern(pattern)};
      views_.push_back({def, MaterializeView(def.pattern, name, *doc_)});
      rewriter_->AddView(def);
    }
    for (const MaterializedView& v : views_) {
      catalog_.Register(v.def.name, &v.extent);
    }
  }

  /// Rewrites `q`, executes every rewriting and compares to the reference
  /// extent of the query itself.
  void CheckAll(std::string_view q) {
    Pattern qp = MustParsePattern(q);
    Table reference = MaterializeView(qp, "Q", *doc_);
    Result<std::vector<Rewriting>> rws = rewriter_->Rewrite(qp);
    ASSERT_TRUE(rws.ok());
    ASSERT_FALSE(rws->empty()) << "no rewriting found for " << q;
    for (const Rewriting& r : *rws) {
      Result<Table> t = Execute(*r.plan, catalog_);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_TRUE(t->EqualsIgnoringOrder(reference))
          << "plan: " << r.compact << "\nplan result:\n"
          << t->ToString() << "\nreference:\n"
          << reference.ToString();
    }
  }

  std::unique_ptr<Document> doc_;
  std::unique_ptr<Summary> summary_;
  std::unique_ptr<Rewriter> rewriter_;
  std::vector<MaterializedView> views_;
  Catalog catalog_;
};

TEST_F(RewriteExecuteTest, SingleViewProjection) {
  SetUpWorld("a(b=1 b=2 b)", {{"V", "a(/b{id,v})"}});
  CheckAll("a(/b{v})");
  CheckAll("a(/b{id})");
}

TEST_F(RewriteExecuteTest, StructuralJoinPlan) {
  SetUpWorld("r(b a(b(c) b) a(b))",
             {{"P1", "r(//b{id})"}, {"P2", "r(//a{id})"}});
  CheckAll("r(/a(/b{id}))");
}

TEST_F(RewriteExecuteTest, IdJoinCombinesViews) {
  SetUpWorld("site(item(name=pen description=fine) item(name=ink "
             "description=blue))",
             {{"V1", "site(//item{id}(/description{v}))"},
              {"V2", "site(//item{id}(/name{v}))"}});
  CheckAll("site(//item(/name{v} /description{v}))");
}

TEST_F(RewriteExecuteTest, UnionPlan) {
  SetUpWorld("r(b=1 a(b=2 b=3))",
             {{"Q", "r(//a(//b{id,v}))"}, {"P3", "r(/b{id,v})"}});
  CheckAll("r(//b{id,v})");
}

TEST_F(RewriteExecuteTest, VirtualIdPlan) {
  SetUpWorld("a(b(c=1) b(c=2))", {{"V", "a(//c{id,v})"}});
  CheckAll("a(//b{id})");
}

TEST_F(RewriteExecuteTest, ContentNavigationPlan) {
  SetUpWorld("site(item(desc(keyword=k1 keyword=k2)) item(desc(keyword=k3)))",
             {{"V", "site(//item{id,c})"}});
  CheckAll("site(//item{id}(//keyword{v}))");
}

TEST_F(RewriteExecuteTest, OptionalQueryPreservesBottoms) {
  SetUpWorld("a(i(x=1) i)", {{"V", "a(/i{id}(?/x{v}))"}});
  CheckAll("a(/i{id}(?/x{v}))");
}

TEST_F(RewriteExecuteTest, NestedQueryGroupBy) {
  SetUpWorld("a(i(k=1 k=2) i(k=3) i)", {{"V", "a(/i{id}(?/k{v}))"}});
  CheckAll("a(/i{id}(n/k{v}))");
}

TEST_F(RewriteExecuteTest, NestedViewAnswersFlatQuery) {
  // Note: the *required*-k flat query is NOT rewritable from this view — a
  // V column alone cannot distinguish "item without k" from "item with a
  // valueless k", so only ⊥-witnessable (id/c/l) columns strengthen
  // optional edges.
  SetUpWorld("a(i(k=1 k=2) i(k=3) i)", {{"V", "a(/i{id}(n/k{v}))"}});
  CheckAll("a(/i{id}(?/k{v}))");
  CheckAll("a(/i{id}(n/k{v}))");
}

TEST_F(RewriteExecuteTest, NestedViewWithIdAnswersRequiredQuery) {
  SetUpWorld("a(i(k=1 k=2) i(k=3) i)", {{"V", "a(/i{id}(n/k{id,v}))"}});
  CheckAll("a(/i{id}(/k{id,v}))");
  CheckAll("a(/i{id}(n/k{id,v}))");
}

TEST(Rewriter, ViewEqualToTheQueryIsTheCheapestPlan) {
  std::unique_ptr<Summary> s = Sum("a(i(k))");
  CostModel model;
  RewriterOptions opts;
  opts.max_results = 1;
  opts.cost_model = &model;
  Rewriter rw(*s, opts);
  rw.AddView({"V", MustParsePattern("a(/i{id}(n/k{id,v}))")});
  std::vector<Rewriting> out = RunRewrite(&rw, "a(/i{id}(n/k{id,v}))");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].compact, "V");
  EXPECT_EQ(out[0].plan->kind, PlanKind::kViewScan);
  // NestedViewWithIdAnswersRequiredQuery executes this scan against direct
  // evaluation. The reference search offers it too.
  Result<std::vector<Rewriting>> ref =
      rw.RewriteExhaustive(MustParsePattern("a(/i{id}(n/k{id,v}))"));
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(ref->size(), 1u);
  EXPECT_EQ(ref->front().compact, "V");
}

TEST_F(RewriteExecuteTest, ValueSelectionPlan) {
  SetUpWorld("a(b=1 b=5 b=9)", {{"V", "a(/b{id,v})"}});
  CheckAll("a(/b{id,v}[v>3])");
}

}  // namespace
}  // namespace svx
