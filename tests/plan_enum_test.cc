// Differential tests for the DP plan enumerator (src/rewriting/plan_enum.h)
// behind Rewriter::Rewrite against the reference search,
// Rewriter::RewriteExhaustive (the paper's exhaustive left-deep Algorithm 1,
// with no view index, memo or coverage pruning):
//   * on randomized worlds (random conforming document, random views, random
//     query), every DP-chosen plan must execute to exactly the direct
//     evaluation of the query — the PR-4 equivalence invariant;
//   * whenever the reference search completed (no merged-piece truncation,
//     no candidate cap), both searches agree on rewritability (found vs.
//     not found), and the DP search's cheapest rewriting costs no more than
//     the reference's cheapest (dominance and branch-and-bound may only
//     discard non-optimal plans).
#include "src/rewriting/plan_enum.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/algebra/executor.h"
#include "src/observability/trace.h"
#include "src/pattern/pattern_parser.h"
#include "src/pattern/pattern_printer.h"
#include "src/rewriting/rewriter.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/summary/summary_io.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/viewstore/cost_model.h"
#include "src/workload/pattern_generator.h"
#include "src/xml/builder.h"

namespace svx {
namespace {

std::unique_ptr<Summary> Sum(std::string_view s) {
  Result<std::unique_ptr<Summary>> r = ParseSummary(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Random document weakly conforming to `summary` (the property_test
/// generator): children per child-path drawn from [min, max], strong edges
/// forcing min >= 1 and one-to-one edges exactly 1.
std::unique_ptr<Document> RandomConformingDoc(const Summary& summary,
                                              Rng* rng, int max_fanout = 3,
                                              int max_nodes = 300) {
  DocumentBuilder b;
  int budget = max_nodes;
  std::function<void(PathId, int)> emit = [&](PathId path, int depth) {
    b.StartElement(summary.label(path));
    if (rng->Bernoulli(0.6)) {
      b.AppendValue(std::to_string(rng->Uniform(0, 9)));
    }
    for (PathId c : summary.children(path)) {
      int lo = summary.strong_edge(c) ? 1 : 0;
      int hi = summary.one_to_one(c) ? 1 : max_fanout;
      if (summary.one_to_one(c)) lo = 1;
      int count = static_cast<int>(rng->Uniform(lo, hi));
      if (budget <= 0) count = lo;  // keep strong edges satisfied
      for (int i = 0; i < count && depth < 24; ++i) {
        --budget;
        emit(c, depth + 1);
      }
    }
    b.EndElement();
  };
  emit(summary.root(), 1);
  return b.Finish();
}

struct SearchResult {
  std::vector<Rewriting> rewritings;
  RewriteStats stats;
};

/// Runs Rewrite (the DP search) or, with `reference`, RewriteExhaustive.
SearchResult RunSearch(const Summary& s, const std::vector<ViewDef>& views,
                       const Pattern& q, const CostModel& cm, bool reference) {
  RewriterOptions opts;
  opts.cost_model = &cm;
  Rewriter rw(s, opts);
  for (const ViewDef& v : views) rw.AddView(v);
  SearchResult out;
  Result<std::vector<Rewriting>> r = reference
                                         ? rw.RewriteExhaustive(q, &out.stats)
                                         : rw.Rewrite(q, &out.stats);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) out.rewritings = std::move(r).value();
  return out;
}

/// True when the reference search explored its whole space.
bool Complete(const SearchResult& r) {
  return !r.stats.search_truncated && !r.stats.plan_table_full;
}

/// The cheapest estimated cost in a cost-ranked result list.
double CheapestCost(const SearchResult& r) {
  EXPECT_FALSE(r.rewritings.empty());
  return r.rewritings.front().est_cost;
}

// Hand-built worlds, including the Fig. 5/6 join-and-union scenarios: the
// DP search and the reference must agree on rewritability, and the DP
// search must rank a plan at least as cheap. The reference uses no view
// index, so a ViewIndex signature that wrongly prunes a view shows up as a
// rewriting only the reference finds.
TEST(PlanEnumDifferential, HandBuiltWorldsMatchExhaustive) {
  struct World {
    std::string summary;
    std::vector<std::pair<std::string, std::string>> views;
    std::vector<std::string> queries;
  };
  std::vector<World> worlds = {
      {"r(b a(b(c)) e(f))",
       {{"P1", "r(//b{id})"}, {"P2", "r(//a{id})"}, {"P4", "r(/e{id}(/f))"}},
       {"r(/a(/b{id}))", "r(//b{id})", "r(/e{id})"}},
      {"r(a(c(b)) c(a(b)) b)",
       {{"P1", "r(//a(//b{id}))"},
        {"P2", "r(//c(//b{id}))"},
        {"P3", "r(/b{id})"}},
       {"r(//b{id})", "r(//a(//c(//b{id})))"}},
      {"site(item(name description))",
       {{"V1", "site(//item{id}(/description{c}))"},
        {"V2", "site(//item{id}(/name{v}))"}},
       {"site(//item(/name{v} /description{c}))", "site(//item{id})"}},
      {"a(b(c!))",
       {{"V", "a(//c{id,v})"}},
       {"a(//b{id})", "a(//c{v}[v>2])", "a(/b{id}(/c{v}))"}},
      {"a(i(x))",
       {{"V", "a(/i{id}(?/x{id}))"}},
       {"a(/i{id}(/x{id}))", "a(/i{id}(?/x{id}))"}},
      // Regression: the wildcard node's associated paths on the STRICT
      // pattern exclude r/a (no b below), but the base expansion variant
      // erases the optional subtree and pins the wildcard at r/a too — the
      // view signature must not narrow serviceability to strict-pattern
      // paths, or the a{id} rewriting is wrongly pruned away.
      {"r(a e(b))",
       {{"V", "r(/*{id,l}(?/b{id}))"}},
       {"r(/a{id})", "r(/e{id})"}},
  };
  CostModel cm;
  for (const World& w : worlds) {
    std::unique_ptr<Summary> s = Sum(w.summary);
    std::vector<ViewDef> views;
    for (const auto& [name, pattern] : w.views) {
      views.push_back({name, MustParsePattern(pattern)});
    }
    for (const std::string& q_text : w.queries) {
      Pattern q = MustParsePattern(q_text);
      SearchResult dp = RunSearch(*s, views, q, cm, /*reference=*/false);
      SearchResult ex = RunSearch(*s, views, q, cm, /*reference=*/true);
      ASSERT_TRUE(Complete(ex)) << w.summary << " | " << q_text;
      ASSERT_EQ(dp.rewritings.empty(), ex.rewritings.empty())
          << w.summary << " | " << q_text;
      if (dp.rewritings.empty()) continue;
      EXPECT_FALSE(dp.stats.search_truncated) << w.summary << " | " << q_text;
      EXPECT_LE(CheapestCost(dp), CheapestCost(ex) + 1e-9)
          << w.summary << " | " << q_text << "\n  dp: "
          << dp.rewritings.front().compact
          << "\n  ex: " << ex.rewritings.front().compact;
      EXPECT_GT(dp.stats.plans_generated, 0u);
      EXPECT_GE(dp.stats.plans_generated, dp.stats.plans_retained);
    }
  }
}

// Randomized differential: random views and queries over a recursive-ish
// summary. Every DP plan must reproduce the direct evaluation on a random
// conforming document; against a complete reference search, the DP search
// agrees on rewritability and its cheapest cost does not exceed the
// reference's.
class PlanEnumRandomDifferential : public ::testing::TestWithParam<int> {};

TEST_P(PlanEnumRandomDifferential, PlansExecuteIdenticallyAndCostNoWorse) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 104729 + 17);
  std::unique_ptr<Summary> s = Sum("r(a!(b(c) d) e(b(c)) f(d) b)");
  std::unique_ptr<Document> doc = RandomConformingDoc(*s, &rng);

  PatternGenOptions gen;
  gen.num_nodes = 2 + seed % 4;
  gen.num_return = 1 + seed % 2;
  gen.p_pred = 0.1;
  gen.p_optional = 0.2;

  // Random view set; the query pattern doubles as a view half the time so
  // a rewriting is frequently (not vacuously never) found.
  Result<Pattern> q = GeneratePattern(*s, gen, &rng);
  if (!q.ok()) GTEST_SKIP() << q.status().ToString();
  std::vector<ViewDef> views;
  int num_views = 2 + static_cast<int>(rng.Uniform(0, 2));
  for (int i = 0; i < num_views; ++i) {
    Result<Pattern> v = GeneratePattern(*s, gen, &rng);
    if (v.ok()) views.push_back({"V" + std::to_string(i), std::move(*v)});
  }
  if (rng.Bernoulli(0.5)) views.push_back({"VQ", *q});
  if (views.empty()) GTEST_SKIP();

  CostModel cm;
  SearchResult dp = RunSearch(*s, views, *q, cm, /*reference=*/false);
  SearchResult ex = RunSearch(*s, views, *q, cm, /*reference=*/true);

  if (Complete(ex)) {
    EXPECT_EQ(dp.rewritings.empty(), ex.rewritings.empty())
        << PatternToString(*q);
    if (!dp.rewritings.empty() && !ex.rewritings.empty()) {
      EXPECT_LE(CheapestCost(dp), CheapestCost(ex) + 1e-9)
          << "dp: " << dp.rewritings.front().compact
          << "\nex: " << ex.rewritings.front().compact;
    }
  }

  // Execution equivalence: every DP plan computes the direct evaluation.
  if (dp.rewritings.empty()) return;
  std::vector<MaterializedView> mats;
  mats.reserve(views.size());
  for (const ViewDef& v : views) {
    mats.push_back({v, MaterializeView(v.pattern, v.name, *doc)});
  }
  Catalog catalog;
  for (const MaterializedView& m : mats) {
    catalog.Register(m.def.name, &m.extent);
  }
  Table reference = MaterializeView(*q, "Q", *doc);
  for (const Rewriting& r : dp.rewritings) {
    Result<Table> t = Execute(*r.plan, catalog);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(t->EqualsIgnoringOrder(reference))
        << "plan " << r.compact << " returned " << t->NumRows()
        << " rows, reference has " << reference.NumRows();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanEnumRandomDifferential,
                         ::testing::Range(0, 24));

// A merged-piece overflow during join enumeration must surface in
// RewriteStats::search_truncated instead of being silently swallowed — in
// the DP search and in the reference. The recursive summary gives the
// ancestor view 2 pieces (r/a, r/a/a) and the descendant view 2 pieces
// (r/a/b, r/a/a/b); their ⋈≺≺ has 3 compatible piece pairs, which overflows
// an expansion budget of 2 that both base candidates individually respect.
// The query outputs both a{id} and b{id} so neither view alone covers it —
// otherwise cheapest-first branch-and-bound would (correctly) never reach
// the join and the overflow would be unreachable rather than unreported.
TEST(PlanEnum, TruncationIsReportedNotSilent) {
  std::unique_ptr<Summary> s = Sum("r(a(b a(b)))");
  RewriterOptions opts;
  opts.expansion.max_pieces = 2;
  Rewriter rw(*s, opts);
  rw.AddView({"P1", MustParsePattern("r(//b{id})")});
  rw.AddView({"P2", MustParsePattern("r(//a{id})")});
  const Pattern q = MustParsePattern("r(//a{id}(//b{id}))");
  for (bool reference : {false, true}) {
    RewriteStats stats;
    Result<std::vector<Rewriting>> r = reference
                                           ? rw.RewriteExhaustive(q, &stats)
                                           : rw.Rewrite(q, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(stats.search_truncated) << "reference=" << reference;
  }
}

// A search that fills the DP plan table says so, apart from truncation: the
// query needs the id-equality join of VB and VC, which a two-plan table
// never builds, so the capped search finds nothing and reports
// plan_table_full (on the stats and the plan-enum span); with the default
// cap the same search completes and finds the join.
TEST(PlanEnum, PlanTableFullIsReported) {
  std::unique_ptr<Summary> s = Sum("r(a(b c))");
  for (size_t cap : {size_t{2}, RewriterOptions{}.max_plan_table}) {
    Trace trace("q");
    RewriterOptions opts;
    opts.max_plan_table = cap;
    opts.trace = trace.root();
    Rewriter rw(*s, opts);
    rw.AddView({"VB", MustParsePattern("r(/a{id}(/b{v}))")});
    rw.AddView({"VC", MustParsePattern("r(/a{id}(/c{v}))")});
    RewriteStats stats;
    Result<std::vector<Rewriting>> r =
        rw.Rewrite(MustParsePattern("r(/a{id}(/b{v} /c{v}))"), &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const bool tiny = cap == 2;
    EXPECT_EQ(stats.plan_table_full, tiny) << "cap " << cap;
    EXPECT_EQ(r->empty(), tiny) << "cap " << cap;
    EXPECT_FALSE(stats.search_truncated) << "cap " << cap;
    if (tiny) {
      EXPECT_GE(stats.plans_generated, cap);
    }
    EXPECT_NE(trace.RenderJson().find(tiny ? "\"table_full\": \"true\""
                                           : "\"table_full\": \"false\""),
              std::string::npos)
        << "cap " << cap;
  }
}

// A query with more return columns than CoverageAnalysis::kMaxCols gets no
// coverage masks, so the DP search runs with vacuous coverage (every plan
// covers). It still finds the single-view rewriting, and every rewriting
// executes to the direct evaluation.
TEST(PlanEnum, WideQueryRunsWithoutCoverageMasks) {
  std::string doc_text = "r(";
  for (int row = 0; row < 2; ++row) {
    doc_text += "a(";
    for (int i = 0; i <= CoverageAnalysis::kMaxCols; ++i) {
      doc_text += StrFormat(" c%d=%d", i, row * 100 + i);
    }
    doc_text += ") ";
  }
  doc_text += ")";
  std::string q_text = "r(/a(";
  for (int i = 0; i <= CoverageAnalysis::kMaxCols; ++i) {
    q_text += StrFormat(" /c%d{v}", i);
  }
  q_text += "))";
  Result<std::unique_ptr<Document>> doc = ParseTreeNotation(doc_text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::unique_ptr<Summary> s = SummaryBuilder::Build(doc->get());
  const Pattern q = MustParsePattern(q_text);
  ASSERT_EQ(q.ReturnNodes().size(),
            static_cast<size_t>(CoverageAnalysis::kMaxCols) + 1);

  Rewriter rw(*s);
  rw.AddView({"V", q});
  RewriteStats stats;
  Result<std::vector<Rewriting>> rws = rw.Rewrite(q, &stats);
  ASSERT_TRUE(rws.ok()) << rws.status().ToString();
  ASSERT_FALSE(rws->empty());
  EXPECT_EQ(rws->front().compact.find("⋈"), std::string::npos)
      << rws->front().compact;
  EXPECT_FALSE(stats.search_truncated);

  Table extent = MaterializeView(q, "V", **doc);
  Catalog catalog;
  catalog.Register("V", &extent);
  Table reference = MaterializeView(q, "Q", **doc);
  for (const Rewriting& r : *rws) {
    Result<Table> t = Execute(*r.plan, catalog);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(t->EqualsIgnoringOrder(reference)) << r.compact;
  }
}

// The reference search stops adding joins at its candidate cap and says so:
// fifty id-only views of r/a join pairwise on ⋈= into far more than
// kReferenceMaxCandidates candidates, none of which can serve the query's
// value column, so only the cap ends the search.
TEST(PlanEnum, ReferenceCandidateCapIsReported) {
  std::unique_ptr<Summary> s = Sum("r(a)");
  Rewriter rw(*s);
  for (int i = 0; i < 50; ++i) {
    rw.AddView({StrFormat("V%d", i), MustParsePattern("r(/a{id})")});
  }
  RewriteStats stats;
  Result<std::vector<Rewriting>> r =
      rw.RewriteExhaustive(MustParsePattern("r(/a{v})"), &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->empty());
  EXPECT_TRUE(stats.plan_table_full);
  EXPECT_FALSE(stats.search_truncated);
  EXPECT_EQ(stats.candidates_built + stats.join_candidates,
            Rewriter::kReferenceMaxCandidates);
}

}  // namespace
}  // namespace svx
