#include "src/containment/containment.h"

#include <gtest/gtest.h>

#include "src/pattern/pattern_parser.h"
#include "src/summary/summary_io.h"

namespace svx {
namespace {

std::unique_ptr<Summary> Sum(std::string_view s) {
  Result<std::unique_ptr<Summary>> r = ParseSummary(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

bool Contained(std::string_view p, std::string_view q, const Summary& s,
               ContainmentOptions opts = {}) {
  Result<bool> r =
      IsContained(MustParsePattern(p), MustParsePattern(q), s, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

bool InUnion(std::string_view p, std::vector<std::string> qs,
             const Summary& s, ContainmentOptions opts = {}) {
  std::vector<Pattern> patterns;
  patterns.reserve(qs.size());
  for (const std::string& q : qs) patterns.push_back(MustParsePattern(q));
  std::vector<const Pattern*> ptrs;
  for (const Pattern& q : patterns) ptrs.push_back(&q);
  Result<bool> r = IsContainedInUnion(MustParsePattern(p), ptrs, s, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

TEST(Containment, SelfContainment) {
  std::unique_ptr<Summary> s = Sum("a(b(c) d(b(c)))");
  EXPECT_TRUE(Contained("a(//b{id}(/c))", "a(//b{id}(/c))", *s));
}

TEST(Containment, ChildWithinDescendant) {
  std::unique_ptr<Summary> s = Sum("a(b(c) d(b(c)))");
  EXPECT_TRUE(Contained("a(/b{id})", "a(//b{id})", *s));
  EXPECT_FALSE(Contained("a(//b{id})", "a(/b{id})", *s));
}

TEST(Containment, ArityMismatchFails) {
  std::unique_ptr<Summary> s = Sum("a(b(c))");
  EXPECT_FALSE(Contained("a(/b{id}(/c{id}))", "a(/b{id})", *s));
}

TEST(Containment, SummaryMakesImplicitNodesFree) {
  // §3.2 example: S = r(a(b)), q = /r//a//b, p1 = /r//b; p1 ≡S q although
  // p1 lacks the a node.
  std::unique_ptr<Summary> s = Sum("r(a(b))");
  EXPECT_TRUE(Contained("r(//b{id})", "r(//a(//b{id}))", *s));
  EXPECT_TRUE(Contained("r(//a(//b{id}))", "r(//b{id})", *s));
}

TEST(Containment, SummaryConstrainedStarIsItem) {
  // §1 "Summary-based rewriting": a view over children of regions having
  // description children is a view over item nodes when the summary
  // guarantees all such children are items. The reverse direction needs the
  // integrity constraint that every item has a description (strong edge).
  std::unique_ptr<Summary> s =
      Sum("site(regions(asia(item(description!(text) name))))");
  EXPECT_TRUE(Contained("site(//regions(//*{id}(/description)))",
                        "site(//item{id})", *s));
  EXPECT_TRUE(Contained("site(//item{id})",
                        "site(//regions(//*{id}(/description)))", *s));
  // Without the strong edge, items lacking a description escape the view.
  std::unique_ptr<Summary> weak =
      Sum("site(regions(asia(item(description(text) name))))");
  EXPECT_TRUE(Contained("site(//regions(//*{id}(/description)))",
                        "site(//item{id})", *weak));
  EXPECT_FALSE(Contained("site(//item{id})",
                         "site(//regions(//*{id}(/description)))", *weak));
}

TEST(Containment, NegativeWhenPathsDiffer) {
  std::unique_ptr<Summary> s = Sum("a(b c(b))");
  EXPECT_FALSE(Contained("a(//b{id})", "a(/c(/b{id}))", *s));
  EXPECT_TRUE(Contained("a(/c(/b{id}))", "a(//b{id})", *s));
}

TEST(Containment, UnsatisfiableContainedInEverything) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  EXPECT_TRUE(Contained("a(/z{id})", "a(/b{id})", *s));
}

// ---- Unions (Prop 3.2) ----

TEST(Containment, UnionCoversWhatMembersCannot) {
  std::unique_ptr<Summary> s = Sum("a(b d(b))");
  EXPECT_TRUE(InUnion("a(//b{id})", {"a(/b{id})", "a(/d(/b{id}))"}, *s));
  EXPECT_FALSE(Contained("a(//b{id})", "a(/b{id})", *s));
  EXPECT_FALSE(Contained("a(//b{id})", "a(/d(/b{id}))", *s));
}

TEST(Containment, UnionNegative) {
  std::unique_ptr<Summary> s = Sum("a(b d(b) e(b))");
  EXPECT_FALSE(InUnion("a(//b{id})", {"a(/b{id})", "a(/d(/b{id}))"}, *s));
}

TEST(Containment, EmptyUnionOnlyContainsUnsatisfiable) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  EXPECT_FALSE(InUnion("a(/b{id})", {}, *s));
  EXPECT_TRUE(InUnion("a(/z{id})", {}, *s));
}

// ---- Enhanced summaries (§4.1, Figure 8) ----

TEST(Containment, StrongEdgesEnableEquivalence) {
  // Every b has a c child and every a has an f child: p1 = a/b is
  // equivalent to p2 = a(/b(/c) /f) under the enhanced summary.
  std::unique_ptr<Summary> s = Sum("a(b(c! e) f!)");
  EXPECT_TRUE(Contained("a(/b{id})", "a(/b{id}(/c) /f)", *s));
  EXPECT_TRUE(Contained("a(/b{id}(/c) /f)", "a(/b{id})", *s));
}

TEST(Containment, WithoutStrongEdgesNoEquivalence) {
  std::unique_ptr<Summary> s = Sum("a(b(c! e) f!)");
  ContainmentOptions opts;
  opts.model.use_strong_edges = false;
  EXPECT_FALSE(Contained("a(/b{id})", "a(/b{id}(/c) /f)", *s, opts));
  EXPECT_TRUE(Contained("a(/b{id}(/c) /f)", "a(/b{id})", *s, opts));
}

// ---- Decorated patterns (§4.2, Figure 9) ----

TEST(Containment, DecoratedSingle) {
  std::unique_ptr<Summary> s = Sum("r(c(b))");
  EXPECT_TRUE(Contained("r(/c{id}[v=3])", "r(/c{id}[v>1])", *s));
  EXPECT_FALSE(Contained("r(/c{id}[v>1])", "r(/c{id}[v=3])", *s));
  EXPECT_TRUE(Contained("r(/c{id}[v=3](/b[v>0]))",
                        "r(/c{id}[v>1](/b[v>0]))", *s));
}

TEST(Containment, DecoratedPredicateOnNonReturnNode) {
  std::unique_ptr<Summary> s = Sum("r(c(b))");
  EXPECT_TRUE(Contained("r(/c{id}(/b[v=4]))", "r(/c{id}(/b[v>0]))", *s));
  EXPECT_FALSE(Contained("r(/c{id}(/b[v=0]))", "r(/c{id}(/b[v>0]))", *s));
}

TEST(Containment, PaperFigure9UnionExample) {
  // Mirror of the paper's worked §4.2 example: pφ2 ⊆S pφ1 ∪ pφ3 ∪ pφ4
  // by the two-part condition, with each canonical tree of pφ2 covered by a
  // different disjunct combination.
  std::unique_ptr<Summary> s = Sum("r(c(b) d(c(b)))");
  std::string p2 = "r(//c{id}[v=3](/b[v>0]))";
  std::string p3 = "r(/c{id}[v>1](/b))";
  std::string p1 = "r(/d(/c{id}[v=3](/b[v<5])))";
  std::string p4 = "r(//c{id}[v<5](/b[v>2]))";
  EXPECT_TRUE(InUnion(p2, {p1, p3, p4}, *s));
  // Without pφ4, the deep tree's values v_b >= 5 are uncovered.
  EXPECT_FALSE(InUnion(p2, {p1, p3}, *s));
  // Without pφ1, the deep tree's values v_b in (0,2] are uncovered.
  EXPECT_FALSE(InUnion(p2, {p3, p4}, *s));
}

TEST(Containment, ValueDisjunctionAcrossUnionMembers) {
  // Neither member alone implies, their union does: v<5 ∪ v>3 covers all.
  std::unique_ptr<Summary> s = Sum("r(c)");
  EXPECT_TRUE(
      InUnion("r(/c{id})", {"r(/c{id}[v<5])", "r(/c{id}[v>3])"}, *s));
  EXPECT_FALSE(
      InUnion("r(/c{id})", {"r(/c{id}[v<5])", "r(/c{id}[v>7])"}, *s));
}

// ---- Optional edges (§4.3, Figure 10) ----

TEST(Containment, OptionalPatternContainment) {
  std::unique_ptr<Summary> s = Sum("a(c(b d(b e)))");
  // p1's optional d-subtree stores b; p2 asks any descendant b optionally.
  EXPECT_TRUE(Contained("a(//c{id}(?/d(/b{id} /e)))",
                        "a(//*{id}(?//b{id}))", *s));
  EXPECT_FALSE(Contained("a(//*{id}(?//b{id}))",
                         "a(//c{id}(?/d(/b{id} /e)))", *s));
}

TEST(Containment, OptionalVsRequiredDiffer) {
  std::unique_ptr<Summary> s = Sum("a(c(b))");
  // Optional produces ⊥ rows that the required pattern cannot produce...
  // unless the summary's strong edges forbid the ⊥ (not the case here).
  EXPECT_FALSE(Contained("a(/c{id}(?/b{id}))", "a(/c{id}(/b{id}))", *s));
  EXPECT_TRUE(Contained("a(/c{id}(/b{id}))", "a(/c{id}(?/b{id}))", *s));
}

TEST(Containment, StrongEdgeCollapsesOptionalToRequired) {
  // With a/c/b strong, every c has a b: the ⊥ variant is impossible and the
  // two patterns coincide.
  std::unique_ptr<Summary> s = Sum("a(c(b!))");
  EXPECT_TRUE(Contained("a(/c{id}(?/b{id}))", "a(/c{id}(/b{id}))", *s));
  EXPECT_TRUE(Contained("a(/c{id}(/b{id}))", "a(/c{id}(?/b{id}))", *s));
}

// ---- Attribute patterns (Prop 4.1) ----

TEST(Containment, AttributeAnnotationMustMatch) {
  std::unique_ptr<Summary> s = Sum("a(b)");
  EXPECT_FALSE(Contained("a(/b{id,v})", "a(/b{id})", *s));
  EXPECT_FALSE(Contained("a(/b{id})", "a(/b{id,v})", *s));
  EXPECT_TRUE(Contained("a(/b{id,v})", "a(//b{id,v})", *s));
  EXPECT_FALSE(Contained("a(/b{c})", "a(/b{l})", *s));
}

// ---- Nested edges (Prop 4.2) ----

TEST(Containment, NestingDepthMustMatch) {
  std::unique_ptr<Summary> s = Sum("a(b(c))");
  EXPECT_FALSE(Contained("a(n/b(/c{id}))", "a(/b(/c{id}))", *s));
  EXPECT_FALSE(Contained("a(/b(/c{id}))", "a(n/b(/c{id}))", *s));
  EXPECT_TRUE(Contained("a(n/b(/c{id}))", "a(n/b(/c{id}))", *s));
}

TEST(Containment, NestingAnchorsMustAgree) {
  // p nests c under b (anchor path /a/b); q nests under a (anchor /a):
  // different anchors, not contained.
  std::unique_ptr<Summary> s = Sum("a(b(c))");
  EXPECT_FALSE(Contained("a(/b(n/c{id}))", "a(n/b(/c{id}))", *s));
}

TEST(Containment, OneToOneRelaxationOnNestingAnchor) {
  // a->b is one-to-one: nesting under a equals nesting under b (§4.5).
  std::unique_ptr<Summary> s = Sum("a(b!!(c))");
  EXPECT_TRUE(Contained("a(/b(n/c{id}))", "a(n/b(/c{id}))", *s));
  ContainmentOptions opts;
  opts.use_one_to_one_relaxation = false;
  EXPECT_FALSE(Contained("a(/b(n/c{id}))", "a(n/b(/c{id}))", *s, opts));
}

TEST(Containment, NonOneToOneAnchorNotRelaxed) {
  std::unique_ptr<Summary> s = Sum("a(b!(c))");  // strong but not one-to-one
  EXPECT_FALSE(Contained("a(/b(n/c{id}))", "a(n/b(/c{id}))", *s));
}

// ---- Equivalence & union-in-union ----

TEST(Containment, Equivalence) {
  std::unique_ptr<Summary> s = Sum("r(a(b))");
  Result<bool> eq = AreEquivalent(MustParsePattern("r(//b{id})"),
                                  MustParsePattern("r(/a(/b{id}))"), *s);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(Containment, UnionInUnion) {
  std::unique_ptr<Summary> s = Sum("a(b d(b))");
  Pattern p1 = MustParsePattern("a(/b{id})");
  Pattern p2 = MustParsePattern("a(/d(/b{id}))");
  Pattern q = MustParsePattern("a(//b{id})");
  // p1 ∪ p2 ⊆S q: each side member is contained in the other union.
  for (const Pattern* p : {&p1, &p2}) {
    Result<bool> r = IsContainedInUnion(*p, {&q}, *s);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r);
  }
  // q ⊆S p1 ∪ p2.
  Result<bool> r2 = IsContainedInUnion(q, {&p1, &p2}, *s);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
}

// Parameterized sweep: containment decision is consistent with evaluation
// over the canonical trees themselves (soundness spot-check).
class ContainmentSweep : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentSweep, ReflexiveAndTransitiveChains) {
  std::unique_ptr<Summary> s = Sum("a(b(c(d)) e(b(c)))");
  const std::vector<std::string> chain = {
      "a(//d{id})",
      "a(//c(/d{id}))",
      "a(/b(/c(/d{id})))",
  };
  int i = GetParam() % static_cast<int>(chain.size());
  // Every member is contained in itself and in looser members.
  EXPECT_TRUE(Contained(chain[static_cast<size_t>(i)],
                        chain[static_cast<size_t>(i)], *s));
  for (int j = 0; j <= i; ++j) {
    EXPECT_TRUE(Contained(chain[static_cast<size_t>(i)],
                          chain[static_cast<size_t>(j)], *s))
        << chain[static_cast<size_t>(i)] << " vs "
        << chain[static_cast<size_t>(j)];
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContainmentSweep, ::testing::Range(0, 3));

}  // namespace
}  // namespace svx
