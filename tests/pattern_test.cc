#include "src/pattern/pattern.h"

#include <gtest/gtest.h>

#include "src/pattern/pattern_parser.h"
#include "src/pattern/pattern_printer.h"

namespace svx {
namespace {

TEST(PatternParser, SimpleChain) {
  Pattern p = MustParsePattern("a(/b(//c))");
  ASSERT_EQ(p.size(), 3);
  EXPECT_EQ(p.node(0).label, "a");
  EXPECT_EQ(p.node(1).label, "b");
  EXPECT_EQ(p.node(1).axis, Axis::kChild);
  EXPECT_EQ(p.node(2).label, "c");
  EXPECT_EQ(p.node(2).axis, Axis::kDescendant);
  EXPECT_EQ(p.node(2).parent, 1);
}

TEST(PatternParser, AttributesAndReturnNodes) {
  Pattern p = MustParsePattern("a(//b{id,v} /c{c}(/d{l}))");
  std::vector<PatternNodeId> rets = p.ReturnNodes();
  ASSERT_EQ(rets.size(), 3u);
  EXPECT_EQ(p.node(rets[0]).label, "b");
  EXPECT_EQ(p.node(rets[0]).attrs, kAttrId | kAttrValue);
  EXPECT_EQ(p.node(rets[1]).attrs, kAttrContent);
  EXPECT_EQ(p.node(rets[2]).attrs, kAttrLabel);
  EXPECT_EQ(p.Arity(), 3);
}

TEST(PatternParser, PredicatesParsed) {
  Pattern p = MustParsePattern("a(/b{id}[v>2&v<9])");
  EXPECT_TRUE(p.node(1).pred.Contains(5));
  EXPECT_FALSE(p.node(1).pred.Contains(9));
  EXPECT_TRUE(p.HasPredicates());
}

TEST(PatternParser, OptionalAndNestedFlags) {
  Pattern p = MustParsePattern("a(?//b{id} n/c{v} ?n//d{c})");
  EXPECT_TRUE(p.node(1).optional);
  EXPECT_FALSE(p.node(1).nested);
  EXPECT_FALSE(p.node(2).optional);
  EXPECT_TRUE(p.node(2).nested);
  EXPECT_TRUE(p.node(3).optional);
  EXPECT_TRUE(p.node(3).nested);
  EXPECT_TRUE(p.HasOptionalEdges());
  EXPECT_TRUE(p.HasNestedEdges());
  EXPECT_EQ(p.OptionalEdges(), (std::vector<PatternNodeId>{1, 3}));
}

TEST(PatternParser, WildcardLabel) {
  Pattern p = MustParsePattern("a(//*{id})");
  EXPECT_TRUE(p.node(1).IsWildcard());
}

TEST(PatternParser, LabelNamedNNotConfusedWithNestedFlag) {
  // "n" as an element name parses; "n/" at edge position is the flag.
  Pattern p = MustParsePattern("n(/n(n/n))");
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.node(2).label, "n");
  EXPECT_TRUE(p.node(2).nested);
}

TEST(PatternParser, Errors) {
  EXPECT_FALSE(ParsePattern("").ok());
  EXPECT_FALSE(ParsePattern("a(b)").ok());      // missing axis
  EXPECT_FALSE(ParsePattern("a(/b").ok());      // missing paren
  EXPECT_FALSE(ParsePattern("a()").ok());       // empty children
  EXPECT_FALSE(ParsePattern("a{zz}").ok());     // unknown attribute
  EXPECT_FALSE(ParsePattern("a[x>2]").ok());    // bad predicate
  EXPECT_FALSE(ParsePattern("?/a").ok());       // root has no edge
  EXPECT_FALSE(ParsePattern("a(/b) junk").ok());
}

TEST(PatternPrinter, RoundTrip) {
  const char* cases[] = {
      "a",
      "a(/b //c)",
      "site(//item{id}(/name{v} ?n//listitem{c}))",
      "a(//b{id,v}[v=3] /c{l,c})",
      "a(//*{id}(?/d[v<5|v>9]))",
  };
  for (const char* c : cases) {
    Pattern p = MustParsePattern(c);
    EXPECT_EQ(PatternToString(p), c);
    // Re-parse the printed form: must be identical again.
    Pattern p2 = MustParsePattern(PatternToString(p));
    EXPECT_EQ(PatternToString(p2), c);
  }
}

TEST(Pattern, NestingDepthAndAncestors) {
  Pattern p = MustParsePattern("a(n/b(/c(n//d{id})))");
  PatternNodeId d = 3;
  EXPECT_EQ(p.NestingDepth(d), 2);
  std::vector<PatternNodeId> anc = p.NestingAncestors(d);
  ASSERT_EQ(anc.size(), 2u);
  EXPECT_EQ(p.node(anc[0]).label, "b");
  EXPECT_EQ(p.node(anc[1]).label, "d");
  EXPECT_EQ(p.NestingDepth(0), 0);
}

TEST(Pattern, StrictClearsOptional) {
  Pattern p = MustParsePattern("a(?//b{id}(?/c))");
  Pattern s = p.Strict();
  EXPECT_FALSE(s.HasOptionalEdges());
  EXPECT_TRUE(p.HasOptionalEdges());  // original untouched
}

TEST(Pattern, EraseSubtrees) {
  Pattern p = MustParsePattern("a(/b(/c /d) //e)");
  std::vector<PatternNodeId> old_to_new;
  Pattern q = p.EraseSubtrees({1}, &old_to_new);
  EXPECT_EQ(q.size(), 2);
  EXPECT_EQ(q.node(1).label, "e");
  EXPECT_EQ(old_to_new[0], 0);
  EXPECT_EQ(old_to_new[1], -1);
  EXPECT_EQ(old_to_new[2], -1);
  EXPECT_EQ(old_to_new[4], 1);
}

TEST(Pattern, SubtreeNodesPreorder) {
  Pattern p = MustParsePattern("a(/b(/c /d) //e)");
  EXPECT_EQ(p.SubtreeNodes(1), (std::vector<PatternNodeId>{1, 2, 3}));
  EXPECT_EQ(p.SubtreeNodes(0), (std::vector<PatternNodeId>{0, 1, 2, 3, 4}));
}

TEST(Pattern, IsAncestorOrSelf) {
  Pattern p = MustParsePattern("a(/b(/c) /d)");
  EXPECT_TRUE(p.IsAncestorOrSelf(0, 2));
  EXPECT_TRUE(p.IsAncestorOrSelf(1, 2));
  EXPECT_TRUE(p.IsAncestorOrSelf(2, 2));
  EXPECT_FALSE(p.IsAncestorOrSelf(3, 2));
  EXPECT_FALSE(p.IsAncestorOrSelf(2, 1));
}

TEST(Pattern, ReturnNodesInPreorder) {
  // Construction order differs from preorder; ReturnNodes must follow
  // preorder (document order of the pattern).
  Pattern p;
  PatternNodeId r = p.SetRoot("a");
  PatternNodeId b = p.AddChild(r, "b", Axis::kChild);
  PatternNodeId e = p.AddChild(r, "e", Axis::kChild, kAttrId);
  PatternNodeId c = p.AddChild(b, "c", Axis::kChild, kAttrValue);
  (void)e;
  std::vector<PatternNodeId> rets = p.ReturnNodes();
  ASSERT_EQ(rets.size(), 2u);
  EXPECT_EQ(rets[0], c);  // c precedes e in preorder
  EXPECT_EQ(rets[1], e);
}

}  // namespace
}  // namespace svx
