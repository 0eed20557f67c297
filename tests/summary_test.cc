#include "src/summary/summary.h"

#include <gtest/gtest.h>

#include "src/summary/summary_builder.h"
#include "src/summary/summary_io.h"
#include "src/xml/builder.h"

namespace svx {
namespace {

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(SummaryBuilder, MergesSamePathNodes) {
  // Figure 3 spirit: all nodes reachable by one path map to one summary node.
  std::unique_ptr<Document> d = Doc("a(b b b c(d) c(d d))");
  std::unique_ptr<Summary> s = SummaryBuilder::Build(d.get());
  // Paths: /a, /a/b, /a/c, /a/c/d.
  EXPECT_EQ(s->size(), 4);
  EXPECT_EQ(s->label(0), "a");
  EXPECT_EQ(s->Resolve("/a/b"), 1);
  EXPECT_EQ(s->Resolve("/a/c"), 2);
  EXPECT_EQ(s->Resolve("/a/c/d"), 3);
}

TEST(SummaryBuilder, SameLabelDifferentPathsStayDistinct) {
  // b occurs under /a and under /a/c: two summary nodes.
  std::unique_ptr<Document> d = Doc("a(b c(b))");
  std::unique_ptr<Summary> s = SummaryBuilder::Build(d.get());
  EXPECT_EQ(s->size(), 4);
  EXPECT_NE(s->Resolve("/a/b"), s->Resolve("/a/c/b"));
}

TEST(SummaryBuilder, StrongEdges) {
  // Every c has a d child -> strong; only some b have e -> not strong.
  std::unique_ptr<Document> d = Doc("a(c(d) c(d d) b(e) b)");
  std::unique_ptr<Summary> s = SummaryBuilder::Build(d.get());
  EXPECT_TRUE(s->strong_edge(s->Resolve("/a/c/d")));
  EXPECT_FALSE(s->strong_edge(s->Resolve("/a/b/e")));
  // The document root's children: a has exactly one... c appears twice, so
  // /a/c is strong iff every a node (just one) has >= 1 c child.
  EXPECT_TRUE(s->strong_edge(s->Resolve("/a/c")));
}

TEST(SummaryBuilder, OneToOneEdges) {
  std::unique_ptr<Document> d = Doc("a(c(d) c(d d) b(e) b(e))");
  std::unique_ptr<Summary> s = SummaryBuilder::Build(d.get());
  // Every c has >= 1 d, but one c has two -> strong, not one-to-one.
  EXPECT_TRUE(s->strong_edge(s->Resolve("/a/c/d")));
  EXPECT_FALSE(s->one_to_one(s->Resolve("/a/c/d")));
  // Every b has exactly one e -> one-to-one.
  EXPECT_TRUE(s->one_to_one(s->Resolve("/a/b/e")));
  EXPECT_EQ(s->num_strong_edges(), 4);  // c, c/d, b, b/e
  EXPECT_EQ(s->num_one_to_one_edges(), 1);
}

TEST(Summary, AncestorAndChainQueries) {
  std::unique_ptr<Document> d = Doc("a(b(c(d)) e)");
  std::unique_ptr<Summary> s = SummaryBuilder::Build(d.get());
  PathId a = s->Resolve("/a");
  PathId c = s->Resolve("/a/b/c");
  PathId dd = s->Resolve("/a/b/c/d");
  PathId e = s->Resolve("/a/e");
  EXPECT_TRUE(s->IsAncestor(a, dd));
  EXPECT_FALSE(s->IsAncestor(dd, a));
  EXPECT_FALSE(s->IsAncestor(c, e));
  EXPECT_TRUE(s->IsAncestorOrSelf(c, c));
  std::vector<PathId> chain = s->Chain(a, dd);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain.front(), a);
  EXPECT_EQ(chain.back(), dd);
  EXPECT_EQ(s->PathString(dd), "/a/b/c/d");
}

TEST(Summary, DescendantsPreorder) {
  std::unique_ptr<Document> d = Doc("a(b(c) e)");
  std::unique_ptr<Summary> s = SummaryBuilder::Build(d.get());
  std::vector<PathId> desc = s->Descendants(s->root());
  EXPECT_EQ(desc.size(), 3u);
  EXPECT_EQ(s->PathString(desc[0]), "/a/b");
  EXPECT_EQ(s->PathString(desc[1]), "/a/b/c");
  EXPECT_EQ(s->PathString(desc[2]), "/a/e");
}

TEST(SummaryIo, ParseAndPrint) {
  Result<std::unique_ptr<Summary>> s = ParseSummary("a(b!(c(d b!) e) f!!)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ((*s)->size(), 7);
  EXPECT_TRUE((*s)->strong_edge((*s)->Resolve("/a/b")));
  EXPECT_TRUE((*s)->strong_edge((*s)->Resolve("/a/b/c/b")));
  EXPECT_FALSE((*s)->strong_edge((*s)->Resolve("/a/b/e")));
  EXPECT_TRUE((*s)->one_to_one((*s)->Resolve("/a/f")));
  EXPECT_TRUE((*s)->strong_edge((*s)->Resolve("/a/f")) ||
              (*s)->one_to_one((*s)->Resolve("/a/f")));
  EXPECT_EQ(SummaryToString(**s), "a(b!(c(d b!) e) f!!)");
}

TEST(SummaryIo, RejectsDuplicatesAndBadRoot) {
  EXPECT_FALSE(ParseSummary("a(b b)").ok());
  EXPECT_FALSE(ParseSummary("a!").ok());
  EXPECT_FALSE(ParseSummary("").ok());
  EXPECT_FALSE(ParseSummary("a(b").ok());
}

TEST(Conformance, ExactConformance) {
  std::unique_ptr<Document> d = Doc("a(b(e) b(e) c)");
  std::unique_ptr<Summary> s = SummaryBuilder::Build(d.get());
  EXPECT_TRUE(Conforms(*d, *s));
  // A different doc with same paths but weaker constraints does not conform
  // exactly (b without e breaks the strong edge).
  std::unique_ptr<Document> d2 = Doc("a(b(e) b c)");
  EXPECT_FALSE(Conforms(*d2, *s));
  // Missing path.
  std::unique_ptr<Document> d3 = Doc("a(b(e) b(e))");
  EXPECT_FALSE(Conforms(*d3, *s));
  // Extra path.
  std::unique_ptr<Document> d4 = Doc("a(b(e) b(e) c(x))");
  EXPECT_FALSE(Conforms(*d4, *s));
}

TEST(Conformance, WeakConformance) {
  // /a/b and /a/c are strong (the root has both); /a/b/e is not strong
  // (one b lacks e).
  std::unique_ptr<Document> d = Doc("a(b(e) b c)");
  std::unique_ptr<Summary> s = SummaryBuilder::Build(d.get());
  // Sub-documents weakly conform if paths exist and strong edges hold;
  // dropping the non-strong e is fine.
  std::unique_ptr<Document> sub = Doc("a(b c)");
  EXPECT_TRUE(WeaklyConforms(*sub, *s));
  // Missing the strong c child: violates.
  std::unique_ptr<Document> bad = Doc("a(b)");
  EXPECT_FALSE(WeaklyConforms(*bad, *s));
  // Unknown path: violates.
  std::unique_ptr<Document> unknown = Doc("a(z)");
  EXPECT_FALSE(WeaklyConforms(*unknown, *s));
}

TEST(Summary, StructurallyEquals) {
  // Same paths, same constraint flags, different instance counts.
  std::unique_ptr<Document> d1 = Doc("a(b b c c)");
  std::unique_ptr<Document> d2 = Doc("a(b b b c c)");
  std::unique_ptr<Summary> s1 = SummaryBuilder::Build(d1.get());
  std::unique_ptr<Summary> s2 = SummaryBuilder::Build(d2.get());
  EXPECT_TRUE(s1->StructurallyEquals(*s2));
  // Different paths.
  std::unique_ptr<Document> d3 = Doc("a(b b c c d)");
  std::unique_ptr<Summary> s3 = SummaryBuilder::Build(d3.get());
  EXPECT_FALSE(s1->StructurallyEquals(*s3));
  // Same paths, different flags (here /a/b becomes one-to-one).
  std::unique_ptr<Document> d4 = Doc("a(b c c)");
  std::unique_ptr<Summary> s4 = SummaryBuilder::Build(d4.get());
  EXPECT_FALSE(s1->StructurallyEquals(*s4));
}

TEST(Summary, StructureKeyIgnoresNumberingButNotFlags) {
  std::unique_ptr<Document> d1 = Doc("a(b(x y) c(z))");
  std::unique_ptr<Summary> s1 = SummaryBuilder::Build(d1.get());
  // The same labeled tree met in another order: numbered differently.
  std::unique_ptr<Document> d2 = Doc("a(c(z) b(y x))");
  std::unique_ptr<Summary> s2 = SummaryBuilder::Build(d2.get());
  EXPECT_FALSE(s1->StructurallyEquals(*s2));
  EXPECT_EQ(s1->StructureKey(), s2->StructureKey());
  // Same paths, but /a/b is no longer one-to-one.
  std::unique_ptr<Document> d3 = Doc("a(b(x y) b(x y) c(z))");
  std::unique_ptr<Summary> s3 = SummaryBuilder::Build(d3.get());
  EXPECT_NE(s1->StructureKey(), s3->StructureKey());
  // A label moved to another parent.
  std::unique_ptr<Document> d4 = Doc("a(b(x) c(y z))");
  std::unique_ptr<Summary> s4 = SummaryBuilder::Build(d4.get());
  EXPECT_NE(s1->StructureKey(), s4->StructureKey());
}

TEST(Summary, ResolveEdgeCases) {
  Result<std::unique_ptr<Summary>> s = ParseSummary("a(b(c))");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->Resolve("/a/b/c"), 2);
  EXPECT_EQ((*s)->Resolve("/x"), kInvalidPath);
  EXPECT_EQ((*s)->Resolve("/a/z"), kInvalidPath);
  EXPECT_EQ((*s)->Resolve(""), kInvalidPath);
  EXPECT_EQ((*s)->Resolve("a/b"), 1);  // leading slash optional
}

}  // namespace
}  // namespace svx
