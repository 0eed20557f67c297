#include "src/rewriting/view.h"

#include <gtest/gtest.h>

#include "src/pattern/pattern_parser.h"
#include "src/xml/builder.h"

namespace svx {
namespace {

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ViewSchema, ColumnsFollowPatternPreorder) {
  Pattern p = MustParsePattern("a(//b{id,v} /c{l}(/d{c}))");
  Schema s = ViewSchema(p, "V");
  EXPECT_EQ(s.ToString(),
            "V.n1.id:id, V.n1.v:v, V.n2.l:l, V.n3.c:c");
}

TEST(ViewSchema, NestedEdgeCollapsesToOneColumn) {
  Pattern p = MustParsePattern("a(//b{id}(n//c{v,c}))");
  Schema s = ViewSchema(p, "V");
  ASSERT_EQ(s.size(), 2);
  EXPECT_EQ(s.column(0).name, "V.n1.id");
  EXPECT_EQ(s.column(1).name, "V.n2.g");
  EXPECT_EQ(s.column(1).kind, ColumnKind::kNested);
  EXPECT_EQ(s.column(1).nested->ToString(), "V.n2.v:v, V.n2.c:c");
}

TEST(MaterializeView, SimpleExtent) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=2 c)");
  Pattern p = MustParsePattern("a(/b{id,v})");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 2);
  EXPECT_EQ(t.row(0)[0].AsId().ToString(), "1.1");
  EXPECT_EQ(t.row(0)[1].AsString(), "1");
  EXPECT_EQ(t.row(1)[1].AsString(), "2");
}

TEST(MaterializeView, ValueColumnNullWhenNodeHasNoValue) {
  std::unique_ptr<Document> d = Doc("a(b)");
  Pattern p = MustParsePattern("a(/b{v})");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 1);
  EXPECT_TRUE(t.row(0)[0].IsNull());
}

TEST(MaterializeView, OptionalEdgeNullPadding) {
  // Paper Figure 1 / §4.3: a tuple is produced even when the optional
  // subtree has no match, with ⊥.
  std::unique_ptr<Document> d = Doc("a(i(x=1) i)");
  Pattern p = MustParsePattern("a(/i{id}(?/x{v}))");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 2);
  EXPECT_EQ(t.row(0)[1].AsString(), "1");
  EXPECT_TRUE(t.row(1)[1].IsNull());
}

TEST(MaterializeView, NestedEdgeGroupsBindings) {
  // Figure 12: data from all matches appears as a grouped table inside the
  // single tuple of the ancestor.
  std::unique_ptr<Document> d = Doc("a(i(k=1 k=2) i(k=3) i)");
  Pattern p = MustParsePattern("a(/i{id}(n/k{v}))");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 3);
  EXPECT_EQ(t.row(0)[1].AsTable().NumRows(), 2);
  EXPECT_EQ(t.row(1)[1].AsTable().NumRows(), 1);
  EXPECT_EQ(t.row(2)[1].AsTable().NumRows(), 0);  // empty table, row kept
}

TEST(MaterializeView, ContentColumnReferencesDocument) {
  std::unique_ptr<Document> d = Doc("a(b(x=1))");
  Pattern p = MustParsePattern("a(/b{c})");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 1);
  const NodeRef& ref = t.row(0)[0].AsContent();
  EXPECT_EQ(ref.id.ToString(), "1.1");
  EXPECT_EQ(d->label(d->FindByOrdPath(ref.id)), "b");
}

TEST(MaterializeView, LabelColumnForWildcard) {
  std::unique_ptr<Document> d = Doc("a(b c)");
  Pattern p = MustParsePattern("a(/*{l})");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 2);
  EXPECT_EQ(t.row(0)[0].AsString(), "b");
  EXPECT_EQ(t.row(1)[0].AsString(), "c");
}

TEST(MaterializeView, PredicateFilters) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=5)");
  Pattern p = MustParsePattern("a(/b{id}[v>3])");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 1);
  EXPECT_EQ(t.row(0)[0].AsId().ToString(), "1.2");
}

TEST(MaterializeView, PaperFigure1V1Shape) {
  // The intro example: V1 stores item IDs, the content of their optional
  // listitem descendants (nested), and an optional bold value.
  std::unique_ptr<Document> d = Doc(
      "site(regions(asia("
      "item(description(parlist(listitem(keyword=Columbus) "
      "listitem(bold=gold)))) "
      "item(description(parlist(listitem(text=plain)))) "
      "item(name=x))))");
  Pattern v1 = MustParsePattern(
      "site(//regions(//*{id}(/description(/parlist("
      "?n/listitem{c} ?//bold{v})))))");
  Table t = MaterializeView(v1, "V1", *d);
  // Three items: two with parlists, one without (no description/parlist ->
  // no row for it, since only the listitem/bold parts are optional).
  EXPECT_EQ(t.NumRows(), 2);
}

TEST(MaterializeView, RootOnlyPattern) {
  std::unique_ptr<Document> d = Doc("a(b)");
  Pattern p = MustParsePattern("a{id}");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 1);
  EXPECT_EQ(t.row(0)[0].AsId().ToString(), "1");
}

TEST(MaterializeView, NoMatchEmptyExtent) {
  std::unique_ptr<Document> d = Doc("a(b)");
  Pattern p = MustParsePattern("a(/z{id})");
  Table t = MaterializeView(p, "V", *d);
  EXPECT_EQ(t.NumRows(), 0);
}

TEST(MaterializeAll, MultipleViews) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  std::vector<ViewDef> defs;
  defs.push_back({"V1", MustParsePattern("a(/b{v})")});
  defs.push_back({"V2", MustParsePattern("a(/c{v})")});
  std::vector<MaterializedView> views = MaterializeAll(defs, *d);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].extent.NumRows(), 1);
  EXPECT_EQ(views[1].extent.NumRows(), 1);
}

}  // namespace
}  // namespace svx
