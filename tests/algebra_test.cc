#include <gtest/gtest.h>

#include "src/algebra/executor.h"
#include "src/algebra/plan_printer.h"
#include "src/algebra/relation.h"
#include "src/algebra/value.h"
#include "src/xml/builder.h"

namespace svx {
namespace {

Schema IdValueSchema(const std::string& prefix) {
  Schema s;
  s.Append({prefix + ".id", ColumnKind::kId, nullptr});
  s.Append({prefix + ".v", ColumnKind::kValue, nullptr});
  return s;
}

Tuple Row(const std::string& id, const std::string& v) {
  Tuple t;
  t.emplace_back(OrdPath::FromString(id));
  if (v.empty()) {
    t.emplace_back();
  } else {
    t.emplace_back(v);
  }
  return t;
}

TEST(Value, BasicsAndEquality) {
  Value null;
  EXPECT_TRUE(null.IsNull());
  EXPECT_EQ(null.ToString(), "⊥");
  Value s{std::string("x")};
  EXPECT_TRUE(s.IsString());
  EXPECT_EQ(s, Value{std::string("x")});
  EXPECT_NE(s, Value{std::string("y")});
  EXPECT_NE(s, null);
  Value id{OrdPath::FromString("1.2")};
  EXPECT_TRUE(id.IsId());
  EXPECT_EQ(id.ToString(), "1.2");
  EXPECT_EQ(id.Hash(), Value{OrdPath::FromString("1.2")}.Hash());
}

TEST(Value, ContentIsItsNodesOrdPath) {
  // Content cells built apart (say, by two shards or two document versions)
  // are one value when they name the same node.
  Value a{NodeRef{OrdPath::FromString("1.3.2")}};
  Value b{NodeRef{OrdPath::FromString("1.3.2")}};
  EXPECT_TRUE(a.IsContent());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(CompareValues(a, b), 0);
  EXPECT_NE(a, Value{NodeRef{OrdPath::FromString("1.3.3")}});
  EXPECT_NE(a, Value{OrdPath::FromString("1.3.2")});  // an id is not content
  EXPECT_EQ(a.ToString(), "content(1.3.2)");

  Schema s;
  s.Append({"c", ColumnKind::kContent, nullptr});
  Table t(s);
  t.AddRow({a});
  t.AddRow({Value{NodeRef{OrdPath::FromString("1.1")}}});
  t.AddRow({b});
  t.Deduplicate();
  EXPECT_EQ(t.NumRows(), 2);
}

TEST(Value, NestedTableEquality) {
  auto t1 = std::make_shared<Table>(IdValueSchema("a"));
  t1->AddRow(Row("1.1", "x"));
  t1->AddRow(Row("1.2", "y"));
  auto t2 = std::make_shared<Table>(IdValueSchema("a"));
  t2->AddRow(Row("1.2", "y"));
  t2->AddRow(Row("1.1", "x"));
  EXPECT_EQ(Value{TablePtr(t1)}, Value{TablePtr(t2)});  // order-insensitive
  EXPECT_EQ(Value{TablePtr(t1)}.Hash(), Value{TablePtr(t2)}.Hash());
  auto t3 = std::make_shared<Table>(IdValueSchema("a"));
  t3->AddRow(Row("1.1", "x"));
  EXPECT_NE(Value{TablePtr(t1)}, Value{TablePtr(t3)});
}

TEST(Table, DeduplicateAndSort) {
  Table t(IdValueSchema("a"));
  t.AddRow(Row("1.2", "x"));
  t.AddRow(Row("1.1", "y"));
  t.AddRow(Row("1.2", "x"));
  t.Deduplicate();
  EXPECT_EQ(t.NumRows(), 2);
  t.SortRowsCanonical();
  EXPECT_EQ(t.row(0)[0].AsId().ToString(), "1.1");
}

TEST(Schema, FindAndToString) {
  Schema s = IdValueSchema("v1.n2");
  EXPECT_EQ(s.Find("v1.n2.id"), 0);
  EXPECT_EQ(s.Find("v1.n2.v"), 1);
  EXPECT_EQ(s.Find("missing"), -1);
  EXPECT_EQ(s.ToString(), "v1.n2.id:id, v1.n2.v:v");
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : items_(IdValueSchema("i")), names_(IdValueSchema("n")) {
    // items: element ids 1.1, 1.2, 1.3 with values.
    items_.AddRow(Row("1.1", "10"));
    items_.AddRow(Row("1.2", "20"));
    items_.AddRow(Row("1.3", ""));
    // names: children of the items.
    names_.AddRow(Row("1.1.1", "pen"));
    names_.AddRow(Row("1.2.4", "ink"));
    names_.AddRow(Row("1.2.5.1", "deep"));
    catalog_.Register("items", &items_);
    catalog_.Register("names", &names_);
  }

  Table Run(const PlanNode& plan) {
    Result<Table> r = Execute(plan, catalog_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(*r);
  }

  Table items_;
  Table names_;
  Catalog catalog_;
};

TEST_F(ExecutorTest, ViewScan) {
  PlanPtr p = MakeViewScan("items", items_.schema());
  Table t = Run(*p);
  EXPECT_EQ(t.NumRows(), 3);
  PlanPtr missing = MakeViewScan("nope", items_.schema());
  EXPECT_FALSE(Execute(*missing, catalog_).ok());
}

TEST_F(ExecutorTest, ResolverServesUnregisteredNames) {
  // Registered names win; every other name goes to the resolver, whose
  // NotFound reaches the caller.
  Catalog resolving([this](const std::string& name) -> Result<TablePtr> {
    if (name == "items") return TablePtr(TablePtr(), &items_);
    return Status::NotFound("no view " + name);
  });
  resolving.Register("names", &names_);
  Result<Table> items =
      Execute(*MakeViewScan("items", items_.schema()), resolving);
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  EXPECT_EQ(items->NumRows(), 3);
  Result<Table> names =
      Execute(*MakeViewScan("names", names_.schema()), resolving);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  EXPECT_EQ(names->NumRows(), 3);
  Result<Table> missing =
      Execute(*MakeViewScan("nope", items_.schema()), resolving);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, IdEqJoin) {
  Table other(IdValueSchema("o"));
  other.AddRow(Row("1.2", "twenty"));
  other.AddRow(Row("1.9", "none"));
  catalog_.Register("other", &other);
  PlanPtr p = MakeIdEqJoin(MakeViewScan("items", items_.schema()),
                           MakeViewScan("other", other.schema()), 0, 0);
  Table t = Run(*p);
  ASSERT_EQ(t.NumRows(), 1);
  EXPECT_EQ(t.row(0)[1].AsString(), "20");
  EXPECT_EQ(t.row(0)[3].AsString(), "twenty");
}

TEST_F(ExecutorTest, IdEqJoinNullNeverMatches) {
  Table withnull(IdValueSchema("w"));
  Tuple r;
  r.emplace_back();  // null id
  r.emplace_back(std::string("x"));
  withnull.AddRow(std::move(r));
  catalog_.Register("withnull", &withnull);
  PlanPtr p = MakeIdEqJoin(MakeViewScan("withnull", withnull.schema()),
                           MakeViewScan("withnull", withnull.schema()), 0, 0);
  EXPECT_EQ(Run(*p).NumRows(), 0);
}

TEST_F(ExecutorTest, StructJoinParent) {
  PlanPtr p = MakeStructJoin(MakeViewScan("items", items_.schema()),
                             MakeViewScan("names", names_.schema()), 0, 0,
                             StructAxis::kParent);
  Table t = Run(*p);
  // 1.1 ≺ 1.1.1 and 1.2 ≺ 1.2.4 (1.2.5.1 is a grandchild).
  ASSERT_EQ(t.NumRows(), 2);
}

TEST_F(ExecutorTest, StructJoinAncestor) {
  PlanPtr p = MakeStructJoin(MakeViewScan("items", items_.schema()),
                             MakeViewScan("names", names_.schema()), 0, 0,
                             StructAxis::kAncestor);
  Table t = Run(*p);
  EXPECT_EQ(t.NumRows(), 3);  // 1.2 ≺≺ 1.2.5.1 joins too
}

TEST_F(ExecutorTest, Selections) {
  PlanPtr nn = MakeSelectNonNull(MakeViewScan("items", items_.schema()), 1);
  EXPECT_EQ(Run(*nn).NumRows(), 2);
  PlanPtr pred = MakeSelectValue(MakeViewScan("items", items_.schema()), 1,
                                 Predicate::Gt(15));
  EXPECT_EQ(Run(*pred).NumRows(), 1);
}

TEST_F(ExecutorTest, SelectLabel) {
  Schema ls;
  ls.Append({"x.l", ColumnKind::kLabel, nullptr});
  Table labels(ls);
  labels.AddRow({Value{std::string("item")}});
  labels.AddRow({Value{std::string("name")}});
  catalog_.Register("labels", &labels);
  PlanPtr p = MakeSelectLabel(MakeViewScan("labels", ls), 0, "item");
  EXPECT_EQ(Run(*p).NumRows(), 1);
}

TEST_F(ExecutorTest, ProjectDeduplicates) {
  Table dup(IdValueSchema("d"));
  dup.AddRow(Row("1.1", "x"));
  dup.AddRow(Row("1.2", "x"));
  catalog_.Register("dup", &dup);
  PlanPtr p = MakeProject(MakeViewScan("dup", dup.schema()), {1});
  Table t = Run(*p);
  EXPECT_EQ(t.NumRows(), 1);
  EXPECT_EQ(t.schema().size(), 1);
}

TEST_F(ExecutorTest, UnionDeduplicates) {
  std::vector<PlanPtr> ins;
  ins.push_back(MakeViewScan("items", items_.schema()));
  ins.push_back(MakeViewScan("items", items_.schema()));
  PlanPtr p = MakeUnion(std::move(ins));
  EXPECT_EQ(Run(*p).NumRows(), 3);
}

TEST_F(ExecutorTest, GroupByAndUnnestRoundTrip) {
  PlanPtr g = MakeGroupBy(MakeViewScan("names", names_.schema()), {1}, "grp");
  Table grouped = Run(*g);
  EXPECT_EQ(grouped.NumRows(), 3);  // distinct values pen/ink/deep
  PlanPtr g2 = MakeGroupBy(MakeViewScan("names", names_.schema()), {}, "all");
  Table one = Run(*g2);
  ASSERT_EQ(one.NumRows(), 1);
  EXPECT_EQ(one.row(0)[0].AsTable().NumRows(), 3);

  // Unnest inverts grouping.
  PlanPtr u = MakeOuterUnnest(
      MakeGroupBy(MakeViewScan("names", names_.schema()), {}, "all"), 0);
  Table back = Run(*u);
  EXPECT_TRUE(back.EqualsIgnoringOrder(names_));

  // An empty group and a ⊥ cell each unnest to one ⊥-padded row.
  Schema gs = IdValueSchema("k");
  gs.Append({"grp", ColumnKind::kNested,
             std::make_shared<Schema>(IdValueSchema("g"))});
  auto two = std::make_shared<Table>(IdValueSchema("g"));
  two->AddRow(Row("1.1.1", "a"));
  two->AddRow(Row("1.1.2", "b"));
  Table groups(gs);
  auto add_group = [&](const char* k, Value cell) {
    Tuple row = Row(k, "x");
    row.push_back(std::move(cell));
    groups.AddRow(std::move(row));
  };
  add_group("1.1", Value{TablePtr(two)});
  add_group("1.2", Value{TablePtr(std::make_shared<Table>(IdValueSchema("g")))});
  add_group("1.3", Value{});
  catalog_.Register("groups", &groups);
  Table flat = Run(*MakeOuterUnnest(MakeViewScan("groups", gs), 2));
  EXPECT_EQ(flat.schema().ToString(), "k.id:id, k.v:v, g.id:id, g.v:v");
  Table expected(flat.schema());
  auto expect_row = [&](const char* k, const char* g, const char* gv) {
    Tuple row = Row(k, "x");
    Tuple inner = *g == '\0' ? Tuple(2) : Row(g, gv);
    row.insert(row.end(), inner.begin(), inner.end());
    expected.AddRow(std::move(row));
  };
  expect_row("1.1", "1.1.1", "a");
  expect_row("1.1", "1.1.2", "b");
  expect_row("1.2", "", "");  // the empty group
  expect_row("1.3", "", "");  // the ⊥ cell
  EXPECT_TRUE(flat.EqualsIgnoringOrder(expected)) << flat.ToString();
}

TEST_F(ExecutorTest, DeriveParent) {
  PlanPtr p = MakeDeriveParent(MakeViewScan("names", names_.schema()), 0, 1,
                               "parent");
  Table t = Run(*p);
  ASSERT_EQ(t.NumRows(), 3);
  EXPECT_EQ(t.row(0)[2].AsId().ToString(), "1.1");
  // Two steps up.
  PlanPtr p2 = MakeDeriveParent(MakeViewScan("names", names_.schema()), 0, 2,
                                "gp");
  Table t2 = Run(*p2);
  EXPECT_EQ(t2.row(0)[2].AsId().ToString(), "1");
}

// ---- The operator contract: rows and their order ----

/// The rows of `t` in order, each rendered "cell | cell | ...".
std::vector<std::string> RowStrings(const Table& t) {
  std::vector<std::string> out;
  for (const Tuple& row : t.rows()) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += " | ";
      s += row[i].ToString();
    }
    out.push_back(std::move(s));
  }
  return out;
}

using Rows = std::vector<std::string>;

TEST_F(ExecutorTest, ProjectAndUnionKeepFirstOccurrences) {
  Table dup(IdValueSchema("d"));
  dup.AddRow(Row("1.3", "b"));
  dup.AddRow(Row("1.1", "a"));
  dup.AddRow(Row("1.2", "b"));
  dup.AddRow(Row("1.4", ""));
  dup.AddRow(Row("1.5", "a"));
  dup.AddRow(Row("1.6", ""));
  dup.AddRow(Row("1.7", "c"));
  catalog_.Register("dup", &dup);
  EXPECT_EQ(RowStrings(Run(*MakeProject(MakeViewScan("dup", dup.schema()),
                                        {1}))),
            (Rows{"b", "a", "⊥", "c"}));

  Table first(IdValueSchema("u"));
  first.AddRow(Row("1.2", "x"));
  first.AddRow(Row("1.1", "y"));
  first.AddRow(Row("1.2", "x"));
  Table second(IdValueSchema("u"));
  second.AddRow(Row("1.1", "y"));
  second.AddRow(Row("1.3", "z"));
  second.AddRow(Row("1.2", "x"));
  catalog_.Register("first", &first);
  catalog_.Register("second", &second);
  std::vector<PlanPtr> branches;
  branches.push_back(MakeViewScan("first", first.schema()));
  branches.push_back(MakeViewScan("second", second.schema()));
  EXPECT_EQ(RowStrings(Run(*MakeUnion(std::move(branches)))),
            (Rows{"1.2 | x", "1.1 | y", "1.3 | z"}));
}

TEST_F(ExecutorTest, AncestorJoinIsRightMajorNearestAncestorFirst) {
  Table anc(IdValueSchema("a"));
  anc.AddRow(Row("1", "a1"));
  anc.AddRow(Row("1.2", "a12"));
  anc.AddRow(Row("1.2.5", "a125"));
  anc.AddRow(Row("1.2", "b12"));  // a second left row with the same id
  Table right(IdValueSchema("r"));
  right.AddRow(Row("1.1.1", "pen"));
  right.AddRow(Row("1.2.4", "ink"));
  right.AddRow(Row("1.2.5.1", "deep"));
  right.AddRow(Row("1.2.^.1", "caret"));  // careted: a child of 1, not 1.2
  catalog_.Register("anc", &anc);
  catalog_.Register("right", &right);
  PlanPtr p = MakeStructJoin(MakeViewScan("anc", anc.schema()),
                             MakeViewScan("right", right.schema()), 0, 0,
                             StructAxis::kAncestor);
  EXPECT_EQ(RowStrings(Run(*p)), (Rows{
                                     "1 | a1 | 1.1.1 | pen",
                                     "1.2 | a12 | 1.2.4 | ink",
                                     "1.2 | b12 | 1.2.4 | ink",
                                     "1 | a1 | 1.2.4 | ink",
                                     "1.2.5 | a125 | 1.2.5.1 | deep",
                                     "1.2 | a12 | 1.2.5.1 | deep",
                                     "1.2 | b12 | 1.2.5.1 | deep",
                                     "1 | a1 | 1.2.5.1 | deep",
                                     "1 | a1 | 1.2.^.1 | caret",
                                 }));
}

TEST_F(ExecutorTest, IdJoinsNeverJoinNull) {
  Table left(IdValueSchema("l"));
  left.AddRow(Row("1.1", "y"));
  left.AddRow(Tuple{Value(), Value(std::string("x"))});
  left.AddRow(Row("1.2", "w"));
  Table right(IdValueSchema("r"));
  right.AddRow(Tuple{Value(), Value(std::string("p"))});
  right.AddRow(Row("1.1", "q"));
  right.AddRow(Row("1.1.2", "t"));
  right.AddRow(Row("1.1", "r"));
  right.AddRow(Row("1.1.1", "s"));
  catalog_.Register("left", &left);
  catalog_.Register("right", &right);
  // ⋈= is left-major: each left row with its matches in right order.
  PlanPtr eq = MakeIdEqJoin(MakeViewScan("left", left.schema()),
                            MakeViewScan("right", right.schema()), 0, 0);
  EXPECT_EQ(RowStrings(Run(*eq)),
            (Rows{"1.1 | y | 1.1 | q", "1.1 | y | 1.1 | r"}));
  PlanPtr parent = MakeStructJoin(MakeViewScan("left", left.schema()),
                                  MakeViewScan("right", right.schema()), 0,
                                  0, StructAxis::kParent);
  EXPECT_EQ(RowStrings(Run(*parent)),
            (Rows{"1.1 | y | 1.1.2 | t", "1.1 | y | 1.1.1 | s"}));
}

TEST_F(ExecutorTest, OuterUnnestPadsEmptyAndNullGroups) {
  // The nested column sits between two flat ones.
  Schema gs;
  gs.Append({"k.id", ColumnKind::kId, nullptr});
  gs.Append({"grp", ColumnKind::kNested,
             std::make_shared<Schema>(IdValueSchema("g"))});
  gs.Append({"k.v", ColumnKind::kValue, nullptr});
  auto two = std::make_shared<Table>(IdValueSchema("g"));
  two->AddRow(Row("1.1.2", "b"));
  two->AddRow(Row("1.1.1", "a"));
  Table groups(gs);
  groups.AddRow({Value(OrdPath::FromString("1.1")), Value(TablePtr(two)),
                 Value(std::string("x"))});
  groups.AddRow({Value(OrdPath::FromString("1.2")),
                 Value(TablePtr(std::make_shared<Table>(IdValueSchema("g")))),
                 Value(std::string("y"))});
  groups.AddRow({Value(OrdPath::FromString("1.3")), Value(),
                 Value(std::string("z"))});
  catalog_.Register("groups", &groups);
  Table flat = Run(*MakeOuterUnnest(MakeViewScan("groups", gs), 1));
  EXPECT_EQ(flat.schema().ToString(), "k.id:id, g.id:id, g.v:v, k.v:v");
  EXPECT_EQ(RowStrings(flat), (Rows{
                                  "1.1 | 1.1.2 | b | x",
                                  "1.1 | 1.1.1 | a | x",
                                  "1.2 | ⊥ | ⊥ | y",
                                  "1.3 | ⊥ | ⊥ | z",
                              }));
}

TEST_F(ExecutorTest, GroupByOfAllNullRestGivesAnEmptyGroup) {
  Table in(IdValueSchema("i"));
  in.AddRow(Row("1.2", ""));
  in.AddRow(Row("1.1", "a"));
  in.AddRow(Row("1.1", "b"));
  in.AddRow(Row("1.1", "a"));
  in.AddRow(Row("1.2", ""));
  catalog_.Register("in", &in);
  Table grouped = Run(*MakeGroupBy(MakeViewScan("in", in.schema()), {0}, "g"));
  EXPECT_EQ(RowStrings(grouped), (Rows{"1.2 | {}", "1.1 | {(a); (b)}"}));
}

TEST_F(ExecutorTest, DeriveParentPastTheRootIsNull) {
  Table ids(IdValueSchema("i"));
  ids.AddRow(Row("1.1.1", "x"));
  ids.AddRow(Tuple{Value(), Value(std::string("y"))});
  ids.AddRow(Row("1.2.5.1", "z"));
  ids.AddRow(Row("1.3.^.1.2", "w"));  // careted: depth 3, grandparent 1
  catalog_.Register("ids", &ids);
  Table t = Run(*MakeDeriveParent(MakeViewScan("ids", ids.schema()), 0, 3,
                                  "up3"));
  EXPECT_EQ(RowStrings(t), (Rows{"1.1.1 | x | ⊥", "⊥ | y | ⊥",
                                 "1.2.5.1 | z | 1", "1.3.^.1.2 | w | ⊥"}));
  Table t2 = Run(*MakeDeriveParent(MakeViewScan("ids", ids.schema()), 0, 2,
                                   "up2"));
  EXPECT_EQ(RowStrings(t2), (Rows{"1.1.1 | x | 1", "⊥ | y | ⊥",
                                  "1.2.5.1 | z | 1.2", "1.3.^.1.2 | w | 1"}));
}

TEST_F(ExecutorTest, EverySelectionRejectsNull) {
  Table in(IdValueSchema("i"));
  in.AddRow(Row("1.1", "item"));
  in.AddRow(Row("1.2", ""));
  in.AddRow(Row("1.3", "20"));
  in.AddRow(Row("1.4", "5"));
  catalog_.Register("in", &in);
  PlanPtr scan = MakeViewScan("in", in.schema());
  EXPECT_EQ(RowStrings(Run(*MakeSelectNonNull(scan, 1))),
            (Rows{"1.1 | item", "1.3 | 20", "1.4 | 5"}));
  EXPECT_EQ(RowStrings(Run(*MakeSelectValue(scan, 1, Predicate::Gt(15)))),
            (Rows{"1.3 | 20"}));
  EXPECT_EQ(RowStrings(Run(*MakeSelectValue(scan, 1, Predicate::Le(15)))),
            (Rows{"1.4 | 5"}));

  Schema ls;
  ls.Append({"x.id", ColumnKind::kId, nullptr});
  ls.Append({"x.l", ColumnKind::kLabel, nullptr});
  Table labels(ls);
  labels.AddRow(Row("1.1", "item"));
  labels.AddRow(Row("1.2", ""));
  labels.AddRow(Row("1.3", "name"));
  catalog_.Register("labels", &labels);
  EXPECT_EQ(
      RowStrings(Run(*MakeSelectLabel(MakeViewScan("labels", ls), 1, "item"))),
      (Rows{"1.1 | item"}));
}

TEST(ExecutorNavigate, KeepsFirstOccurrencesAndPadsRowsWithoutMatches) {
  std::unique_ptr<Document> doc =
      ParseTreeNotation("a(b(k=1 k=2 k=1) b(k=3) b(j=4))").value();
  Schema s;
  s.Append({"V.c", ColumnKind::kContent, nullptr});
  Table contents(s);
  for (const char* id : {"1.1", "", "1.2", "1.3", "", "1.1"}) {
    contents.AddRow({*id == '\0' ? Value()
                                 : Value(NodeRef{OrdPath::FromString(id)})});
  }
  Catalog catalog;
  catalog.Register("V", &contents);
  catalog.set_document(doc.get());
  Result<Table> got = Execute(
      *MakeNavigate(MakeViewScan("V", s), 0, {{Axis::kChild, "k"}},
                    kAttrId | kAttrValue, "k"),
      catalog);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(RowStrings(*got), (Rows{
                                  "content(1.1) | 1.1.1 | 1",
                                  "content(1.1) | 1.1.2 | 2",
                                  "content(1.1) | 1.1.3 | 1",
                                  "⊥ | ⊥ | ⊥",
                                  "content(1.2) | 1.2.1 | 3",
                                  "content(1.3) | ⊥ | ⊥",
                              }));
  Result<Table> values = Execute(
      *MakeNavigate(MakeViewScan("V", s), 0, {{Axis::kChild, "k"}},
                    kAttrValue, "k"),
      catalog);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  EXPECT_EQ(RowStrings(*values), (Rows{
                                     "content(1.1) | 1",
                                     "content(1.1) | 2",
                                     "⊥ | ⊥",
                                     "content(1.2) | 3",
                                     "content(1.3) | ⊥",
                                 }));
}

TEST(ExecutorNavigate, ResolvesContentInTheCatalogDocument) {
  std::unique_ptr<Document> doc =
      ParseTreeNotation("a(b(k=1 k=2) b(k=3))").value();
  Schema s;
  s.Append({"V.c", ColumnKind::kContent, nullptr});
  Table contents(s);
  contents.AddRow({Value{NodeRef{OrdPath::FromString("1.1")}}});  // first b
  Catalog catalog;
  catalog.Register("V", &contents);
  PlanPtr nav = MakeNavigate(MakeViewScan("V", s), 0, {{Axis::kChild, "k"}},
                             kAttrValue, "k");

  // Without a document there is nothing to navigate: an error, not ⊥ rows.
  Result<Table> none = Execute(*nav, catalog);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);

  catalog.set_document(doc.get());
  Result<Table> got = Execute(*nav, catalog);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->NumRows(), 2);
  EXPECT_EQ(got->row(0)[1].AsString(), "1");
  EXPECT_EQ(got->row(1)[1].AsString(), "2");

  // A reference the document lacks is an error too.
  contents.AddRow({Value{NodeRef{OrdPath::FromString("1.9")}}});
  Result<Table> dangling = Execute(*nav, catalog);
  ASSERT_FALSE(dangling.ok());
  EXPECT_EQ(dangling.status().code(), StatusCode::kNotFound);
}

TEST(PlanPrinter, RendersOperators) {
  Schema s;
  s.Append({"v.id", ColumnKind::kId, nullptr});
  PlanPtr scan1 = MakeViewScan("V1", s);
  PlanPtr scan2 = MakeViewScan("V2", s);
  PlanPtr join = MakeStructJoin(std::move(scan1), std::move(scan2), 0, 0,
                                StructAxis::kAncestor);
  std::string compact = PlanToCompactString(*join);
  EXPECT_EQ(compact, "(V1 ⋈≺≺ V2)");
  std::string full = PlanToString(*join);
  EXPECT_NE(full.find("scan(V1)"), std::string::npos);
}

}  // namespace
}  // namespace svx
