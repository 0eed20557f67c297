#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/maintenance/delta_evaluator.h"
#include "src/pattern/pattern_parser.h"
#include "src/summary/summary_builder.h"
#include "src/util/rng.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/xml/builder.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "src/xml/update.h"

namespace svx {
namespace {

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Document updates: stable ORDPATHs
// ---------------------------------------------------------------------------

TEST(DocumentUpdate, InsertAppendsWithFreshOrdinal) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  std::unique_ptr<Document> sub = Doc("d(e=3)");
  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *sub);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Document& nd = *r->doc;
  EXPECT_EQ(nd.size(), 5);
  EXPECT_EQ(r->delta.kind, DocumentDelta::Kind::kInsert);
  EXPECT_EQ(r->delta.region.ToString(), "1.3");
  EXPECT_EQ(r->delta.region_size, 2);
  // Surviving nodes keep their ids and values.
  NodeIndex b = nd.FindByOrdPath(OrdPath::FromString("1.1"));
  ASSERT_NE(b, kInvalidNode);
  EXPECT_EQ(nd.label(b), "b");
  EXPECT_EQ(nd.value(b), "1");
  // The inserted subtree is reachable under the region id.
  NodeIndex e = nd.FindByOrdPath(OrdPath::FromString("1.3.1"));
  ASSERT_NE(e, kInvalidNode);
  EXPECT_EQ(nd.label(e), "e");
  EXPECT_EQ(nd.value(e), "3");
  EXPECT_EQ(nd.parent(e), nd.FindByOrdPath(OrdPath::FromString("1.3")));
}

TEST(DocumentUpdate, DeleteKeepsSiblingOrdinals) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2 d=3)");
  Result<UpdateResult> r = DeleteSubtree(*d, OrdPath::FromString("1.2"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Document& nd = *r->doc;
  EXPECT_EQ(nd.size(), 3);
  EXPECT_EQ(r->delta.region_size, 1);
  // The surviving third child still answers to ordinal 3 (ordinal gap).
  NodeIndex dd = nd.FindByOrdPath(OrdPath::FromString("1.3"));
  ASSERT_NE(dd, kInvalidNode);
  EXPECT_EQ(nd.label(dd), "d");
  EXPECT_EQ(nd.FindByOrdPath(OrdPath::FromString("1.2")), kInvalidNode);
}

TEST(DocumentUpdate, InsertOrdinalIsMaxSurvivorPlusOne) {
  std::unique_ptr<Document> d = Doc("a(b c d)");
  // Deleting a middle sibling leaves max ordinal 3; the next insert takes 4.
  Result<UpdateResult> del = DeleteSubtree(*d, OrdPath::FromString("1.2"));
  ASSERT_TRUE(del.ok());
  Result<UpdateResult> ins =
      InsertSubtree(*del->doc, OrdPath::Root(), *Doc("x"));
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->delta.region.ToString(), "1.4");
  NodeIndex x = ins->doc->FindByOrdPath(ins->delta.region);
  ASSERT_NE(x, kInvalidNode);
  EXPECT_EQ(ins->doc->label(x), "x");
}

TEST(DocumentUpdate, DeleteRootRejected) {
  std::unique_ptr<Document> d = Doc("a(b)");
  EXPECT_FALSE(DeleteSubtree(*d, OrdPath::Root()).ok());
  EXPECT_FALSE(DeleteSubtree(*d, OrdPath::FromString("1.7")).ok());
  EXPECT_FALSE(InsertSubtree(*d, OrdPath::FromString("1.7"), *Doc("x")).ok());
}

TEST(DocumentUpdate, InsertBeforeSiblingLandsInDocumentOrder) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2 d=3)");
  OrdPath before = OrdPath::FromString("1.2");  // before c
  Result<UpdateResult> r =
      InsertSubtree(*d, OrdPath::Root(), *Doc("x(y=9)"), &before);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Document& nd = *r->doc;
  // The new root's id carets between b's subtree and c.
  EXPECT_EQ(r->delta.region.ToString(), "1.1.^.1");
  EXPECT_EQ(r->delta.region_size, 2);
  std::vector<std::string> labels;
  for (NodeIndex c : nd.children(nd.root())) labels.push_back(nd.label(c));
  EXPECT_EQ(labels, (std::vector<std::string>{"b", "x", "c", "d"}));
  // Every existing id is unchanged; the insert introduced no renumbering.
  for (const char* id : {"1.1", "1.2", "1.3"}) {
    EXPECT_NE(nd.FindByOrdPath(OrdPath::FromString(id)), kInvalidNode) << id;
  }
  NodeIndex x = nd.FindByOrdPath(r->delta.region);
  ASSERT_NE(x, kInvalidNode);
  EXPECT_EQ(nd.label(x), "x");
  EXPECT_EQ(nd.parent(x), nd.root());
  EXPECT_EQ(nd.ord_path(x).Depth(), 2);
  NodeIndex y = nd.FindByOrdPath(r->delta.region.Child(1));
  ASSERT_NE(y, kInvalidNode);
  EXPECT_EQ(nd.label(y), "y");
  EXPECT_EQ(nd.parent(y), x);
}

TEST(DocumentUpdate, InsertBeforeFirstChildUsesLowCaret) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  OrdPath before = OrdPath::FromString("1.1");
  Result<UpdateResult> r =
      InsertSubtree(*d, OrdPath::Root(), *Doc("x"), &before);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->delta.region.ToString(), "1.0.1");
  const Document& nd = *r->doc;
  EXPECT_EQ(nd.label(nd.first_child(nd.root())), "x");
  EXPECT_EQ(r->delta.region.Depth(), 2);
}

TEST(DocumentUpdate, InsertBeforeRejectsNonChildren) {
  std::unique_ptr<Document> d = Doc("a(b(e=1) c)");
  OrdPath not_a_child = OrdPath::FromString("1.1.1");  // grandchild
  EXPECT_FALSE(
      InsertSubtree(*d, OrdPath::Root(), *Doc("x"), &not_a_child).ok());
  OrdPath absent = OrdPath::FromString("1.9");
  EXPECT_FALSE(InsertSubtree(*d, OrdPath::Root(), *Doc("x"), &absent).ok());
}

/// `site(item(@id=i1 name=a))`, read from XML: `@id` is an attribute.
std::unique_ptr<Document> ItemWithAttribute() {
  Result<std::unique_ptr<Document>> d =
      ParseXml("<site><item id=\"i1\"><name>a</name></item></site>");
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(ToTreeNotation(**d), "site(item(@id=i1 name=a))");
  return std::move(d).value();
}

TEST(DocumentUpdate, InsertUnderAttributeRejected) {
  // SerializeXml would write `<@id>i1<keyword>...`, which ParseXml rejects.
  std::unique_ptr<Document> d = ItemWithAttribute();
  const OrdPath id = OrdPath::FromString("1.1.1");
  ASSERT_EQ(d->label(d->FindByOrdPath(id)), "@id");
  EXPECT_EQ(InsertSubtree(*d, id, *Doc("keyword=fresh")).status().code(),
            StatusCode::kInvalidArgument);
  // Nor may an inserted attribute bring children, even where an attribute
  // may go.
  DocumentBuilder b;
  b.StartElement("@x");
  b.StartElement("y");
  b.EndElement();
  b.EndElement();
  EXPECT_EQ(InsertSubtree(*d, OrdPath::FromString("1.1"), *b.Finish(), &id)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DocumentUpdate, ValuelessAttributeRejected) {
  // XML writes a valueless `@x` as x="", which reads back with a value.
  std::unique_ptr<Document> d = ItemWithAttribute();
  const OrdPath item = OrdPath::FromString("1.1");
  const OrdPath name = OrdPath::FromString("1.1.2");
  DocumentBuilder b;
  b.StartElement("@x");
  b.EndElement();
  EXPECT_EQ(InsertSubtree(*d, item, *b.Finish(), &name).status().code(),
            StatusCode::kInvalidArgument);
  // An empty value is a value, and round-trips.
  Result<UpdateResult> r = InsertSubtree(*d, item, *Doc("@x=''"), &name);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<std::unique_ptr<Document>> back = ParseXml(SerializeXml(*r->doc));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(ToTreeNotation(**back), "site(item(@id=i1 @x='' name=a))");
}

TEST(DocumentUpdate, AttributeAfterElementRejected) {
  // XML writes attributes before element children, so after a round trip
  // an `@x` appended after `name` would sit before it.
  std::unique_ptr<Document> d = ItemWithAttribute();
  const OrdPath item = OrdPath::FromString("1.1");
  DocumentBuilder b;
  b.StartElement("@x");
  b.AppendValue("1");
  b.EndElement();
  const std::unique_ptr<Document> attr = b.Finish();
  Result<UpdateResult> r = InsertSubtree(*d, item, *attr);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  const OrdPath name = OrdPath::FromString("1.1.2");
  r = InsertSubtree(*d, item, *attr, &name);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ToTreeNotation(*r->doc), "site(item(@id=i1 @x=1 name=a))");
  Result<std::unique_ptr<Document>> back = ParseXml(SerializeXml(*r->doc));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(ToTreeNotation(**back), ToTreeNotation(*r->doc));
  // Nor may an element go before an attribute.
  const OrdPath id = OrdPath::FromString("1.1.1");
  r = InsertSubtree(*d, item, *Doc("keyword=fresh"), &id);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DocumentUpdate, RepeatedMidSiblingInsertsKeepOrderAndIds) {
  // Chains of careted inserts at the same slot: every insert lands exactly
  // where asked and never disturbs an existing id.
  std::unique_ptr<Document> d = Doc("a(b=0 e=9)");
  OrdPath before = OrdPath::FromString("1.2");  // always before e
  std::vector<OrdPath> inserted;
  for (int i = 0; i < 6; ++i) {
    Result<UpdateResult> r =
        InsertSubtree(*d, OrdPath::Root(), *Doc("m"), &before);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    inserted.push_back(r->delta.region);
    d = std::move(r->doc);
  }
  // Order: b, m m m m m m (in insertion order), e.
  std::vector<NodeIndex> kids = d->children(d->root());
  ASSERT_EQ(kids.size(), 8u);
  EXPECT_EQ(d->label(kids.front()), "b");
  EXPECT_EQ(d->label(kids.back()), "e");
  for (size_t i = 0; i < inserted.size(); ++i) {
    EXPECT_EQ(d->ord_path(kids[i + 1]), inserted[i]) << i;
    EXPECT_EQ(d->ord_path(kids[i + 1]).Depth(), 2);
  }
}

// ---------------------------------------------------------------------------
// Maintenance vs rematerialization — targeted cases
// ---------------------------------------------------------------------------

/// Applies the delta through a catalog and checks every extent and its
/// statistics are byte-identical to a fresh materialization.
void ExpectMaintainedEqualsRemat(const ViewCatalog& catalog,
                                 const Document& new_doc) {
  for (const auto& v : catalog.views()) {
    ViewCatalog fresh;
    ASSERT_TRUE(fresh.Materialize(v->def, new_doc).ok());
    const StoredView* want = fresh.Find(v->def.name);
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(SerializeExtent(*v->table().value()),
              SerializeExtent(*want->table().value()))
        << v->def.name << " extent diverged from rematerialization";
    EXPECT_TRUE(v->stats == want->stats)
        << v->def.name << " stats diverged from rematerialization";
    EXPECT_EQ(v->extent_bytes, want->extent_bytes) << v->def.name;
  }
}

TEST(Maintenance, InsertEmitsOnlyNewTuples) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=2)");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *Doc("b=3"));
  ASSERT_TRUE(r.ok());

  TableDelta td =
      ComputeViewDelta(MustParsePattern("a(/b{id,v})"), "V",
                       *catalog.Find("V")->table().value(), r->delta);
  EXPECT_FALSE(td.full_rebuild);
  EXPECT_TRUE(td.deletes.empty());
  ASSERT_EQ(td.inserts.size(), 1u);

  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta, &ms).ok());
  EXPECT_EQ(ms.tuples_inserted, 1);
  EXPECT_EQ(ms.views_rebuilt, 0);
  ExpectMaintainedEqualsRemat(catalog, *r->doc);
}

TEST(Maintenance, DeleteKeepsMultiplyJustifiedTuples) {
  // The label-only tuple ("b") is justified by two embeddings; deleting one
  // must not delete the tuple (set semantics).
  std::unique_ptr<Document> d = Doc("a(x(b=1) y(b=2))");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"L", MustParsePattern("a(//b{l})")}, *d).ok());
  ASSERT_EQ(catalog.Find("L")->table().value()->NumRows(), 1);

  Result<UpdateResult> r = DeleteSubtree(*d, OrdPath::FromString("1.2"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());
  EXPECT_EQ(catalog.Find("L")->table().value()->NumRows(), 1);
  ExpectMaintainedEqualsRemat(catalog, *r->doc);

  // Deleting the second occurrence removes the tuple for good.
  std::unique_ptr<Document> d2 = std::move(r->doc);
  Result<UpdateResult> r2 = DeleteSubtree(*d2, OrdPath::FromString("1.1"));
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r2->delta).ok());
  EXPECT_EQ(catalog.Find("L")->table().value()->NumRows(), 0);
  ExpectMaintainedEqualsRemat(catalog, *r2->doc);
}

TEST(Maintenance, OptionalEdgePaddingFlipsBothWays) {
  std::unique_ptr<Document> d = Doc("a(b=0(c=1))");
  Pattern p = MustParsePattern("a(/b{id}(?/c{v}))");
  ViewCatalog catalog;
  ASSERT_TRUE(catalog.Materialize({"O", p}, *d).ok());

  // Delete the only c: (1.1, '1') must become (1.1, ⊥).
  Result<UpdateResult> r = DeleteSubtree(*d, OrdPath::FromString("1.1.1"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());
  ASSERT_EQ(catalog.Find("O")->table().value()->NumRows(), 1);
  EXPECT_TRUE(catalog.Find("O")->table().value()->row(0)[1].IsNull());
  ExpectMaintainedEqualsRemat(catalog, *r->doc);

  // Insert a c again: the padded tuple must flip back to a value.
  std::unique_ptr<Document> d2 = std::move(r->doc);
  Result<UpdateResult> r2 =
      InsertSubtree(*d2, OrdPath::FromString("1.1"), *Doc("c=9"));
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r2->delta).ok());
  ASSERT_EQ(catalog.Find("O")->table().value()->NumRows(), 1);
  EXPECT_EQ(catalog.Find("O")->table().value()->row(0)[1].AsString(), "9");
  ExpectMaintainedEqualsRemat(catalog, *r2->doc);
}

TEST(Maintenance, NestedGroupsReaggregate) {
  std::unique_ptr<Document> d = Doc("a(b=0(c=1) b=9)");
  Pattern p = MustParsePattern("a(/b{id}(n/c{v}))");
  ViewCatalog catalog;
  ASSERT_TRUE(catalog.Materialize({"N", p}, *d).ok());

  Result<UpdateResult> r =
      InsertSubtree(*d, OrdPath::FromString("1.1"), *Doc("c=2"));
  ASSERT_TRUE(r.ok());
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta, &ms).ok());
  EXPECT_EQ(ms.views_rebuilt, 0);
  ExpectMaintainedEqualsRemat(catalog, *r->doc);
  // The affected b row's group now has two inner rows.
  TablePtr t = catalog.Find("N")->table().value();
  ASSERT_EQ(t->NumRows(), 2);
  bool saw_two = false;
  for (int64_t i = 0; i < t->NumRows(); ++i) {
    if (t->row(i)[1].AsTable().NumRows() == 2) saw_two = true;
  }
  EXPECT_TRUE(saw_two);
}

TEST(Maintenance, ContentReferencesResolveInNewDocument) {
  std::unique_ptr<Document> d = Doc("a(b(c=1) b(c=2))");
  Pattern p = MustParsePattern("a(/b{id,c})");
  ViewCatalog catalog;
  ASSERT_TRUE(catalog.Materialize({"C", p}, *d).ok());

  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *Doc("b(c=3)"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());
  // The epoch reads the new document, and every content cell names one of
  // its nodes.
  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
  ASSERT_EQ(snap->document(), r->doc.get());
  TablePtr extent = snap->Find("C")->table().value();
  ASSERT_EQ(extent->NumRows(), 3);
  for (const Tuple& row : extent->rows()) {
    ASSERT_TRUE(row[1].IsContent());
    EXPECT_NE(r->doc->FindByOrdPath(row[1].AsContent().id), kInvalidNode);
  }
  ExpectMaintainedEqualsRemat(catalog, *r->doc);
}

TEST(Maintenance, StoreBackedUpdatePersistsAndReloads) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() /
                     ("svx_maintenance_store_" + std::to_string(::getpid())))
                        .string();
  std::unique_ptr<Document> d = Doc("a(b=1 b=2)");
  ViewCatalog catalog(dir);
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(catalog.Save().ok());

  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *Doc("b=3"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());

  // The maintained extent is already on disk: a fresh catalog loads it.
  ViewCatalog reloaded(dir);
  ASSERT_TRUE(reloaded.Load(r->doc.get()).ok());
  ASSERT_EQ(reloaded.size(), 1);
  EXPECT_EQ(SerializeExtent(*reloaded.Find("V")->table().value()),
            SerializeExtent(*catalog.Find("V")->table().value()));
  EXPECT_TRUE(reloaded.Find("V")->stats == catalog.Find("V")->stats);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Maintenance, NeverSavedCatalogPersistsEveryViewOnUpdate) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() /
       ("svx_maintenance_unsaved_" + std::to_string(::getpid())))
          .string();
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  ViewCatalog catalog(dir);
  ASSERT_TRUE(
      catalog.Materialize({"V1", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"V2", MustParsePattern("a(/c{id,v})")}, *d).ok());
  // No Save(): the first ApplyUpdate must still produce a loadable store,
  // including the untouched view's files.
  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *Doc("b=3"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());

  ViewCatalog reloaded(dir);
  Status s = reloaded.Load(r->doc.get());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(reloaded.size(), 2);
  for (const char* name : {"V1", "V2"}) {
    EXPECT_EQ(SerializeExtent(*reloaded.Find(name)->table().value()),
              SerializeExtent(*catalog.Find(name)->table().value()))
        << name;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Maintenance, InvalidDeltaFallsBackToRebuild) {
  std::unique_ptr<Document> d = Doc("a(b=1)");
  std::unique_ptr<Document> d2 = Doc("a(b=1 b=2)");
  ViewCatalog catalog;
  Pattern p = MustParsePattern("a(/b{id,v})");
  ASSERT_TRUE(catalog.Materialize({"V", p}, *d).ok());

  DocumentDelta delta;  // invalid region → rematerialize over new_doc
  delta.old_doc = d.get();
  delta.new_doc = d2.get();
  TableDelta td =
      ComputeViewDelta(p, "V", *catalog.Find("V")->table().value(), delta);
  EXPECT_TRUE(td.full_rebuild);
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(delta, &ms).ok());
  EXPECT_EQ(ms.views_rebuilt, 1);
  EXPECT_EQ(catalog.Find("V")->table().value()->NumRows(), 2);
  ExpectMaintainedEqualsRemat(catalog, *d2);
}

TEST(Maintenance, MidSiblingInsertMaintainsInDocumentOrder) {
  // Regression: inserts used to append as the last child even when a
  // sibling position was requested; careted region ids must flow through
  // delta evaluation exactly like appended ones.
  std::unique_ptr<Document> doc = Doc("a(b(x=1) b(x=2) b(x=3))");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id}(/x{id,v}))")}, *doc)
          .ok());
  ASSERT_TRUE(
      catalog.Materialize({"N", MustParsePattern("a{id}(n//x{id,v})")}, *doc)
          .ok());
  OrdPath before = OrdPath::FromString("1.2");
  Result<UpdateResult> r =
      InsertSubtree(*doc, OrdPath::Root(), *Doc("b(x=9)"), &before);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta, &ms).ok());
  EXPECT_GT(ms.tuples_inserted, 0);
  ExpectMaintainedEqualsRemat(catalog, *r->doc);

  // And deleting the careted subtree maintains cleanly too.
  Result<UpdateResult> del = DeleteSubtree(*r->doc, r->delta.region);
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  ASSERT_TRUE(catalog.ApplyUpdate(del->delta).ok());
  ExpectMaintainedEqualsRemat(catalog, *del->doc);
}

// ---------------------------------------------------------------------------
// Routing: a pass skips only views no added or removed node can match
// ---------------------------------------------------------------------------

/// The first node labeled `label` in document order.
NodeIndex FirstLabeled(const Document& doc, std::string_view label) {
  for (NodeIndex n = 0; n < doc.size(); ++n) {
    if (doc.label(n) == label) return n;
  }
  return kInvalidNode;
}

TEST(MaintenanceRouting, ViewsTheLabelTestMustNotSkipStayExact) {
  XmarkOptions opts;
  opts.scale = 0.2;
  std::shared_ptr<const Document> doc = GenerateXmark(opts);
  ASSERT_EQ(FirstLabeled(*doc, "zip"), kInvalidNode);
  ViewCatalog catalog;
  for (const ViewDef& def : std::vector<ViewDef>{
           {"wild", MustParsePattern("site(//*{id})")},
           {"opt", MustParsePattern("site(//item{id}(?/zip{v}))")},
           {"nest", MustParsePattern("site(//item{id}(n//keyword{id,v}))")},
           {"content", MustParsePattern("site(//person{id,c})")},
           {"category", MustParsePattern("site(//category{id}(/name{v}))")},
           {"initial", MustParsePattern("site(//initial{id,v})")},
       }) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }
  // Applies one batch, checks every extent against rematerialization and
  // returns the pass's stats.
  auto apply = [&](const std::vector<UpdateResult*>& ups) {
    std::vector<DocumentDelta> deltas;
    for (UpdateResult* up : ups) deltas.push_back(up->delta);
    std::shared_ptr<const Document> next = std::move(ups.back()->doc);
    MaintenanceStats ms;
    EXPECT_TRUE(catalog.ApplyUpdateBatch(deltas, next, nullptr, &ms).ok());
    ExpectMaintainedEqualsRemat(catalog, *next);
    // Every content cell names a node of the document the epoch reads.
    EXPECT_EQ(catalog.Snapshot()->document(), next.get());
    for (const Tuple& row : catalog.Find("content")->table().value()->rows()) {
      for (const Value& cell : row) {
        if (cell.IsContent()) {
          EXPECT_NE(next->FindByOrdPath(cell.AsContent().id), kInvalidNode);
        }
      }
    }
    doc = std::move(next);
    return ms;
  };
  auto must = [](Result<UpdateResult> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  };
  const OrdPath item = doc->ord_path(FirstLabeled(*doc, "item"));

  // Only the inserted zip carries `zip`, and the item's ⊥ row flips. Of
  // the views the pattern labels admit, `nest` reads no zip: skipped, like
  // `category`, `initial` and `content`, whose cells are person ids.
  UpdateResult zip = must(InsertSubtree(*doc, item, *Doc("zip=75001")));
  const OrdPath zip_id = zip.delta.region;
  MaintenanceStats ms = apply({&zip});
  EXPECT_EQ(ms.views_touched, 2);  // wild, opt
  EXPECT_EQ(ms.views_shared, 4);

  // A keyword below the item regroups its nested group.
  UpdateResult keyword = must(InsertSubtree(*doc, item, *Doc("keyword=shiny")));
  ms = apply({&keyword});
  EXPECT_EQ(ms.views_touched, 2);  // wild, nest

  // An insert inside a person changes what that person's content reads,
  // but not its cell, the person's id: `content` carries.
  const NodeIndex person = FirstLabeled(*doc, "person");
  ASSERT_NE(person, kInvalidNode);
  UpdateResult phone = must(InsertSubtree(*doc, doc->ord_path(person),
                                          *Doc("phone=5550100")));
  ms = apply({&phone});
  EXPECT_EQ(ms.views_touched, 1);  // wild
  EXPECT_EQ(ms.views_shared, 5);

  // Deleting the zip brings the ⊥ row back.
  UpdateResult unzip = must(DeleteSubtree(*doc, zip_id));
  ms = apply({&unzip});
  EXPECT_EQ(ms.views_touched, 2);  // wild, opt

  // A batch whose second delta deletes what its first inserted.
  const std::shared_ptr<const Document> before = doc;
  UpdateResult in = must(InsertSubtree(
      *doc, doc->ord_path(doc->parent(FirstLabeled(*doc, "item"))),
      *Doc("item(name=kite zip=1 description(keyword=red))")));
  UpdateResult out = must(DeleteSubtree(*in.doc, in.delta.region));
  ms = apply({&in, &out});
  EXPECT_EQ(ms.deltas_applied, 2);
  EXPECT_EQ(doc->size(), before->size());

  // A batch whose deltas carry different labels: the second's keyword
  // regroups `nest`, which the first's zip alone would not reach.
  std::vector<NodeIndex> items;
  for (NodeIndex n = 0; n < doc->size(); ++n) {
    if (doc->label(n) == "item") items.push_back(n);
  }
  ASSERT_GE(items.size(), 2u);
  UpdateResult zip2 =
      must(InsertSubtree(*doc, doc->ord_path(items[0]), *Doc("zip=2")));
  UpdateResult blue = must(InsertSubtree(
      *zip2.doc, doc->ord_path(items[1]), *Doc("keyword=blue")));
  ms = apply({&zip2, &blue});
  EXPECT_EQ(ms.views_touched, 3);  // wild, opt, nest
}

TEST(MaintenanceRouting, UntouchedContentViewStaysColdAndReadsTheNewDocument) {
  XmarkOptions opts;
  opts.scale = 0.2;
  std::shared_ptr<Document> doc = GenerateXmark(opts);
  ViewCatalogOptions copts;
  copts.memory_budget_bytes = 1;  // every extent but the newest evicted
  ViewCatalog catalog(copts);
  ASSERT_TRUE(
      catalog.Materialize({"content", MustParsePattern("site(//person{id,c})")},
                          *doc)
          .ok());
  // The newest extent stays resident: add one more view and drop it.
  ASSERT_TRUE(
      catalog.Materialize({"last", MustParsePattern("site(//zipcode{id})")},
                          *doc)
          .ok());
  ASSERT_TRUE(catalog.Drop("last").ok());
  catalog.BindDocument(doc, std::shared_ptr<const Summary>(
                                SummaryBuilder::Build(doc.get())));
  const StoredView* before = catalog.Find("content");
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(before->TryResident(), nullptr);

  const NodeIndex person = FirstLabeled(*doc, "person");
  ASSERT_NE(person, kInvalidNode);
  Result<UpdateResult> up =
      InsertSubtree(*doc, doc->ord_path(person), *Doc("phone=5550100"));
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  std::shared_ptr<Document> next(std::move(up->doc));
  const int64_t reloads = catalog.memory_budget()->reloads();
  MaintenanceStats ms;
  ASSERT_TRUE(catalog
                  .ApplyUpdateBatch({up->delta}, next,
                                    std::shared_ptr<const Summary>(
                                        SummaryBuilder::Build(next.get())),
                                    &ms)
                  .ok());
  // Carried as it was: not decoded, not re-encoded, still cold.
  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
  ASSERT_EQ(snap->Find("content"), before);
  EXPECT_EQ(ms.views_shared, 1);
  EXPECT_EQ(ms.views_touched, 0);
  EXPECT_EQ(catalog.memory_budget()->reloads(), reloads);
  EXPECT_EQ(before->TryResident(), nullptr);

  // Navigating inside the content reads the new document: the new phone.
  const Pattern q = MustParsePattern("site(//person{id}(//phone{v}))");
  Result<Table> got = snap->Query(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const Table want = MaterializeView(q, "q", *next);
  EXPECT_TRUE(got->EqualsIgnoringOrder(want))
      << got->NumRows() << " rows, direct evaluation " << want.NumRows();
  bool saw_phone = false;
  for (const Tuple& row : got->rows()) {
    saw_phone = saw_phone || row[1] == Value(std::string("5550100"));
  }
  EXPECT_TRUE(saw_phone);
}

TEST(MaintenanceRouting, ColdViewsTheRegionCannotTouchStayCold) {
  XmarkOptions opts;
  opts.scale = 0.2;
  std::unique_ptr<Document> doc = GenerateXmark(opts);
  ViewCatalogOptions copts;
  copts.memory_budget_bytes = 1;  // every extent but the newest evicted
  ViewCatalog catalog(copts);
  const std::vector<std::string> tags = {
      "item",    "location", "quantity", "name",     "payment", "shipping",
      "person",  "category", "keyword",  "initial",  "bidder",  "increase",
      "text",    "emailaddress", "city", "description"};
  for (const std::string& tag : tags) {
    ASSERT_TRUE(
        catalog.Materialize({tag, MustParsePattern("site(//" + tag + "{id,v})")},
                            *doc)
            .ok());
  }
  // The newest extent stays resident: add one more view and drop it.
  ASSERT_TRUE(
      catalog.Materialize({"last", MustParsePattern("site(//zipcode{id})")},
                          *doc)
          .ok());
  ASSERT_TRUE(catalog.Drop("last").ok());
  std::unordered_map<std::string, const StoredView*> before;
  for (const auto& v : catalog.views()) {
    ASSERT_EQ(v->TryResident(), nullptr) << v->def.name;
    before[v->def.name] = v.get();
  }

  // The item servebench's update stream inserts: its region carries the
  // first six tags.
  Result<UpdateResult> up = InsertSubtree(
      *doc, doc->ord_path(doc->parent(FirstLabeled(*doc, "item"))),
      *Doc("item(location=Chad quantity=2 name='gold ring' payment=Cash "
           "shipping='Will ship internationally')"));
  ASSERT_TRUE(up.ok());
  const int64_t reloads = catalog.memory_budget()->reloads();
  const int64_t reload_metric = metrics::ExtentReloads()->Value();
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(up->delta, &ms).ok());
  EXPECT_EQ(catalog.memory_budget()->reloads() - reloads, 6);
  EXPECT_EQ(metrics::ExtentReloads()->Value() - reload_metric, 6);
  EXPECT_EQ(ms.views_touched, 6);
  EXPECT_EQ(ms.views_shared, static_cast<int32_t>(tags.size()) - 6);
  for (size_t i = 6; i < tags.size(); ++i) {
    const StoredView* v = catalog.Find(tags[i]);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v, before[tags[i]]) << tags[i] << " was not carried forward";
    EXPECT_EQ(v->TryResident(), nullptr) << tags[i] << " was decoded";
  }
  ExpectMaintainedEqualsRemat(catalog, *up->doc);
}

// ---------------------------------------------------------------------------
// Randomized property: maintained extents == rematerialized extents
// ---------------------------------------------------------------------------

/// XMark-flavored subtree pool for random inserts.
const char* kInsertPool[] = {
    "item(name=gadget incategory=cat1)",
    "keyword=fresh",
    "name=widget",
    "item(name=tool description(text=sturdy keyword=steel) payment=cash)",
    "person(name=bob emailaddress=bob)",
    "listitem(text=lorem keyword=ipsum)",
    "annotation(description(text=fine))",
    "open_auction(initial=7 bidder(increase=2))",
};

void RunRandomizedMaintenance(uint64_t seed, int ops, int* performed,
                              int64_t memory_budget_bytes = 0) {
  XmarkOptions opts;
  opts.scale = 0.2;
  opts.seed = seed;
  std::unique_ptr<Document> doc = GenerateXmark(opts);

  std::vector<ViewDef> defs = {
      {"plain", MustParsePattern("site(//item{id}(/name{id,v}))")},
      {"opt", MustParsePattern("site(//item{id}(?//keyword{v}))")},
      {"nest", MustParsePattern("site(//item{id}(n//keyword{id,v}))")},
      {"content", MustParsePattern("site(//person{id,c})")},
      {"labels", MustParsePattern("site(//description{id}(//keyword{l}))")},
  };
  ViewCatalogOptions copts;
  copts.memory_budget_bytes = memory_budget_bytes;
  ViewCatalog catalog(copts);
  for (const ViewDef& def : defs) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }

  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    Result<UpdateResult> r = [&]() -> Result<UpdateResult> {
      if (doc->size() > 2 && rng.Bernoulli(0.45)) {
        // Delete a random non-root subtree.
        NodeIndex n = static_cast<NodeIndex>(
            rng.Uniform(1, static_cast<int64_t>(doc->size()) - 1));
        return DeleteSubtree(*doc, doc->ord_path(n));
      }
      // Insert a pool subtree under a random node — half the time careted
      // before a random existing child instead of appended. An attribute
      // takes neither a child nor an element before it, which XML could
      // not write back: such an insert must be refused, and the op draws
      // again.
      while (true) {
        NodeIndex n = static_cast<NodeIndex>(
            rng.Uniform(0, static_cast<int64_t>(doc->size()) - 1));
        std::unique_ptr<Document> sub = Doc(
            kInsertPool[static_cast<size_t>(rng.Uniform(
                0, static_cast<int64_t>(std::size(kInsertPool)) - 1))]);
        std::vector<NodeIndex> kids = doc->children(n);
        NodeIndex before = kInvalidNode;
        if (!kids.empty() && rng.Bernoulli(0.5)) {
          before = kids[static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(kids.size()) - 1))];
        }
        const OrdPath before_id =
            before == kInvalidNode ? OrdPath() : doc->ord_path(before);
        Result<UpdateResult> up = InsertSubtree(
            *doc, doc->ord_path(n), *sub,
            before == kInvalidNode ? nullptr : &before_id);
        if (doc->label(n)[0] != '@' &&
            (before == kInvalidNode || doc->label(before)[0] != '@')) {
          return up;
        }
        EXPECT_EQ(up.status().code(), StatusCode::kInvalidArgument)
            << doc->ord_path(n).ToString();
      }
    }();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());
    ExpectMaintainedEqualsRemat(catalog, *r->doc);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged at op " << op << " seed " << seed;
      return;
    }
    doc = std::move(r->doc);
    ++*performed;
  }
}

TEST(MaintenanceProperty, RandomSequencesMatchRematerialization) {
  int performed = 0;
  for (uint64_t seed : {7u, 21u, 99u}) {
    RunRandomizedMaintenance(seed, 40, &performed);
    if (::testing::Test::HasFailure()) break;
  }
  // The acceptance bar: at least 100 randomized insert/delete updates, each
  // checked byte-identical against full rematerialization.
  EXPECT_GE(performed, 100);
}

TEST(MaintenanceProperty, RandomSequencesSurviveEvictionUnderTinyBudget) {
  // Same property under a decoded-extent budget far below the working set:
  // every maintenance step finds some of its base extents evicted and must
  // re-decode them from the compressed columnar form mid-stream, and the
  // maintained results stay byte-identical to rematerialization.
  int performed = 0;
  RunRandomizedMaintenance(7, 40, &performed, /*memory_budget_bytes=*/2048);
  EXPECT_GE(performed, 40);
}

}  // namespace
}  // namespace svx
