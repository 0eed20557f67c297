// Incremental view maintenance walkthrough: materialize views into a
// catalog, update the document (subtree insert/delete with stable ORDPATH
// ids), and let ApplyUpdate patch the stored extents instead of
// rematerializing them.
//
//   $ ./build/incremental_maintenance
#include <cstdio>
#include <memory>

#include "src/pattern/pattern_parser.h"
#include "src/viewstore/view_catalog.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

using namespace svx;  // NOLINT — example brevity

namespace {

/// Prints the extent of view `name`; false (after printing why) when the
/// catalog cannot serve it.
bool PrintExtent(const ViewCatalog& catalog, const char* name) {
  const StoredView* v = catalog.Find(name);
  if (v == nullptr) {
    std::printf("%s: no such view\n", name);
    return false;
  }
  Result<TablePtr> t = v->table();
  if (!t.ok()) {
    std::printf("%s: %s\n", name, t.status().ToString().c_str());
    return false;
  }
  std::printf("%s (%lld rows):\n%s\n", name,
              static_cast<long long>((*t)->NumRows()),
              (*t)->ToString().c_str());
  return true;
}

}  // namespace

int main() {
  // An auction-site-in-miniature: two items, one with a keyword.
  auto doc = std::move(
      ParseTreeNotation(
          "site(items(item(name=pen keyword=blue) item(name=ink)))")
          .value());

  ViewCatalog catalog;
  ViewDef names{"names", MustParsePattern("site(//item{id}(/name{v}))")};
  ViewDef keywords{"keywords",
                   MustParsePattern("site(//item{id}(?/keyword{v}))")};
  for (const ViewDef& def : {names, keywords}) {
    Status s = catalog.Materialize(def, *doc);
    if (!s.ok()) {
      std::printf("materialize: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("== initial extents ==\n");
  if (!PrintExtent(catalog, "names") || !PrintExtent(catalog, "keywords")) {
    return 1;
  }

  // Insert a new item under `items` (ORDPATH 1.1): appended as the last
  // child, every existing node keeps its id.
  auto subtree =
      std::move(ParseTreeNotation("item(name=brush keyword=fine)").value());
  Result<UpdateResult> ins =
      InsertSubtree(*doc, OrdPath::FromString("1.1"), *subtree);
  if (!ins.ok()) {
    std::printf("insert: %s\n", ins.status().ToString().c_str());
    return 1;
  }
  MaintenanceStats ms;
  Status s = catalog.ApplyUpdate(ins->delta, &ms);
  if (!s.ok()) {
    std::printf("apply: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("== after inserting item at %s (+%d nodes): %lld tuples in, "
              "%lld out ==\n",
              ins->delta.region.ToString().c_str(), ins->delta.region_size,
              static_cast<long long>(ms.tuples_inserted),
              static_cast<long long>(ms.tuples_deleted));
  if (!PrintExtent(catalog, "names") || !PrintExtent(catalog, "keywords")) {
    return 1;
  }
  doc = std::move(ins->doc);

  // Delete the first item's keyword: the optional column flips back to ⊥.
  Result<UpdateResult> del =
      DeleteSubtree(*doc, OrdPath::FromString("1.1.1.2"));
  if (!del.ok()) {
    std::printf("delete: %s\n", del.status().ToString().c_str());
    return 1;
  }
  s = catalog.ApplyUpdate(del->delta, &ms);
  if (!s.ok()) {
    std::printf("apply: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("== after deleting %s: %lld tuples in, %lld out ==\n",
              del->delta.region.ToString().c_str(),
              static_cast<long long>(ms.tuples_inserted),
              static_cast<long long>(ms.tuples_deleted));
  return PrintExtent(catalog, "keywords") ? 0 : 1;
}
