// Physical evaluation of logical plans over a catalog of materialized view
// extents. A view scan pins its extent through the catalog (a TableSource
// or the catalog's resolver) and copies the rows; a store-backed catalog
// (CatalogSnapshot::ExecutorCatalog) decodes a cold extent whole and
// installs it. Content navigation resolves each content reference (an
// ORDPATH) in the catalog's document. Structural joins exploit the ORDPATH
// prefix property (an ancestor's id is a prefix of its descendants' ids,
// [1][21][25]): the ancestor join probes a hash table of left ids with the
// right ids' prefixes, giving O(|R| x depth) instead of a nested loop.
#ifndef SVX_ALGEBRA_EXECUTOR_H_
#define SVX_ALGEBRA_EXECUTOR_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/algebra/plan.h"
#include "src/algebra/relation.h"
#include "src/util/status.h"

namespace svx {

class Document;   // src/xml/document.h
class TraceSpan;  // src/observability/trace.h

/// A view binding: returns the view's extent, pinned by the shared_ptr for
/// the duration of the scan. A store-backed source decodes a cold extent
/// before returning it (StoredView::table()).
using TableSource = std::function<Result<TablePtr>()>;

/// Name -> extent mapping used by view scans: one TableSource per
/// registered name, and optionally a resolver for every other name.
class Catalog {
 public:
  /// Finds the extent of a name no Register call bound; NotFound when it
  /// knows no such view.
  using Resolver = std::function<Result<TablePtr>(const std::string& name)>;

  Catalog() = default;
  /// A catalog that looks up unregistered names through `resolve`, so a
  /// store can serve its views without binding each one.
  explicit Catalog(Resolver resolve) : resolve_(std::move(resolve)) {}

  /// Binds `name` to `source`, replacing any earlier binding.
  void Register(const std::string& name, TableSource source) {
    views_[name] = std::move(source);
  }
  /// Binds `name` to a borrowed table, which must outlive every Execute
  /// over this catalog.
  void Register(const std::string& name, const Table* table) {
    TablePtr borrowed(TablePtr(), table);  // aliasing: owns nothing
    Register(name, [borrowed]() -> Result<TablePtr> { return borrowed; });
  }
  /// The extent bound to `name`, pinned by the shared_ptr for the caller's
  /// scan; NotFound when neither a binding nor the resolver knows it.
  Result<TablePtr> Scan(const std::string& name) const {
    auto it = views_.find(name);
    if (it != views_.end()) return it->second();
    if (resolve_) return resolve_(name);
    return Status::NotFound("view not materialized: " + name);
  }

  /// Sets the document content references resolve in: content navigation
  /// looks each reference's node up there. Borrowed; it must outlive every
  /// Execute over this catalog. Without one, navigating a content
  /// reference is an error.
  void set_document(const Document* doc) { doc_ = doc; }
  const Document* document() const { return doc_; }

 private:
  std::unordered_map<std::string, TableSource> views_;
  Resolver resolve_;
  const Document* doc_ = nullptr;
};

/// Executes `plan` against `catalog`; returns the materialized result.
/// Every execution feeds the process metrics (rows scanned from extents,
/// rows emitted, latency). With a non-null `trace`, a child span per plan
/// operator is attached under it — the span tree mirrors the plan shape,
/// each node carrying an out_rows attribute (view scans also name their
/// view). Tracing belongs to one query on one thread.
Result<Table> Execute(const PlanNode& plan, const Catalog& catalog,
                      TraceSpan* trace = nullptr);

}  // namespace svx

#endif  // SVX_ALGEBRA_EXECUTOR_H_
