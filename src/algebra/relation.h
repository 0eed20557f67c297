// Nested tables: the extents of materialized views (§1: "Each view ...
// produces a nested table, which may include null values") and the values
// flowing through rewriting plans.
#ifndef SVX_ALGEBRA_RELATION_H_
#define SVX_ALGEBRA_RELATION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/algebra/value.h"

namespace svx {

/// What a column holds.
enum class ColumnKind {
  kId,       // structural identifier (OrdPath)
  kLabel,    // element label
  kValue,    // atomic value
  kContent,  // content reference
  kNested,   // nested table (§4.5)
};

const char* ColumnKindName(ColumnKind kind);

class Schema;

/// One column: a stable name ("V1.n2.id"), its kind and — for nested
/// columns — the nested schema.
struct ColumnSpec {
  std::string name;
  ColumnKind kind = ColumnKind::kValue;
  std::shared_ptr<const Schema> nested;  // only for kNested

  bool operator==(const ColumnSpec& other) const;
};

/// An ordered list of columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns)
      : columns_(std::move(columns)) {}

  int32_t size() const { return static_cast<int32_t>(columns_.size()); }
  const ColumnSpec& column(int32_t i) const {
    SVX_DCHECK(i >= 0 && i < size());
    return columns_[static_cast<size_t>(i)];
  }
  const std::vector<ColumnSpec>& columns() const { return columns_; }

  /// Index of the column named `name`, or -1.
  int32_t Find(const std::string& name) const;

  void Append(ColumnSpec spec) { columns_.push_back(std::move(spec)); }

  /// "name:kind, name:kind, ...".
  std::string ToString() const;

  bool operator==(const Schema& other) const;

 private:
  std::vector<ColumnSpec> columns_;
};

using Tuple = std::vector<Value>;

/// A materialized (possibly nested) relation.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  int64_t NumRows() const { return static_cast<int64_t>(rows_.size()); }
  const Tuple& row(int64_t i) const {
    SVX_DCHECK(i >= 0 && i < NumRows());
    return rows_[static_cast<size_t>(i)];
  }
  const std::vector<Tuple>& rows() const { return rows_; }

  void AddRow(Tuple row) {
    SVX_DCHECK(static_cast<int32_t>(row.size()) == schema_.size());
    rows_.push_back(std::move(row));
  }

  /// Direct row storage for in-place building and maintenance (decoding,
  /// delta application). Callers must keep every row at schema arity.
  std::vector<Tuple>& mutable_rows() { return rows_; }

  /// Removes duplicate rows (set semantics), preserving first occurrences.
  void Deduplicate();

  /// Sorts rows into the canonical deterministic order (CompareTuples).
  /// Assumes nested-table cells are already canonical (MaterializeView and
  /// the delta evaluator build them sorted); the view store relies on this
  /// to make equal extent row sets byte-identical under serialization.
  void SortRowsCanonical();

  /// Deep row-set equality up to row order (schemas must match).
  bool EqualsIgnoringOrder(const Table& other) const;

  /// Multi-line rendering for tests and examples.
  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

/// Hash of a whole tuple (deep).
size_t TupleHash(const Tuple& t);

/// Deterministic total order over values: ⊥ < string < id < content <
/// nested; strings lexicographic, ids in document order, content by the
/// referenced node's ORDPATH, nested tables lexicographic by rows. Returns
/// <0, 0, >0.
int CompareValues(const Value& a, const Value& b);

/// Lexicographic tuple comparison via CompareValues.
int CompareTuples(const Tuple& a, const Tuple& b);

}  // namespace svx

#endif  // SVX_ALGEBRA_RELATION_H_
