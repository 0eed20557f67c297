// Values stored in view extents and flowing through plans: the four
// attribute kinds of §4.4 (structural ID, label, atomic value, content) plus
// null (⊥, §4.3) and nested tables (§4.5).
#ifndef SVX_ALGEBRA_VALUE_H_
#define SVX_ALGEBRA_VALUE_H_

#include <memory>
#include <string>
#include <variant>

#include "src/util/check.h"
#include "src/xml/node_id.h"

namespace svx {

class Table;
using TablePtr = std::shared_ptr<const Table>;

/// A reference to stored content: the subtree rooted at the node whose
/// ORDPATH is `id` (the paper's C attribute, "stored ... as a reference to
/// some repository"). It names the node, not a document version: surviving
/// nodes keep their ids across updates, and a reader resolves the id in the
/// document it reads (Catalog::document()).
struct NodeRef {
  OrdPath id;

  bool operator==(const NodeRef& other) const { return id == other.id; }
};

/// A single cell value.
class Value {
 public:
  /// ⊥ (null).
  Value() : v_(std::monostate{}) {}
  /// Label or atomic value.
  explicit Value(std::string s) : v_(std::move(s)) {}
  /// Structural identifier.
  explicit Value(OrdPath id) : v_(std::move(id)) {}
  /// Content reference.
  explicit Value(NodeRef ref) : v_(std::move(ref)) {}
  /// Nested table.
  explicit Value(TablePtr table) : v_(std::move(table)) {
    SVX_DCHECK(std::get<TablePtr>(v_) != nullptr);
  }

  bool IsNull() const { return std::holds_alternative<std::monostate>(v_); }
  bool IsString() const { return std::holds_alternative<std::string>(v_); }
  bool IsId() const { return std::holds_alternative<OrdPath>(v_); }
  bool IsContent() const { return std::holds_alternative<NodeRef>(v_); }
  bool IsTable() const { return std::holds_alternative<TablePtr>(v_); }

  const std::string& AsString() const { return std::get<std::string>(v_); }
  const OrdPath& AsId() const { return std::get<OrdPath>(v_); }
  const NodeRef& AsContent() const { return std::get<NodeRef>(v_); }
  const Table& AsTable() const { return *std::get<TablePtr>(v_); }

  /// Deep equality (nested tables compare row sets in order).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Deep hash consistent with operator==.
  size_t Hash() const;

  /// Human-readable rendering ("⊥", "1.3.2", "pen", "content(1.3.2)",
  /// "[2 rows]"-style for tables unless `deep`).
  std::string ToString(bool deep = true) const;

 private:
  std::variant<std::monostate, std::string, OrdPath, NodeRef, TablePtr> v_;
};

}  // namespace svx

#endif  // SVX_ALGEBRA_VALUE_H_
