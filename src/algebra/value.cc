#include "src/algebra/value.h"

#include "src/algebra/relation.h"

namespace svx {

bool Value::operator==(const Value& other) const {
  if (v_.index() != other.v_.index()) return false;
  if (IsNull()) return true;
  if (IsString()) return AsString() == other.AsString();
  if (IsId()) return AsId() == other.AsId();
  if (IsContent()) return AsContent() == other.AsContent();
  // Nested tables: deep row-set comparison.
  return AsTable().EqualsIgnoringOrder(other.AsTable());
}

size_t Value::Hash() const {
  auto mix = [](size_t h, size_t x) {
    return h ^ (x + 0x9E3779B9 + (h << 6) + (h >> 2));
  };
  if (IsNull()) return 0x5E5E5E5Eu;
  if (IsString()) return mix(1, std::hash<std::string>{}(AsString()));
  if (IsId()) return mix(2, AsId().Hash());
  if (IsContent()) return mix(3, AsContent().id.Hash());
  // Nested tables: order-insensitive combination of row hashes.
  size_t h = 4;
  size_t acc = 0;
  for (const Tuple& row : AsTable().rows()) acc += TupleHash(row);
  return mix(h, acc);
}

std::string Value::ToString(bool deep) const {
  if (IsNull()) return "⊥";
  if (IsString()) return AsString();
  if (IsId()) return AsId().ToString();
  if (IsContent()) return "content(" + AsContent().id.ToString() + ")";
  if (!deep) {
    return "[" + std::to_string(AsTable().NumRows()) + " rows]";
  }
  std::string out = "{";
  for (int64_t i = 0; i < AsTable().NumRows(); ++i) {
    if (i > 0) out += "; ";
    const Tuple& row = AsTable().row(i);
    out += "(";
    for (size_t j = 0; j < row.size(); ++j) {
      if (j > 0) out += ", ";
      out += row[j].ToString(deep);
    }
    out += ")";
  }
  out += "}";
  return out;
}

}  // namespace svx
