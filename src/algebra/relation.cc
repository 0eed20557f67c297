#include "src/algebra/relation.h"

#include <algorithm>
#include <unordered_set>

namespace svx {

const char* ColumnKindName(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kId:
      return "id";
    case ColumnKind::kLabel:
      return "l";
    case ColumnKind::kValue:
      return "v";
    case ColumnKind::kContent:
      return "c";
    case ColumnKind::kNested:
      return "nested";
  }
  return "?";
}

bool ColumnSpec::operator==(const ColumnSpec& other) const {
  if (name != other.name || kind != other.kind) return false;
  if ((nested == nullptr) != (other.nested == nullptr)) return false;
  if (nested != nullptr && !(*nested == *other.nested)) return false;
  return true;
}

int32_t Schema::Find(const std::string& name) const {
  for (int32_t i = 0; i < size(); ++i) {
    if (columns_[static_cast<size_t>(i)].name == name) return i;
  }
  return -1;
}

std::string Schema::ToString() const {
  std::string out;
  for (int32_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    const ColumnSpec& c = columns_[static_cast<size_t>(i)];
    out += c.name;
    out += ':';
    out += ColumnKindName(c.kind);
    if (c.kind == ColumnKind::kNested && c.nested != nullptr) {
      out += '(' + c.nested->ToString() + ')';
    }
  }
  return out;
}

bool Schema::operator==(const Schema& other) const {
  return columns_ == other.columns_;
}

size_t TupleHash(const Tuple& t) {
  size_t h = 0x9E3779B97f4A7C15ULL;
  for (const Value& v : t) {
    h ^= v.Hash() + 0x9E3779B9 + (h << 6) + (h >> 2);
  }
  return h;
}

void Table::Deduplicate() {
  struct Entry {
    const Tuple* t;
    size_t hash;
    bool operator==(const Entry& other) const { return *t == *other.t; }
  };
  struct EntryHash {
    size_t operator()(const Entry& e) const { return e.hash; }
  };
  std::unordered_set<Entry, EntryHash> seen;
  std::vector<Tuple> kept;
  kept.reserve(rows_.size());
  for (Tuple& row : rows_) {
    // Two-phase: test membership against kept rows.
    Entry probe{&row, TupleHash(row)};
    if (seen.find(probe) != seen.end()) continue;
    kept.push_back(std::move(row));
    seen.insert(Entry{&kept.back(), probe.hash});
  }
  rows_ = std::move(kept);
}

namespace {

int VariantRank(const Value& v) {
  if (v.IsNull()) return 0;
  if (v.IsString()) return 1;
  if (v.IsId()) return 2;
  if (v.IsContent()) return 3;
  return 4;
}

}  // namespace

int CompareValues(const Value& a, const Value& b) {
  int ra = VariantRank(a);
  int rb = VariantRank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1:
      return a.AsString().compare(b.AsString());
    case 2:
      return a.AsId().Compare(b.AsId());
    case 3:
      return a.AsContent().id.Compare(b.AsContent().id);
    default: {
      const Table& ta = a.AsTable();
      const Table& tb = b.AsTable();
      int64_t n = std::min(ta.NumRows(), tb.NumRows());
      for (int64_t i = 0; i < n; ++i) {
        int c = CompareTuples(ta.row(i), tb.row(i));
        if (c != 0) return c;
      }
      if (ta.NumRows() != tb.NumRows()) {
        return ta.NumRows() < tb.NumRows() ? -1 : 1;
      }
      return 0;
    }
  }
}

int CompareTuples(const Tuple& a, const Tuple& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = CompareValues(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

void Table::SortRowsCanonical() {
  std::sort(rows_.begin(), rows_.end(), [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  });
}

bool Table::EqualsIgnoringOrder(const Table& other) const {
  if (NumRows() != other.NumRows()) return false;
  // Multiset comparison via matching flags (tables are small in tests; view
  // extents are deduplicated sets anyway).
  std::vector<bool> used(static_cast<size_t>(other.NumRows()), false);
  for (const Tuple& row : rows_) {
    bool found = false;
    for (size_t j = 0; j < used.size(); ++j) {
      if (used[j]) continue;
      if (other.rows_[j] == row) {
        used[j] = true;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::string Table::ToString() const {
  std::string out = schema_.ToString();
  out += '\n';
  for (const Tuple& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += '\n';
  }
  return out;
}

}  // namespace svx
