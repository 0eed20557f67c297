#include "src/algebra/columnar.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace svx {

namespace {

// ---------------------------------------------------------------------------
// The cell codec: EncodeValue's layout (columnar.h), its size, and the one
// decoder that reads it back.
// ---------------------------------------------------------------------------

enum CellTag : uint8_t {
  kCellNull = 0,
  kCellString = 1,
  kCellId = 2,
  kCellContent = 3,
  kCellNested = 4,
};

// Nesting cap for decoded cells, so corrupt input cannot recurse without
// bound.
constexpr int kMaxCellDepth = 16;

// Component cap for one decoded ORDPATH (cells and delta-coded chunks), so a
// corrupt count cannot force a huge allocation.
constexpr uint64_t kMaxOrdPathComponents = 1u << 20;

const OrdPath& CellOrdPath(const Value& v) {
  return v.IsId() ? v.AsId() : v.AsContent().id;
}

void PutOrdPath(const OrdPath& id, std::string* out) {
  PutU32(static_cast<uint32_t>(id.components().size()), out);
  for (int32_t c : id.components()) {
    PutU32(static_cast<uint32_t>(c), out);
  }
}

bool GetOrdPath(ByteReader* r, OrdPath* id) {
  uint32_t n = 0;
  if (!r->GetU32(&n) || n > kMaxOrdPathComponents ||
      4ull * n > r->Remaining()) {
    return false;
  }
  std::vector<int32_t> comps(n);
  for (int32_t& c : comps) {
    uint32_t u = 0;
    if (!r->GetU32(&u)) return false;
    c = static_cast<int32_t>(u);
  }
  *id = OrdPath(std::move(comps));
  return true;
}

Status Truncated(const ByteReader& r) {
  return Status::ParseError(
      StrFormat("truncated columnar extent at offset %zu", r.pos()));
}

/// Called with every content reference a reader meets (ForEachContentId).
using ContentVisitor = std::function<Status(const OrdPath&)>;

/// The cell decoder: the inverse of EncodeValue for a cell of column `col`.
/// Hands each content reference to `content` before returning it.
Result<Value> GetCell(ByteReader* r, const ColumnSpec& col,
                      const ContentVisitor& content, int depth) {
  if (depth > kMaxCellDepth) return Status::ParseError("cell nesting too deep");
  uint8_t tag = 0;
  if (!r->GetU8(&tag)) return Truncated(*r);
  switch (tag) {
    case kCellNull:
      return Value();
    case kCellString: {
      std::string s;
      if (!r->GetString(&s)) return Truncated(*r);
      return Value(std::move(s));
    }
    case kCellId:
    case kCellContent: {
      OrdPath id;
      if (!GetOrdPath(r, &id)) return Truncated(*r);
      if (tag == kCellId) return Value(std::move(id));
      SVX_RETURN_IF_ERROR(content(id));
      return Value(NodeRef{std::move(id)});
    }
    case kCellNested: {
      if (col.nested == nullptr) {
        return Status::ParseError("nested cell in a non-nested column");
      }
      uint64_t nrows = 0;
      if (!r->GetU64(&nrows)) return Truncated(*r);
      const Schema& schema = *col.nested;
      // Every cell costs at least one byte, so a row count beyond the
      // remaining input is corrupt rather than large; zero-column rows cost
      // nothing and are held to the input size.
      const uint64_t limit =
          schema.size() > 0
              ? r->Remaining() / static_cast<uint64_t>(schema.size())
              : r->size();
      if (nrows > limit) {
        return Status::ParseError(
            StrFormat("nested row count %llu exceeds input size",
                      static_cast<unsigned long long>(nrows)));
      }
      Table table(schema);
      for (uint64_t i = 0; i < nrows; ++i) {
        Tuple row;
        row.reserve(static_cast<size_t>(schema.size()));
        for (int32_t c = 0; c < schema.size(); ++c) {
          Result<Value> v = GetCell(r, schema.column(c), content, depth + 1);
          if (!v.ok()) return v.status();
          row.push_back(std::move(*v));
        }
        table.AddRow(std::move(row));
      }
      return Value(std::make_shared<const Table>(std::move(table)));
    }
    default:
      return Status::ParseError(
          StrFormat("bad cell tag %u", static_cast<unsigned>(tag)));
  }
}

// ---------------------------------------------------------------------------
// The writer: Encode's payload (layout in columnar.h).
// ---------------------------------------------------------------------------

/// A chunk's tag byte.
enum ColumnEncoding : uint8_t {
  kDict = 0,
  kIds = 1,
  kContent = 2,
  kNested = 3,
  kRaw = 4,
};

/// Whether any cell of `v`, however deeply nested, is a content reference.
bool HasContent(const Value& v) {
  if (v.IsContent()) return true;
  if (!v.IsTable()) return false;
  for (const Tuple& row : v.AsTable().rows()) {
    for (const Value& cell : row) {
      if (HasContent(cell)) return true;
    }
  }
  return false;
}

void AppendDeltaId(const OrdPath& id, std::vector<int32_t>* prev,
                   std::string* out) {
  const std::vector<int32_t>& comps = id.components();
  size_t prefix = 0;
  size_t limit = std::min(prev->size(), comps.size());
  while (prefix < limit &&
         (*prev)[prefix] == comps[prefix]) {
    ++prefix;
  }
  PutVarint(static_cast<uint64_t>(prefix) + 1, out);
  PutVarint(static_cast<uint64_t>(comps.size() - prefix), out);
  for (size_t i = prefix; i < comps.size(); ++i) {
    PutVarint(static_cast<uint64_t>(static_cast<uint32_t>(comps[i])), out);
  }
  *prev = comps;
}

/// A varint length, then `bytes`.
void PutRun(const std::string& bytes, std::string* out) {
  PutVarint(bytes.size(), out);
  out->append(bytes);
}

bool EncodePayload(const Table& table, std::string* out);

/// Appends column `c`'s tagged chunk; returns whether it holds a content
/// reference.
bool EncodeColumn(const Table& table, int32_t c, const ColumnSpec& spec,
                  std::string* out) {
  bool all_string = true, all_id = true, all_content = true, all_nested = true;
  for (const Tuple& row : table.rows()) {
    const Value& v = row[static_cast<size_t>(c)];
    if (v.IsNull()) continue;
    if (!v.IsString()) all_string = false;
    if (!v.IsId()) all_id = false;
    if (!v.IsContent()) all_content = false;
    if (!v.IsTable() || spec.nested == nullptr ||
        !(v.AsTable().schema() == *spec.nested)) {
      all_nested = false;
    }
  }

  if (all_string) {
    PutU8(kDict, out);
    std::vector<std::string_view> dict;
    for (const Tuple& row : table.rows()) {
      const Value& v = row[static_cast<size_t>(c)];
      if (!v.IsNull()) dict.push_back(v.AsString());
    }
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    std::unordered_map<std::string_view, uint64_t> code;
    code.reserve(dict.size());
    PutVarint(dict.size(), out);
    for (std::string_view s : dict) {
      code.emplace(s, code.size() + 1);
      PutVarint(s.size(), out);
      out->append(s);
    }
    for (const Tuple& row : table.rows()) {
      const Value& v = row[static_cast<size_t>(c)];
      PutVarint(v.IsNull() ? 0 : code.at(v.AsString()), out);
    }
    return false;
  }

  if (all_id || all_content) {
    // Not all ⊥ (that column is a dictionary), so a content chunk holds at
    // least one reference.
    PutU8(all_id ? kIds : kContent, out);
    std::string ids;
    std::vector<int32_t> prev;
    for (const Tuple& row : table.rows()) {
      const Value& v = row[static_cast<size_t>(c)];
      if (v.IsNull()) {
        PutVarint(0, &ids);
      } else {
        AppendDeltaId(CellOrdPath(v), &prev, &ids);
      }
    }
    PutRun(ids, out);
    return !all_id;
  }

  if (all_nested) {
    PutU8(kNested, out);
    Table concat(*spec.nested);
    std::string bitmap(static_cast<size_t>((table.NumRows() + 7) / 8), '\0');
    std::string sizes;
    for (int64_t i = 0; i < table.NumRows(); ++i) {
      const Value& v = table.row(i)[static_cast<size_t>(c)];
      if (v.IsNull()) {
        bitmap[static_cast<size_t>(i / 8)] |= static_cast<char>(1 << (i % 8));
        continue;
      }
      PutVarint(static_cast<uint64_t>(v.AsTable().NumRows()), &sizes);
      for (const Tuple& inner : v.AsTable().rows()) concat.AddRow(inner);
    }
    out->append(bitmap);
    out->append(sizes);
    return EncodePayload(concat, out);
  }

  PutU8(kRaw, out);
  std::string cells;
  bool has_content = false;
  for (const Tuple& row : table.rows()) {
    const Value& v = row[static_cast<size_t>(c)];
    EncodeValue(v, &cells);
    has_content = has_content || HasContent(v);
  }
  PutRun(cells, out);
  return has_content;
}

/// Appends `table`'s payload; returns whether any cell is a content
/// reference.
bool EncodePayload(const Table& table, std::string* out) {
  PutVarint(static_cast<uint64_t>(table.NumRows()), out);
  bool has_content = false;
  for (int32_t c = 0; c < table.schema().size(); ++c) {
    has_content =
        EncodeColumn(table, c, table.schema().column(c), out) || has_content;
  }
  return has_content;
}

// ---------------------------------------------------------------------------
// The reader: the one walk over a payload, in three modes.
// ---------------------------------------------------------------------------

/// Walks a payload column by column, checking every byte. With `rows` set it
/// decodes: it appends each column's value to each row. With `rows` null it
/// only checks, and builds no OrdPath or Value except for content
/// references, which it hands to `content` when one is given.
class PayloadReader {
 public:
  PayloadReader(ByteReader* r, ContentVisitor content)
      : r_(r), content_(std::move(content)) {}

  /// Reads one extent's payload for `schema` into *out (null: check only)
  /// and sets *num_rows.
  Status ReadExtent(const Schema& schema, Table* out, int64_t* num_rows) {
    uint64_t nrows = 0;
    if (!r_->GetVarint(&nrows)) return Truncated(*r_);
    // Every non-empty column costs at least one byte per row downstream, so
    // a row count beyond the remaining input is corrupt, not just large; a
    // zero-column table costs no bytes per row and is held to the input
    // size.
    if (nrows > (schema.size() > 0 ? r_->Remaining() + 1 : r_->size())) {
      return Status::ParseError("columnar row count exceeds input size");
    }
    *num_rows = static_cast<int64_t>(nrows);
    std::vector<Tuple>* rows = nullptr;
    if (out != nullptr) {
      *out = Table(schema);
      rows = &out->mutable_rows();
      rows->resize(static_cast<size_t>(nrows));
      for (Tuple& row : *rows) row.reserve(static_cast<size_t>(schema.size()));
    }
    for (int32_t c = 0; c < schema.size(); ++c) {
      SVX_RETURN_IF_ERROR(ReadColumn(schema.column(c), nrows, rows));
    }
    return Status::OK();
  }

  /// Whether a content reference was read.
  bool has_content() const { return has_content_; }

 private:
  Status ReadColumn(const ColumnSpec& spec, uint64_t nrows,
                    std::vector<Tuple>* rows) {
    uint8_t encoding = 0;
    if (!r_->GetU8(&encoding)) return Truncated(*r_);
    switch (encoding) {
      case kDict:
        return ReadDict(spec, nrows, rows);
      case kIds:
      case kContent:
        return ReadIds(spec, encoding == kContent, nrows, rows);
      case kNested:
        return ReadNested(spec, nrows, rows);
      case kRaw:
        return ReadRaw(spec, nrows, rows);
      default:
        return Status::ParseError(StrFormat("bad column encoding %u",
                                            static_cast<unsigned>(encoding)));
    }
  }

  Status ReadDict(const ColumnSpec& spec, uint64_t nrows,
                  std::vector<Tuple>* rows) {
    uint64_t ndict = 0;
    if (!r_->GetVarint(&ndict) || ndict > r_->Remaining()) {
      return Truncated(*r_);
    }
    std::vector<std::string_view> dict;
    if (rows != nullptr) dict.reserve(static_cast<size_t>(ndict));
    for (uint64_t i = 0; i < ndict; ++i) {
      uint64_t len = 0;
      std::string_view s;
      if (!r_->GetVarint(&len) || !r_->GetView(static_cast<size_t>(len), &s)) {
        return Truncated(*r_);
      }
      if (rows != nullptr) dict.push_back(s);
    }
    for (uint64_t i = 0; i < nrows; ++i) {
      uint64_t code = 0;
      if (!r_->GetVarint(&code)) return Truncated(*r_);
      if (code > ndict) {
        return Status::ParseError(StrFormat(
            "dictionary code out of range in column %s", spec.name.c_str()));
      }
      if (rows == nullptr) continue;
      if (code == 0) {
        (*rows)[i].emplace_back();
      } else {
        (*rows)[i].emplace_back(std::string(dict[code - 1]));
      }
    }
    return Status::OK();
  }

  Status ReadIds(const ColumnSpec& spec, bool is_content, uint64_t nrows,
                 std::vector<Tuple>* rows) {
    std::string_view run;
    SVX_RETURN_IF_ERROR(GetRun(&run));
    ByteReader ids(run);
    std::vector<int32_t> comps;
    for (uint64_t i = 0; i < nrows; ++i) {
      uint64_t head = 0;
      if (!ids.GetVarint(&head)) return Truncated(ids);
      if (head == 0) {
        if (rows != nullptr) (*rows)[i].emplace_back();
        continue;
      }
      uint64_t prefix = head - 1;
      uint64_t suffix = 0;
      if (!ids.GetVarint(&suffix)) return Truncated(ids);
      if (prefix > comps.size() || suffix > kMaxOrdPathComponents - prefix) {
        return Status::ParseError(
            StrFormat("bad ORDPATH delta in column %s", spec.name.c_str()));
      }
      comps.resize(static_cast<size_t>(prefix));
      for (uint64_t k = 0; k < suffix; ++k) {
        uint64_t comp = 0;
        if (!ids.GetVarint(&comp)) return Truncated(ids);
        comps.push_back(static_cast<int32_t>(static_cast<uint32_t>(comp)));
      }
      if (!is_content && rows == nullptr) continue;  // checked only
      OrdPath id(comps);
      if (is_content) SVX_RETURN_IF_ERROR(Content(id));
      if (rows == nullptr) continue;
      (*rows)[i].push_back(is_content ? Value(NodeRef{std::move(id)})
                                      : Value(std::move(id)));
    }
    if (!ids.AtEnd()) {
      return Status::ParseError("trailing bytes in ORDPATH column chunk");
    }
    return Status::OK();
  }

  Status ReadNested(const ColumnSpec& spec, uint64_t nrows,
                    std::vector<Tuple>* rows) {
    if (spec.nested == nullptr) {
      return Status::ParseError("nested chunk in a non-nested column");
    }
    std::string_view bitmap;
    if (!r_->GetView(static_cast<size_t>((nrows + 7) / 8), &bitmap)) {
      return Truncated(*r_);
    }
    auto is_null = [&bitmap](uint64_t i) {
      return ((static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1) != 0;
    };
    std::vector<uint64_t> sizes;
    uint64_t total = 0;
    for (uint64_t i = 0; i < nrows; ++i) {
      if (is_null(i)) continue;
      uint64_t size = 0;
      if (!r_->GetVarint(&size)) return Truncated(*r_);
      // The groups partition the child's rows, whose count the child header
      // holds to the input size.
      if (size > r_->size() - total) {
        return Status::ParseError("nested group sizes exceed input size");
      }
      total += size;
      sizes.push_back(size);
    }
    Table child;
    int64_t child_rows = 0;
    SVX_RETURN_IF_ERROR(ReadExtent(*spec.nested,
                                   rows != nullptr ? &child : nullptr,
                                   &child_rows));
    if (static_cast<uint64_t>(child_rows) != total) {
      return Status::ParseError("nested child row count mismatch");
    }
    if (rows == nullptr) return Status::OK();
    auto next = child.mutable_rows().begin();
    auto size = sizes.begin();
    for (uint64_t i = 0; i < nrows; ++i) {
      if (is_null(i)) {
        (*rows)[i].emplace_back();
        continue;
      }
      Table group(*spec.nested);
      for (uint64_t k = 0; k < *size; ++k) group.AddRow(std::move(*next++));
      ++size;
      (*rows)[i].push_back(
          Value(std::make_shared<const Table>(std::move(group))));
    }
    return Status::OK();
  }

  Status ReadRaw(const ColumnSpec& spec, uint64_t nrows,
                 std::vector<Tuple>* rows) {
    std::string_view run;
    SVX_RETURN_IF_ERROR(GetRun(&run));
    ByteReader cells(run);
    const ContentVisitor content = [this](const OrdPath& id) {
      return Content(id);
    };
    for (uint64_t i = 0; i < nrows; ++i) {
      Result<Value> v = GetCell(&cells, spec, content, 0);
      if (!v.ok()) return v.status();
      if (rows != nullptr) (*rows)[i].push_back(std::move(*v));
    }
    if (!cells.AtEnd()) {
      return Status::ParseError("trailing bytes in raw column chunk");
    }
    return Status::OK();
  }

  /// A content reference: noted, then handed to `content_` when set.
  Status Content(const OrdPath& id) {
    has_content_ = true;
    return content_ ? content_(id) : Status::OK();
  }

  /// The bytes of a PutRun run.
  Status GetRun(std::string_view* run) {
    uint64_t len = 0;
    if (!r_->GetVarint(&len) || !r_->GetView(static_cast<size_t>(len), run)) {
      return Truncated(*r_);
    }
    return Status::OK();
  }

  ByteReader* r_;
  const ContentVisitor content_;
  bool has_content_ = false;
};

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  if (v.IsNull()) {
    PutU8(kCellNull, out);
  } else if (v.IsString()) {
    PutU8(kCellString, out);
    PutString(v.AsString(), out);
  } else if (v.IsId() || v.IsContent()) {
    PutU8(v.IsId() ? kCellId : kCellContent, out);
    PutOrdPath(CellOrdPath(v), out);
  } else {
    const Table& nested = v.AsTable();
    PutU8(kCellNested, out);
    PutU64(static_cast<uint64_t>(nested.NumRows()), out);
    for (const Tuple& row : nested.rows()) {
      for (const Value& cell : row) EncodeValue(cell, out);
    }
  }
}

int64_t EncodedValueSize(const Value& v) {
  if (v.IsNull()) return 1;
  if (v.IsString()) return 1 + 4 + static_cast<int64_t>(v.AsString().size());
  if (v.IsId() || v.IsContent()) {
    return 1 + 4 + 4 * static_cast<int64_t>(CellOrdPath(v).components().size());
  }
  int64_t size = 1 + 8;
  for (const Tuple& row : v.AsTable().rows()) {
    for (const Value& cell : row) size += EncodedValueSize(cell);
  }
  return size;
}

ColumnarExtent ColumnarExtent::Encode(const Table& table) {
  ColumnarExtent out;
  out.schema_ = table.schema();
  out.num_rows_ = table.NumRows();
  out.has_content_ = EncodePayload(table, &out.payload_);
  return out;
}

Result<ColumnarExtent> ColumnarExtent::FromBytes(ByteReader* r,
                                                 Schema schema) {
  const size_t start = r->pos();
  PayloadReader reader(r, ContentVisitor());
  ColumnarExtent out;
  SVX_RETURN_IF_ERROR(reader.ReadExtent(schema, nullptr, &out.num_rows_));
  out.schema_ = std::move(schema);
  out.has_content_ = reader.has_content();
  out.payload_ = std::string(r->ConsumedSince(start));
  return out;
}

Result<Table> ColumnarExtent::Decode() const {
  ByteReader r(payload_);
  PayloadReader reader(&r, ContentVisitor());
  Table table;
  int64_t num_rows = 0;
  SVX_RETURN_IF_ERROR(reader.ReadExtent(schema_, &table, &num_rows));
  return table;
}

Status ColumnarExtent::ForEachContentId(
    const std::function<Status(const OrdPath&)>& fn) const {
  ByteReader r(payload_);
  PayloadReader reader(&r, fn);
  int64_t num_rows = 0;
  return reader.ReadExtent(schema_, nullptr, &num_rows);
}

}  // namespace svx
