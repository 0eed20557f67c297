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
  if (v.IsId()) return v.AsId();
  const NodeRef& ref = v.AsContent();
  SVX_CHECK(ref.doc != nullptr && ref.node != kInvalidNode);
  return ref.doc->ord_path(ref.node);
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

/// Resolves a content reference against `doc` — what a content cell decodes
/// to.
Result<Value> BindContent(const Document* doc, const OrdPath& id) {
  if (doc == nullptr) {
    return Status::InvalidArgument(
        "extent has content references but no document was supplied");
  }
  NodeIndex node = doc->FindByOrdPath(id);
  if (node == kInvalidNode) {
    return Status::NotFound("content reference " + id.ToString() +
                            " not in the document");
  }
  return Value(NodeRef{doc, node});
}

/// What a decoded content cell becomes: BindContent when decoding rows, a
/// ⊥ placeholder when a caller only visits the references.
using ContentFn = std::function<Result<Value>(const OrdPath&)>;

/// The cell decoder: the inverse of EncodeValue for a cell of column `col`.
Result<Value> GetCell(ByteReader* r, const ColumnSpec& col,
                      const ContentFn& content, int depth) {
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
      if (tag == kCellContent) return content(id);
      return Value(std::move(id));
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

/// Decodes a raw chunk: one cell per row, filling the chunk exactly.
Status GetRawCells(const ColumnChunk& chunk, const ColumnSpec& spec,
                   const ContentFn& content, std::vector<Value>* out) {
  ByteReader r(chunk.raw_cells);
  out->reserve(static_cast<size_t>(chunk.num_rows));
  for (int64_t i = 0; i < chunk.num_rows; ++i) {
    Result<Value> v = GetCell(&r, spec, content, 0);
    if (!v.ok()) return v.status();
    out->push_back(std::move(*v));
  }
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes in raw column chunk");
  }
  return Status::OK();
}

/// Walks a kIds/kContent chunk's delta-coded ORDPATHs in row order, calling
/// `fn(nullptr)` for ⊥ and `fn(&components)` otherwise.
template <typename Fn>
Status ForEachDeltaId(const ColumnChunk& chunk, const ColumnSpec& spec,
                      Fn&& fn) {
  std::vector<int32_t> comps;
  ByteReader r(chunk.id_bytes);
  for (int64_t i = 0; i < chunk.num_rows; ++i) {
    uint64_t head = 0;
    if (!r.GetVarint(&head)) return Truncated(r);
    if (head == 0) {
      SVX_RETURN_IF_ERROR(fn(nullptr));
      continue;
    }
    uint64_t prefix = head - 1;
    uint64_t suffix = 0;
    if (!r.GetVarint(&suffix)) return Truncated(r);
    if (prefix > comps.size() || suffix > kMaxOrdPathComponents - prefix) {
      return Status::ParseError(
          StrFormat("bad ORDPATH delta in column %s", spec.name.c_str()));
    }
    comps.resize(static_cast<size_t>(prefix));
    for (uint64_t k = 0; k < suffix; ++k) {
      uint64_t comp = 0;
      if (!r.GetVarint(&comp)) return Truncated(r);
      comps.push_back(static_cast<int32_t>(static_cast<uint32_t>(comp)));
    }
    SVX_RETURN_IF_ERROR(fn(&comps));
  }
  if (r.Remaining() != 0) {
    return Status::ParseError("trailing bytes in ORDPATH column chunk");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-column encoding.
// ---------------------------------------------------------------------------

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

ColumnChunkPtr EncodeColumn(const Table& table, int32_t c,
                            const ColumnSpec& spec) {
  auto chunk = std::make_shared<ColumnChunk>();
  chunk->num_rows = table.NumRows();

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
    chunk->encoding = ColumnChunk::kDict;
    std::vector<std::string> values;
    for (const Tuple& row : table.rows()) {
      const Value& v = row[static_cast<size_t>(c)];
      if (!v.IsNull()) values.push_back(v.AsString());
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::unordered_map<std::string_view, uint32_t> index;
    index.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      index.emplace(values[i], static_cast<uint32_t>(i));
    }
    chunk->dict = std::move(values);
    chunk->codes.reserve(static_cast<size_t>(table.NumRows()));
    for (const Tuple& row : table.rows()) {
      const Value& v = row[static_cast<size_t>(c)];
      chunk->codes.push_back(v.IsNull() ? ColumnChunk::kNullCode
                                        : index.at(v.AsString()));
    }
    return chunk;
  }

  if (all_id || all_content) {
    chunk->encoding = all_id ? ColumnChunk::kIds : ColumnChunk::kContent;
    std::vector<int32_t> prev;
    for (const Tuple& row : table.rows()) {
      const Value& v = row[static_cast<size_t>(c)];
      if (v.IsNull()) {
        PutVarint(0, &chunk->id_bytes);
      } else {
        AppendDeltaId(CellOrdPath(v), &prev, &chunk->id_bytes);
      }
    }
    return chunk;
  }

  if (all_nested) {
    chunk->encoding = ColumnChunk::kNested;
    Table concat(*spec.nested);
    chunk->offsets.reserve(static_cast<size_t>(table.NumRows()) + 1);
    chunk->nulls.reserve(static_cast<size_t>(table.NumRows()));
    chunk->offsets.push_back(0);
    for (const Tuple& row : table.rows()) {
      const Value& v = row[static_cast<size_t>(c)];
      if (v.IsNull()) {
        chunk->nulls.push_back(1);
      } else {
        chunk->nulls.push_back(0);
        for (const Tuple& inner : v.AsTable().rows()) {
          concat.AddRow(inner);
        }
      }
      chunk->offsets.push_back(concat.NumRows());
    }
    chunk->child = std::make_shared<const ColumnarExtent>(
        ColumnarExtent::Encode(concat));
    return chunk;
  }

  chunk->encoding = ColumnChunk::kRaw;
  for (const Tuple& row : table.rows()) {
    EncodeValue(row[static_cast<size_t>(c)], &chunk->raw_cells);
  }
  return chunk;
}

bool ChunkHasContent(const ColumnChunk& chunk, const ColumnSpec& spec) {
  switch (chunk.encoding) {
    case ColumnChunk::kContent:
      return !chunk.id_bytes.empty();
    case ColumnChunk::kNested:
      return chunk.child != nullptr && chunk.child->has_content();
    case ColumnChunk::kRaw: {
      bool found = false;
      std::vector<Value> ignored;
      // A corrupt chunk fails later, at decode (or at load, through
      // ForEachContentId, once a content cell was found before the damage).
      (void)GetRawCells(chunk, spec,
                        [&found](const OrdPath&) -> Result<Value> {
                          found = true;
                          return Value();
                        },
                        &ignored);
      return found;
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Per-column decoding.
// ---------------------------------------------------------------------------

Status DecodeIdColumn(const ColumnChunk& chunk, const ColumnSpec& spec,
                      const Document* doc, std::vector<Value>* out) {
  const bool content = chunk.encoding == ColumnChunk::kContent;
  out->reserve(static_cast<size_t>(chunk.num_rows));
  return ForEachDeltaId(
      chunk, spec, [&](const std::vector<int32_t>* comps) -> Status {
        if (comps == nullptr) {
          out->push_back(Value());
          return Status::OK();
        }
        OrdPath id(*comps);
        if (!content) {
          out->push_back(Value(std::move(id)));
          return Status::OK();
        }
        Result<Value> ref = BindContent(doc, id);
        if (!ref.ok()) return ref.status();
        out->push_back(std::move(*ref));
        return Status::OK();
      });
}

Status DecodeColumnValues(const ColumnChunk& chunk, const ColumnSpec& spec,
                          const Document* doc, std::vector<Value>* out) {
  switch (chunk.encoding) {
    case ColumnChunk::kDict: {
      if (chunk.codes.size() != static_cast<size_t>(chunk.num_rows)) {
        return Status::ParseError("dictionary code count mismatch");
      }
      out->reserve(chunk.codes.size());
      for (uint32_t code : chunk.codes) {
        if (code == ColumnChunk::kNullCode) {
          out->push_back(Value());
        } else if (code < chunk.dict.size()) {
          out->push_back(Value(chunk.dict[code]));
        } else {
          return Status::ParseError(
              StrFormat("dictionary code out of range in column %s",
                        spec.name.c_str()));
        }
      }
      return Status::OK();
    }
    case ColumnChunk::kIds:
    case ColumnChunk::kContent:
      return DecodeIdColumn(chunk, spec, doc, out);
    case ColumnChunk::kNested: {
      if (chunk.child == nullptr || spec.nested == nullptr ||
          chunk.offsets.size() != static_cast<size_t>(chunk.num_rows) + 1 ||
          chunk.nulls.size() != static_cast<size_t>(chunk.num_rows)) {
        return Status::ParseError("malformed nested column chunk");
      }
      Result<Table> child = chunk.child->Decode(doc);
      if (!child.ok()) return child.status();
      out->reserve(static_cast<size_t>(chunk.num_rows));
      for (int64_t i = 0; i < chunk.num_rows; ++i) {
        if (chunk.nulls[static_cast<size_t>(i)] != 0) {
          out->push_back(Value());
          continue;
        }
        int64_t lo = chunk.offsets[static_cast<size_t>(i)];
        int64_t hi = chunk.offsets[static_cast<size_t>(i) + 1];
        if (lo < 0 || hi < lo || hi > child->NumRows()) {
          return Status::ParseError("nested column offsets out of range");
        }
        Table group(*spec.nested);
        for (int64_t k = lo; k < hi; ++k) {
          group.AddRow(child->row(k));
        }
        out->push_back(Value(std::make_shared<const Table>(std::move(group))));
      }
      return Status::OK();
    }
    case ColumnChunk::kRaw:
      return GetRawCells(
          chunk, spec,
          [doc](const OrdPath& id) { return BindContent(doc, id); }, out);
  }
  return Status::ParseError("bad column chunk encoding");
}

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

bool ColumnChunk::operator==(const ColumnChunk& other) const {
  if (encoding != other.encoding || num_rows != other.num_rows) return false;
  switch (encoding) {
    case kDict:
      return dict == other.dict && codes == other.codes;
    case kIds:
    case kContent:
      return id_bytes == other.id_bytes;
    case kNested:
      if (offsets != other.offsets || nulls != other.nulls) return false;
      if (child == other.child) return true;
      return child != nullptr && other.child != nullptr &&
             *child == *other.child;
    case kRaw:
      return raw_cells == other.raw_cells;
  }
  return false;
}

ColumnarExtent ColumnarExtent::Encode(const Table& table) {
  ColumnarExtent out;
  out.schema_ = table.schema();
  out.num_rows_ = table.NumRows();
  out.columns_.reserve(static_cast<size_t>(out.schema_.size()));
  for (int32_t c = 0; c < out.schema_.size(); ++c) {
    const ColumnSpec& spec = out.schema_.column(c);
    ColumnChunkPtr chunk = EncodeColumn(table, c, spec);
    out.has_content_ = out.has_content_ || ChunkHasContent(*chunk, spec);
    out.columns_.push_back(std::move(chunk));
  }
  return out;
}

Result<Table> ColumnarExtent::Decode(const Document* doc) const {
  std::vector<std::vector<Value>> cols(static_cast<size_t>(schema_.size()));
  for (int32_t c = 0; c < schema_.size(); ++c) {
    const ColumnChunkPtr& chunk = columns_[static_cast<size_t>(c)];
    if (chunk == nullptr || chunk->num_rows != num_rows_) {
      return Status::ParseError("column chunk row count mismatch");
    }
    SVX_RETURN_IF_ERROR(DecodeColumnValues(*chunk, schema_.column(c), doc,
                                           &cols[static_cast<size_t>(c)]));
  }
  Table table(schema_);
  for (int64_t i = 0; i < num_rows_; ++i) {
    Tuple row;
    row.reserve(cols.size());
    for (std::vector<Value>& col : cols) {
      row.push_back(std::move(col[static_cast<size_t>(i)]));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

int64_t ColumnarExtent::SerializedByteSize() const {
  std::string bytes;
  AppendBytes(&bytes);
  return static_cast<int64_t>(bytes.size());
}

void ColumnarExtent::AppendBytes(std::string* out) const {
  PutVarint(static_cast<uint64_t>(num_rows_), out);
  for (const ColumnChunkPtr& chunk : columns_) {
    out->push_back(static_cast<char>(chunk->encoding));
    switch (chunk->encoding) {
      case ColumnChunk::kDict: {
        PutVarint(chunk->dict.size(), out);
        for (const std::string& s : chunk->dict) {
          PutVarint(s.size(), out);
          out->append(s);
        }
        for (uint32_t code : chunk->codes) {
          PutVarint(code == ColumnChunk::kNullCode
                        ? 0
                        : static_cast<uint64_t>(code) + 1,
                    out);
        }
        break;
      }
      case ColumnChunk::kIds:
      case ColumnChunk::kContent:
        PutVarint(chunk->id_bytes.size(), out);
        out->append(chunk->id_bytes);
        break;
      case ColumnChunk::kNested: {
        std::string bitmap(static_cast<size_t>((chunk->num_rows + 7) / 8),
                           '\0');
        for (int64_t i = 0; i < chunk->num_rows; ++i) {
          if (chunk->nulls[static_cast<size_t>(i)] != 0) {
            bitmap[static_cast<size_t>(i / 8)] |=
                static_cast<char>(1 << (i % 8));
          }
        }
        out->append(bitmap);
        for (int64_t i = 0; i < chunk->num_rows; ++i) {
          if (chunk->nulls[static_cast<size_t>(i)] == 0) {
            PutVarint(static_cast<uint64_t>(
                          chunk->offsets[static_cast<size_t>(i) + 1] -
                          chunk->offsets[static_cast<size_t>(i)]),
                      out);
          }
        }
        chunk->child->AppendBytes(out);
        break;
      }
      case ColumnChunk::kRaw:
        PutVarint(chunk->raw_cells.size(), out);
        out->append(chunk->raw_cells);
        break;
    }
  }
}

Result<ColumnarExtent> ColumnarExtent::FromBytes(ByteReader* reader,
                                                 Schema schema) {
  ByteReader& r = *reader;
  uint64_t nrows = 0;
  if (!r.GetVarint(&nrows)) return Truncated(r);
  // Every non-empty column costs at least one byte per row downstream, so a
  // row count beyond the remaining input is corrupt, not just large; a
  // zero-column table costs no bytes per row and is held to the input size.
  if (nrows > (schema.size() > 0 ? r.Remaining() + 1 : r.size())) {
    return Status::ParseError("columnar row count exceeds input size");
  }
  ColumnarExtent out;
  out.num_rows_ = static_cast<int64_t>(nrows);
  out.schema_ = std::move(schema);
  out.columns_.reserve(static_cast<size_t>(out.schema_.size()));
  for (int32_t c = 0; c < out.schema_.size(); ++c) {
    const ColumnSpec& spec = out.schema_.column(c);
    auto chunk = std::make_shared<ColumnChunk>();
    chunk->num_rows = out.num_rows_;
    uint8_t encoding = 0;
    if (!r.GetU8(&encoding)) return Truncated(r);
    if (encoding > ColumnChunk::kRaw) {
      return Status::ParseError(
          StrFormat("bad column encoding %u", static_cast<unsigned>(encoding)));
    }
    chunk->encoding = static_cast<ColumnChunk::Encoding>(encoding);
    switch (chunk->encoding) {
      case ColumnChunk::kDict: {
        uint64_t ndict = 0;
        if (!r.GetVarint(&ndict) || ndict > r.Remaining()) return Truncated(r);
        chunk->dict.reserve(static_cast<size_t>(ndict));
        for (uint64_t i = 0; i < ndict; ++i) {
          uint64_t len = 0;
          std::string s;
          if (!r.GetVarint(&len) || !r.GetBytes(static_cast<size_t>(len), &s)) {
            return Truncated(r);
          }
          chunk->dict.push_back(std::move(s));
        }
        chunk->codes.reserve(static_cast<size_t>(nrows));
        for (uint64_t i = 0; i < nrows; ++i) {
          uint64_t code = 0;
          if (!r.GetVarint(&code)) return Truncated(r);
          if (code == 0) {
            chunk->codes.push_back(ColumnChunk::kNullCode);
          } else if (code <= ndict) {
            chunk->codes.push_back(static_cast<uint32_t>(code - 1));
          } else {
            return Status::ParseError("dictionary code out of range");
          }
        }
        break;
      }
      case ColumnChunk::kIds:
      case ColumnChunk::kContent: {
        uint64_t len = 0;
        if (!r.GetVarint(&len) ||
            !r.GetBytes(static_cast<size_t>(len), &chunk->id_bytes)) {
          return Truncated(r);
        }
        break;
      }
      case ColumnChunk::kNested: {
        if (spec.nested == nullptr) {
          return Status::ParseError("nested chunk in a non-nested column");
        }
        size_t nbitmap = static_cast<size_t>((nrows + 7) / 8);
        std::string bitmap;
        if (!r.GetBytes(nbitmap, &bitmap)) return Truncated(r);
        chunk->nulls.reserve(static_cast<size_t>(nrows));
        for (uint64_t i = 0; i < nrows; ++i) {
          chunk->nulls.push_back(
              (static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1);
        }
        chunk->offsets.reserve(static_cast<size_t>(nrows) + 1);
        chunk->offsets.push_back(0);
        for (uint64_t i = 0; i < nrows; ++i) {
          int64_t group = 0;
          if (chunk->nulls[static_cast<size_t>(i)] == 0) {
            uint64_t size = 0;
            if (!r.GetVarint(&size)) return Truncated(r);
            // The groups partition the child's rows, whose count the child
            // header holds to the input size.
            const auto used = static_cast<uint64_t>(chunk->offsets.back());
            if (size > r.size() - used) {
              return Status::ParseError("nested group sizes exceed input size");
            }
            group = static_cast<int64_t>(size);
          }
          chunk->offsets.push_back(chunk->offsets.back() + group);
        }
        Result<ColumnarExtent> child = FromBytes(&r, *spec.nested);
        if (!child.ok()) return child.status();
        if (child->num_rows() != chunk->offsets.back()) {
          return Status::ParseError("nested child row count mismatch");
        }
        chunk->child = std::make_shared<const ColumnarExtent>(
            std::move(*child));
        break;
      }
      case ColumnChunk::kRaw: {
        uint64_t len = 0;
        if (!r.GetVarint(&len) ||
            !r.GetBytes(static_cast<size_t>(len), &chunk->raw_cells)) {
          return Truncated(r);
        }
        break;
      }
    }
    out.has_content_ = out.has_content_ || ChunkHasContent(*chunk, spec);
    out.columns_.push_back(std::move(chunk));
  }
  return out;
}

Status ColumnarExtent::ForEachContentId(
    const std::function<Status(const OrdPath&)>& fn) const {
  for (int32_t c = 0; c < schema_.size(); ++c) {
    const ColumnChunk& chunk = *columns_[static_cast<size_t>(c)];
    const ColumnSpec& spec = schema_.column(c);
    switch (chunk.encoding) {
      case ColumnChunk::kContent:
        SVX_RETURN_IF_ERROR(ForEachDeltaId(
            chunk, spec, [&fn](const std::vector<int32_t>* comps) {
              return comps == nullptr ? Status::OK() : fn(OrdPath(*comps));
            }));
        break;
      case ColumnChunk::kNested:
        if (chunk.child != nullptr) {
          SVX_RETURN_IF_ERROR(chunk.child->ForEachContentId(fn));
        }
        break;
      case ColumnChunk::kRaw: {
        std::vector<Value> ignored;
        SVX_RETURN_IF_ERROR(GetRawCells(
            chunk, spec,
            [&fn](const OrdPath& id) -> Result<Value> {
              SVX_RETURN_IF_ERROR(fn(id));
              return Value();
            },
            &ignored));
        break;
      }
      default:
        break;
    }
  }
  return Status::OK();
}

bool ColumnarExtent::operator==(const ColumnarExtent& other) const {
  if (!(schema_ == other.schema_) || num_rows_ != other.num_rows_ ||
      columns_.size() != other.columns_.size()) {
    return false;
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == other.columns_[c]) continue;
    if (columns_[c] == nullptr || other.columns_[c] == nullptr ||
        !(*columns_[c] == *other.columns_[c])) {
      return false;
    }
  }
  return true;
}

}  // namespace svx
