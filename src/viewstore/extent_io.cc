#include "src/viewstore/extent_io.h"

#include <cstdint>
#include <memory>

#include "src/util/bytes.h"
#include "src/util/strings.h"

namespace svx {

namespace {

constexpr std::string_view kMagic = "SVXT";
constexpr uint32_t kRowMajorVersion = 1;
constexpr uint32_t kVersion = 2;

void PutSchema(const Schema& schema, std::string* out) {
  PutU32(static_cast<uint32_t>(schema.size()), out);
  for (const ColumnSpec& col : schema.columns()) {
    PutString(col.name, out);
    PutU8(static_cast<uint8_t>(col.kind), out);
    PutU8(col.nested != nullptr ? 1 : 0, out);
    if (col.nested != nullptr) PutSchema(*col.nested, out);
  }
}

/// SerializeExtent's header: "SVXT" u32(1) + schema.
std::string RowMajorHeader(const Schema& schema) {
  std::string out(kMagic);
  PutU32(kRowMajorVersion, &out);
  PutSchema(schema, &out);
  return out;
}

Status Truncated(const ByteReader& r) {
  return Status::ParseError(
      StrFormat("truncated extent at offset %zu", r.pos()));
}

Result<Schema> GetSchema(ByteReader* r, int depth) {
  if (depth > 16) return Status::ParseError("schema nesting too deep");
  uint32_t ncols = 0;
  if (!r->GetU32(&ncols) || ncols > 1u << 16) return Truncated(*r);
  Schema schema;
  for (uint32_t i = 0; i < ncols; ++i) {
    ColumnSpec col;
    uint8_t kind = 0;
    uint8_t has_nested = 0;
    if (!r->GetString(&col.name) || !r->GetU8(&kind) ||
        !r->GetU8(&has_nested)) {
      return Truncated(*r);
    }
    if (kind > static_cast<uint8_t>(ColumnKind::kNested)) {
      return Status::ParseError(
          StrFormat("bad column kind %u", static_cast<unsigned>(kind)));
    }
    col.kind = static_cast<ColumnKind>(kind);
    if (has_nested != 0) {
      Result<Schema> nested = GetSchema(r, depth + 1);
      if (!nested.ok()) return nested.status();
      col.nested = std::make_shared<const Schema>(std::move(*nested));
    }
    schema.Append(std::move(col));
  }
  return schema;
}

}  // namespace

std::string SerializeExtent(const Table& table) {
  std::string out = RowMajorHeader(table.schema());
  PutU64(static_cast<uint64_t>(table.NumRows()), &out);
  for (const Tuple& row : table.rows()) {
    for (const Value& v : row) EncodeValue(v, &out);
  }
  return out;
}

int64_t ExtentByteSize(const Table& table) {
  int64_t size = static_cast<int64_t>(RowMajorHeader(table.schema()).size());
  size += 8;  // u64 row count
  for (const Tuple& row : table.rows()) size += TupleByteSize(row);
  return size;
}

int64_t TupleByteSize(const Tuple& tuple) {
  int64_t size = 0;
  for (const Value& v : tuple) size += EncodedValueSize(v);
  return size;
}

std::string SerializeColumnarExtent(const ColumnarExtent& extent,
                                    int64_t uncompressed_bytes) {
  std::string out(kMagic);
  PutU32(kVersion, &out);
  PutU64(static_cast<uint64_t>(uncompressed_bytes), &out);
  PutSchema(extent.schema(), &out);
  out.append(extent.payload());
  return out;
}

Result<ColumnarLoad> DeserializeExtentColumnar(std::string_view bytes) {
  if (!StartsWith(bytes, kMagic)) {
    return Status::ParseError("not an extent file (bad magic)");
  }
  ByteReader r(bytes, kMagic.size());
  uint32_t version = 0;
  uint64_t uncompressed = 0;
  if (!r.GetU32(&version)) return Truncated(r);
  if (version != kVersion) {
    return Status::Unsupported(StrFormat(
        "extent version %u (want %u); rebuild the store from the document",
        version, kVersion));
  }
  if (!r.GetU64(&uncompressed)) return Truncated(r);
  Result<Schema> schema = GetSchema(&r, 0);
  if (!schema.ok()) return schema.status();
  Result<ColumnarExtent> columnar =
      ColumnarExtent::FromBytes(&r, std::move(*schema));
  if (!columnar.ok()) return columnar.status();
  if (!r.AtEnd()) {
    return Status::ParseError(
        StrFormat("trailing bytes at offset %zu", r.pos()));
  }
  ColumnarLoad load;
  load.columnar = std::make_shared<const ColumnarExtent>(std::move(*columnar));
  load.uncompressed_bytes = static_cast<int64_t>(uncompressed);
  return load;
}

std::string EncodeTupleKey(const Tuple& tuple) {
  std::string key;
  for (const Value& v : tuple) EncodeValue(v, &key);
  return key;
}

}  // namespace svx
