// Compressed columnar extents. A materialized view's extent is stored as
// one immutable compressed chunk per schema column instead of a row-major
// std::vector<Tuple> blob:
//
//   * label/value columns  -> dictionary encoding (sorted distinct strings
//                             plus one small per-row code),
//   * id/content columns   -> delta-encoded ORDPATHs (varint components,
//                             common prefix shared with the previous row;
//                             content cells store the referenced node's
//                             ORDPATH, so the chunk is document-independent
//                             and rebinding happens at decode),
//   * nested columns       -> one recursively columnar child extent holding
//                             all group rows back to back, plus per-row
//                             offsets and a ⊥ bitmap,
//   * anything type-mixed  -> a raw fallback chunk of EncodeValue cells.
//
// Chunks are held by shared_ptr and never mutated, so a decoded table can be
// dropped under memory pressure while the compressed truth stays resident.
// A cold extent is decoded whole (Decode) and the decoded table is cached by
// the view store until evicted.
//
// Encoding is deterministic: equal tables (same schema, same row order)
// produce byte-identical serialized chunks — the property the view store's
// maintained-vs-rematerialized byte-identity checks rely on.
//
// This file also owns the one encoding of a single cell (EncodeValue and
// its decoder): raw chunks hold it, the row-major serialization of
// extent_io.h writes it, and it is the deep value identity of maintenance
// and statistics.
#ifndef SVX_ALGEBRA_COLUMNAR_H_
#define SVX_ALGEBRA_COLUMNAR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/algebra/relation.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/xml/document.h"

namespace svx {

class ColumnarExtent;
using ColumnarExtentPtr = std::shared_ptr<const ColumnarExtent>;

/// One immutable encoded column. Which members are populated depends on
/// `encoding`; the others stay empty.
struct ColumnChunk {
  enum Encoding : uint8_t {
    kDict = 0,     // strings: dictionary + per-row codes
    kIds = 1,      // ORDPATH ids, delta-encoded
    kContent = 2,  // content refs as ORDPATHs, delta-encoded
    kNested = 3,   // nested tables: child extent + offsets + ⊥ bitmap
    kRaw = 4,      // fallback: EncodeValue cell stream (type-mixed columns)
  };
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;

  Encoding encoding = kRaw;
  int64_t num_rows = 0;

  // kDict: sorted distinct non-null strings; codes[row] indexes dict or is
  // kNullCode for ⊥.
  std::vector<std::string> dict;
  std::vector<uint32_t> codes;

  // kIds / kContent: per row `varint(0)` for ⊥, else
  // `varint(1 + shared_prefix_len) varint(suffix_len) suffix components`
  // where the prefix is shared with the previous non-null row's ORDPATH.
  std::string id_bytes;

  // kNested: child holds every non-null group's rows concatenated in row
  // order; group i spans child rows [offsets[i], offsets[i+1]);
  // nulls[i] != 0 marks a ⊥ cell (distinct from an empty group).
  ColumnarExtentPtr child;
  std::vector<int64_t> offsets;  // size num_rows + 1
  std::vector<uint8_t> nulls;    // size num_rows

  // kRaw: one EncodeValue cell per row, back to back.
  std::string raw_cells;

  /// Deep structural equality (child extents compare recursively).
  bool operator==(const ColumnChunk& other) const;
};

using ColumnChunkPtr = std::shared_ptr<const ColumnChunk>;

/// A compressed, immutable, column-major extent (see file comment).
class ColumnarExtent {
 public:
  ColumnarExtent() = default;

  /// Encodes `table` column by column. Deterministic.
  static ColumnarExtent Encode(const Table& table);

  /// Decodes every column back to a row-major table (exact inverse of
  /// Encode, preserving row order). Content cells rebind against `doc`; a
  /// content cell with `doc == nullptr` or an ORDPATH absent from `doc` is
  /// an error.
  [[nodiscard]] Result<Table> Decode(const Document* doc) const;

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int32_t num_columns() const { return schema_.size(); }
  const ColumnChunkPtr& column(int32_t i) const {
    SVX_DCHECK(i >= 0 && i < static_cast<int32_t>(columns_.size()));
    return columns_[static_cast<size_t>(i)];
  }

  /// True if any cell anywhere (including nested and raw chunks) is a
  /// content reference — such an extent needs a Document to decode.
  bool has_content() const { return has_content_; }

  /// Serialized size of the columnar payload in bytes (AppendBytes length):
  /// the "compressed bytes" the memory budget and benches account.
  int64_t SerializedByteSize() const;

  /// Appends the deterministic serialized payload (row count + chunks; the
  /// schema is *not* included — extent_io writes it in the file header).
  void AppendBytes(std::string* out) const;

  /// Parses a payload produced by AppendBytes for `schema`, advancing `r`
  /// past it.
  [[nodiscard]] static Result<ColumnarExtent> FromBytes(ByteReader* r,
                                                        Schema schema);

  /// Calls `fn` for every content reference's ORDPATH, in storage order,
  /// including nested children and raw chunks — the cheap way to validate
  /// that every reference resolves in a document without decoding rows.
  [[nodiscard]] Status ForEachContentId(
      const std::function<Status(const OrdPath&)>& fn) const;

  /// Deep chunk equality (same schema, same encoded bytes).
  bool operator==(const ColumnarExtent& other) const;

 private:
  Schema schema_;
  int64_t num_rows_ = 0;
  std::vector<ColumnChunkPtr> columns_;  // one per schema column
  bool has_content_ = false;
};

/// Encodes one cell: a u8 tag (0 ⊥, 1 string, 2 id, 3 content, 4 nested)
/// and its payload — string: u32 length + bytes; id and content: u32
/// component count + u32 components; nested: u64 row count + every row's
/// cells (the schema comes from the column). Integers are little-endian. A
/// content cell stores the referenced node's ORDPATH, so the encoding is
/// invariant under RebindTupleContent and doubles as a stable deep value
/// identity (exact distinct counting, maintenance tuple keys).
void EncodeValue(const Value& v, std::string* out);

/// Length of EncodeValue(v) in bytes, without building them.
int64_t EncodedValueSize(const Value& v);

}  // namespace svx

#endif  // SVX_ALGEBRA_COLUMNAR_H_
