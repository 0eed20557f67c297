// Compressed columnar extents. A materialized view's extent is stored as
// one compressed chunk per schema column instead of a row-major
// std::vector<Tuple> blob:
//
//   * label/value columns  -> dictionary encoding (sorted distinct strings
//                             plus one varint code per row),
//   * id/content columns   -> delta-encoded ORDPATHs (varint components,
//                             common prefix shared with the previous row;
//                             a content cell is the referenced node's
//                             ORDPATH, so the chunk is document-independent),
//   * nested columns       -> one recursively columnar child extent holding
//                             all group rows back to back, plus per-row
//                             group sizes and a ⊥ bitmap,
//   * anything type-mixed  -> a raw fallback chunk of EncodeValue cells.
//
// A ColumnarExtent holds exactly the payload bytes the store writes and
// never mutates them, so a decoded table can be dropped under memory
// pressure while the compressed truth stays resident. The payload is a
// varint row count, then per column a u8 encoding tag and its chunk:
//
//   0 dictionary  varint ndict, ndict x (varint length, bytes), then per row
//                 varint code (0 = ⊥, k = the k-th dictionary string)
//   1 ids         varint run length, then per row varint(0) for ⊥, else
//   2 content     varint(1 + prefix shared with the previous id),
//                 varint(suffix length) and the suffix's varint components
//   3 nested      ⊥ bitmap (one bit per row, low bit first), a varint group
//                 size per non-⊥ row, then the child payload (its own row
//                 count equals the sum of the group sizes)
//   4 raw         varint run length, then one EncodeValue cell per row
//
// Every malformed-input check is made at load (FromBytes), so an extent
// that loads also decodes. A cold extent is decoded whole and the decoded
// table is cached by the view store until evicted.
//
// Encoding is deterministic: equal tables (same schema, same row order)
// produce byte-identical payloads — the property the view store's
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

#include "src/algebra/relation.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace svx {

class ColumnarExtent;
using ColumnarExtentPtr = std::shared_ptr<const ColumnarExtent>;

/// A compressed, immutable, column-major extent (see file comment).
class ColumnarExtent {
 public:
  /// Encodes `table` column by column. Deterministic.
  static ColumnarExtent Encode(const Table& table);

  /// Checks a payload produced by Encode for `schema` without building
  /// rows, advancing `r` past it, and keeps the bytes it checked.
  [[nodiscard]] static Result<ColumnarExtent> FromBytes(ByteReader* r,
                                                        Schema schema);

  /// Decodes every column back to a row-major table (exact inverse of
  /// Encode, preserving row order).
  [[nodiscard]] Result<Table> Decode() const;

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }

  /// True if any cell anywhere (including nested and raw chunks) is a
  /// content reference — whose node a loaded store must find in its
  /// document.
  bool has_content() const { return has_content_; }

  /// The serialized payload (row count + chunks; the schema is *not*
  /// included — extent_io writes it in the file header).
  const std::string& payload() const { return payload_; }

  /// Size of the payload in bytes: the "compressed bytes" the memory
  /// budget and benches account.
  int64_t SerializedByteSize() const {
    return static_cast<int64_t>(payload_.size());
  }

  /// Calls `fn` for every content reference's ORDPATH, in storage order,
  /// including nested children and raw chunks — the cheap way to validate
  /// that every reference resolves in a document without decoding rows.
  [[nodiscard]] Status ForEachContentId(
      const std::function<Status(const OrdPath&)>& fn) const;

 private:
  ColumnarExtent() = default;

  Schema schema_;
  int64_t num_rows_ = 0;
  bool has_content_ = false;
  std::string payload_;
};

/// Encodes one cell: a u8 tag (0 ⊥, 1 string, 2 id, 3 content, 4 nested)
/// and its payload — string: u32 length + bytes; id and content: u32
/// component count + u32 components; nested: u64 row count + every row's
/// cells (the schema comes from the column). Integers are little-endian.
/// The encoding doubles as a stable deep value identity (exact distinct
/// counting, maintenance tuple keys).
void EncodeValue(const Value& v, std::string* out);

/// Length of EncodeValue(v) in bytes, without building them.
int64_t EncodedValueSize(const Value& v);

}  // namespace svx

#endif  // SVX_ALGEBRA_COLUMNAR_H_
