// Binary serialization of materialized view extents (Schema + rows),
// including nested tables, ⊥ values, ORDPATH ids and content references.
// A content reference is the referenced node's ORDPATH, in memory and on
// disk alike (the store keeps references into the repository, not copies —
// §4.4 "stored ... as a reference"); a reader resolves it in the document
// it reads.
//
// Extent file, version 2 — the one format the store writes and reads (extent
// files and WAL entries alike):
//   "SVXT" u32(2) u64(uncompressed_bytes = ExtentByteSize of the rows)
//   schema:   u32 ncols { str name, u8 kind, u8 has_nested, [schema] }
//   then the ColumnarExtent payload (columnar.h): a varint row count plus
//   one tagged compressed chunk per column. The store keeps exactly these
//   payload bytes resident for every extent, checked once at load.
//   str = u32 length + bytes; integers are little-endian (src/util/bytes.h).
// Any other version is rejected with Unsupported: a store written by an
// older build is rebuilt from the document.
//
// SerializeExtent is the row-major rendering of a table — the same header
// with version 1 and the schema, then u64 nrows and every row's EncodeValue
// cells. Nothing reads it back: it is the deterministic byte identity that
// maintained-vs-rematerialized checks compare, and its size (ExtentByteSize)
// is what a decoded table charges against the memory budget.
#ifndef SVX_VIEWSTORE_EXTENT_IO_H_
#define SVX_VIEWSTORE_EXTENT_IO_H_

#include <string>
#include <string_view>

#include "src/algebra/columnar.h"
#include "src/algebra/relation.h"
#include "src/util/status.h"

namespace svx {

/// Serializes `table` (schema + rows) row-major (see file comment).
/// Deterministic: equal tables produce identical bytes.
std::string SerializeExtent(const Table& table);

/// Size of SerializeExtent(table) without building the row bytes.
int64_t ExtentByteSize(const Table& table);

/// Serialized size of one row's cells (rows carry no per-row header, so
/// ExtentByteSize changes by exactly this much per inserted/deleted row —
/// the incremental byte accounting used by view maintenance).
int64_t TupleByteSize(const Tuple& tuple);

/// Serializes a columnar extent as a version-2 extent file.
/// `uncompressed_bytes` is the ExtentByteSize recorded in the header — the
/// size a decoded table will charge against the memory budget.
/// Deterministic.
std::string SerializeColumnarExtent(const ColumnarExtent& extent,
                                    int64_t uncompressed_bytes);

/// A loaded version-2 extent: its checked payload and the header's
/// uncompressed size.
struct ColumnarLoad {
  ColumnarExtentPtr columnar;
  int64_t uncompressed_bytes = 0;
};

/// Parses and checks a version-2 extent without materializing rows: an
/// extent that loads also decodes.
[[nodiscard]] Result<ColumnarLoad> DeserializeExtentColumnar(
    std::string_view bytes);

/// EncodeValue (columnar.h) folded over a whole row — the stable tuple
/// identity used by incremental maintenance to match deltas against stored
/// extents.
std::string EncodeTupleKey(const Tuple& tuple);

}  // namespace svx

#endif  // SVX_VIEWSTORE_EXTENT_IO_H_
