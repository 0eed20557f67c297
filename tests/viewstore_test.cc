#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>

#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/util/fileio.h"
#include "src/summary/summary_builder.h"
#include "src/viewstore/cost_model.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/statistics.h"
#include "src/viewstore/view_catalog.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// A scratch store directory, removed on destruction.
struct TempDir {
  TempDir() {
    path = (fs::temp_directory_path() /
            ("svx_viewstore_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int counter;
  std::string path;
};
int TempDir::counter = 0;

// ---------------------------------------------------------------------------
// Extent serialization
// ---------------------------------------------------------------------------

/// Writes `t` as a version-2 extent file image.
std::string ExtentFileBytes(const Table& t) {
  return SerializeColumnarExtent(ColumnarExtent::Encode(t), ExtentByteSize(t));
}

/// Parses a version-2 extent image and decodes its rows.
Result<Table> LoadExtent(std::string_view bytes) {
  Result<ColumnarLoad> load = DeserializeExtentColumnar(bytes);
  if (!load.ok()) return load.status();
  return load->columnar->Decode();
}

TEST(ExtentIo, RoundTripScalarsAndNulls) {
  std::unique_ptr<Document> d = Doc("a(b=1 b(c=x) b)");
  Pattern p = MustParsePattern("a(/b{id,l,v})");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 3);

  std::string bytes = ExtentFileBytes(t);
  Result<Table> back = LoadExtent(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->schema() == t.schema());
  EXPECT_TRUE(back->EqualsIgnoringOrder(t));
  // Byte-identical re-serialization.
  EXPECT_EQ(ExtentFileBytes(*back), bytes);
  EXPECT_EQ(SerializeExtent(*back), SerializeExtent(t));
}

TEST(ExtentIo, RoundTripNestedTables) {
  std::unique_ptr<Document> d = Doc("a(b(c=1 c=2) b)");
  Pattern p = MustParsePattern("a(/b{id}(n/c{v}))");
  Table t = MaterializeView(p, "V", *d);
  ASSERT_EQ(t.NumRows(), 2);

  std::string bytes = ExtentFileBytes(t);
  Result<Table> back = LoadExtent(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->EqualsIgnoringOrder(t));
  EXPECT_EQ(ExtentFileBytes(*back), bytes);
  EXPECT_EQ(SerializeExtent(*back), SerializeExtent(t));
}

TEST(ExtentIo, ContentReferencesRoundTripAsOrdPaths) {
  std::unique_ptr<Document> d = Doc("a(b(c=1) b(c=2))");
  Pattern p = MustParsePattern("a(/b{id,c})");
  Table t = MaterializeView(p, "V", *d);

  // A content reference is its node's ORDPATH: it decodes without a
  // document, equal to the materialized cell, and resolves in the document
  // it was materialized from.
  Result<Table> back = LoadExtent(ExtentFileBytes(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->EqualsIgnoringOrder(t));
  ASSERT_EQ(back->NumRows(), 2);
  for (const Tuple& row : back->rows()) {
    ASSERT_TRUE(row[1].IsContent());
    EXPECT_EQ(row[1].AsContent().id, row[0].AsId());
    const NodeIndex node = d->FindByOrdPath(row[1].AsContent().id);
    ASSERT_NE(node, kInvalidNode);
    EXPECT_EQ(d->label(node), "b");
  }
}

TEST(ExtentIo, RejectsCorruptInput) {
  EXPECT_FALSE(DeserializeExtentColumnar("not an extent").ok());
  std::unique_ptr<Document> d = Doc("a(b=1)");
  Table t = MaterializeView(MustParsePattern("a(/b{v})"), "V", *d);
  std::string bytes = ExtentFileBytes(t);
  EXPECT_FALSE(DeserializeExtentColumnar(bytes.substr(0, bytes.size() - 3))
                   .ok());
  EXPECT_FALSE(DeserializeExtentColumnar(bytes + "x").ok());

  // Hand-built payloads after the header and schema of `t` (one value
  // column): a varint row count, then the column's chunk.
  const std::string header =
      bytes.substr(0, bytes.size() - static_cast<size_t>(
                                         ColumnarExtent::Encode(t)
                                             .SerializedByteSize()));
  auto parse = [&](std::string_view payload) {
    return LoadExtent(header + std::string(payload));
  };
  // A row count of 2^64 - 1 fails with ParseError, not an unbounded
  // allocation.
  Result<Table> huge = parse("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kParseError);
  // One row; chunk encoding tag 9 does not exist.
  EXPECT_EQ(parse(std::string("\x01\x09", 2)).status().code(),
            StatusCode::kParseError);
  // One row of a dictionary chunk {"x"} whose code 5 is out of range.
  EXPECT_EQ(parse(std::string("\x01\x00\x01\x01x\x05", 6)).status().code(),
            StatusCode::kParseError);
  // One row of a raw chunk holding a single cell with tag 9.
  EXPECT_EQ(parse(std::string("\x01\x04\x01\x09", 4)).status().code(),
            StatusCode::kParseError);
  // The same rows, well-formed, parse: the cases above fail on their bytes.
  ASSERT_TRUE(parse(std::string("\x01\x00\x01\x01x\x01", 6)).ok());
  ASSERT_TRUE(parse(std::string("\x01\x04\x01\x00", 4)).ok());

  // A zero-column extent costs no bytes per row, so its row count is held
  // to the input size.
  std::string empty_schema = ExtentFileBytes(Table(Schema()));
  empty_schema.back() = '\x7F';  // 127 rows in a 21-byte input
  Result<Table> many = LoadExtent(empty_schema);
  ASSERT_FALSE(many.ok());
  EXPECT_EQ(many.status().code(), StatusCode::kParseError);
}

/// One fixed small extent covering every chunk encoding: delta-coded ids,
/// a dictionary, content references, a nested column, and a type-mixed
/// column (string, id, content, ⊥) that falls back to raw cells.
Table GoldenExtent(const Document& doc) {
  Table base = MaterializeView(MustParsePattern("a(/b{id,v,c}(n/c{id,v}))"),
                               "G", doc);
  base.SortRowsCanonical();
  Schema schema = base.schema();
  schema.Append({"G.mixed", ColumnKind::kValue, nullptr});
  Table out(schema);
  for (int64_t i = 0; i < base.NumRows(); ++i) {
    Tuple row = base.row(i);
    const Value mixed[] = {Value(std::string("s")), row[0], row[2], Value()};
    row.push_back(mixed[i % 4]);
    out.AddRow(std::move(row));
  }
  return out;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

TEST(ExtentIo, GoldenBytes) {
  // Both serializations are byte-identity oracles (maintained vs
  // rematerialized extents) and ExtentByteSize is the memory-budget charge,
  // so none may drift: the hex below was recorded before the extent, WAL
  // and raw-chunk cell codecs were merged into one.
  std::unique_ptr<Document> d = Doc("a(b=1(c=x c=y) b=2(c=x) b b=2)");
  Table t = GoldenExtent(*d);
  ColumnarExtent columnar = ColumnarExtent::Encode(t);
  EXPECT_EQ(ExtentByteSize(t), 372);
  EXPECT_EQ(
      Hex(SerializeColumnarExtent(columnar, ExtentByteSize(t))),
      "5356585402000000740100000000000005000000070000004"
      "72e6e312e6964000006000000472e6e312e76020006000000472e6e312e630300060000"
      "00472e6e322e6704010200000007000000472e6e322e6964000006000000472e6e322e"
      "76020007000000472e6d69786564020004010d01020101020102020103020104000201"
      "31013201020002020d01020101020102020103020104030002010000030"
      "10c010301010103010202020201000201780179010201042101010000007302020000"
      "0001000000020000000302000000010000000300000000");
  EXPECT_EQ(
      Hex(SerializeExtent(t)),
      "535658540100000005000000070000004"
      "72e6e312e6964000006000000472e6e312e76020006000000472e6e312e630300060000"
      "00472e6e322e6704010200000007000000472e6e322e6964000006000000472e6e322e"
      "76020007000000472e6d697865640200040000000000000002020000000100000001"
      "0000000101000000310302000000010000000100000004020000000000000002030000"
      "0001000000010000000100000001010000007802030000000100000001000000020000"
      "0001010000007901010000007302020000000100000002000000010100000032030200"
      "0000010000000200000004010000000000000002030000000100000002000000010000"
      "0001010000007802020000000100000002000000020200000001000000030000000003"
      "0200000001000000030000000400000000000000000302000000010000000300000002"
      "0200000001000000040000000101000000320302000000010000000400000004000000"
      "000000000000");
  Result<Table> back =
      LoadExtent(SerializeColumnarExtent(columnar, ExtentByteSize(t)));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeExtent(*back), SerializeExtent(t));
}

TEST(ExtentIo, CorruptionFailsAtLoadNotAtDecode) {
  // Every malformed-input check runs at load, so a damaged extent file
  // fails there, not later when a cold scan (possibly after an eviction)
  // first decodes it. Sweep the golden extent's bytes: every prefix, and
  // every byte with its low bit, its high bit and all bits flipped.
  std::unique_ptr<Document> d = Doc("a(b=1(c=x c=y) b=2(c=x) b b=2)");
  Table t = GoldenExtent(*d);
  const std::string bytes =
      SerializeColumnarExtent(ColumnarExtent::Encode(t), ExtentByteSize(t));
  std::vector<std::string> cases;
  for (size_t n = 0; n < bytes.size(); ++n) cases.push_back(bytes.substr(0, n));
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (char mask : {'\x01', '\x80', '\xFF'}) {
      cases.push_back(bytes);
      cases.back()[i] ^= mask;
    }
  }
  int loaded = 0;
  for (size_t k = 0; k < cases.size(); ++k) {
    Result<ColumnarLoad> load = DeserializeExtentColumnar(cases[k]);
    if (!load.ok()) continue;
    ++loaded;
    Result<Table> back = load->columnar->Decode();
    EXPECT_NE(back.status().code(), StatusCode::kParseError)
        << "case " << k << " loads but fails to decode: "
        << back.status().ToString();
  }
  EXPECT_GT(loaded, 0) << "no corruption was accepted; the sweep is vacuous";

  // A named case: one id row whose ORDPATH shares 5 components with a
  // previous row that does not exist.
  Table ids = MaterializeView(MustParsePattern("a(/b{id})"), "V", *d);
  const std::string file = ExtentFileBytes(ids);
  const std::string header = file.substr(
      0, file.size() - static_cast<size_t>(
                           ColumnarExtent::Encode(ids).SerializedByteSize()));
  Result<ColumnarLoad> bad_delta =
      DeserializeExtentColumnar(header + std::string("\x01\x01\x02\x06\x00", 5));
  ASSERT_FALSE(bad_delta.ok());
  EXPECT_EQ(bad_delta.status().code(), StatusCode::kParseError);

  // Ids no OrdPath holds: each payload is one row of that id column. An
  // earlier decoder loaded each of them as a different id.
  const std::pair<const char*, std::string> bad_ids[] = {
      // A raw chunk's id cell "1.2^31": components are 0 .. 2^31 - 1.
      {"u32 component 2^31",
       std::string("\x01\x04\x0d\x02\x02\x00\x00\x00\x01\x00\x00\x00"
                   "\x00\x00\x00\x80",
                   16)},
      // A delta-coded "1.(2^32 + 1)", which a 32-bit cast read as "1.1".
      {"64-bit varint component",
       std::string("\x01\x01\x08\x01\x02\x01\x81\x80\x80\x80\x10", 11)},
      // A delta-coded "1.0" and a raw "1.^": a caret ends no id.
      {"delta id ends in a caret",
       std::string("\x01\x01\x04\x01\x02\x01\x00", 7)},
      {"cell id ends in a caret",
       std::string("\x01\x04\x0d\x02\x02\x00\x00\x00\x01\x00\x00\x00"
                   "\xff\xff\xff\x7f",
                   16)},
  };
  for (const auto& [what, payload] : bad_ids) {
    Result<ColumnarLoad> load = DeserializeExtentColumnar(header + payload);
    ASSERT_FALSE(load.ok()) << what;
    EXPECT_EQ(load.status().code(), StatusCode::kParseError) << what;
  }
}

TEST(ExtentIo, ByteSizeMatchesSerialization) {
  std::unique_ptr<Document> d = Doc("a(b=1(c=x c=y) b(c=z) b)");
  for (const char* pattern :
       {"a(/b{id,v})", "a(/b{id,c})", "a(/b{id}(n/c{v}))",
        "a(/b{id}(?/c{id,v,l}))"}) {
    Table t = MaterializeView(MustParsePattern(pattern), "V", *d);
    EXPECT_EQ(ExtentByteSize(t),
              static_cast<int64_t>(SerializeExtent(t).size()))
        << pattern;
  }
  // A node inserted before its first sibling gets a careted ORDPATH, which
  // has more components than its depth; content cells store every one.
  std::unique_ptr<Document> sub = Doc("b(c=w)");
  const OrdPath first = OrdPath::Root().Child(1);
  Result<UpdateResult> up = InsertSubtree(*d, OrdPath::Root(), *sub, &first);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  Table t = MaterializeView(MustParsePattern("a(/b{id,c})"), "V", *up->doc);
  EXPECT_EQ(ExtentByteSize(t), static_cast<int64_t>(SerializeExtent(t).size()));
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST(Statistics, CountsOnHandBuiltDocument) {
  // Three b nodes: values "1", "22", and none (⊥ in the V column); the ids
  // are all distinct, depths 2.
  std::unique_ptr<Document> d = Doc("a(b=1 b=22 b)");
  Table t = MaterializeView(MustParsePattern("a(/b{id,v})"), "V", *d);
  ViewStats s = ComputeViewStats(t);

  EXPECT_EQ(s.num_rows, 3);
  ASSERT_EQ(s.columns.size(), 2u);
  const ColumnStats* id = s.Find("V.n1.id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->non_null, 3);
  EXPECT_EQ(id->distinct, 3);
  EXPECT_EQ(id->min_len, 2);  // id depth
  EXPECT_EQ(id->max_len, 2);
  const ColumnStats* v = s.Find("V.n1.v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->non_null, 2);
  EXPECT_EQ(v->distinct, 2);
  EXPECT_EQ(v->min_len, 1);  // strlen("1")
  EXPECT_EQ(v->max_len, 2);  // strlen("22")
}

TEST(Statistics, DuplicateValuesCollapseInDistinct) {
  // Rows are unique thanks to the id column (extents have set semantics);
  // the value column still collapses x, x, y to 2 distinct values.
  std::unique_ptr<Document> d = Doc("a(b=x b=x b=y)");
  Table t = MaterializeView(MustParsePattern("a(/b{id,v})"), "V", *d);
  ViewStats s = ComputeViewStats(t);
  EXPECT_EQ(s.num_rows, 3);
  const ColumnStats* v = s.Find("V.n1.v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->non_null, 3);
  EXPECT_EQ(v->distinct, 2);
}

TEST(Statistics, NestedColumnsReportGroupAndInnerStats) {
  std::unique_ptr<Document> d = Doc("a(b(c=1 c=2) b(c=3) b)");
  Table t = MaterializeView(MustParsePattern("a(/b{id}(n/c{v}))"), "V", *d);
  ViewStats s = ComputeViewStats(t);

  const ColumnStats* g = s.Find("V.n2.g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->non_null, 3);      // every b row has a (possibly empty) group
  EXPECT_EQ(g->nested_rows, 3);   // 2 + 1 + 0 inner rows
  EXPECT_EQ(g->min_len, 0);       // group sizes 0..2
  EXPECT_EQ(g->max_len, 2);
  // Inner column aggregated across groups.
  const ColumnStats* inner = s.Find("V.n2.v");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->non_null, 3);
  EXPECT_EQ(inner->distinct, 3);
}

TEST(Statistics, TextRoundTrip) {
  std::unique_ptr<Document> d = Doc("a(b=1 b(c=x))");
  Table t = MaterializeView(MustParsePattern("a(/b{id,v}(?/c{v}))"), "V", *d);
  ViewStats s = ComputeViewStats(t);
  Result<ViewStats> back = ParseViewStats(ViewStatsToString(s));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == s);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(Statistics, ValueCountCacheMatchesFullRecount) {
  // Randomized delta streams: the O(|delta|) cached refresh must stay
  // bit-identical to a full recount — stats AND cache — including distinct
  // counts and length bounds shrinking back after deletes, nulls, and
  // nested groups.
  std::unique_ptr<Document> d =
      Doc("a(b(x=11 x=222) b(x=11) b(x=3333 y=z) b)");
  Pattern p = MustParsePattern("a(/b{id}(n/x{id,v} ?/y{v}))");
  Table base = MaterializeView(p, "V", *d);
  base.SortRowsCanonical();
  ASSERT_GE(base.NumRows(), 4);

  uint64_t state = 42;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  Table cur = base;
  ViewStats stats = ComputeViewStats(cur);
  ValueCountCache cache = BuildValueCounts(cur);
  for (int round = 0; round < 20; ++round) {
    // Delete a random subset of rows, re-insert a random subset of the
    // original rows (duplicates across rounds exercise multiplicity).
    std::vector<Tuple> deleted, inserted;
    std::vector<Tuple>& rows = cur.mutable_rows();
    for (size_t i = rows.size(); i-- > 0;) {
      if (next() % 3 == 0) {
        deleted.push_back(rows[i]);
        rows.erase(rows.begin() + static_cast<int64_t>(i));
      }
    }
    for (const Tuple& t : base.rows()) {
      if (next() % 3 == 0) {
        inserted.push_back(t);
        rows.push_back(t);
      }
    }
    stats = RefreshViewStatsCached(stats, cur.schema(), &cache, deleted,
                                   inserted);
    ASSERT_TRUE(stats == ComputeViewStats(cur)) << "round " << round;
    ValueCountCache want = BuildValueCounts(cur);
    ASSERT_EQ(cache.columns.size(), want.columns.size());
    for (size_t c = 0; c < want.columns.size(); ++c) {
      EXPECT_EQ(cache.columns[c].values, want.columns[c].values)
          << "round " << round << " column " << c;
      EXPECT_EQ(cache.columns[c].lengths, want.columns[c].lengths)
          << "round " << round << " column " << c;
    }
  }
}

TEST(CostModel, SmallerViewScansCheaper) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=2 b=3 c=1)");
  ViewCatalog catalog;
  ASSERT_TRUE(catalog
                  .Materialize({"Big", MustParsePattern("a(/b{id,v})")}, *d)
                  .ok());
  ASSERT_TRUE(catalog
                  .Materialize({"Small", MustParsePattern("a(/c{id,v})")}, *d)
                  .ok());
  CostModel model = catalog.BuildCostModel();

  PlanPtr big = MakeViewScan(
      "Big", ViewSchema(MustParsePattern("a(/b{id,v})"), "Big"));
  PlanPtr small = MakeViewScan(
      "Small", ViewSchema(MustParsePattern("a(/c{id,v})"), "Small"));
  EXPECT_GT(model.EstimateCost(*big), model.EstimateCost(*small));
  EXPECT_DOUBLE_EQ(model.Estimate(*big).rows, 3.0);
  EXPECT_DOUBLE_EQ(model.Estimate(*small).rows, 1.0);
}

TEST(CostModel, JoinEstimateUsesDistinctCounts) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=2 b=3 b=4)");
  ViewCatalog catalog;
  Pattern p = MustParsePattern("a(/b{id,v})");
  ASSERT_TRUE(catalog.Materialize({"V1", p}, *d).ok());
  ASSERT_TRUE(catalog.Materialize({"V2", p}, *d).ok());
  CostModel model = catalog.BuildCostModel();

  PlanPtr join = MakeIdEqJoin(MakeViewScan("V1", ViewSchema(p, "V1")),
                              MakeViewScan("V2", ViewSchema(p, "V2")), 0, 0);
  // 4 x 4 rows with 4 distinct ids each: the containment estimate is 4.
  EXPECT_DOUBLE_EQ(model.Estimate(*join).rows, 4.0);
}

TEST(CostModel, ViewsSharingColumnNamesKeepSeparateStats) {
  // Two views expose a column with the same bare name "B1" (nothing
  // enforces name uniqueness across user-supplied stats); each join must
  // be priced with its own view's statistics, resolved through the plan.
  ViewStats many_distinct;
  many_distinct.num_rows = 1000;
  many_distinct.columns.push_back({"B1", 1000, 1000, 2, 2, 0});
  ViewStats few_distinct;
  few_distinct.num_rows = 1000;
  few_distinct.columns.push_back({"B1", 1000, 10, 2, 2, 0});
  CostModel model;
  model.AddViewStats("Many", many_distinct);
  model.AddViewStats("Few", few_distinct);

  Schema schema({{"B1", ColumnKind::kId, nullptr}});
  // Self ⋈= on the shared column name: 1000 distinct ids keep 1000 rows;
  // 10 distinct ids explode to 100000. A name-keyed model would price both
  // with whichever stats were registered last.
  PlanPtr many_join = MakeIdEqJoin(MakeViewScan("Many", schema),
                                   MakeViewScan("Many", schema), 0, 0);
  PlanPtr few_join = MakeIdEqJoin(MakeViewScan("Few", schema),
                                  MakeViewScan("Few", schema), 0, 0);
  EXPECT_DOUBLE_EQ(model.Estimate(*many_join).rows, 1000.0);
  EXPECT_DOUBLE_EQ(model.Estimate(*few_join).rows, 100000.0);
}

TEST(CostModel, ReRegisteringAViewDropsStaleColumns) {
  ViewStats with_extra;
  with_extra.num_rows = 5;
  with_extra.columns.push_back({"V.n1.id", 5, 5, 2, 2, 0});
  with_extra.columns.push_back({"V.n1.v", 5, 5, 1, 1, 0});
  ViewStats narrower;
  narrower.num_rows = 5;
  narrower.columns.push_back({"V.n1.id", 5, 5, 2, 2, 0});
  CostModel model;
  model.AddViewStats("V", with_extra);
  model.AddViewStats("V", narrower);
  // The stale V.n1.v entry must not survive; σ≠⊥ on it falls back to the
  // default selectivity instead of the old measurement.
  Schema schema({{"V.n1.id", ColumnKind::kId, nullptr},
                 {"V.n1.v", ColumnKind::kValue, nullptr}});
  PlanPtr plan = MakeSelectNonNull(MakeViewScan("V", schema), 1);
  EXPECT_DOUBLE_EQ(model.Estimate(*plan).rows, 5 * 0.9);
}

TEST(CostModel, NonNullSelectivityUsesOwningViewRowCount) {
  // 10 rows, 4 of them non-null: the σ≠⊥ selectivity is 0.4 however much
  // an upstream filter shrank the input (the old max(non_null, in.rows)
  // denominator degenerated to selectivity 1.0 here).
  ViewStats stats;
  stats.num_rows = 10;
  stats.columns.push_back({"V.n1.id", 10, 10, 2, 2, 0});
  stats.columns.push_back({"V.n1.v", 4, 4, 1, 1, 0});
  CostModel model;
  model.AddViewStats("V", stats);
  Schema schema({{"V.n1.id", ColumnKind::kId, nullptr},
                 {"V.n1.v", ColumnKind::kValue, nullptr}});
  PlanPtr filtered =
      MakeSelectValue(MakeViewScan("V", schema), 1, Predicate::True());
  double in_rows = model.Estimate(*filtered).rows;  // 10 * 0.33
  PlanPtr non_null = MakeSelectNonNull(
      MakeSelectValue(MakeViewScan("V", schema), 1, Predicate::True()), 1);
  EXPECT_NEAR(model.Estimate(*non_null).rows, in_rows * 0.4, 1e-9);
}

TEST(CostModel, CostIsLinearInConstants) {
  // tools/calibrate_costs fits the constants by least squares, which is sound
  // only while Estimate(plan, &units).cost == constants · units. One plan
  // holds every operator the rewriter emits.
  Schema a({{"A.n1.id", ColumnKind::kId, nullptr},
            {"A.n1.l", ColumnKind::kLabel, nullptr},
            {"A.n1.v", ColumnKind::kValue, nullptr},
            {"A.n1.c", ColumnKind::kContent, nullptr}});
  auto inner = std::make_shared<Schema>(
      Schema({{"B.n2.id", ColumnKind::kId, nullptr},
              {"B.n2.v", ColumnKind::kValue, nullptr}}));
  Schema b({{"B.n1.id", ColumnKind::kId, nullptr},
            {"B.n2", ColumnKind::kNested, inner}});
  Schema c({{"C.n1.id", ColumnKind::kId, nullptr}});
  auto branch = [&]() {
    PlanPtr p = MakeSelectLabel(MakeViewScan("A", a), 1, "item");
    p = MakeSelectValue(std::move(p), 2, Predicate::Gt(3));
    p = MakeNavigate(std::move(p), 3, {{Axis::kDescendant, "name"}},
                     kAttrValue | kAttrContent, "A.n1@name");  // cols 4, 5
    p = MakeDeriveParent(std::move(p), 0, 1, "A.n1.up1.id");   // col 6
    PlanPtr flat = MakeSelectNonNull(MakeOuterUnnest(MakeViewScan("B", b), 1),
                                     2);  // B.n1.id, B.n2.id, B.n2.v
    p = MakeIdEqJoin(std::move(p), std::move(flat), 6, 0);
    p = MakeStructJoin(std::move(p), MakeViewScan("C", c), 0, 0,
                       StructAxis::kParent);
    p = MakeStructJoin(std::move(p), MakeViewScan("C", c), 7, 0,
                       StructAxis::kAncestor);
    return MakeProject(std::move(p), {0, 2, 8});
  };
  std::vector<PlanPtr> branches;
  branches.push_back(branch());
  branches.push_back(branch());
  PlanPtr plan = MakeGroupBy(MakeUnion(std::move(branches)), {0}, "g");

  const std::vector<std::pair<std::string, ViewStats>> stats = {
      {"A", {40, {{"A.n1.id", 40, 40, 3, 3, 0}, {"A.n1.l", 40, 2, 4, 5, 0}}}},
      {"B", {25, {{"B.n1.id", 25, 25, 2, 2, 0}, {"B.n2", 20, 20, 0, 4, 55},
                  {"B.n2.v", 50, 9, 1, 2, 0}}}},
      {"C", {70, {{"C.n1.id", 70, 70, 3, 6, 0}}}}};
  for (bool with_stats : {true, false}) {
    for (const CostConstants& constants :
         {CostConstants{}, CalibratedCostConstants()}) {
      CostModel model;
      model.constants = constants;
      for (const auto& [view, view_stats] : stats) {
        if (with_stats) model.AddViewStats(view, view_stats);
      }
      std::array<double, CostConstants::kNumTerms> units{};
      const double cost = model.Estimate(*plan, &units).cost;
      EXPECT_EQ(model.Estimate(*plan).cost, cost);
      double dot = 0;
      const auto k = constants.ToArray();
      for (size_t t = 0; t < CostConstants::kNumTerms; ++t) {
        EXPECT_GT(units[t], 0) << CostConstants::TermName(t);
        dot += k[t] * units[t];
      }
      EXPECT_NEAR(cost, dot, 1e-9 * cost) << "with_stats " << with_stats;
    }
  }
}

// ---------------------------------------------------------------------------
// Catalog persistence
// ---------------------------------------------------------------------------

/// The bytes of the extent file the manifest in `dir` names for each view.
std::map<std::string, std::string> ManifestExtents(const std::string& dir) {
  std::map<std::string, std::string> out;
  Result<std::string> manifest =
      ReadFileBytes((fs::path(dir) / "manifest.txt").string());
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  if (!manifest.ok()) return out;
  std::istringstream lines(*manifest);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string word, name, generation;
    if (!(fields >> word >> name >> generation) || word != "view") continue;
    Result<std::string> bytes = ReadFileBytes(
        (fs::path(dir) / (name + "." + generation + ".extent")).string());
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    if (bytes.ok()) out[name] = std::move(*bytes);
  }
  return out;
}

TEST(ViewCatalog, LoadRejectsContentReferencesItsDocumentLacks) {
  // The store's files are outside input: Load checks that every content
  // reference names a node of the document it is given, so no later read
  // meets a dangling reference.
  std::unique_ptr<Document> d = Doc("a(b(c=1) b(c=2))");
  TempDir dir;
  {
    ViewCatalog catalog(dir.path);
    ASSERT_TRUE(
        catalog.Materialize({"C", MustParsePattern("a(/b{id,c})")}, *d).ok());
    ASSERT_TRUE(catalog.Save().ok());
  }
  std::unique_ptr<Document> other = Doc("a(b(c=1))");  // no second b
  ViewCatalog reloaded(dir.path);
  Status lacks = reloaded.Load(other.get());
  EXPECT_EQ(lacks.code(), StatusCode::kNotFound) << lacks.ToString();
  Status none = reloaded.Load(nullptr);
  EXPECT_EQ(none.code(), StatusCode::kInvalidArgument) << none.ToString();
  ASSERT_TRUE(reloaded.Load(d.get()).ok());
  EXPECT_EQ(reloaded.Snapshot()->document(), d.get());
  EXPECT_EQ(reloaded.ExecutorCatalog().document(), d.get());
}

TEST(ViewCatalog, SaveLoadRoundTripIsByteIdentical) {
  std::unique_ptr<Document> d = Doc("a(b=1(c=x) b=2 b)");
  TempDir dir;
  ViewCatalog catalog(dir.path);
  ASSERT_TRUE(
      catalog.Materialize({"V1", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog
          .Materialize({"V2", MustParsePattern("a(/b{id}(?/c{id,v}))")}, *d)
          .ok());
  ASSERT_TRUE(catalog.Save().ok());

  ViewCatalog reloaded(dir.path);
  Status s = reloaded.Load(d.get());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(reloaded.size(), 2);
  for (const char* name : {"V1", "V2"}) {
    const StoredView* orig = catalog.Find(name);
    const StoredView* back = reloaded.Find(name);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(
        back->table().value()->EqualsIgnoringOrder(*orig->table().value()));
    EXPECT_TRUE(back->stats == orig->stats);
    // Byte-identical: re-serializing the reloaded extent reproduces the
    // stored bytes exactly.
    EXPECT_EQ(SerializeExtent(*back->table().value()),
              SerializeExtent(*orig->table().value()));
  }
  // Saving the reloaded catalog reproduces identical extent files.
  TempDir dir2;
  ViewCatalog resave(dir2.path);
  for (const auto& v : reloaded.views()) {
    ASSERT_TRUE(resave.Add(v->def, *v->table().value()).ok());
  }
  ASSERT_TRUE(resave.Save().ok());
  std::map<std::string, std::string> saved = ManifestExtents(dir.path);
  std::map<std::string, std::string> resaved = ManifestExtents(dir2.path);
  ASSERT_EQ(saved.size(), 2u);
  ASSERT_EQ(resaved.size(), 2u);
  for (const auto& [name, bytes] : saved) {
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_EQ(bytes, resaved[name]) << name;
  }
}

TEST(ViewCatalog, ExecutorScansStoredExtent) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=2)");
  TempDir dir;
  {
    ViewCatalog catalog(dir.path);
    ASSERT_TRUE(
        catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
    ASSERT_TRUE(catalog.Save().ok());
  }
  ViewCatalog reloaded(dir.path);
  ASSERT_TRUE(reloaded.Load(d.get()).ok());
  Catalog exec = reloaded.ExecutorCatalog();
  PlanPtr scan =
      MakeViewScan("V", ViewSchema(MustParsePattern("a(/b{id,v})"), "V"));
  Result<Table> out = Execute(*scan, exec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 2);
}

TEST(ViewCatalog, RejectsUnsafeViewNames) {
  ViewCatalog catalog;
  Table t{Schema{}};
  EXPECT_FALSE(catalog.Add({"../evil", Pattern()}, t).ok());
  EXPECT_FALSE(catalog.Add({"", Pattern()}, t).ok());
}

TEST(ViewCatalog, ResaveSweepsOrphanedFilesAndSizesMatch) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=2 c=x)");
  TempDir dir;
  {
    ViewCatalog catalog(dir.path);
    ASSERT_TRUE(
        catalog.Materialize({"V1", MustParsePattern("a(/b{id,v})")}, *d).ok());
    ASSERT_TRUE(
        catalog.Materialize({"V2", MustParsePattern("a(/c{id,v})")}, *d).ok());
    ASSERT_TRUE(catalog.Save().ok());
  }
  // Simulate leftovers of an interrupted save.
  ASSERT_TRUE(
      WriteFileBytes((fs::path(dir.path) / "V9.extent.tmp").string(), "junk")
          .ok());

  // A catalog that kept only V1 (V2 dropped, V1 replaced with fewer rows).
  std::unique_ptr<Document> d2 = Doc("a(b=9)");
  ViewCatalog replaced(dir.path);
  ASSERT_TRUE(
      replaced.Materialize({"V1", MustParsePattern("a(/b{id,v})")}, *d2).ok());
  ASSERT_TRUE(replaced.Save().ok());

  // Dropped/stale files are gone (files are generation-suffixed,
  // "V1.<gen>.extent"); what remains matches the manifest.
  std::vector<std::string> v1_extents, leftovers;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::string name = entry.path().filename().string();
    if (name.starts_with("V1.") && name.ends_with(".extent")) {
      v1_extents.push_back(entry.path().string());
    }
    if (name.starts_with("V2.") || name.ends_with(".tmp")) {
      leftovers.push_back(name);
    }
  }
  EXPECT_TRUE(leftovers.empty()) << leftovers.front();
  // Exactly one V1 generation survives: the new one, a complete columnar
  // file whose size matches the catalog's recorded compressed size (no
  // half-written or stale content).
  ASSERT_EQ(v1_extents.size(), 1u);
  EXPECT_EQ(static_cast<int64_t>(fs::file_size(v1_extents.front())),
            static_cast<int64_t>(
                SerializeColumnarExtent(*replaced.Find("V1")->columnar,
                                        replaced.Find("V1")->extent_bytes)
                    .size()));

  ViewCatalog reloaded(dir.path);
  ASSERT_TRUE(reloaded.Load(d2.get()).ok());
  ASSERT_EQ(reloaded.size(), 1);
  EXPECT_TRUE(reloaded.Find("V1")->table().value()->EqualsIgnoringOrder(
      *replaced.Find("V1")->table().value()));
}

TEST(ViewCatalog, LoadFailsOnManifestPointingAtMissingExtent) {
  std::unique_ptr<Document> d = Doc("a(b=1)");
  TempDir dir;
  {
    ViewCatalog catalog(dir.path);
    ASSERT_TRUE(
        catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
    ASSERT_TRUE(catalog.Save().ok());
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::string name = entry.path().filename().string();
    if (name.starts_with("V.") && name.ends_with(".extent")) {
      fs::remove(entry.path());
    }
  }
  ViewCatalog reloaded(dir.path);
  Status s = reloaded.Load(d.get());
  EXPECT_FALSE(s.ok());
  // A failed load leaves the catalog reusable (no partial state observed
  // through the public API).
  EXPECT_EQ(reloaded.size(), 0);
}

TEST(ViewCatalog, LoadRejectsDuplicateManifestView) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  TempDir dir;
  {
    ViewCatalog catalog(dir.path);
    ASSERT_TRUE(
        catalog.Materialize({"VB", MustParsePattern("a(/b{id,v})")}, *d).ok());
    ASSERT_TRUE(
        catalog.Materialize({"VC", MustParsePattern("a(/c{id,v})")}, *d).ok());
    ASSERT_TRUE(catalog.Save().ok());
  }
  // Name VB a second time: Find() would serve the first entry while the
  // executor catalog and the cost model kept the last.
  const std::string path = (fs::path(dir.path) / "manifest.txt").string();
  Result<std::string> manifest = ReadFileBytes(path);
  ASSERT_TRUE(manifest.ok());
  std::istringstream lines(*manifest);
  std::string vb_line;
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("view VB ")) vb_line = line;
  }
  ASSERT_FALSE(vb_line.empty());
  ASSERT_TRUE(WriteFileBytes(path, *manifest + vb_line + "\n").ok());
  ViewCatalog reloaded(dir.path);
  Status s = reloaded.Load(d.get());
  EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
  EXPECT_EQ(reloaded.size(), 0);
}

TEST(ViewCatalog, LoadRejectsStatsThatDoNotFitTheExtent) {
  // Statistics that parse but do not describe their extent must fail the
  // load: the first maintenance pass refreshing them would abort.
  std::unique_ptr<Document> d = Doc("a(b=1(c=x c=y) b=2)");
  TempDir dir;
  {
    ViewCatalog catalog(dir.path);
    ASSERT_TRUE(catalog
                    .Materialize({"V", MustParsePattern("a(/b{id}(n/c{id,v}))")},
                                 *d)
                    .ok());
    ASSERT_TRUE(catalog.Save().ok());
  }
  std::string stats_path;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".stats") stats_path = entry.path();
  }
  ASSERT_FALSE(stats_path.empty());
  Result<std::string> intact = ReadFileBytes(stats_path);
  ASSERT_TRUE(intact.ok());
  // "rows 2", then the b id, the nested c group and its inner id and value.
  std::vector<std::string> lines;
  std::istringstream in(*intact);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u) << *intact;
  auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l + "\n";
    return out;
  };
  auto with_line = [&](size_t i, std::string line) {
    std::vector<std::string> ls = lines;
    ls[i] = std::move(line);
    return join(ls);
  };
  std::string renamed = lines[1];
  renamed.replace(4, renamed.find(' ', 4) - 4, "renamed");
  std::string negative = lines[2];
  negative.replace(negative.rfind(' ') + 1, std::string::npos, "-1");
  const std::vector<std::string> damaged = {
      join({lines.begin(), lines.end() - 1}),       // last col line dropped
      join(lines) + "col extra 0 0 0 0 0\n",        // extra col line
      with_line(1, renamed),                        // renamed column
      with_line(0, "rows 3"),                       // rows off by one
      with_line(2, negative),                       // negative count
  };
  for (const std::string& stats : damaged) {
    ASSERT_TRUE(WriteFileBytes(stats_path, stats).ok());
    ViewCatalog reloaded(dir.path);
    Status s = reloaded.Load(d.get());
    EXPECT_EQ(s.code(), StatusCode::kParseError) << stats << s.ToString();
    EXPECT_EQ(reloaded.size(), 0);
  }
  ASSERT_TRUE(WriteFileBytes(stats_path, *intact).ok());
  ViewCatalog reloaded(dir.path);
  EXPECT_TRUE(reloaded.Load(d.get()).ok());
}

TEST(ViewCatalog, InterruptedSaveLeavesPreviousStateLoadable) {
  // The crash window the generation scheme closes: a save that wrote some
  // new extent files but never flipped the manifest must leave the
  // previous state fully loadable — file names are never reused, so a
  // half-finished save cannot mix extent versions under the old manifest.
  std::unique_ptr<Document> d = Doc("a(b=1 b=2)");
  TempDir dir;
  ViewCatalog catalog(dir.path);
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(catalog.Save().ok());
  TablePtr saved_extent = catalog.Find("V")->table().value();

  // Simulate the crash: a newer generation of V exists on disk (with
  // different content), manifest untouched.
  std::unique_ptr<Document> d2 = Doc("a(b=9)");
  Table other = MaterializeView(MustParsePattern("a(/b{id,v})"), "V", *d2);
  ASSERT_TRUE(WriteFileBytes((fs::path(dir.path) / "V.99.extent").string(),
                             ExtentFileBytes(other))
                  .ok());
  ASSERT_TRUE(WriteFileBytes((fs::path(dir.path) / "V.99.stats").string(),
                             ViewStatsToString(ComputeViewStats(other)))
                  .ok());

  ViewCatalog reloaded(dir.path);
  ASSERT_TRUE(reloaded.Load(d.get()).ok());
  ASSERT_EQ(reloaded.size(), 1);
  EXPECT_EQ(SerializeExtent(*reloaded.Find("V")->table().value()),
            SerializeExtent(*saved_extent))
      << "load mixed in a generation the manifest never referenced";
  // The orphaned generation is swept, so later saves can never collide
  // with it.
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "V.99.extent"));
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "V.99.stats"));
}

TEST(ViewCatalog, SaveWithoutLoadNeverReusesGenerationNames) {
  // A second process saving into an existing store without Load()ing it
  // must not re-mint generations already on disk — overwriting
  // "V.<gen>.extent" in place would reopen the crash window.
  std::unique_ptr<Document> d = Doc("a(b=1 b=2)");
  TempDir dir;
  std::string first_extent;
  {
    ViewCatalog catalog(dir.path);
    ASSERT_TRUE(
        catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
    ASSERT_TRUE(catalog.Save().ok());
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      std::string name = entry.path().filename().string();
      if (name.ends_with(".extent")) first_extent = name;
    }
    ASSERT_FALSE(first_extent.empty());
  }
  std::unique_ptr<Document> d2 = Doc("a(b=9)");
  ViewCatalog fresh(dir.path);  // same dir, never Load()ed
  ASSERT_TRUE(
      fresh.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d2).ok());
  ASSERT_TRUE(fresh.Save().ok());
  std::string second_extent;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::string name = entry.path().filename().string();
    if (name.ends_with(".extent")) second_extent = name;
  }
  ASSERT_FALSE(second_extent.empty());
  EXPECT_NE(second_extent, first_extent)
      << "generation-suffixed file name was re-minted across instances";
}

TEST(ViewCatalog, ApplyUpdatePersistsChangedViewsUnderFreshGenerations) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  TempDir dir;
  ViewCatalog catalog(dir.path);
  ASSERT_TRUE(
      catalog.Materialize({"VB", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"VC", MustParsePattern("a(/c{id,v})")}, *d).ok());
  ASSERT_TRUE(catalog.Save().ok());
  auto files = [&]() {
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      out.push_back(entry.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::string> before = files();

  // Update touching only b: VB gets a fresh generation, VC keeps its files.
  Result<UpdateResult> up =
      InsertSubtree(*d, OrdPath::Root(), *Doc("b=7"));
  ASSERT_TRUE(up.ok());
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(up->delta, &ms).ok());
  EXPECT_EQ(ms.views_touched, 1);
  std::vector<std::string> after = files();
  EXPECT_NE(before, after) << "changed extent reused its file name";
  for (const std::string& f : before) {
    if (f.starts_with("VC.")) {
      EXPECT_TRUE(std::find(after.begin(), after.end(), f) != after.end())
          << "untouched view's files were rewritten: " << f;
    }
  }

  // The store reloads to exactly the maintained state.
  ViewCatalog reloaded(dir.path);
  ASSERT_TRUE(reloaded.Load(up->doc.get()).ok());
  for (const char* name : {"VB", "VC"}) {
    ASSERT_NE(reloaded.Find(name), nullptr);
    EXPECT_EQ(SerializeExtent(*reloaded.Find(name)->table().value()),
              SerializeExtent(*catalog.Find(name)->table().value()))
        << name;
  }
}

TEST(ViewCatalog, SaveLeavesNoTempFiles) {
  std::unique_ptr<Document> d = Doc("a(b=1)");
  TempDir dir;
  ViewCatalog catalog(dir.path);
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(catalog.Save().ok());
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// ---------------------------------------------------------------------------
// Cost-based rewriting selection
// ---------------------------------------------------------------------------

TEST(CostBasedRewriting, PrefersTheCheaperCover) {
  // Two views both answering //b{id,v}: Narrow stores exactly the b rows,
  // Wide stores every node's id/label/value (much larger). With statistics
  // the rewriter must put the Narrow-based plan first.
  std::unique_ptr<Document> d =
      Doc("a(b=1 b=2 x(y=1 y=2 y=3 y=4 y=5 y=6 y=7 y=8) x(y=9) c c c)");
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(d.get());

  ViewDef narrow{"Narrow", MustParsePattern("a(/b{id,v})")};
  ViewDef wide{"Wide", MustParsePattern("a(//*{id,l,v})")};
  ViewCatalog catalog;
  ASSERT_TRUE(catalog.Materialize(narrow, *d).ok());
  ASSERT_TRUE(catalog.Materialize(wide, *d).ok());
  ASSERT_GT(catalog.Find("Wide")->stats.num_rows,
            catalog.Find("Narrow")->stats.num_rows);
  CostModel model = catalog.BuildCostModel();

  RewriterOptions opts;
  opts.cost_model = &model;
  opts.max_results = 8;
  Rewriter rewriter(*summary, opts);
  rewriter.AddView(narrow);
  rewriter.AddView(wide);

  RewriteStats stats;
  Result<std::vector<Rewriting>> rws =
      rewriter.Rewrite(MustParsePattern("a(/b{id,v})"), &stats);
  ASSERT_TRUE(rws.ok()) << rws.status().ToString();
  ASSERT_GE(rws->size(), 2u);
  EXPECT_NE(rws->front().compact.find("Narrow"), std::string::npos)
      << rws->front().compact;
  EXPECT_GE(rws->front().est_cost, 0);
  for (size_t i = 1; i < rws->size(); ++i) {
    EXPECT_LE((*rws)[i - 1].est_cost, (*rws)[i].est_cost);
  }
  EXPECT_EQ(stats.cheapest_cost, rws->front().est_cost);

  // Deterministic: a second run returns the same ranking.
  Rewriter rewriter2(*summary, opts);
  rewriter2.AddView(narrow);
  rewriter2.AddView(wide);
  Result<std::vector<Rewriting>> rws2 =
      rewriter2.Rewrite(MustParsePattern("a(/b{id,v})"));
  ASSERT_TRUE(rws2.ok());
  ASSERT_EQ(rws->size(), rws2->size());
  for (size_t i = 0; i < rws->size(); ++i) {
    EXPECT_EQ((*rws)[i].compact, (*rws2)[i].compact);
  }
}

TEST(CostBasedRewriting, WithoutModelKeepsDiscoveryOrder) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=2)");
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(d.get());
  ViewDef v{"V", MustParsePattern("a(/b{id,v})")};
  Rewriter rewriter(*summary);
  rewriter.AddView(v);
  Result<std::vector<Rewriting>> rws =
      rewriter.Rewrite(MustParsePattern("a(/b{id,v})"));
  ASSERT_TRUE(rws.ok());
  ASSERT_FALSE(rws->empty());
  EXPECT_EQ(rws->front().est_cost, -1);
}

}  // namespace
}  // namespace svx
