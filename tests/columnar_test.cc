// Columnar extent representation: randomized round-trip determinism,
// type-mixed raw chunks, rejection of older store formats, cold scans that
// decode a whole extent once and install it, memory-budget eviction/reload,
// and untouched views carried whole across epochs.
#include "src/algebra/columnar.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/algebra/executor.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/util/fileio.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/viewstore/delta_log.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
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

/// View shapes covering every chunk encoding: plain ids+values
/// (delta-coded ids, dictionary values), optional edges (⊥ cells), nested
/// tables, content references, and label columns.
std::vector<ViewDef> CoveringViews() {
  return {
      {"plain", MustParsePattern("site(//item{id}(/name{id,v}))")},
      {"opt", MustParsePattern("site(//item{id}(?//keyword{v}))")},
      {"nest", MustParsePattern("site(//item{id}(n//keyword{id,v}))")},
      {"content", MustParsePattern("site(//person{id,c})")},
      {"labels", MustParsePattern("site(//description{id}(//keyword{l}))")},
  };
}

std::unique_ptr<Document> RandomXmark(uint64_t seed) {
  XmarkOptions opts;
  opts.scale = 0.2;
  opts.seed = seed;
  return GenerateXmark(opts);
}

std::string TempDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("svx_columnar_test_" + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Round-trip determinism and decode equality
// ---------------------------------------------------------------------------

TEST(Columnar, RandomizedRoundTripIsByteDeterministic) {
  for (uint64_t seed : {3u, 17u, 51u}) {
    std::unique_ptr<Document> doc = RandomXmark(seed);
    for (const ViewDef& def : CoveringViews()) {
      Table table = MaterializeView(def.pattern, def.name, *doc);
      table.SortRowsCanonical();

      // Encoding is deterministic: two independent encodes of the same
      // table serialize identically.
      ColumnarExtent a = ColumnarExtent::Encode(table);
      ColumnarExtent b = ColumnarExtent::Encode(table);
      const int64_t v1_bytes = ExtentByteSize(table);
      std::string bytes_a = SerializeColumnarExtent(a, v1_bytes);
      std::string bytes_b = SerializeColumnarExtent(b, v1_bytes);
      EXPECT_EQ(bytes_a, bytes_b) << def.name << " seed " << seed;
      EXPECT_EQ(static_cast<int64_t>(a.SerializedByteSize()),
                static_cast<int64_t>(b.SerializedByteSize()));

      // Parse -> re-serialize round-trips to the same bytes.
      Result<ColumnarLoad> load = DeserializeExtentColumnar(bytes_a);
      ASSERT_TRUE(load.ok()) << load.status().ToString();
      EXPECT_EQ(load->uncompressed_bytes, v1_bytes);
      EXPECT_EQ(load->columnar->payload(), a.payload())
          << def.name << " seed " << seed;
      EXPECT_EQ(SerializeColumnarExtent(*load->columnar, v1_bytes), bytes_a);

      // Decode reproduces the row-major table.
      Result<Table> decoded = load->columnar->Decode();
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_TRUE(decoded->EqualsIgnoringOrder(table))
          << def.name << " seed " << seed;
      EXPECT_EQ(SerializeExtent(*decoded), SerializeExtent(table))
          << def.name << " decode must preserve canonical row order";
    }
  }
}

TEST(Columnar, CompressedSmallerThanRowMajorOnRealExtents) {
  std::unique_ptr<Document> doc = RandomXmark(7);
  int64_t row_major = 0;
  int64_t compressed = 0;
  for (const ViewDef& def : CoveringViews()) {
    Table table = MaterializeView(def.pattern, def.name, *doc);
    table.SortRowsCanonical();
    row_major += ExtentByteSize(table);
    compressed += ColumnarExtent::Encode(table).SerializedByteSize();
  }
  EXPECT_LT(compressed * 2, row_major)
      << "columnar extents must be at least 2x smaller than row-major";
}

TEST(Columnar, TypeMixedColumnRoundTripsThroughRawChunk) {
  const OrdPath first_b = OrdPath::Root().Child(1);
  auto inner = std::make_shared<const Schema>(
      Schema({{"g", ColumnKind::kValue, nullptr}}));
  Table group(*inner);
  group.AddRow({Value(std::string("g"))});
  Table table(Schema({{"mixed", ColumnKind::kNested, inner}}));
  table.AddRow({Value(std::string("s"))});
  table.AddRow({Value(OrdPath::Root().Child(2))});
  table.AddRow({Value(NodeRef{first_b})});
  table.AddRow({Value()});
  table.AddRow({Value(std::make_shared<const Table>(std::move(group)))});

  ColumnarExtent extent = ColumnarExtent::Encode(table);
  EXPECT_TRUE(extent.has_content());
  // The payload: 5 rows, then the raw chunk (tag 4) holding the column's
  // EncodeValue cells back to back, varint-sized.
  std::string cells;
  for (const Tuple& row : table.rows()) EncodeValue(row[0], &cells);
  std::string want;
  PutVarint(5, &want);
  PutU8(4, &want);
  PutVarint(cells.size(), &want);
  EXPECT_EQ(extent.payload(), want + cells);

  std::string bytes = SerializeColumnarExtent(extent, ExtentByteSize(table));
  Result<ColumnarLoad> load = DeserializeExtentColumnar(bytes);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(load->columnar->payload(), extent.payload());
  EXPECT_TRUE(load->columnar->has_content());
  std::vector<std::string> refs;
  ASSERT_TRUE(load->columnar
                  ->ForEachContentId([&refs](const OrdPath& id) {
                    refs.push_back(id.ToString());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(refs, std::vector<std::string>{first_b.ToString()});

  Result<Table> back = load->columnar->Decode();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeExtent(*back), SerializeExtent(table));
}

// ---------------------------------------------------------------------------
// The store reads only the formats it writes
// ---------------------------------------------------------------------------

/// The value of the `key` line ("epoch <n>", "wal <n>") of a manifest.
uint64_t ManifestNumber(const std::string& manifest, const std::string& key) {
  const size_t at = manifest.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return std::stoull(manifest.substr(at + key.size() + 2));
}

TEST(Columnar, OlderStoreFormatsFailLoadNamingTheVersion) {
  const std::string dir = TempDir("formats");
  std::unique_ptr<Document> doc = RandomXmark(11);
  ViewCatalogOptions options;
  options.dir = dir;
  options.enable_delta_log = true;
  std::string extent_path;
  Table plain;
  {
    ViewCatalog catalog(options);
    for (const ViewDef& def : CoveringViews()) {
      ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
    }
    ASSERT_TRUE(catalog.Save().ok());
    const StoredView* v = catalog.Find("plain");
    extent_path = (fs::path(dir) / StrFormat("plain.%llu.extent",
                                             static_cast<unsigned long long>(
                                                 v->generation)))
                      .string();
    plain = *v->table().value();
  }
  const std::string manifest_path = (fs::path(dir) / "manifest.txt").string();
  Result<std::string> manifest = ReadFileBytes(manifest_path);
  ASSERT_TRUE(manifest.ok());
  Result<std::string> extent = ReadFileBytes(extent_path);
  ASSERT_TRUE(extent.ok());
  auto load = [&]() {
    ViewCatalog reloaded(options);
    return reloaded.Load(doc.get());
  };
  ASSERT_TRUE(load().ok()) << "the unmodified store must load";

  // A version-2 manifest.
  std::string v2 = *manifest;
  v2.replace(v2.find("svx-viewstore 3"), 15, "svx-viewstore 2");
  ASSERT_TRUE(WriteFileBytes(manifest_path, v2).ok());
  Status s = load();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("svx-viewstore 2"), std::string::npos)
      << s.ToString();
  ASSERT_TRUE(WriteFileBytes(manifest_path, *manifest).ok());

  // A version-1 (row-major) extent file.
  ASSERT_TRUE(WriteFileBytes(extent_path, SerializeExtent(plain)).ok());
  s = load();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("extent version 1"), std::string::npos)
      << s.ToString();
  ASSERT_TRUE(WriteFileBytes(extent_path, *extent).ok());

  // A WAL entry past the checkpoint whose extent is version 1 fails replay
  // naming that version; the same entry holding a version-2 extent replays.
  Table head(plain.schema());
  head.AddRow(plain.row(0));
  const uint64_t floor = ManifestNumber(*manifest, "wal");
  const std::string segment =
      (fs::path(dir) / DeltaLog::SegmentFileName(floor)).string();
  for (bool row_major : {true, false}) {
    WalRecord record;
    record.epoch = ManifestNumber(*manifest, "epoch") + 1;
    record.views.push_back(
        {"plain",
         row_major ? SerializeExtent(head)
                   : SerializeColumnarExtent(ColumnarExtent::Encode(head),
                                             ExtentByteSize(head)),
         ViewStatsToString(ComputeViewStats(head))});
    std::error_code ec;
    fs::remove(segment, ec);
    Result<std::unique_ptr<DeltaLog>> wal = DeltaLog::Open(dir, floor);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)->Append(record).ok());
    wal->reset();
    s = load();
    if (row_major) {
      EXPECT_FALSE(s.ok());
      EXPECT_NE(s.ToString().find("extent version 1"), std::string::npos)
          << s.ToString();
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }

  // The same segment under a version-1 header (version 1 logged tuple
  // deltas).
  Result<std::string> wal_bytes = ReadFileBytes(segment);
  ASSERT_TRUE(wal_bytes.ok());
  std::string v1_wal = *wal_bytes;
  v1_wal[4] = '\x01';  // the low byte of the u32 version after "SVXW"
  ASSERT_TRUE(WriteFileBytes(segment, v1_wal).ok());
  s = load();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("WAL version 1"), std::string::npos)
      << s.ToString();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Executor: a cold scan decodes the whole extent once and installs it
// ---------------------------------------------------------------------------

TEST(Columnar, ColdScanDecodesWholeExtentOnceAndInstallsIt) {
  const std::string dir = TempDir("coldscan");
  std::unique_ptr<Document> doc = RandomXmark(13);
  ViewCatalogOptions options;
  options.dir = dir;
  {
    ViewCatalog catalog(options);
    for (const ViewDef& def : CoveringViews()) {
      ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
    }
    ASSERT_TRUE(catalog.Save().ok());
  }
  // A loaded store starts with every extent cold.
  ViewCatalog loaded(options);
  ASSERT_TRUE(loaded.Load(doc.get()).ok());
  std::shared_ptr<const CatalogSnapshot> snap = loaded.Snapshot();
  const Catalog exec = snap->ExecutorCatalog();
  const MemoryBudget& budget = *loaded.memory_budget();
  for (const ViewDef& def : CoveringViews()) {
    const StoredView* v = snap->Find(def.name);
    ASSERT_NE(v, nullptr) << def.name;
    ASSERT_EQ(v->TryResident(), nullptr) << def.name;
    Table table = MaterializeView(def.pattern, def.name, *doc);
    table.SortRowsCanonical();
    // π₀ reads one column of a wider extent.
    ASSERT_GT(table.schema().size(), 1) << def.name;
    PlanPtr plan = MakeProject(MakeViewScan(def.name, table.schema()), {0});
    Catalog eager;
    eager.Register(def.name, &table);
    Result<Table> want = Execute(*plan, eager);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    const int64_t reloads = budget.reloads();
    for (int run = 0; run < 2; ++run) {
      Result<Table> got = Execute(*plan, exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got->EqualsIgnoringOrder(*want))
          << def.name << " run " << run;
    }
    EXPECT_EQ(budget.reloads(), reloads + 1)
        << def.name << ": only the first scan may decode";
    TablePtr resident = v->TryResident();
    ASSERT_NE(resident, nullptr)
        << def.name << ": the cold scan must install its decode";
    EXPECT_EQ(SerializeExtent(*resident), SerializeExtent(table))
        << def.name << ": the installed decode is the whole extent";
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Memory budget: eviction and lazy reload
// ---------------------------------------------------------------------------

TEST(Columnar, TinyBudgetEvictsAndReloadsWithoutChangingResults) {
  std::unique_ptr<Document> doc = RandomXmark(31);
  ViewCatalogOptions opts;
  opts.memory_budget_bytes = 2048;  // far below the working set
  ViewCatalog catalog(opts);
  std::vector<std::string> expected;
  int64_t working_set = 0;
  for (const ViewDef& def : CoveringViews()) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
    Table fresh = MaterializeView(def.pattern, def.name, *doc);
    fresh.SortRowsCanonical();
    working_set += ExtentByteSize(fresh);
    expected.push_back(SerializeExtent(fresh));
  }
  const std::shared_ptr<MemoryBudget>& budget = catalog.memory_budget();
  EXPECT_GT(budget->evictions(), 0)
      << "materializing past the budget must evict";
  EXPECT_LT(budget->resident_bytes(), working_set)
      << "residency must track the budget, not the working set";

  // Sweep all views repeatedly: every pass re-decodes evicted extents and
  // every decode must reproduce the materialized bytes.
  for (int pass = 0; pass < 3; ++pass) {
    const auto& views = catalog.views();
    for (size_t i = 0; i < views.size(); ++i) {
      Result<TablePtr> t = views[i]->table();
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_EQ(SerializeExtent(**t), expected[i])
          << views[i]->def.name << " pass " << pass;
    }
  }
  EXPECT_GT(budget->reloads(), 0) << "sweeps past the budget must reload";
}

TEST(Columnar, PinnedTableSurvivesEviction) {
  std::unique_ptr<Document> doc = RandomXmark(37);
  ViewCatalogOptions opts;
  opts.memory_budget_bytes = 1;  // evict everything not pinned
  ViewCatalog catalog(opts);
  std::vector<ViewDef> defs = CoveringViews();
  for (const ViewDef& def : defs) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }
  // Pin one view's decoded table, then force evictions by sweeping the
  // rest; the pinned shared_ptr must stay valid and unchanged.
  Result<TablePtr> pinned = catalog.Find("plain")->table();
  ASSERT_TRUE(pinned.ok());
  std::string before = SerializeExtent(**pinned);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& v : catalog.views()) {
      Result<TablePtr> t = v->table();
      ASSERT_TRUE(t.ok());
    }
  }
  EXPECT_EQ(SerializeExtent(**pinned), before);
}

TEST(Columnar, BorrowedCellsSurviveEvictionMidPlan) {
  // The executor's operators pass cells borrowed from the extents a plan
  // scans. Under a 1-byte budget, installing the second extent a plan scans
  // evicts the first while its cells (and, for an outer unnest, its nested
  // groups' cells) are still in use; the plan's pins keep them alive.
  std::shared_ptr<Document> doc = RandomXmark(41);
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(doc.get()));
  struct Case {
    std::vector<ViewDef> views;
    const char* query;
    const char* plan_op;  // the operator the plan must use
  };
  const Case cases[] = {
      {{{"items", MustParsePattern("site(//item{id})")},
        {"keywords", MustParsePattern("site(//keyword{id,v})")}},
       "site(//item{id}(//keyword{id,v}))",
       "⋈≺≺"},
      {{{"names", MustParsePattern("site(//item{id}(/name{v}))")},
        {"item_keywords",
         MustParsePattern("site(//item{id}(n//keyword{id,v}))")}},
       "site(//item{id}(/name{v} ?//keyword{id,v}))",
       "unnest"},
  };
  for (const Case& c : cases) {
    ViewCatalogOptions opts;
    opts.memory_budget_bytes = 1;  // evict everything not pinned
    ViewCatalog catalog(opts);
    for (const ViewDef& def : c.views) {
      ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
    }
    catalog.BindDocument(doc, summary);
    std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
    const Pattern q = MustParsePattern(c.query);
    Result<Rewriting> rw = snap->Rewrite(q);
    ASSERT_TRUE(rw.ok()) << rw.status().ToString();
    ASSERT_NE(rw->compact.find(c.plan_op), std::string::npos) << rw->compact;
    for (const ViewDef& def : c.views) {
      ASSERT_NE(rw->compact.find(def.name), std::string::npos) << rw->compact;
    }

    Table want = MaterializeView(q, "q", *doc);
    want.SortRowsCanonical();
    ASSERT_GT(want.NumRows(), 0);
    const int64_t evictions = catalog.memory_budget()->evictions();
    Result<Table> got = snap->Query(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(catalog.memory_budget()->evictions(), evictions)
        << c.query << ": the second scan must evict the first extent";
    got->SortRowsCanonical();
    ASSERT_EQ(got->NumRows(), want.NumRows()) << c.query;
    for (int64_t i = 0; i < want.NumRows(); ++i) {
      EXPECT_EQ(CompareTuples(got->row(i), want.row(i)), 0)
          << c.query << " row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch sharing: untouched views share the whole compressed extent
// ---------------------------------------------------------------------------

TEST(Columnar, UntouchedViewsShareColumnarAcrossEpochs) {
  std::shared_ptr<Document> d = Doc("a(b=1 b=2 c(x=3))");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"VB", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"VX", MustParsePattern("a(//x{id,c})")}, *d).ok());
  const ColumnarExtentPtr vb_before = catalog.Find("VB")->columnar;
  const ColumnarExtentPtr vx_before = catalog.Find("VX")->columnar;

  // Insert another b: VB changes, VX (a content view of an untouched
  // subtree) carries its compressed extent — the same object — into the
  // new epoch.
  Result<UpdateResult> up = InsertSubtree(*d, OrdPath::Root(), *Doc("b=9"));
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(up->delta).ok());

  EXPECT_EQ(catalog.Find("VX")->columnar.get(), vx_before.get())
      << "untouched content view must share the compressed extent object";
  EXPECT_NE(catalog.Find("VB")->columnar.get(), vb_before.get());
  EXPECT_EQ(catalog.Find("VB")->table().value()->NumRows(), 3);
  EXPECT_EQ(catalog.Find("VX")->table().value()->NumRows(), 1);
}

}  // namespace
}  // namespace svx
