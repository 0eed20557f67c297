#include "src/viewstore/delta_log.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/pattern/pattern_parser.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/util/fileio.h"
#include "src/viewstore/extent_io.h"
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

ViewCatalogOptions WalOptions(const std::string& dir) {
  ViewCatalogOptions opts;
  opts.dir = dir;
  opts.enable_delta_log = true;
  return opts;
}

/// A scratch store directory, removed on destruction.
struct TempDir {
  TempDir() {
    path = (fs::temp_directory_path() /
            ("svx_delta_log_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int counter;
  std::string path;
};
int TempDir::counter = 0;

WalRecord MakeRecord(uint64_t epoch) {
  WalRecord r;
  r.epoch = epoch;
  WalViewDelta d;
  d.view = "V" + std::to_string(epoch);
  d.extent = "opaque-extent-bytes-" + std::to_string(epoch);
  d.stats = std::string("rows 1\n\0bin", 11);
  r.views.push_back(d);
  r.views.push_back(WalViewDelta{"W", "", ""});
  return r;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.views.size(), b.views.size());
  for (size_t i = 0; i < a.views.size(); ++i) {
    EXPECT_EQ(a.views[i].view, b.views[i].view);
    EXPECT_EQ(a.views[i].extent, b.views[i].extent);
    EXPECT_EQ(a.views[i].stats, b.views[i].stats);
  }
}

// ---------------------------------------------------------------------------
// Segment format
// ---------------------------------------------------------------------------

TEST(DeltaLog, SegmentNamingRoundTrips) {
  EXPECT_EQ(DeltaLog::SegmentFileName(7), "wal.7.log");
  uint64_t gen = 0;
  EXPECT_TRUE(DeltaLog::ParseSegmentFileName("wal.42.log", &gen));
  EXPECT_EQ(gen, 42u);
  EXPECT_FALSE(DeltaLog::ParseSegmentFileName("wal..log", &gen));
  EXPECT_FALSE(DeltaLog::ParseSegmentFileName("wal.x.log", &gen));
  EXPECT_FALSE(DeltaLog::ParseSegmentFileName("manifest.txt", &gen));
  EXPECT_FALSE(DeltaLog::ParseSegmentFileName("wal.1.extent", &gen));
  // Only SegmentFileName's spelling: a name that overflows 64 bits or pads
  // with zeros would alias generation 1 or 7.
  EXPECT_FALSE(
      DeltaLog::ParseSegmentFileName("wal.18446744073709551617.log", &gen));
  EXPECT_FALSE(DeltaLog::ParseSegmentFileName("wal.007.log", &gen));
  EXPECT_TRUE(DeltaLog::ParseSegmentFileName("wal.0.log", &gen));
  EXPECT_EQ(gen, 0u);
  EXPECT_TRUE(
      DeltaLog::ParseSegmentFileName("wal.18446744073709551615.log", &gen));
  EXPECT_EQ(gen, 18446744073709551615u);
}

TEST(DeltaLog, PayloadRoundTrips) {
  WalRecord r = MakeRecord(12);
  std::string bytes = DeltaLog::EncodePayload(r);
  Result<WalRecord> back = DeltaLog::DecodePayload(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectRecordsEqual(r, *back);
  // Truncated payloads must fail to parse, never read out of bounds.
  for (size_t cut : {size_t{0}, size_t{4}, bytes.size() - 1}) {
    EXPECT_FALSE(DeltaLog::DecodePayload(bytes.substr(0, cut)).ok());
  }
  // A view count beyond what the remaining bytes can hold fails to parse
  // before anything is allocated for it.
  std::string many_views(8, '\0');  // epoch 0
  many_views.append(4, '\xFF');     // 2^32 - 1 views
  EXPECT_FALSE(DeltaLog::DecodePayload(many_views).ok());
}

TEST(DeltaLog, AppendReadAndReopenAppend) {
  TempDir dir;
  {
    Result<std::unique_ptr<DeltaLog>> log = DeltaLog::Open(dir.path, 3);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->generation(), 3u);
    ASSERT_TRUE((*log)->Append(MakeRecord(1)).ok());
    ASSERT_TRUE((*log)->Append(MakeRecord(2)).ok());
    EXPECT_EQ((*log)->records_appended(), 2);
    EXPECT_GT((*log)->bytes_appended(), 0);
  }
  // Reopening appends to the existing segment without rewriting the header.
  {
    Result<std::unique_ptr<DeltaLog>> log = DeltaLog::Open(dir.path, 3);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE((*log)->Append(MakeRecord(3)).ok());
  }
  Result<std::vector<WalRecord>> records = DeltaLog::ReadSegment(
      (fs::path(dir.path) / "wal.3.log").string(), /*truncate_torn_tail=*/false);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ExpectRecordsEqual(MakeRecord(static_cast<uint64_t>(i + 1)),
                       (*records)[i]);
  }
}

TEST(DeltaLog, TornTailIsTruncatedOrRejected) {
  TempDir dir;
  {
    Result<std::unique_ptr<DeltaLog>> log = DeltaLog::Open(dir.path, 1);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeRecord(1)).ok());
    ASSERT_TRUE((*log)->Append(MakeRecord(2)).ok());
  }
  const std::string path = (fs::path(dir.path) / "wal.1.log").string();
  const uintmax_t intact_size = fs::file_size(path);
  // Simulate a crash mid-append: a partial frame at the tail.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00\x00\xde\xad", 6);
  }
  // Strict mode refuses the segment.
  EXPECT_FALSE(DeltaLog::ReadSegment(path, /*truncate_torn_tail=*/false).ok());
  // Tolerant mode returns the valid prefix and truncates the file in place.
  Result<std::vector<WalRecord>> records =
      DeltaLog::ReadSegment(path, /*truncate_torn_tail=*/true);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 2u);
  EXPECT_EQ(fs::file_size(path), intact_size);
  // After truncation the segment is clean again, even in strict mode.
  EXPECT_TRUE(DeltaLog::ReadSegment(path, /*truncate_torn_tail=*/false).ok());
}

TEST(DeltaLog, CorruptChecksumIsTornTail) {
  TempDir dir;
  {
    Result<std::unique_ptr<DeltaLog>> log = DeltaLog::Open(dir.path, 1);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeRecord(1)).ok());
    ASSERT_TRUE((*log)->Append(MakeRecord(2)).ok());
  }
  const std::string path = (fs::path(dir.path) / "wal.1.log").string();
  // Flip one byte in the LAST record's payload: checksum mismatch.
  Result<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted.back() ^= 0x5a;
  ASSERT_TRUE(WriteFileBytes(path, corrupted).ok());
  Result<std::vector<WalRecord>> records =
      DeltaLog::ReadSegment(path, /*truncate_torn_tail=*/true);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 1u);  // only the intact first record survives
}

TEST(DeltaLog, ReplayFiltersByGenerationAndEpoch) {
  TempDir dir;
  {
    Result<std::unique_ptr<DeltaLog>> g1 = DeltaLog::Open(dir.path, 1);
    ASSERT_TRUE(g1.ok());
    ASSERT_TRUE((*g1)->Append(MakeRecord(1)).ok());
    ASSERT_TRUE((*g1)->Append(MakeRecord(2)).ok());
    Result<std::unique_ptr<DeltaLog>> g2 = DeltaLog::Open(dir.path, 2);
    ASSERT_TRUE(g2.ok());
    ASSERT_TRUE((*g2)->Append(MakeRecord(3)).ok());
    ASSERT_TRUE((*g2)->Append(MakeRecord(4)).ok());
  }
  // Generation floor 2 skips segment 1 entirely; epoch floor 3 drops the
  // already-checkpointed record 3.
  Result<std::vector<WalRecord>> records = DeltaLog::Replay(dir.path, 2, 3);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].epoch, 4u);
  // Floor 1, epoch 0: everything, in generation order.
  records = DeltaLog::Replay(dir.path, 1, 0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ((*records)[0].epoch, 1u);
  EXPECT_EQ((*records)[3].epoch, 4u);
}

TEST(DeltaLog, TornBytesInOlderSegmentFailReplay) {
  TempDir dir;
  {
    Result<std::unique_ptr<DeltaLog>> g1 = DeltaLog::Open(dir.path, 1);
    ASSERT_TRUE(g1.ok());
    ASSERT_TRUE((*g1)->Append(MakeRecord(1)).ok());
    Result<std::unique_ptr<DeltaLog>> g2 = DeltaLog::Open(dir.path, 2);
    ASSERT_TRUE(g2.ok());
    ASSERT_TRUE((*g2)->Append(MakeRecord(2)).ok());
  }
  // A torn tail is only legal in the newest segment: damage segment 1.
  {
    std::ofstream f((fs::path(dir.path) / "wal.1.log").string(),
                    std::ios::binary | std::ios::app);
    f.write("\x01", 1);
  }
  EXPECT_FALSE(DeltaLog::Replay(dir.path, 1, 0).ok());
  // Replay from floor 2 never touches the damaged segment.
  EXPECT_TRUE(DeltaLog::Replay(dir.path, 2, 0).ok());
}

TEST(DeltaLog, SweepRemovesRetiredSegments) {
  TempDir dir;
  for (uint64_t gen : {1u, 2u, 4u}) {
    Result<std::unique_ptr<DeltaLog>> log = DeltaLog::Open(dir.path, gen);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeRecord(gen)).ok());
  }
  EXPECT_EQ(DeltaLog::SweepSegments(dir.path, 4), 2);
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "wal.1.log"));
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "wal.2.log"));
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "wal.4.log"));
  EXPECT_EQ(DeltaLog::SweepSegments(dir.path, 4), 0);
}

// ---------------------------------------------------------------------------
// ViewCatalog integration: WAL-mode maintenance, recovery, checkpointing
// ---------------------------------------------------------------------------

/// Applies `n` appends of item subtrees through the catalog, returning the
/// documents (kept alive: extents reference them).
std::vector<std::unique_ptr<Document>> ApplyInserts(ViewCatalog* catalog,
                                                    const Document* base,
                                                    int n) {
  std::vector<std::unique_ptr<Document>> history;
  const Document* cur = base;
  for (int i = 0; i < n; ++i) {
    std::unique_ptr<Document> sub =
        Doc("item(name=fresh" + std::to_string(i) + ")");
    Result<UpdateResult> up = InsertSubtree(*cur, OrdPath::Root(), *sub);
    EXPECT_TRUE(up.ok()) << up.status().ToString();
    EXPECT_TRUE(catalog->ApplyUpdate(up->delta).ok());
    history.push_back(std::move(up->doc));
    cur = history.back().get();
  }
  return history;
}

TEST(DeltaLogCatalog, MaintenanceAppendsAndRecoveryReplays) {
  TempDir dir;
  std::unique_ptr<Document> base =
      Doc("site(item(name=a) item(name=b) item(name=c))");
  std::vector<std::unique_ptr<Document>> history;
  {
    ViewCatalog catalog(WalOptions(dir.path));
    ASSERT_TRUE(catalog
                    .Materialize({"names",
                                  MustParsePattern("site(/item{id}(/name{id,v}))")},
                                 *base)
                    .ok());
    EXPECT_EQ(catalog.wal_depth(), 0);  // Materialize checkpoints
    history = ApplyInserts(&catalog, base.get(), 3);
    EXPECT_EQ(catalog.wal_depth(), 3);  // three passes, three records
    // No Save(): destruction is the crash.
  }
  const Document* final_doc = history.back().get();
  ViewCatalog recovered(WalOptions(dir.path));
  ASSERT_TRUE(recovered.Load(final_doc).ok());
  const StoredView* v = recovered.Find("names");
  ASSERT_NE(v, nullptr);
  Table fresh = MaterializeView(v->def.pattern, "names", *final_doc);
  fresh.SortRowsCanonical();
  EXPECT_EQ(SerializeExtent(*v->table().value()), SerializeExtent(fresh));
  // Recovery keeps the log; only a checkpoint truncates it.
  EXPECT_EQ(recovered.wal_depth(), 3);
  ASSERT_TRUE(recovered.Save().ok());
  EXPECT_EQ(recovered.wal_depth(), 0);
  // After the checkpoint a re-load needs no replay and still agrees.
  ViewCatalog clean(WalOptions(dir.path));
  ASSERT_TRUE(clean.Load(final_doc).ok());
  EXPECT_EQ(clean.wal_depth(), 0);
  EXPECT_EQ(SerializeExtent(*clean.Find("names")->table().value()),
            SerializeExtent(fresh));
}

TEST(DeltaLogCatalog, ReplayRejectsContentReferencesItsDocumentLacks) {
  // The logged extent names the inserted b, which the base document lacks:
  // replay checks logged references as Load checks the manifest's.
  TempDir dir;
  std::unique_ptr<Document> base = Doc("a(b(c=1) b(c=2))");
  Result<UpdateResult> ins = InsertSubtree(*base, OrdPath::Root(),
                                           *Doc("b(c=3)"));
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  {
    ViewCatalog catalog(WalOptions(dir.path));
    ASSERT_TRUE(
        catalog.Materialize({"C", MustParsePattern("a(/b{id,c})")}, *base)
            .ok());
    ASSERT_TRUE(catalog.ApplyUpdate(ins->delta).ok());
    EXPECT_EQ(catalog.wal_depth(), 1);
  }
  ViewCatalog stale(WalOptions(dir.path));
  Status s = stale.Load(base.get());
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
  ViewCatalog recovered(WalOptions(dir.path));
  ASSERT_TRUE(recovered.Load(ins->doc.get()).ok());
  EXPECT_EQ(recovered.Find("C")->stats.num_rows, 3);
}

TEST(DeltaLogCatalog, LoadSweepsOrphanSegmentsAndToleratesTornTail) {
  TempDir dir;
  std::unique_ptr<Document> base = Doc("site(item(name=a) item(name=b))");
  std::vector<std::unique_ptr<Document>> history;
  {
    ViewCatalog catalog(WalOptions(dir.path));
    ASSERT_TRUE(catalog
                    .Materialize({"names",
                                  MustParsePattern("site(/item{id}(/name{v}))")},
                                 *base)
                    .ok());
    history = ApplyInserts(&catalog, base.get(), 2);
  }
  // Plant an orphaned segment below the manifest's floor (a crash between
  // a checkpoint's manifest flip and its sweep leaves exactly this), and
  // tear the live segment's tail (a crash mid-append).
  ASSERT_TRUE(
      WriteFileBytes((fs::path(dir.path) / "wal.1.log").string(), "junk").ok());
  fs::path live;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    uint64_t gen = 0;
    if (DeltaLog::ParseSegmentFileName(entry.path().filename().string(),
                                       &gen) &&
        gen > 1) {
      live = entry.path();
    }
  }
  ASSERT_FALSE(live.empty());
  const uintmax_t intact_size = fs::file_size(live);
  {
    std::ofstream f(live.string(), std::ios::binary | std::ios::app);
    f.write("\x99\x00\x00", 3);
  }
  const Document* final_doc = history.back().get();
  ViewCatalog recovered(WalOptions(dir.path));
  ASSERT_TRUE(recovered.Load(final_doc).ok());
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "wal.1.log"));  // orphan swept
  EXPECT_EQ(fs::file_size(live), intact_size);  // torn tail truncated
  Table fresh = MaterializeView(recovered.Find("names")->def.pattern, "names",
                                *final_doc);
  fresh.SortRowsCanonical();
  EXPECT_EQ(SerializeExtent(*recovered.Find("names")->table().value()),
            SerializeExtent(fresh));
}

TEST(DeltaLogCatalog, BatchPublishesOneEpochAndMatchesSerial) {
  std::unique_ptr<Document> base =
      Doc("site(item(name=a) item(name=b) item(name=c))");
  ViewDef def{"names", MustParsePattern("site(/item{id}(/name{id,v}))")};

  // Build one chain of three deltas off `base`.
  std::vector<std::unique_ptr<Document>> history;
  std::vector<DocumentDelta> deltas;
  const Document* cur = base.get();
  for (int i = 0; i < 3; ++i) {
    Result<UpdateResult> up = (i == 1)
                                  ? DeleteSubtree(*cur, cur->ord_path(
                                        cur->children(cur->root()).front()))
                                  : InsertSubtree(*cur, OrdPath::Root(),
                                                  *Doc("item(name=x" +
                                                       std::to_string(i) +
                                                       ")"));
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    deltas.push_back(up->delta);
    history.push_back(std::move(up->doc));
    cur = history.back().get();
  }

  ViewCatalog serial;
  ASSERT_TRUE(serial.Materialize(def, *base).ok());
  for (const DocumentDelta& d : deltas) {
    ASSERT_TRUE(serial.ApplyUpdate(d).ok());
  }

  ViewCatalog batched;
  ASSERT_TRUE(batched.Materialize(def, *base).ok());
  const uint64_t epoch_before = batched.Snapshot()->epoch();
  MaintenanceStats ms;
  ASSERT_TRUE(batched.ApplyUpdateBatch(deltas, nullptr, nullptr, &ms).ok());
  EXPECT_EQ(batched.Snapshot()->epoch(), epoch_before + 1);  // ONE epoch
  EXPECT_EQ(ms.deltas_applied, 3);

  EXPECT_EQ(SerializeExtent(*batched.Find("names")->table().value()),
            SerializeExtent(*serial.Find("names")->table().value()));
}

TEST(DeltaLogCatalog, FreshCatalogSavingOverAnotherStoreDropsItsLog) {
  // A catalog that never loaded must not adopt the log another instance
  // left in its directory: that log's records would replay over its state.
  TempDir dir;
  const Pattern p = MustParsePattern("site(/item{id}(/name{id,v}))");
  std::unique_ptr<Document> base = Doc("site(item(name=a))");
  std::vector<std::unique_ptr<Document>> history;
  {
    ViewCatalog a(WalOptions(dir.path));
    ASSERT_TRUE(a.Materialize({"V", p}, *base).ok());
    history = ApplyInserts(&a, base.get(), 3);
    EXPECT_EQ(a.wal_depth(), 3);
    EXPECT_EQ(a.Find("V")->stats.num_rows, 4);
  }
  std::unique_ptr<Document> other = Doc("site(item(name=z))");
  {
    ViewCatalog b(WalOptions(dir.path));
    ASSERT_TRUE(b.Materialize({"V", p}, *other).ok());  // checkpoints
  }
  ViewCatalog reopened(WalOptions(dir.path));
  ASSERT_TRUE(reopened.Load(other.get()).ok());
  EXPECT_EQ(reopened.wal_depth(), 0);
  ASSERT_NE(reopened.Find("V"), nullptr);
  Table fresh = MaterializeView(p, "V", *other);
  fresh.SortRowsCanonical();
  EXPECT_EQ(SerializeExtent(*reopened.Find("V")->table().value()),
            SerializeExtent(fresh));
}

/// The newest WAL segment in `dir`: the one appends go to.
fs::path LiveSegment(const std::string& dir) {
  fs::path live;
  uint64_t newest = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t gen = 0;
    if (DeltaLog::ParseSegmentFileName(entry.path().filename().string(),
                                       &gen) &&
        gen >= newest) {
      newest = gen;
      live = entry.path();
    }
  }
  return live;
}

/// Every view's row-major bytes by name: the state a catalog serves.
std::map<std::string, std::string> ViewState(const ViewCatalog& catalog) {
  std::map<std::string, std::string> out;
  for (const auto& v : catalog.views()) {
    out[v->def.name] = SerializeExtent(*v->table().value());
  }
  return out;
}

TEST(DeltaLogCatalog, RebuildIsLoggedAndReplayed) {
  // A rebuild logs the rebuilt view's bytes like any re-encoded view: one
  // record, no checkpoint, and recovery installs the view cold.
  TempDir dir;
  std::unique_ptr<Document> d = Doc("a(b=1)");
  std::unique_ptr<Document> d2 = Doc("a(b=1 b=2)");
  Pattern p = MustParsePattern("a(/b{id,v})");
  const std::string manifest_path =
      (fs::path(dir.path) / "manifest.txt").string();
  auto extent_files = [&]() {
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      if (entry.path().extension() == ".extent") {
        out.push_back(entry.path().filename().string());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  {
    ViewCatalog catalog(WalOptions(dir.path));
    ASSERT_TRUE(catalog.Materialize({"V", p}, *d).ok());
    Result<std::string> manifest_before = ReadFileBytes(manifest_path);
    ASSERT_TRUE(manifest_before.ok());
    std::vector<std::string> extents_before = extent_files();
    DocumentDelta delta;  // invalid region → rematerialize over new_doc
    delta.old_doc = d.get();
    delta.new_doc = d2.get();
    MaintenanceStats ms;
    ASSERT_TRUE(catalog.ApplyUpdate(delta, &ms).ok());
    EXPECT_EQ(ms.views_rebuilt, 1);
    EXPECT_EQ(catalog.wal_depth(), 1);
    Result<std::string> manifest_after = ReadFileBytes(manifest_path);
    ASSERT_TRUE(manifest_after.ok());
    EXPECT_EQ(*manifest_after, *manifest_before) << "the rebuild checkpointed";
    EXPECT_EQ(extent_files(), extents_before);
    // No Save(): destruction is the crash.
  }
  ViewCatalog recovered(WalOptions(dir.path));
  ASSERT_TRUE(recovered.Load(d2.get()).ok());
  const StoredView* v = recovered.Find("V");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->TryResident(), nullptr) << "replay decoded the extent";
  Table fresh = MaterializeView(p, "V", *d2);
  fresh.SortRowsCanonical();
  EXPECT_EQ(SerializeExtent(*v->table().value()), SerializeExtent(fresh));
}

TEST(DeltaLogCatalog, ContentViewReplaysAgainstTheFinalDocument) {
  // The first pass logs a content reference to an x that the second pass
  // deletes, so the reference resolves in no later document. The third pass
  // leaves X's rows alone: X carries and logs nothing. Replay must resolve
  // every reference of X in the final document.
  TempDir dir;
  std::unique_ptr<Document> base = Doc("a(x=1 b(x=2))");
  Pattern px = MustParsePattern("a(//x{id,c})");
  Pattern py = MustParsePattern("a(//y{id})");
  std::vector<std::unique_ptr<Document>> history;
  {
    ViewCatalog catalog(WalOptions(dir.path));
    ASSERT_TRUE(catalog.Materialize({"X", px}, *base).ok());
    ASSERT_TRUE(catalog.Materialize({"Y", py}, *base).ok());
    Result<UpdateResult> ins =
        InsertSubtree(*base, OrdPath::Root(), *Doc("x=3"));
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    ASSERT_TRUE(catalog.ApplyUpdate(ins->delta).ok());
    history.push_back(std::move(ins->doc));
    Result<UpdateResult> del =
        DeleteSubtree(*history.back(), ins->delta.region);
    ASSERT_TRUE(del.ok()) << del.status().ToString();
    ASSERT_TRUE(catalog.ApplyUpdate(del->delta).ok());
    history.push_back(std::move(del->doc));
    const Document& cur = *history.back();
    const OrdPath b = cur.ord_path(cur.children(cur.root())[1]);
    Result<UpdateResult> other = InsertSubtree(cur, b, *Doc("y"));
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    MaintenanceStats ms;
    ASSERT_TRUE(catalog.ApplyUpdate(other->delta, &ms).ok());
    EXPECT_EQ(ms.views_touched, 1);  // Y only: X carries
    history.push_back(std::move(other->doc));
    EXPECT_EQ(catalog.wal_depth(), 3);
  }
  const Document* final_doc = history.back().get();
  ViewCatalog recovered(WalOptions(dir.path));
  Status loaded = recovered.Load(final_doc);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  TablePtr x = recovered.Find("X")->table().value();
  ASSERT_EQ(x->NumRows(), 2);
  for (const Tuple& row : x->rows()) {
    for (const Value& cell : row) {
      if (cell.IsContent()) {
        EXPECT_NE(final_doc->FindByOrdPath(cell.AsContent().id), kInvalidNode);
      }
    }
  }
  for (const auto& [name, pattern] :
       {std::pair<std::string, Pattern>{"X", px}, {"Y", py}}) {
    Table fresh = MaterializeView(pattern, name, *final_doc);
    fresh.SortRowsCanonical();
    EXPECT_EQ(SerializeExtent(*recovered.Find(name)->table().value()),
              SerializeExtent(fresh))
        << name;
  }
}

TEST(DeltaLogCatalog, EveryCutOfTheLiveSegmentRecoversAPrefix) {
  // A crash at any point of the live segment's life leaves a prefix of its
  // bytes, from an empty file on: the store must reopen to the state after
  // some prefix of the logged passes. A damaged byte may also fail the
  // load, but never yields a state no prefix produced.
  TempDir dir;
  std::unique_ptr<Document> base = Doc("site(item(name=a) item(name=b))");
  std::vector<std::map<std::string, std::string>> prefixes;
  std::vector<std::unique_ptr<Document>> history;
  {
    ViewCatalog catalog(WalOptions(dir.path));
    ASSERT_TRUE(catalog
                    .Materialize({"names",
                                  MustParsePattern("site(/item{id}(/name{id,v}))")},
                                 *base)
                    .ok());
    ASSERT_TRUE(
        catalog.Materialize({"items", MustParsePattern("site(/item{id,c})")},
                            *base)
            .ok());
    prefixes.push_back(ViewState(catalog));
    for (int i = 0; i < 3; ++i) {
      const Document* cur = history.empty() ? base.get() : history.back().get();
      std::vector<std::unique_ptr<Document>> step =
          ApplyInserts(&catalog, cur, 1);
      history.push_back(std::move(step.front()));
      prefixes.push_back(ViewState(catalog));
    }
    EXPECT_EQ(catalog.wal_depth(), 3);
  }
  const fs::path live = LiveSegment(dir.path);
  ASSERT_FALSE(live.empty());
  Result<std::string> intact = ReadFileBytes(live.string());
  ASSERT_TRUE(intact.ok());
  const Document* final_doc = history.back().get();
  // Loads the store with `segment` as the live segment's bytes.
  auto load = [&](const std::string& segment)
      -> std::optional<std::map<std::string, std::string>> {
    EXPECT_TRUE(WriteFileBytes(live.string(), segment).ok());
    ViewCatalog catalog(WalOptions(dir.path));
    if (!catalog.Load(final_doc).ok()) return std::nullopt;
    return ViewState(catalog);
  };
  auto is_prefix = [&](const std::map<std::string, std::string>& state) {
    return std::find(prefixes.begin(), prefixes.end(), state) !=
           prefixes.end();
  };
  for (size_t cut = 0; cut <= intact->size(); ++cut) {
    std::optional<std::map<std::string, std::string>> state =
        load(intact->substr(0, cut));
    ASSERT_TRUE(state.has_value()) << "cut at byte " << cut;
    EXPECT_TRUE(is_prefix(*state)) << "cut at byte " << cut;
  }
  for (size_t i = 0; i < intact->size(); ++i) {
    for (unsigned mask : {0x01u, 0x80u, 0xFFu}) {
      std::string flipped = *intact;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^
                                     mask);
      std::optional<std::map<std::string, std::string>> state = load(flipped);
      if (state.has_value()) {
        EXPECT_TRUE(is_prefix(*state)) << "byte " << i << " ^ " << mask;
      }
    }
  }
  // The intact segment recovers every pass.
  EXPECT_EQ(load(*intact), prefixes.back());
}

}  // namespace
}  // namespace svx
