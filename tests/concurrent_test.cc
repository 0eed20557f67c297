// Concurrent serving stress test: N reader threads rewrite and execute
// against catalog snapshots while one writer loops ApplyUpdate. Every read
// must observe a consistent epoch — verified two ways:
//   * externally, against a single-threaded replay of the same
//     (deterministic) update sequence: a reader-observed (epoch, extent
//     checksum) pair must match what the replay recorded for that epoch;
//   * internally, by executing a rewriting against the snapshot's extents
//     and comparing with direct pattern evaluation over the snapshot's
//     document — extents and document of one epoch must agree even while
//     the writer publishes successors.
// Run under TSan in CI (the .github workflow's `tsan` job).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/executor.h"
#include "src/pattern/pattern_parser.h"
#include "src/pattern/pattern_printer.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/util/rng.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

std::shared_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::shared_ptr<Document>(std::move(r).value());
}

const char* kSeedTree =
    "site(item(name=alpha keyword=k1) item(name=beta keyword=k2) "
    "person(name=ann) person(name=bob))";

const char* kInsertPool[] = {
    "item(name=gamma keyword=k3)",
    "item(name=delta)",
    "person(name=carl)",
    "keyword=k9",
};

std::vector<ViewDef> StressViews() {
  return {
      {"items", MustParsePattern("site(/item{id}(/name{id,v}))")},
      {"keywords", MustParsePattern("site(//keyword{id,v})")},
      {"people", MustParsePattern("site(/person{id}(/name{v}))")},
  };
}

/// Stable fingerprint of every extent in the snapshot.
std::string ChecksumExtents(const CatalogSnapshot& snap) {
  std::string all;
  for (const auto& v : snap.views()) {
    all += v->def.name;
    all += SerializeExtent(*v->table().value());
  }
  return all;
}

/// One deterministic update against `doc`; returns the update result.
Result<UpdateResult> NextUpdate(const Document& doc, Rng* rng) {
  if (doc.size() > 24 && rng->Bernoulli(0.5)) {
    NodeIndex n = static_cast<NodeIndex>(
        rng->Uniform(1, static_cast<int64_t>(doc.size()) - 1));
    return DeleteSubtree(doc, doc.ord_path(n));
  }
  NodeIndex n = static_cast<NodeIndex>(
      rng->Uniform(0, static_cast<int64_t>(doc.size()) - 1));
  std::shared_ptr<Document> sub = Doc(kInsertPool[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(std::size(kInsertPool)) - 1))]);
  // Mix careted mid-sibling inserts into the stream.
  std::vector<NodeIndex> kids = doc.children(n);
  if (!kids.empty() && rng->Bernoulli(0.4)) {
    OrdPath before = doc.ord_path(kids[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(kids.size()) - 1))]);
    return InsertSubtree(doc, doc.ord_path(n), *sub, &before);
  }
  return InsertSubtree(doc, doc.ord_path(n), *sub);
}

constexpr int kUpdates = 25;
constexpr uint64_t kSeed = 1234;

/// Applies the deterministic update stream to `catalog`, returning the
/// expected (epoch → checksum) map including the starting epoch. When
/// `running` is given, the updates run against live readers.
std::map<uint64_t, std::string> DriveWriter(ViewCatalog* catalog,
                                            std::shared_ptr<Document> doc,
                                            std::shared_ptr<Summary> summary) {
  std::map<uint64_t, std::string> expected;
  {
    std::shared_ptr<const CatalogSnapshot> snap = catalog->Snapshot();
    expected[snap->epoch()] = ChecksumExtents(*snap);
  }
  Rng rng(kSeed);
  for (int i = 0; i < kUpdates; ++i) {
    Result<UpdateResult> up = NextUpdate(*doc, &rng);
    EXPECT_TRUE(up.ok()) << up.status().ToString();
    if (!up.ok()) break;
    std::shared_ptr<Document> next_doc(std::move(up->doc));
    std::shared_ptr<Summary> next_summary(
        SummaryBuilder::Build(next_doc.get()));
    Status s = catalog->ApplyUpdateBatch({up->delta}, next_doc, next_summary);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) break;
    doc = std::move(next_doc);
    summary = std::move(next_summary);
    std::shared_ptr<const CatalogSnapshot> snap = catalog->Snapshot();
    expected[snap->epoch()] = ChecksumExtents(*snap);
  }
  return expected;
}

TEST(ConcurrentServing, ReadersAlwaysSeeAConsistentEpoch) {
  // ---- Single-threaded replay: the per-epoch ground truth. ----
  std::map<uint64_t, std::string> expected;
  {
    std::shared_ptr<Document> doc = Doc(kSeedTree);
    std::shared_ptr<Summary> summary(SummaryBuilder::Build(doc.get()));
    ViewCatalog replay;
    for (const ViewDef& def : StressViews()) {
      ASSERT_TRUE(replay.Materialize(def, *doc).ok());
    }
    replay.BindDocument(doc, summary);
    expected = DriveWriter(&replay, doc, summary);
    ASSERT_EQ(expected.size(), static_cast<size_t>(kUpdates) + 1);
  }

  // ---- Concurrent run: same stream, with readers hammering. ----
  std::shared_ptr<Document> doc = Doc(kSeedTree);
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(doc.get()));
  ViewCatalog catalog;
  for (const ViewDef& def : StressViews()) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }
  catalog.BindDocument(doc, summary);

  std::atomic<bool> stop{false};
  std::atomic<int> consistency_checks{0};
  std::vector<std::string> reader_errors(4);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < reader_errors.size(); ++r) {
    readers.emplace_back([&, r]() {
      Pattern q = MustParsePattern("site(/item{id}(/name{v}))");
      uint64_t last_epoch = 0;
      int iter = 0;
      // do-while: every reader completes at least one full iteration
      // (including the iter==0 consistency check) even when the writer
      // finishes before this thread is first scheduled — otherwise the
      // consistency_checks > 0 assertion below races thread startup.
      do {
        std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
        if (snap->epoch() < last_epoch) {
          reader_errors[r] = "epoch went backwards";
          return;
        }
        last_epoch = snap->epoch();
        // External consistency: extents must be exactly one replay state.
        std::string sum = ChecksumExtents(*snap);
        auto it = expected.find(snap->epoch());
        if (it == expected.end() || it->second != sum) {
          reader_errors[r] =
              "epoch " + std::to_string(snap->epoch()) +
              (it == expected.end() ? " unknown" : " has mixed extents");
          return;
        }
        // Internal consistency: a rewriting executed against this epoch's
        // extents equals direct evaluation over this epoch's document.
        // Only planning may come back empty (NotFound); once a rewriting
        // exists, executing it over the epoch's extents must succeed.
        if (iter++ % 4 == 0) {
          Result<Rewriting> rw = snap->Rewrite(q);
          if (!rw.ok() && rw.status().code() != StatusCode::kNotFound) {
            reader_errors[r] = rw.status().ToString();
            return;
          }
          if (rw.ok()) {
            Result<Table> got = Execute(*rw->plan, snap->ExecutorCatalog());
            if (!got.ok()) {
              reader_errors[r] = "epoch " + std::to_string(snap->epoch()) +
                                 ": " + got.status().ToString();
              return;
            }
            Table want = MaterializeView(q, "q", *snap->document());
            if (!got->EqualsIgnoringOrder(want)) {
              reader_errors[r] = "epoch " +
                                 std::to_string(snap->epoch()) +
                                 ": rewriting disagrees with direct "
                                 "evaluation inside one epoch";
              return;
            }
            consistency_checks.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  std::map<uint64_t, std::string> live = DriveWriter(&catalog, doc, summary);
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(live, expected) << "concurrent run diverged from replay";
  for (const std::string& err : reader_errors) EXPECT_EQ(err, "");
  EXPECT_GT(consistency_checks.load(), 0);
}

TEST(ConcurrentServing, OldEpochReadersFillCachesThatNewEpochsServe) {
  // Epochs of one summary structure share a rewrite cache, so readers still
  // pinned to old epochs insert plans that new epochs serve. The writer
  // cycles through four updates: two keep the summary (an item with both
  // name and keyword, inserted and later deleted) and two flip the strong
  // and one-to-one flags of item->keyword (an item without a keyword,
  // inserted and deleted again).
  std::shared_ptr<Document> doc =
      Doc("site(item(name=alpha keyword=k1) item(name=beta keyword=k2))");
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(doc.get()));
  ViewCatalog catalog;
  for (const ViewDef& def : StressViews()) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }
  // Holds every item only while item->keyword is strong.
  ASSERT_TRUE(catalog
                  .Materialize({"keyed", MustParsePattern(
                                             "site(/item{id}(/keyword))")},
                               *doc)
                  .ok());
  catalog.BindDocument(doc, summary);

  const char* queries[] = {"site(/item{id})", "site(/item{id}(/name{v}))",
                           "site(//keyword{v})", "site(/item(/keyword{v}))"};
  std::atomic<bool> stop{false};
  std::atomic<int> answers{0};
  std::vector<std::string> reader_errors(3);
  std::atomic<int> readers_running{static_cast<int>(reader_errors.size())};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < reader_errors.size(); ++r) {
    readers.emplace_back([&, r]() {
      struct Done {
        std::atomic<int>* running;
        ~Done() { running->fetch_sub(1); }
      } done{&readers_running};
      int iter = 0;
      do {
        // Pinned across several queries while the writer moves on.
        std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
        for (int k = 0; k < 6; ++k, ++iter) {
          const Pattern q = MustParsePattern(
              queries[static_cast<size_t>(iter) % std::size(queries)]);
          Result<Table> got = snap->Query(q);
          if (!got.ok()) {
            if (got.status().code() == StatusCode::kNotFound) continue;
            reader_errors[r] = got.status().ToString();
            return;
          }
          if (!got->EqualsIgnoringOrder(
                  MaterializeView(q, "q", *snap->document()))) {
            reader_errors[r] = "epoch " + std::to_string(snap->epoch()) +
                               ": " + PatternToString(q) +
                               " disagrees with direct evaluation";
            return;
          }
          answers.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  OrdPath kept;
  OrdPath flipped;
  for (int i = 0; i < 24; ++i) {
    // Let the readers serve a few queries from the current epoch first, so
    // that some of them are still pinned to it after the update.
    const int target = answers.load() + 3;
    while (answers.load() < target && readers_running.load() > 0) {
      std::this_thread::yield();
    }
    Result<UpdateResult> up = Status::Internal("no update");
    switch (i % 4) {
      case 0:
        up = InsertSubtree(*doc, OrdPath::Root(),
                           *Doc("item(name=gamma keyword=k3)"));
        if (up.ok()) kept = up->delta.region;
        break;
      case 1:
        up = InsertSubtree(*doc, OrdPath::Root(), *Doc("item(name=delta)"));
        if (up.ok()) flipped = up->delta.region;
        break;
      case 2:
        up = DeleteSubtree(*doc, flipped);
        break;
      default:
        up = DeleteSubtree(*doc, kept);
        break;
    }
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    std::shared_ptr<Document> next(std::move(up->doc));
    std::shared_ptr<Summary> next_summary(SummaryBuilder::Build(next.get()));
    EXPECT_EQ(next_summary->StructurallyEquals(*summary),
              i % 4 == 0 || i % 4 == 3)
        << "update " << i;
    ASSERT_TRUE(
        catalog.ApplyUpdateBatch({up->delta}, next, next_summary).ok());
    doc = std::move(next);
    summary = std::move(next_summary);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  for (const std::string& err : reader_errors) EXPECT_EQ(err, "");
  EXPECT_GT(answers.load(), 0);
  EXPECT_GT(catalog.rewrite_cache()->hits(), 0u);
}

TEST(ConcurrentServing, SharedCachesStaySaneUnderContention) {
  // Hammer one snapshot's rewrite cache + memo + lazily built view index
  // from many threads (the single-epoch hot path): every thread must see
  // identical plans, and hits+misses must add up.
  std::shared_ptr<Document> doc = Doc(kSeedTree);
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(doc.get()));
  ViewCatalog catalog;
  for (const ViewDef& def : StressViews()) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }
  catalog.BindDocument(doc, summary);
  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();

  const char* queries[] = {"site(/item{id}(/name{v}))",
                           "site(//keyword{v})",
                           "site(/person{id}(/name{v}))"};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 40; ++i) {
        Pattern q = MustParsePattern(queries[i % std::size(queries)]);
        Result<Rewriting> rw = snap->Rewrite(q);
        if (!rw.ok() || rw->plan == nullptr) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(snap->rewrite_cache()->hits(), 0u);
  EXPECT_EQ(snap->rewrite_cache()->hits() + snap->rewrite_cache()->misses(),
            4u * 40u);
}

TEST(ConcurrentServing, SummaryBuildsShareOneDocument) {
  // A document version is immutable: building its summary only reads it,
  // so builds of one shared version may run at once (TSan checks they do
  // not race) and agree.
  XmarkOptions opts;
  opts.scale = 0.05;
  const std::shared_ptr<const Document> doc = GenerateXmark(opts);
  const std::string expected =
      SummaryBuilder::Build(doc.get())->StructureKey();
  std::vector<std::string> keys(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < keys.size(); ++t) {
    threads.emplace_back([&doc, &keys, t]() {
      keys[t] = SummaryBuilder::Build(doc.get())->StructureKey();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& key : keys) EXPECT_EQ(key, expected);
}

}  // namespace
}  // namespace svx
