// Concurrent serving benchmark: N reader threads serve XMark query
// patterns through the catalog's query entry point, first over an idle
// store, then while one writer thread applies a stream of subtree updates.
// Reports per-phase reader latency percentiles and throughput plus writer
// progress, and writes BENCH_concurrent.json into the working directory.
//
// With --shards=N (N > 1) the catalog is a ShardedCatalog with async writer
// lanes and the file is BENCH_concurrent_sharded.json. The two kinds differ
// only in their Serving adapter: how a reader serves one query, and how the
// writer applies a burst — 1 update for the single catalog, 8 for the
// sharded one, enqueued back to back so the lanes coalesce them. The
// sharded catalog reports no rewrite-cache hits or maintenance statistics;
// the report shows them as unmeasured (null in the JSON).
//
// The run fails on a reader error, on a phase that served no reader op,
// when the writer made no progress, when the contended median reader
// latency exceeds max-ratio × the idle median (--max-ratio, default 2.0;
// 0 = ungated), and — for bursts of more than one update — unless the
// bursts publish at most half as many epochs as deltas applied.
//
//   $ ./build/bench_concurrent [scale] [phase-ms] [readers]
//         [--writer-interval-ms N] [--max-ratio R] [--shards N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"
#include "src/util/timer.h"
#include "src/viewstore/sharded_catalog.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/xml/update.h"

namespace svx {
namespace {

/// The stored view set: the maintenance bench's five views — small enough
/// that a maintenance pass is bounded, expressive enough that the XMark
/// queries find rewritings.
struct ViewSpec {
  const char* name;
  const char* pattern;
};
const ViewSpec kViews[] = {
    {"item_names", "site(//item{id}(/name{id,v}))"},
    {"item_keywords_opt", "site(//item{id}(?//keyword{v}))"},
    {"item_keywords_nested", "site(//item{id}(n//keyword{id,v}))"},
    {"person_names", "site(//person{id}(/name{id,v}))"},
    {"auction_bidders", "site(//open_auction{id}(//bidder{id}(/increase{v})))"},
};

/// The reader workload: query patterns served by the view set above.
const char* kQueries[] = {
    "site(//item{id}(/name{v}))",
    "site(//item{id}(/name{id,v} ?//keyword{v}))",
    "site(//person{id}(/name{v}))",
    "site(//open_auction{id}(//bidder{id}(/increase{v})))",
    "site(//item{id}(n//keyword{id,v}))",
};

struct Config {
  double scale = 0.5;
  double phase_ms = 3000;
  int readers = 2;
  double writer_interval_ms = 100;
  double max_ratio = 2.0;
  int shards = 1;
};

struct PhaseStats {
  std::vector<double> latencies_ms;  // per reader op, merged
  double wall_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  long long ops = 0;
  long long cache_hits = 0;
  long long failures = 0;
};

/// One writer step: the delta plus shared ownership of its successor
/// document and that document's summary.
struct Update {
  DocumentDelta delta;
  std::shared_ptr<const Document> doc;
  std::shared_ptr<const Summary> summary;
};

/// What the writer did over a phase.
struct WriterStats {
  long long updates = 0;
  uint64_t epochs = 0;       // epochs the bursts published
  MaintenanceStats totals;   // summed over the updates
};

/// The per-kind adapter: the readers, the writer, the phase runner, the
/// report and the gates below serve both catalog kinds through it.
struct Serving {
  /// Serves `q` from a freshly pinned snapshot, dropping the rows before the
  /// pin; sets *cache_hit when the rewriting came from the rewrite cache.
  std::function<Status(const Pattern& q, bool* cache_hit)> serve;
  /// Applies a chain of updates and returns once all are published, adding
  /// the epochs they published and their maintenance work to *out.
  std::function<Status(const std::vector<Update>& burst, WriterStats* out)>
      apply;
  std::function<std::string()> debug_metrics;
  int shards = 1;  // effective shard count
  int burst = 1;   // updates per writer burst
  /// False when the catalog surfaces neither rewrite-cache hits nor
  /// maintenance statistics: the report shows them as unmeasured.
  bool reports_stats = true;
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t i = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[i];
}

/// The single catalog: readers query a pinned CatalogSnapshot; the writer
/// applies each update as its own maintenance pass.
Result<Serving> SingleCatalog(const std::shared_ptr<const Document>& doc,
                              std::shared_ptr<const Summary> summary) {
  // In-memory: serving, not persistence, is measured.
  auto catalog = std::make_shared<ViewCatalog>();
  for (const ViewSpec& v : kViews) {
    SVX_RETURN_IF_ERROR(
        catalog->Materialize({v.name, MustParsePattern(v.pattern)}, *doc));
  }
  catalog->BindDocument(doc, std::move(summary));
  Serving s;
  s.serve = [catalog](const Pattern& q, bool* cache_hit) {
    RewriteStats stats;
    Status served = catalog->Snapshot()->Query(q, nullptr, &stats).status();
    *cache_hit = stats.rewrite_cache_hits > 0;
    return served;
  };
  s.apply = [catalog](const std::vector<Update>& burst,
                      WriterStats* out) -> Status {
    const uint64_t before = catalog->Snapshot()->epoch();
    for (const Update& u : burst) {
      MaintenanceStats ms;
      SVX_RETURN_IF_ERROR(
          catalog->ApplyUpdateBatch({u.delta}, u.doc, u.summary, &ms));
      out->totals.views_touched += ms.views_touched;
      out->totals.views_rebuilt += ms.views_rebuilt;
      out->totals.views_shared += ms.views_shared;
      out->totals.tuples_inserted += ms.tuples_inserted;
      out->totals.tuples_deleted += ms.tuples_deleted;
    }
    out->epochs += catalog->Snapshot()->epoch() - before;
    return Status::OK();
  };
  s.debug_metrics = [catalog] { return catalog->DebugMetrics(); };
  return s;
}

/// The sharded catalog with async writer lanes: readers scatter-gather
/// through a pinned ShardedSnapshot; the writer enqueues a burst back to
/// back (the lanes see deep queues and drain them as coalesced batches),
/// then Flush()es — the multi-writer batching this mode measures.
Result<Serving> ShardedCatalogOf(int shards,
                                 std::shared_ptr<const Document> doc,
                                 std::shared_ptr<const Summary> summary) {
  ShardedCatalogOptions copts;
  copts.num_shards = shards;
  copts.async = true;
  SVX_ASSIGN_OR_RETURN(std::unique_ptr<ShardedCatalog> created,
                       ShardedCatalog::Create(copts, doc, std::move(summary)));
  std::shared_ptr<ShardedCatalog> catalog = std::move(created);
  for (const ViewSpec& v : kViews) {
    SVX_RETURN_IF_ERROR(
        catalog->Materialize({v.name, MustParsePattern(v.pattern)}, *doc));
  }
  Serving s;
  s.serve = [catalog](const Pattern& q, bool* /*cache_hit*/) {
    return catalog->Snapshot().ExecuteQuery(q).status();
  };
  s.apply = [catalog](const std::vector<Update>& burst,
                      WriterStats* out) -> Status {
    const uint64_t before = catalog->Snapshot().EpochSum();
    for (const Update& u : burst) {
      SVX_RETURN_IF_ERROR(catalog->ApplyUpdate(u.delta, u.doc, u.summary));
    }
    SVX_RETURN_IF_ERROR(catalog->Flush());
    out->epochs += catalog->Snapshot().EpochSum() - before;
    return Status::OK();
  };
  s.debug_metrics = [catalog] { return catalog->DebugMetrics(); };
  s.shards = catalog->num_shards();
  s.burst = 8;
  s.reports_stats = false;
  return s;
}

/// One reader loop: serve the query mix, one fresh pin per op.
void ReaderLoop(const Serving& serving, const std::vector<Pattern>& queries,
                const std::atomic<bool>& stop, size_t reader_id,
                PhaseStats* out) {
  size_t at = reader_id;  // stagger the query mix across readers
  while (!stop.load(std::memory_order_relaxed)) {
    Timer op_timer;
    const size_t qi = at++ % queries.size();
    bool cache_hit = false;
    Status served = serving.serve(queries[qi], &cache_hit);
    if (!served.ok()) {
      std::fprintf(stderr, "reader: query %zu: %s\n", qi,
                   served.ToString().c_str());
    }
    out->latencies_ms.push_back(op_timer.ElapsedMillis());
    ++out->ops;
    if (cache_hit) ++out->cache_hits;
    if (!served.ok()) ++out->failures;
  }
}

/// One step of the writer's update stream: a new item inserted among the
/// existing items (half careted mid-sibling, half appended), or — once the
/// document has grown past its initial size — an item subtree deleted to
/// keep it bounded.
Result<UpdateResult> MakeItemUpdate(const Document& doc, int32_t initial_size,
                                    Rng* rng) {
  std::vector<NodeIndex> items;
  for (NodeIndex n = 0; n < doc.size(); ++n) {
    if (doc.label(n) == "item") items.push_back(n);
  }
  if (items.empty()) return Status::NotFound("no items to anchor on");
  NodeIndex anchor = items[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(items.size()) - 1))];
  if (doc.size() > initial_size && rng->Bernoulli(0.5)) {
    return DeleteSubtree(doc, doc.ord_path(anchor));
  }
  std::unique_ptr<Document> sub = MustParseTree(
      "item(name=fresh description(text=t keyword=new) payment=cash)");
  // Half the inserts land mid-sibling through careted ids, half append.
  OrdPath parent = doc.ord_path(doc.parent(anchor));
  if (rng->Bernoulli(0.5)) {
    OrdPath before = doc.ord_path(anchor);
    return InsertSubtree(doc, parent, *sub, &before);
  }
  return InsertSubtree(doc, parent, *sub);
}

/// The writer loop: a shape-stable randomized update stream (see
/// MakeItemUpdate) applied in bursts of `serving.burst` chained updates,
/// each burst followed by burst × `interval_ms` idle (0 = continuous), so
/// the offered write rate is one update per interval for either kind.
/// Shape stability keeps the summary serving the same rewritings while
/// extents churn, which is the read-mostly regime this bench measures; it
/// is not a correctness requirement.
void WriterLoop(const Serving& serving, std::shared_ptr<const Document> doc,
                const std::atomic<bool>& stop, double interval_ms,
                WriterStats* out) {
  Rng rng(4242);
  const int32_t initial_size = doc->size();
  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<Update> burst;
    for (int b = 0; b < serving.burst; ++b) {
      const Document& cur = burst.empty() ? *doc : *burst.back().doc;
      Result<UpdateResult> up = MakeItemUpdate(cur, initial_size, &rng);
      if (!up.ok()) continue;
      std::shared_ptr<Document> next(std::move(up->doc));
      std::shared_ptr<const Summary> summary(SummaryBuilder::Build(next.get()));
      burst.push_back(
          {std::move(up->delta), std::move(next), std::move(summary)});
    }
    Status s = serving.apply(burst, out);
    if (!s.ok()) {
      std::fprintf(stderr, "writer: %s\n", s.ToString().c_str());
      return;
    }
    out->updates += static_cast<long long>(burst.size());
    if (!burst.empty()) doc = burst.back().doc;
    if (interval_ms > 0) {
      Timer t;
      while (!stop.load(std::memory_order_relaxed) &&
             t.ElapsedMillis() < interval_ms * serving.burst) {
        std::this_thread::yield();
      }
    }
  }
}

/// Runs the readers for `phase_ms` — alongside the writer when `writer_doc`
/// is non-null — and returns their merged stats and latency percentiles.
PhaseStats RunPhase(const Serving& serving, const std::vector<Pattern>& queries,
                    int readers, double phase_ms,
                    std::shared_ptr<const Document> writer_doc,
                    double writer_interval_ms, WriterStats* writer_out) {
  std::atomic<bool> stop{false};
  std::vector<PhaseStats> per_reader(static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back(ReaderLoop, std::cref(serving), std::cref(queries),
                         std::cref(stop), static_cast<size_t>(r),
                         &per_reader[static_cast<size_t>(r)]);
  }
  std::thread writer;
  if (writer_doc != nullptr) {
    writer = std::thread(WriterLoop, std::cref(serving), std::move(writer_doc),
                         std::cref(stop), writer_interval_ms, writer_out);
  }
  Timer wall;
  while (wall.ElapsedMillis() < phase_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  if (writer.joinable()) writer.join();

  PhaseStats merged;
  merged.wall_ms = wall.ElapsedMillis();
  for (PhaseStats& r : per_reader) {
    merged.ops += r.ops;
    merged.failures += r.failures;
    merged.cache_hits += r.cache_hits;
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
  }
  merged.p50_ms = Percentile(&merged.latencies_ms, 0.5);
  merged.p95_ms = Percentile(&merged.latencies_ms, 0.95);
  return merged;
}

int Run(const Config& cfg) {
  const bool sharded = cfg.shards > 1;
  std::printf("=== Concurrent serving: readers vs maintenance writer, %s ===\n",
              sharded ? "sharded" : "single catalog");
  XmarkOptions opts;
  opts.scale = cfg.scale;
  std::shared_ptr<Document> doc(GenerateXmark(opts));
  std::shared_ptr<const Summary> summary(SummaryBuilder::Build(doc.get()));
  Result<Serving> made = sharded ? ShardedCatalogOf(cfg.shards, doc, summary)
                                 : SingleCatalog(doc, summary);
  if (!made.ok()) {
    std::fprintf(stderr, "setup: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const Serving& serving = *made;
  std::vector<Pattern> queries;
  for (const char* q : kQueries) queries.push_back(MustParsePattern(q));
  std::printf(
      "scale %.2f: %d nodes, %zu views, %d shards, %d readers, "
      "%.0f ms/phase, writer burst %d every %.0f ms\n",
      cfg.scale, doc->size(), std::size(kViews), serving.shards, cfg.readers,
      cfg.phase_ms, serving.burst, cfg.writer_interval_ms * serving.burst);

  // ---- Phase 1: idle store. ----
  PhaseStats idle = RunPhase(serving, queries, cfg.readers, cfg.phase_ms,
                             nullptr, 0, nullptr);
  // ---- Phase 2: same readers under a live maintenance writer. ----
  WriterStats writer;
  PhaseStats contended = RunPhase(serving, queries, cfg.readers, cfg.phase_ms,
                                  doc, cfg.writer_interval_ms, &writer);

  const double ratio =
      idle.p50_ms > 0 ? contended.p50_ms / idle.p50_ms : 0;
  const long long failures = idle.failures + contended.failures;

  std::printf("\n%-12s %10s %10s %10s %12s %10s\n", "phase", "ops", "p50(ms)",
              "p95(ms)", "ops/sec", "cache-hit%");
  auto report = [&](const char* name, const PhaseStats& ph) {
    std::string hits = "-";
    if (serving.reports_stats && ph.ops > 0) {
      hits = StrFormat("%.1f%%", 100.0 * static_cast<double>(ph.cache_hits) /
                                     static_cast<double>(ph.ops));
    }
    std::printf("%-12s %10lld %10.3f %10.3f %12.1f %10s\n", name, ph.ops,
                ph.p50_ms, ph.p95_ms, ph.ops / (ph.wall_ms / 1000.0),
                hits.c_str());
  };
  report("idle", idle);
  report("contended", contended);
  std::printf("writer: %lld updates, %llu epochs published (%.1f per epoch)",
              writer.updates, static_cast<unsigned long long>(writer.epochs),
              writer.epochs > 0 ? static_cast<double>(writer.updates) /
                                      static_cast<double>(writer.epochs)
                                : 0.0);
  if (serving.reports_stats) {
    std::printf(", %d extents touched, %d rebuilt, +%lld/-%lld tuples",
                writer.totals.views_touched, writer.totals.views_rebuilt,
                static_cast<long long>(writer.totals.tuples_inserted),
                static_cast<long long>(writer.totals.tuples_deleted));
  }
  std::printf("\ncontended/idle p50 ratio: %.2f (gate %.2f)\n\n", ratio,
              cfg.max_ratio);

  // `instrumented` records whether this binary carries metrics so the CI
  // overhead gate can pair an instrumented and a disabled build's reports.
#ifdef SVX_METRICS_DISABLED
  const bool instrumented = false;
#else
  const bool instrumented = true;
#endif
  // Unmeasured statistics are written as null.
  auto stat = [&](JsonWriter* w, const char* key, long long v) {
    w->Key(key);
    if (serving.reports_stats) {
      w->Value(static_cast<int64_t>(v));
    } else {
      w->Null();
    }
  };
  auto phase_json = [&](JsonWriter* w, const PhaseStats& ph) {
    w->BeginObject();
    w->KV("ops", static_cast<int64_t>(ph.ops));
    w->KV("p50_ms", ph.p50_ms);
    w->KV("p95_ms", ph.p95_ms);
    stat(w, "cache_hits", ph.cache_hits);
    w->EndObject();
  };
  JsonWriter w;
  w.BeginObject();
  w.KV("scale", cfg.scale);
  w.KV("shards", static_cast<int64_t>(serving.shards));
  w.KV("readers", static_cast<int64_t>(cfg.readers));
  w.KV("phase_ms", cfg.phase_ms);
  w.KV("writer_interval_ms", cfg.writer_interval_ms);
  w.KV("burst", static_cast<int64_t>(serving.burst));
  w.KV("instrumented", instrumented);
  w.Key("idle");
  phase_json(&w, idle);
  w.Key("contended");
  phase_json(&w, contended);
  // The same count under both files' historical names.
  w.KV("writer_updates", static_cast<int64_t>(writer.updates));
  w.KV("deltas_applied", static_cast<int64_t>(writer.updates));
  stat(&w, "views_shared", writer.totals.views_shared);
  w.KV("epochs_published", writer.epochs);
  w.KV("p50_ratio", ratio);
  w.KV("reader_failures", static_cast<int64_t>(failures));
  w.EndObject();
  const std::string stem =
      sharded ? "BENCH_concurrent_sharded" : "BENCH_concurrent";
  WriteBenchFile(stem + ".json", w.str());
  std::printf("catalog: %s\n", serving.debug_metrics().c_str());
  EmitMetricsSnapshot(stem + "_metrics.prom");

  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %lld reader ops failed\n", failures);
    return 1;
  }
  if (idle.ops == 0 || contended.ops == 0) {
    std::fprintf(stderr,
                 "FAIL: a phase served no reader ops (idle %lld, contended "
                 "%lld); nothing was measured\n",
                 idle.ops, contended.ops);
    return 1;
  }
  if (writer.updates == 0) {
    std::fprintf(stderr, "FAIL: writer made no progress\n");
    return 1;
  }
  // The batching gate: bursts must coalesce into at most half as many
  // epochs as deltas (only judged once the writer has seen a few bursts).
  if (serving.burst > 1 && writer.updates >= 2LL * serving.burst &&
      2 * writer.epochs > static_cast<uint64_t>(writer.updates)) {
    std::fprintf(stderr,
                 "FAIL: %llu epochs for %lld deltas — lanes not batching\n",
                 static_cast<unsigned long long>(writer.epochs),
                 writer.updates);
    return 1;
  }
  if (cfg.max_ratio > 0 && ratio > cfg.max_ratio) {
    std::fprintf(stderr, "FAIL: p50 ratio %.2f exceeds %.2f\n", ratio,
                 cfg.max_ratio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace svx

int main(int argc, char** argv) {
  svx::BenchArgs args(argc, argv,
                      "bench_concurrent [scale] [phase-ms] [readers] "
                      "[--writer-interval-ms N] [--max-ratio R] [--shards N]");
  svx::Config cfg;
  cfg.scale = args.Positional(0, "scale", cfg.scale, svx::kPositive);
  cfg.phase_ms = args.Positional(1, "phase-ms", cfg.phase_ms, svx::kPositive);
  cfg.readers = args.Positional(2, "readers", cfg.readers, {1, 1024});
  cfg.writer_interval_ms = args.Flag("--writer-interval-ms",
                                     cfg.writer_interval_ms, svx::kNonNegative);
  cfg.max_ratio = args.Flag("--max-ratio", cfg.max_ratio, svx::kNonNegative);
  cfg.shards = args.Flag("--shards", cfg.shards, {1, 256});
  args.Finish();
  return svx::Run(cfg);
}
