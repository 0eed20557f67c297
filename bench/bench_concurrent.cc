// Concurrent serving benchmark: N reader threads serve XMark query
// patterns through CatalogSnapshot::Query (the snapshot's cached cheapest
// rewriting, executed over its extents), first over an idle store, then
// while one writer thread applies a stream of subtree updates through
// ApplyUpdate (each publishing a successor epoch). Reports per-phase reader
// latency percentiles and throughput plus writer progress, and writes
// machine-readable BENCH_concurrent.json into the working directory.
//
// The acceptance gate (--max-ratio, default 2.0) fails the run when the
// contended median reader latency exceeds max-ratio × the idle median.
//
// With --shards=N (N > 1) the same workload runs against a ShardedCatalog
// with async writer lanes: readers scatter-gather through ShardedSnapshot,
// the writer enqueues bursts that the lanes coalesce, and an additional
// gate fails the run unless the burst publishes at most half as many
// epochs as deltas applied.
//
//   $ ./build/bench_concurrent [scale] [phase-ms] [readers]
//         [--writer-interval-ms N] [--max-ratio R] [--shards=N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_metrics.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/sharded_catalog.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

std::unique_ptr<Document> MustParseTree(const char* text) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(text);
  if (!r.ok()) {
    std::fprintf(stderr, "bad tree: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

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

struct PhaseStats {
  std::vector<double> latencies_ms;  // per reader op, merged
  double wall_ms = 0;
  long long ops = 0;
  long long rewrite_cache_hits = 0;
  long long failures = 0;
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t i = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[i];
}

/// One reader loop: acquire a snapshot per op and serve the query through
/// its entry point (cached cheapest rewriting, executed over its extents).
void ReaderLoop(const ViewCatalog& catalog,
                const std::vector<Pattern>& queries,
                const std::atomic<bool>& stop, size_t reader_id,
                PhaseStats* out) {
  size_t at = reader_id;  // stagger the query mix across readers
  while (!stop.load(std::memory_order_relaxed)) {
    Timer op_timer;
    std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
    const size_t qi = at++ % queries.size();
    RewriteStats stats;
    Result<Table> rows = snap->Query(queries[qi], nullptr, &stats);
    if (!rows.ok()) {
      std::fprintf(stderr, "reader: epoch %llu query %zu: %s\n",
                   static_cast<unsigned long long>(snap->epoch()), qi,
                   rows.status().ToString().c_str());
    }
    out->latencies_ms.push_back(op_timer.ElapsedMillis());
    ++out->ops;
    if (stats.rewrite_cache_hits > 0) ++out->rewrite_cache_hits;
    if (!rows.ok()) ++out->failures;
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

/// The writer loop: a shape-stable randomized update stream — new items
/// inserted among the existing items (half careted mid-sibling, half
/// appended), item subtrees deleted to keep the document bounded — one
/// successor epoch per update, `interval_ms` idle between updates
/// (0 = continuous). Shape stability keeps the summary serving the same
/// rewritings while extents churn, which is the read-mostly regime this
/// bench measures; it is not a correctness requirement.
void WriterLoop(ViewCatalog* catalog, std::shared_ptr<Document> doc,
                const std::atomic<bool>& stop, double interval_ms,
                long long* updates, MaintenanceStats* total) {
  Rng rng(4242);
  const int32_t initial_size = doc->size();
  while (!stop.load(std::memory_order_relaxed)) {
    Result<UpdateResult> up = MakeItemUpdate(*doc, initial_size, &rng);
    if (!up.ok()) continue;
    std::shared_ptr<Document> next_doc(std::move(up->doc));
    std::shared_ptr<Summary> next_summary(
        SummaryBuilder::Build(next_doc.get()));
    MaintenanceStats ms;
    Status s = catalog->ApplyUpdate(up->delta, next_doc, next_summary, &ms);
    if (!s.ok()) {
      std::fprintf(stderr, "writer: %s\n", s.ToString().c_str());
      return;
    }
    doc = std::move(next_doc);
    ++*updates;
    total->views_touched += ms.views_touched;
    total->views_rebuilt += ms.views_rebuilt;
    total->views_shared += ms.views_shared;
    total->tuples_inserted += ms.tuples_inserted;
    total->tuples_deleted += ms.tuples_deleted;
    if (interval_ms > 0) {
      Timer t;
      while (!stop.load(std::memory_order_relaxed) &&
             t.ElapsedMillis() < interval_ms) {
        std::this_thread::yield();
      }
    }
  }
}

PhaseStats RunPhase(const ViewCatalog& catalog,
                    const std::vector<Pattern>& queries, int readers,
                    double phase_ms, ViewCatalog* writer_catalog,
                    std::shared_ptr<Document> writer_doc,
                    double writer_interval_ms, long long* writer_updates,
                    MaintenanceStats* writer_totals) {
  std::atomic<bool> stop{false};
  std::vector<PhaseStats> per_reader(static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back(ReaderLoop, std::cref(catalog), std::cref(queries),
                         std::cref(stop), static_cast<size_t>(r),
                         &per_reader[static_cast<size_t>(r)]);
  }
  std::thread writer;
  if (writer_catalog != nullptr) {
    writer = std::thread(WriterLoop, writer_catalog, std::move(writer_doc),
                         std::cref(stop), writer_interval_ms, writer_updates,
                         writer_totals);
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
    merged.rewrite_cache_hits += r.rewrite_cache_hits;
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Sharded mode (--shards=N): the same workload against a ShardedCatalog
// with async writer lanes. Readers scatter-gather through ShardedSnapshot;
// the writer enqueues precomputed bursts so the lanes coalesce them into
// few maintenance passes (the multi-writer batching this mode measures).
// ---------------------------------------------------------------------------

void ReaderLoopSharded(const ShardedCatalog& catalog,
                       const std::vector<Pattern>& queries,
                       const std::atomic<bool>& stop, size_t reader_id,
                       PhaseStats* out) {
  size_t at = reader_id;
  while (!stop.load(std::memory_order_relaxed)) {
    Timer op_timer;
    ShardedSnapshot snap = catalog.Snapshot();
    const Pattern& q = queries[at++ % queries.size()];
    Result<Table> rows = snap.ExecuteQuery(q);
    if (!rows.ok()) {
      std::fprintf(stderr, "reader: sharded query %zu: %s\n",
                   (at - 1) % queries.size(),
                   rows.status().ToString().c_str());
    }
    out->latencies_ms.push_back(op_timer.ElapsedMillis());
    ++out->ops;
    if (!rows.ok()) ++out->failures;
  }
}

/// Precomputes a chain of `burst` updates, enqueues them back-to-back (the
/// lanes see deep queues and drain them as coalesced batches), then
/// Flush()es before pacing — so epochs published per burst stays well under
/// the burst size.
void WriterLoopSharded(ShardedCatalog* catalog,
                       std::shared_ptr<const Document> doc,
                       const std::atomic<bool>& stop, double interval_ms,
                       int burst, long long* updates) {
  Rng rng(4242);
  const int32_t initial_size = doc->size();
  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<std::shared_ptr<const Document>> docs;
    std::vector<std::shared_ptr<const Summary>> summaries;
    std::vector<DocumentDelta> deltas;
    const Document* cur = doc.get();
    for (int b = 0; b < burst; ++b) {
      Result<UpdateResult> up = MakeItemUpdate(*cur, initial_size, &rng);
      if (!up.ok()) continue;
      deltas.push_back(up->delta);
      std::shared_ptr<Document> next(std::move(up->doc));
      summaries.emplace_back(SummaryBuilder::Build(next.get()));
      docs.emplace_back(std::move(next));
      cur = docs.back().get();
    }
    for (size_t i = 0; i < deltas.size(); ++i) {
      Status s = catalog->ApplyUpdate(deltas[i], docs[i], summaries[i]);
      if (!s.ok()) {
        std::fprintf(stderr, "writer: %s\n", s.ToString().c_str());
        return;
      }
    }
    Status flushed = catalog->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "writer flush: %s\n", flushed.ToString().c_str());
      return;
    }
    *updates += static_cast<long long>(deltas.size());
    if (!docs.empty()) doc = docs.back();
    if (interval_ms > 0) {
      // Pace bursts so the offered write rate matches single-shard mode
      // (one update per interval): a burst of B every B intervals.
      Timer t;
      while (!stop.load(std::memory_order_relaxed) &&
             t.ElapsedMillis() < interval_ms * burst) {
        std::this_thread::yield();
      }
    }
  }
}

PhaseStats RunPhaseSharded(const ShardedCatalog& catalog,
                           const std::vector<Pattern>& queries, int readers,
                           double phase_ms, ShardedCatalog* writer_catalog,
                           std::shared_ptr<const Document> writer_doc,
                           double writer_interval_ms, int burst,
                           long long* writer_updates) {
  std::atomic<bool> stop{false};
  std::vector<PhaseStats> per_reader(static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back(ReaderLoopSharded, std::cref(catalog),
                         std::cref(queries), std::cref(stop),
                         static_cast<size_t>(r),
                         &per_reader[static_cast<size_t>(r)]);
  }
  std::thread writer;
  if (writer_catalog != nullptr) {
    writer = std::thread(WriterLoopSharded, writer_catalog,
                         std::move(writer_doc), std::cref(stop),
                         writer_interval_ms, burst, writer_updates);
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
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
  }
  return merged;
}

int RunSharded(double scale, double phase_ms, int readers,
               double writer_interval_ms, double max_ratio, int shards) {
  std::printf("=== Concurrent serving: sharded catalog (%d shards) ===\n",
              shards);
  XmarkOptions opts;
  opts.scale = scale;
  std::shared_ptr<Document> doc(GenerateXmark(opts));
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(doc.get()));

  ShardedCatalogOptions copts;
  copts.num_shards = shards;
  copts.async = true;  // writer lanes: the batching under test
  Result<std::unique_ptr<ShardedCatalog>> catalog =
      ShardedCatalog::Create(copts, doc, summary);
  if (!catalog.ok()) {
    std::fprintf(stderr, "create: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  for (const ViewSpec& v : kViews) {
    Result<Pattern> p = ParsePattern(v.pattern);
    if (!p.ok()) {
      std::fprintf(stderr, "bad view: %s\n", v.pattern);
      return 1;
    }
    Status s = (*catalog)->Materialize({v.name, std::move(*p)}, *doc);
    if (!s.ok()) {
      std::fprintf(stderr, "materialize: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::vector<Pattern> queries;
  for (const char* q : kQueries) {
    Result<Pattern> p = ParsePattern(q);
    if (!p.ok()) {
      std::fprintf(stderr, "bad query: %s\n", q);
      return 1;
    }
    queries.push_back(std::move(*p));
  }
  const int kBurst = 8;
  std::printf(
      "scale %.2f: %d nodes, %zu views, %d shards (%d effective), "
      "%d readers, %.0f ms/phase, writer burst %d every %.0f ms\n",
      scale, doc->size(), std::size(kViews), shards,
      (*catalog)->num_shards(), readers, phase_ms, kBurst,
      writer_interval_ms);

  // ---- Phase 1: idle store. ----
  PhaseStats idle = RunPhaseSharded(**catalog, queries, readers, phase_ms,
                                    nullptr, nullptr, 0, kBurst, nullptr);

  // ---- Phase 2: same readers under bursting writer lanes. ----
  long long writer_updates = 0;
  uint64_t epochs_before = (*catalog)->Snapshot().EpochSum();
  PhaseStats contended =
      RunPhaseSharded(**catalog, queries, readers, phase_ms, catalog->get(),
                      doc, writer_interval_ms, kBurst, &writer_updates);
  uint64_t epochs_after = (*catalog)->Snapshot().EpochSum();
  uint64_t epochs_published = epochs_after - epochs_before;

  double idle_p50 = Percentile(&idle.latencies_ms, 0.5);
  double idle_p95 = Percentile(&idle.latencies_ms, 0.95);
  double cont_p50 = Percentile(&contended.latencies_ms, 0.5);
  double cont_p95 = Percentile(&contended.latencies_ms, 0.95);
  double ratio = idle_p50 > 0 ? cont_p50 / idle_p50 : 0;

  std::printf("\n%-12s %10s %10s %10s %12s\n", "phase", "ops", "p50(ms)",
              "p95(ms)", "ops/sec");
  auto report = [](const char* name, const PhaseStats& ph, double p50,
                   double p95) {
    std::printf("%-12s %10lld %10.3f %10.3f %12.1f\n", name, ph.ops, p50,
                p95, ph.ops / (ph.wall_ms / 1000.0));
  };
  report("idle", idle, idle_p50, idle_p95);
  report("contended", contended, cont_p50, cont_p95);
  std::printf("writer: %lld deltas applied, %llu epochs published "
              "(coalescing %.1fx)\n",
              writer_updates,
              static_cast<unsigned long long>(epochs_published),
              epochs_published > 0
                  ? static_cast<double>(writer_updates) /
                        static_cast<double>(epochs_published)
                  : 0.0);
  std::printf("contended/idle p50 ratio: %.2f (gate %.2f)\n", ratio,
              max_ratio);

  JsonWriter w;
  w.BeginObject();
  w.KV("scale", scale);
  w.KV("shards", static_cast<int64_t>((*catalog)->num_shards()));
  w.KV("readers", static_cast<int64_t>(readers));
  w.KV("phase_ms", phase_ms);
  w.KV("writer_interval_ms", writer_interval_ms);
  w.KV("burst", static_cast<int64_t>(kBurst));
  auto phase_json = [](JsonWriter* jw, const PhaseStats& ph, double p50,
                       double p95) {
    jw->BeginObject();
    jw->KV("ops", static_cast<int64_t>(ph.ops));
    jw->KV("p50_ms", p50);
    jw->KV("p95_ms", p95);
    jw->EndObject();
  };
  w.Key("idle");
  phase_json(&w, idle, idle_p50, idle_p95);
  w.Key("contended");
  phase_json(&w, contended, cont_p50, cont_p95);
  w.KV("deltas_applied", static_cast<int64_t>(writer_updates));
  w.KV("epochs_published", epochs_published);
  w.KV("p50_ratio", ratio);
  w.KV("reader_failures",
       static_cast<int64_t>(idle.failures + contended.failures));
  w.EndObject();
  std::ofstream out("BENCH_concurrent_sharded.json", std::ios::trunc);
  out << w.str() << "\n";
  out.close();
  std::printf("\nwrote BENCH_concurrent_sharded.json\n");
  std::printf("catalog: %s\n", (*catalog)->DebugMetrics().c_str());
  EmitMetricsSnapshot("BENCH_concurrent_sharded_metrics.prom");

  if (idle.failures + contended.failures > 0) {
    std::fprintf(stderr, "FAIL: %lld reader ops failed\n",
                 idle.failures + contended.failures);
    return 1;
  }
  if (writer_updates == 0) {
    std::fprintf(stderr, "FAIL: writer made no progress\n");
    return 1;
  }
  // The batching gate: bursts must coalesce into at most half as many
  // epochs as deltas (only judged once the writer has seen a few bursts).
  if (writer_updates >= 2 * kBurst &&
      2 * epochs_published > static_cast<uint64_t>(writer_updates)) {
    std::fprintf(stderr,
                 "FAIL: %llu epochs for %lld deltas — lanes not batching\n",
                 static_cast<unsigned long long>(epochs_published),
                 writer_updates);
    return 1;
  }
  if (max_ratio > 0 && ratio > max_ratio) {
    std::fprintf(stderr, "FAIL: p50 ratio %.2f exceeds %.2f\n", ratio,
                 max_ratio);
    return 1;
  }
  return 0;
}

int Run(double scale, double phase_ms, int readers,
        double writer_interval_ms, double max_ratio) {
  std::printf("=== Concurrent serving: readers vs maintenance writer ===\n");
  XmarkOptions opts;
  opts.scale = scale;
  std::shared_ptr<Document> doc(GenerateXmark(opts));
  std::shared_ptr<Summary> summary(SummaryBuilder::Build(doc.get()));

  ViewCatalog catalog;  // in-memory: serving, not persistence, is measured
  for (const ViewSpec& v : kViews) {
    Result<Pattern> p = ParsePattern(v.pattern);
    if (!p.ok()) {
      std::fprintf(stderr, "bad view: %s\n", v.pattern);
      return 1;
    }
    Status s = catalog.Materialize({v.name, std::move(*p)}, *doc);
    if (!s.ok()) {
      std::fprintf(stderr, "materialize: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  catalog.BindDocument(doc, summary);
  std::vector<Pattern> queries;
  for (const char* q : kQueries) {
    Result<Pattern> p = ParsePattern(q);
    if (!p.ok()) {
      std::fprintf(stderr, "bad query: %s\n", q);
      return 1;
    }
    queries.push_back(std::move(*p));
  }
  std::printf(
      "scale %.2f: %d nodes, %zu views, %d readers, %.0f ms/phase, "
      "writer interval %.0f ms\n",
      scale, doc->size(), std::size(kViews), readers, phase_ms,
      writer_interval_ms);

  // ---- Phase 1: idle store. ----
  PhaseStats idle = RunPhase(catalog, queries, readers, phase_ms, nullptr,
                             nullptr, 0, nullptr, nullptr);

  // ---- Phase 2: same readers under a live maintenance writer. ----
  long long writer_updates = 0;
  MaintenanceStats writer_totals;
  uint64_t epoch_before = catalog.Snapshot()->epoch();
  PhaseStats contended =
      RunPhase(catalog, queries, readers, phase_ms, &catalog, doc,
               writer_interval_ms, &writer_updates, &writer_totals);
  uint64_t epoch_after = catalog.Snapshot()->epoch();

  double idle_p50 = Percentile(&idle.latencies_ms, 0.5);
  double idle_p95 = Percentile(&idle.latencies_ms, 0.95);
  double cont_p50 = Percentile(&contended.latencies_ms, 0.5);
  double cont_p95 = Percentile(&contended.latencies_ms, 0.95);
  double ratio = idle_p50 > 0 ? cont_p50 / idle_p50 : 0;

  std::printf("\n%-12s %10s %10s %10s %12s %10s\n", "phase", "ops", "p50(ms)",
              "p95(ms)", "ops/sec", "cache-hit%");
  auto report = [](const char* name, const PhaseStats& ph, double p50,
                   double p95) {
    std::printf("%-12s %10lld %10.3f %10.3f %12.1f %9.1f%%\n", name, ph.ops,
                p50, p95, ph.ops / (ph.wall_ms / 1000.0),
                ph.ops > 0 ? 100.0 * static_cast<double>(ph.rewrite_cache_hits)
                               / static_cast<double>(ph.ops)
                           : 0.0);
  };
  report("idle", idle, idle_p50, idle_p95);
  report("contended", contended, cont_p50, cont_p95);
  std::printf(
      "writer: %lld updates (%llu epochs), %d extents touched, "
      "%d rebuilt, +%lld/-%lld tuples\n",
      writer_updates,
      static_cast<unsigned long long>(epoch_after - epoch_before),
      writer_totals.views_touched, writer_totals.views_rebuilt,
      static_cast<long long>(writer_totals.tuples_inserted),
      static_cast<long long>(writer_totals.tuples_deleted));
  std::printf("contended/idle p50 ratio: %.2f (gate %.2f)\n", ratio,
              max_ratio);

  // ---- BENCH_concurrent.json ----
  // `instrumented` records whether this binary carries metrics so the CI
  // overhead gate can pair an instrumented and a disabled build's reports.
#ifdef SVX_METRICS_DISABLED
  const bool instrumented = false;
#else
  const bool instrumented = true;
#endif
  auto phase_json = [](JsonWriter* w, const PhaseStats& ph, double p50,
                       double p95) {
    w->BeginObject();
    w->KV("ops", static_cast<int64_t>(ph.ops));
    w->KV("p50_ms", p50);
    w->KV("p95_ms", p95);
    w->KV("cache_hits", static_cast<int64_t>(ph.rewrite_cache_hits));
    w->EndObject();
  };
  JsonWriter w;
  w.BeginObject();
  w.KV("scale", scale);
  w.KV("readers", static_cast<int64_t>(readers));
  w.KV("phase_ms", phase_ms);
  w.KV("writer_interval_ms", writer_interval_ms);
  w.KV("instrumented", instrumented);
  w.Key("idle");
  phase_json(&w, idle, idle_p50, idle_p95);
  w.Key("contended");
  phase_json(&w, contended, cont_p50, cont_p95);
  w.KV("writer_updates", static_cast<int64_t>(writer_updates));
  w.KV("views_shared", static_cast<int64_t>(writer_totals.views_shared));
  w.KV("epochs_published",
       static_cast<uint64_t>(epoch_after - epoch_before));
  w.KV("p50_ratio", ratio);
  w.KV("reader_failures",
       static_cast<int64_t>(idle.failures + contended.failures));
  w.EndObject();
  std::ofstream out("BENCH_concurrent.json", std::ios::trunc);
  out << w.str() << "\n";
  out.close();
  std::printf("\nwrote BENCH_concurrent.json\n");
  std::printf("catalog: %s\n", catalog.DebugMetrics().c_str());
  EmitMetricsSnapshot("BENCH_concurrent_metrics.prom");

  if (idle.failures + contended.failures > 0) {
    std::fprintf(stderr, "FAIL: %lld reader ops failed\n",
                 idle.failures + contended.failures);
    return 1;
  }
  if (writer_updates == 0) {
    std::fprintf(stderr, "FAIL: writer made no progress\n");
    return 1;
  }
  if (max_ratio > 0 && ratio > max_ratio) {
    std::fprintf(stderr, "FAIL: p50 ratio %.2f exceeds %.2f\n", ratio,
                 max_ratio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace svx

int main(int argc, char** argv) {
  double scale = 0.5;
  double phase_ms = 3000;
  int readers = 2;
  double writer_interval_ms = 100;
  double max_ratio = 2.0;
  int shards = 1;
  int pos = 0;
  auto parse_shards = [&shards](const char* arg) {
    std::optional<int64_t> v = svx::ParseInt64(arg);
    if (!v.has_value() || *v < 1 || *v > 256) {
      std::fprintf(stderr, "bad shard count: %s\n", arg);
      return false;
    }
    shards = static_cast<int>(*v);
    return true;
  };
  auto parse = [](const char* arg, double* out) {
    std::optional<double> v = svx::ParseDouble(arg);
    if (!v.has_value()) {
      std::fprintf(stderr, "bad numeric argument: %s\n", arg);
      return false;
    }
    *out = *v;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (std::strcmp(argv[i], "--writer-interval-ms") == 0 && i + 1 < argc) {
      ok = parse(argv[++i], &writer_interval_ms);
    } else if (std::strcmp(argv[i], "--max-ratio") == 0 && i + 1 < argc) {
      ok = parse(argv[++i], &max_ratio);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      ok = parse_shards(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      ok = parse_shards(argv[++i]);
    } else if (pos == 0) {
      ok = parse(argv[i], &scale);
      ++pos;
    } else if (pos == 1) {
      ok = parse(argv[i], &phase_ms);
      ++pos;
    } else {
      std::optional<int64_t> v = svx::ParseInt64(argv[i]);
      if (v.has_value()) {
        readers = static_cast<int>(*v);
      } else {
        std::fprintf(stderr, "bad numeric argument: %s\n", argv[i]);
        ok = false;
      }
    }
    if (!ok) return 2;
  }
  if (shards > 1) {
    return svx::RunSharded(scale, phase_ms, readers, writer_interval_ms,
                           max_ratio, shards);
  }
  return svx::Run(scale, phase_ms, readers, writer_interval_ms, max_ratio);
}
