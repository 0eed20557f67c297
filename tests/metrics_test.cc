#include "src/observability/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace svx {
namespace {

TEST(CounterTest, StripedSumIsExactUnderConcurrentIncrement) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.Add(i % 3 == 0 ? 2 : 1);
    });
  }
  for (std::thread& t : threads) t.join();
  // Per thread: ceil(kIncrements / 3) adds of 2, the rest of 1.
  const int64_t twos = (kIncrements + 2) / 3;
  const int64_t per_thread = 2 * twos + (kIncrements - twos);
  EXPECT_EQ(c.Value(), kThreads * per_thread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-2);
  EXPECT_EQ(g.Value(), 40);
  g.Set(-7);
  EXPECT_EQ(g.Value(), -7);
}

TEST(HistogramTest, BucketBoundaries) {
  Histogram h;
  h.Observe(0);   // bucket 0 (exact zeros)
  h.Observe(-5);  // clamped to 0
  h.Observe(1);   // bucket 1: [1, 2)
  h.Observe(2);   // bucket 2: [2, 4)
  h.Observe(3);   // bucket 2
  h.Observe(4);   // bucket 3: [4, 8)
  h.Observe(7);   // bucket 3
  h.Observe(8);   // bucket 4: [8, 16)
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(2), 2);
  EXPECT_EQ(h.BucketCount(3), 2);
  EXPECT_EQ(h.BucketCount(4), 1);
  EXPECT_EQ(h.Count(), 8);
  EXPECT_EQ(h.Sum(), 0 + 0 + 1 + 2 + 3 + 4 + 7 + 8);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7);
}

TEST(HistogramTest, CountIsExactUnderConcurrentObserve) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kObservations = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObservations; ++i) h.Observe((t + 1) * 100 + i % 7);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kObservations);
}

TEST(MetricRegistryTest, SameNameReturnsSameHandle) {
  MetricRegistry reg;
  Counter* a = reg.counter("x_total", "first help wins");
  Counter* b = reg.counter("x_total", "ignored");
  EXPECT_EQ(a, b);
  Gauge* g1 = reg.gauge("g");
  Gauge* g2 = reg.gauge("g");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.histogram("h_us");
  Histogram* h2 = reg.histogram("h_us");
  EXPECT_EQ(h1, h2);
}

/// Fills a private registry with one metric of each kind and deterministic
/// values, for the golden exposition test below.
void FillGoldenRegistry(MetricRegistry* reg) {
  reg->counter("test_requests_total", "requests served")->Add(3);
  reg->gauge("test_epoch")->Set(7);
  Histogram* h = reg->histogram("test_latency_us", "op latency");
  h->Observe(0);
  h->Observe(1);
  h->Observe(5);
}

TEST(MetricRegistryTest, GoldenPrometheusText) {
  MetricRegistry reg;
  FillGoldenRegistry(&reg);
  const char* expected =
      "# TYPE test_epoch gauge\n"
      "test_epoch 7\n"
      "# HELP test_latency_us op latency\n"
      "# TYPE test_latency_us histogram\n"
      "test_latency_us_bucket{le=\"0\"} 1\n"
      "test_latency_us_bucket{le=\"1\"} 2\n"
      "test_latency_us_bucket{le=\"3\"} 2\n"
      "test_latency_us_bucket{le=\"7\"} 3\n"
      "test_latency_us_bucket{le=\"+Inf\"} 3\n"
      "test_latency_us_sum 6\n"
      "test_latency_us_count 3\n"
      "# HELP test_requests_total requests served\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total 3\n";
  EXPECT_EQ(reg.RenderPrometheusText(), expected);
}

TEST(MetricRegistryTest, StandardCatalogCoversAllDomains) {
  metrics::RegisterStandardMetrics();
  std::string text = MetricRegistry::Global().RenderPrometheusText();
  // One representative metric per domain, present even when unexercised.
  EXPECT_NE(text.find("svx_rewrite_calls_total"), std::string::npos);
  EXPECT_NE(text.find("svx_containment_memo_hits_total"), std::string::npos);
  EXPECT_NE(text.find("svx_maintenance_passes_total"), std::string::npos);
  EXPECT_NE(text.find("svx_epoch_current"), std::string::npos);
  EXPECT_NE(text.find("svx_executor_runs_total"), std::string::npos);
  EXPECT_NE(text.find("svx_persist_bytes_written_total"), std::string::npos);
  EXPECT_NE(text.find("svx_rewrite_latency_us_bucket"), std::string::npos);
}

}  // namespace
}  // namespace svx
