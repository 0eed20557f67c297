// Fits the CostModel's per-operator constants (src/viewstore/
// cost_constants.h) against measured executor times.
//
// The model's cost is linear in the constants: Estimate(plan, &units) fills
// a per-term work-unit vector with cost == constants · units exactly. So
// calibration is non-negative least squares over samples (units, measured
// ms): generate an XMark document, materialize the base-tag views, rewrite
// the 20-query workload, and time every produced plan plus a raw scan of
// every view extent. The fitted milliseconds-per-unit vector is normalized
// so scan = 1.0 (costs stay in "rows scanned" units) and printed as a
// paste-ready CalibratedCostConstants() block: pasting it into
// cost_constants.h is how the constants every ViewCatalog snapshot uses are
// refreshed.
//
//   $ ./calibrate_costs [scale] [--reps N]
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/base_views.h"
#include "bench/bench_common.h"
#include "bench/spearman.h"
#include "src/algebra/executor.h"
#include "src/algebra/plan.h"
#include "src/rewriting/rewriter.h"
#include "src/summary/summary_builder.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/cost_constants.h"
#include "src/viewstore/cost_model.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"

namespace svx {
namespace {

constexpr size_t kTerms = CostConstants::kNumTerms;

struct Sample {
  std::string label;
  std::array<double, kTerms> units = {};
  double measured_ms = 0;
};

/// Minimum-of-`reps` execution time: the executor is deterministic, so the
/// minimum is the least-noise estimate of the actual work on a busy box.
double TimeExecute(const PlanNode& plan, const Catalog& catalog, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    Timer t;
    Result<Table> out = Execute(plan, catalog);
    double ms = t.ElapsedMillis();
    if (!out.ok()) return -1;
    best = std::min(best, ms);
  }
  return best;
}

/// Spearman rank correlation between per-sample model cost (constants ·
/// units) and measured time.
double SpearmanCorr(const std::vector<Sample>& samples,
                    const CostConstants& c) {
  std::array<double, kTerms> ca = c.ToArray();
  std::vector<double> cost, time;
  for (const Sample& s : samples) {
    double acc = 0;
    for (size_t t = 0; t < kTerms; ++t) acc += ca[t] * s.units[t];
    cost.push_back(acc);
    time.push_back(s.measured_ms);
  }
  return SpearmanCorrelation(cost, time);
}

/// Least squares on the free (unclamped) terms via normal equations with
/// Gaussian elimination. Returns false on a singular system.
bool SolveFree(const std::vector<Sample>& samples,
               const std::array<bool, kTerms>& free_term,
               std::array<double, kTerms>* out) {
  std::vector<size_t> cols;
  for (size_t t = 0; t < kTerms; ++t) {
    if (free_term[t]) cols.push_back(t);
  }
  size_t m = cols.size();
  if (m == 0) return false;
  std::vector<std::vector<double>> a(m, std::vector<double>(m + 1, 0));
  for (const Sample& s : samples) {
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        a[i][j] += s.units[cols[i]] * s.units[cols[j]];
      }
      a[i][m] += s.units[cols[i]] * s.measured_ms;
    }
  }
  // Tiny ridge term: terms that never vary independently in the sample set
  // (e.g. emit rows tracking join probes) otherwise make A'A singular.
  for (size_t i = 0; i < m; ++i) a[i][i] += 1e-9;
  for (size_t p = 0; p < m; ++p) {
    size_t best = p;
    for (size_t i = p + 1; i < m; ++i) {
      if (std::fabs(a[i][p]) > std::fabs(a[best][p])) best = i;
    }
    std::swap(a[p], a[best]);
    if (std::fabs(a[p][p]) < 1e-12) return false;
    for (size_t i = p + 1; i < m; ++i) {
      double f = a[i][p] / a[p][p];
      for (size_t j = p; j <= m; ++j) a[i][j] -= f * a[p][j];
    }
  }
  std::vector<double> x(m);
  for (size_t ip = m; ip-- > 0;) {
    double acc = a[ip][m];
    for (size_t j = ip + 1; j < m; ++j) acc -= a[ip][j] * x[j];
    x[ip] = acc / a[ip][ip];
  }
  out->fill(0);
  for (size_t i = 0; i < m; ++i) (*out)[cols[i]] = x[i];
  return true;
}

/// Non-negative least squares by active-set clamping: solve, clamp the most
/// negative coefficient to zero, repeat. Terms with no work units in any
/// sample stay at zero and are reported as uncalibrated.
bool FitNonNegative(const std::vector<Sample>& samples,
                    std::array<double, kTerms>* out) {
  std::array<bool, kTerms> free_term;
  for (size_t t = 0; t < kTerms; ++t) {
    double total = 0;
    for (const Sample& s : samples) total += s.units[t];
    free_term[t] = total > 0;
  }
  for (size_t iter = 0; iter < kTerms + 1; ++iter) {
    if (!SolveFree(samples, free_term, out)) return false;
    size_t worst = kTerms;
    double worst_v = -1e-12;
    for (size_t t = 0; t < kTerms; ++t) {
      if (free_term[t] && (*out)[t] < worst_v) {
        worst_v = (*out)[t];
        worst = t;
      }
    }
    if (worst == kTerms) return true;  // all non-negative
    free_term[worst] = false;
    (*out)[worst] = 0;
  }
  return true;
}

int Run(double scale, int reps) {
  XmarkOptions opts;
  opts.scale = scale;
  std::unique_ptr<Document> doc = GenerateXmark(opts);
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());
  std::vector<ViewDef> defs = BuildBaseTagViews(*summary);

  ViewCatalog catalog;
  for (const ViewDef& d : defs) {
    Status s = catalog.Materialize(d, *doc);
    if (!s.ok()) {
      std::fprintf(stderr, "materialize %s: %s\n", d.name.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }
  CostModel model = catalog.BuildCostModel();
  model.constants = CostConstants{};  // units, not the current fit
  Catalog exec_catalog = catalog.ExecutorCatalog();
  std::printf("scale %.2f: %d nodes, %zu views, %d reps per plan\n", scale,
              doc->size(), defs.size(), reps);

  std::vector<Sample> samples;
  // Raw extent scans anchor the scan term (and the ms-per-row scale).
  for (const auto& v : catalog.views()) {
    PlanPtr scan = MakeViewScan(v->def.name, v->table().value()->schema());
    Sample s;
    s.label = "scan:" + v->def.name;
    CostEstimate est = model.Estimate(*scan, &s.units);
    (void)est;
    s.measured_ms = TimeExecute(*scan, exec_catalog, reps);
    if (s.measured_ms >= 0) samples.push_back(std::move(s));
  }
  // Every plan the rewriter produces for the 20-query workload: joins,
  // selections, projections, unions, navigations in realistic mixes.
  RewriterOptions ropts;
  ropts.max_results = 8;
  ropts.cost_model = &model;
  Rewriter rewriter(*summary, ropts);
  for (const auto& v : catalog.views()) rewriter.AddView(v->def);
  for (const XmarkQuery& q : XmarkQueryPatterns()) {
    Pattern qp = GetXmarkQueryPatternConjunctive(q.number);
    Result<std::vector<Rewriting>> rws = rewriter.Rewrite(qp);
    if (!rws.ok()) continue;
    for (size_t i = 0; i < rws->size(); ++i) {
      Sample s;
      s.label = StrFormat("q%d#%zu", q.number, i);
      CostEstimate est = model.Estimate(*(*rws)[i].plan, &s.units);
      (void)est;
      s.measured_ms = TimeExecute(*(*rws)[i].plan, exec_catalog, reps);
      if (s.measured_ms >= 0) samples.push_back(std::move(s));
    }
  }
  std::printf("%zu samples collected\n", samples.size());
  if (samples.size() < kTerms) {
    std::fprintf(stderr, "too few samples to fit %zu terms\n", kTerms);
    return 1;
  }

  std::array<double, kTerms> fit;
  if (!FitNonNegative(samples, &fit)) {
    std::fprintf(stderr, "singular system; cannot fit\n");
    return 1;
  }
  if (fit[0] <= 0) {
    std::fprintf(stderr,
                 "degenerate fit: scan term is %.3g ms/row; keeping "
                 "defaults\n",
                 fit[0]);
    return 1;
  }
  // Normalize to scan-cost units (scan pinned at 1.0 by convention).
  std::array<double, kTerms> rel = fit;
  for (size_t t = 0; t < kTerms; ++t) rel[t] = fit[t] / fit[0];
  CostConstants fitted = CostConstants::FromArray(rel);

  std::printf("\n%-14s %14s %14s\n", "term", "ms-per-unit", "scan-relative");
  for (size_t t = 0; t < kTerms; ++t) {
    std::printf("%-14s %14.6g %14.6g\n", CostConstants::TermName(t), fit[t],
                rel[t]);
  }
  double before = SpearmanCorr(samples, CostConstants{});
  double after = SpearmanCorr(samples, fitted);
  std::printf("\nSpearman(cost, measured ms): default %.3f -> fitted %.3f\n",
              before, after);

  std::printf(
      "\npaste into CalibratedCostConstants() "
      "(src/viewstore/cost_constants.h):\n");
  for (size_t t = 0; t < kTerms; ++t) {
    std::printf("  c.%s = %.6g;\n", CostConstants::TermName(t), rel[t]);
  }

  return 0;
}

}  // namespace
}  // namespace svx

int main(int argc, char** argv) {
  svx::BenchArgs args(argc, argv, "calibrate_costs [scale] [--reps N]");
  const double scale = args.Positional(0, "scale", 0.5, svx::kPositive);
  const int reps = args.Flag("--reps", 3, {1});
  args.Finish();
  return svx::Run(scale, reps);
}
