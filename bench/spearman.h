// Spearman rank correlation, shared by the tools that score the cost model
// against measured execution time: bench_rewriter (per query) and
// tools/calibrate_costs (per plan sample).
#ifndef SVX_BENCH_SPEARMAN_H_
#define SVX_BENCH_SPEARMAN_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace svx {

/// Spearman rank correlation of `x` against `y` (equal lengths); ties get
/// their midrank. 0 for fewer than three pairs or when either side is
/// constant.
inline double SpearmanCorrelation(const std::vector<double>& x,
                                  const std::vector<double>& y) {
  const size_t n = x.size();
  if (n < 3 || y.size() != n) return 0;
  auto ranks = [n](const std::vector<double>& v) {
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(n);
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
      double mid = (static_cast<double>(i) + static_cast<double>(j)) / 2 + 1;
      for (size_t k = i; k <= j; ++k) r[idx[k]] = mid;
      i = j + 1;
    }
    return r;
  };
  std::vector<double> rx = ranks(x);
  std::vector<double> ry = ranks(y);
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += rx[i];
    my += ry[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double num = 0, dx = 0, dy = 0;
  for (size_t i = 0; i < n; ++i) {
    num += (rx[i] - mx) * (ry[i] - my);
    dx += (rx[i] - mx) * (rx[i] - mx);
    dy += (ry[i] - my) * (ry[i] - my);
  }
  if (dx <= 0 || dy <= 0) return 0;
  return num / std::sqrt(dx * dy);
}

}  // namespace svx

#endif  // SVX_BENCH_SPEARMAN_H_
