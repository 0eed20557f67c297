// Shared by the bench binaries and tools/calibrate_costs: command-line
// parsing, result-file output, the metrics snapshot and the tree-notation
// helper.
#ifndef SVX_BENCH_BENCH_COMMON_H_
#define SVX_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/observability/metrics.h"
#include "src/util/strings.h"
#include "src/xml/builder.h"

namespace svx {

/// Interval a numeric argument must lie in; `open_lo` excludes `lo` itself.
/// An integer argument is further bounded by its type.
struct ArgRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool open_lo = false;
};
inline constexpr ArgRange kPositive{
    0, std::numeric_limits<double>::infinity(), true};
inline constexpr ArgRange kNonNegative{0};

/// A bench command line: positional values plus `--name value` and
/// `--name=value` flags (every flag takes a value). Callers read each value
/// once, by position or by flag name, as the type of its default (a
/// number, an integer or a string), then call Finish(). A malformed,
/// out-of-range, unknown or surplus argument prints the error and the usage
/// line and exits 2.
class BenchArgs {
 public:
  BenchArgs(int argc, char** argv, std::string usage)
      : usage_(std::move(usage)) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      const size_t eq = arg.find('=');
      if (!StartsWith(arg, "--")) {
        positional_.emplace_back(arg);
      } else if (eq != std::string_view::npos) {
        flags_[std::string(arg.substr(0, eq))] = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        flags_[std::string(arg)] = argv[++i];
      } else {
        Fail(StrFormat("%s needs a value", argv[i]));
      }
    }
  }

  /// Positional `i` checked against `range`; `def` when absent.
  template <typename T>
  T Positional(size_t i, const char* name, T def, ArgRange range = {}) {
    if (i >= positional_.size()) return def;
    positional_read_ = std::max(positional_read_, i + 1);
    return Parse<T>(positional_[i], name, range);
  }

  /// Every positional from `from` on, each a number in `range`.
  std::vector<double> Numbers(size_t from, const char* name, ArgRange range) {
    std::vector<double> out;
    for (size_t i = from; i < positional_.size(); ++i) {
      out.push_back(Positional(i, name, 0.0, range));
    }
    return out;
  }

  /// Flag `name` (spelled with its "--") checked against `range`; `def`
  /// when absent.
  template <typename T>
  T Flag(const char* name, T def, ArgRange range = {}) {
    auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    const std::string text = std::move(it->second);
    flags_.erase(it);
    return Parse<T>(text, name, range);
  }

  /// Exits 2 on any flag or positional that no read above consumed.
  void Finish() const {
    if (!flags_.empty()) Fail("unknown flag " + flags_.begin()->first);
    if (positional_.size() > positional_read_) {
      Fail("unexpected argument " + positional_[positional_read_]);
    }
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    std::fprintf(stderr, "%s\nusage: %s\n", what.c_str(), usage_.c_str());
    // NOLINTNEXTLINE(concurrency-mt-unsafe): argument parsing precedes threads.
    std::exit(2);
  }

  template <typename T>
  T Parse(const std::string& text, const char* name, ArgRange range) const {
    if constexpr (std::is_same_v<T, std::string>) {
      return text;
    } else if constexpr (std::is_integral_v<T>) {
      std::optional<int64_t> v = ParseInt64(text);
      if (!v.has_value()) {
        Fail(StrFormat("%s: not an integer: %s", name, text.c_str()));
      }
      range.lo = std::max<double>(range.lo, std::numeric_limits<T>::min());
      range.hi = std::min<double>(range.hi, std::numeric_limits<T>::max());
      CheckRange(static_cast<double>(*v), text, name, range);
      return static_cast<T>(*v);
    } else {
      std::optional<double> v = ParseDouble(text);
      if (!v.has_value()) {
        Fail(StrFormat("%s: not a number: %s", name, text.c_str()));
      }
      CheckRange(*v, text, name, range);
      return *v;
    }
  }

  void CheckRange(double v, const std::string& text, const char* name,
                  ArgRange range) const {
    const bool above_lo = range.open_lo ? v > range.lo : v >= range.lo;
    if (above_lo && v <= range.hi) return;
    std::string want =
        StrFormat("%s %.10g", range.open_lo ? ">" : ">=", range.lo);
    if (range.hi < std::numeric_limits<double>::infinity()) {
      want += StrFormat(" and <= %.10g", range.hi);
    }
    Fail(StrFormat("%s must be %s, got %s", name, want.c_str(), text.c_str()));
  }

  std::string usage_;
  std::vector<std::string> positional_;
  size_t positional_read_ = 0;
  std::map<std::string, std::string> flags_;  // "--name" -> value, unread
};

/// Writes `text` to `path`, ending it with a newline, and prints
/// "wrote <path>". Exits 1 if the file cannot be written: a bench whose
/// results are lost has failed.
inline void WriteBenchFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (text.empty() || text.back() != '\n') out << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    // NOLINTNEXTLINE(concurrency-mt-unsafe): benches write after joining.
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

/// Writes the process metric registry as Prometheus text to `path`.
/// RegisterStandardMetrics() first, so the snapshot names every standard
/// metric across all domains (rewrite, containment, maintenance,
/// epoch/serving) even when this bench left some of them at zero. Call
/// last, after ViewCatalog::DebugMetrics() has refreshed the epoch gauges.
inline void EmitMetricsSnapshot(const std::string& path) {
  metrics::RegisterStandardMetrics();
  WriteBenchFile(path, MetricRegistry::Global().RenderPrometheusText());
}

/// Parses tree notation (src/xml/builder.h); aborts on a malformed literal.
inline std::unique_ptr<Document> MustParseTree(const char* text) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(text);
  if (!r.ok()) {
    std::fprintf(stderr, "bad tree: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

}  // namespace svx

#endif  // SVX_BENCH_BENCH_COMMON_H_
