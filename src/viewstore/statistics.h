// Per-view extent statistics, computed at materialization time and persisted
// alongside the extent (cf. rdf3x's StatisticsSegment): row counts, per-column
// non-null and exact distinct counts, value-length / id-depth bounds, and
// nested-table row totals. The CostModel turns these into cardinality and
// cost estimates for candidate rewritings.
#ifndef SVX_VIEWSTORE_STATISTICS_H_
#define SVX_VIEWSTORE_STATISTICS_H_

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/algebra/relation.h"
#include "src/util/status.h"

namespace svx {

/// Statistics for one extent column.
struct ColumnStats {
  std::string name;
  int64_t non_null = 0;
  int64_t distinct = 0;  // exact, over non-null values (deep for nested)
  /// For strings: byte length; for ids and content references: node depth;
  /// for nested tables: rows per group. 0/0 when the column is all-⊥.
  int64_t min_len = 0;
  int64_t max_len = 0;
  /// Total rows across all nested-table values (0 for scalar columns).
  int64_t nested_rows = 0;

  bool operator==(const ColumnStats&) const = default;
};

/// Statistics for one view extent.
struct ViewStats {
  int64_t num_rows = 0;
  /// Schema columns in order; each nested column is followed by aggregate
  /// stats for its inner columns (across all groups).
  std::vector<ColumnStats> columns;

  const ColumnStats* Find(const std::string& name) const;

  bool operator==(const ViewStats&) const = default;
};

/// Scans `extent` once and computes exact statistics. The only way stats are
/// computed from scratch: the catalog calls it on the row-major table it is
/// about to encode (materialization, maintenance rebuild), and
/// incremental maintenance refreshes the result (RefreshViewStatsCached).
ViewStats ComputeViewStats(const Table& extent);

/// Per-column multiset indexes over one extent: for every stats column
/// (ComputeViewStats emission order, nested columns flattened) the exact
/// count of each distinct encoded value and of each value length. They make
/// every ViewStats counter — including distinct counts and length bounds,
/// which are not incrementally maintainable from the stats alone —
/// refreshable in O(|delta| log) per tuple delta instead of by whole-column
/// rescans.
struct ValueCountCache {
  struct Column {
    /// Encoded value (EncodeValue, columnar.h) → multiplicity. Its size is
    /// the column's exact distinct count.
    std::unordered_map<std::string, int64_t> values;
    /// Value length (ValueLength measure of statistics.cc) → multiplicity.
    /// Ordered, so min/max length are the first/last key.
    std::map<int64_t, int64_t> lengths;
  };
  std::vector<Column> columns;
};

/// Scans `extent` once and builds its value-count cache (same cost class as
/// ComputeViewStats).
ValueCountCache BuildValueCounts(const Table& extent);

/// Refreshes `stats` through `cache` after incremental maintenance removed
/// the tuples `deleted` and appended the tuples `inserted`: both the cache
/// and the returned stats are updated in O((|deleted|+|inserted|) log)
/// without touching the extent. `schema` is the extent's schema; `stats`
/// and `cache` must describe the pre-delta extent. Afterwards both equal a
/// full recomputation over the post-delta extent.
ViewStats RefreshViewStatsCached(const ViewStats& stats, const Schema& schema,
                                 ValueCountCache* cache,
                                 const std::vector<Tuple>& deleted,
                                 const std::vector<Tuple>& inserted);

/// OK iff `stats` can describe an extent of `num_rows` rows over `schema`:
/// the row count matches, the columns are the ones ComputeViewStats emits
/// for `schema` (same names, same order, nested inner columns included),
/// and no count is negative. ParseError otherwise.
[[nodiscard]] Status CheckViewStatsFit(const ViewStats& stats,
                                       const Schema& schema, int64_t num_rows);

/// Line-based text serialization, round-trippable:
///   rows <n>
///   col <name> <non_null> <distinct> <min_len> <max_len> <nested_rows>
std::string ViewStatsToString(const ViewStats& stats);
[[nodiscard]] Result<ViewStats> ParseViewStats(std::string_view text);

}  // namespace svx

#endif  // SVX_VIEWSTORE_STATISTICS_H_
