#include "src/viewstore/statistics.h"

#include <algorithm>
#include <unordered_set>

#include "src/algebra/columnar.h"
#include "src/util/check.h"
#include "src/util/strings.h"
#include "src/viewstore/extent_io.h"

namespace svx {

namespace {

/// Length measure entering min_len/max_len (see header).
int64_t ValueLength(const Value& v) {
  if (v.IsString()) return static_cast<int64_t>(v.AsString().size());
  if (v.IsId()) return v.AsId().Depth();
  if (v.IsContent()) return v.AsContent().id.Depth();
  return v.AsTable().NumRows();
}

}  // namespace

const ColumnStats* ViewStats::Find(const std::string& name) const {
  for (const ColumnStats& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

namespace {

/// Computes per-column stats over the concatenation of `tables` (all share
/// `schema`) without copying any rows.
void ComputeColumns(const Schema& schema,
                    const std::vector<const Table*>& tables,
                    ViewStats* stats) {
  for (int32_t c = 0; c < schema.size(); ++c) {
    ColumnStats col;
    col.name = schema.column(c).name;
    // Exact distinct via the stable deep cell encoding (hash sets over raw
    // Value hashes could undercount on collisions).
    std::unordered_set<std::string> seen;
    bool any = false;
    for (const Table* table : tables) {
      for (const Tuple& row : table->rows()) {
        const Value& v = row[static_cast<size_t>(c)];
        if (v.IsNull()) continue;
        ++col.non_null;
        int64_t len = ValueLength(v);
        if (!any) {
          col.min_len = col.max_len = len;
          any = true;
        } else {
          col.min_len = std::min(col.min_len, len);
          col.max_len = std::max(col.max_len, len);
        }
        if (v.IsTable()) col.nested_rows += v.AsTable().NumRows();
        std::string key;
        EncodeValue(v, &key);
        seen.insert(std::move(key));
      }
    }
    col.distinct = static_cast<int64_t>(seen.size());
    stats->columns.push_back(std::move(col));

    // Inner columns of a nested column: aggregate across all groups, so the
    // estimates survive an unnest (names stay unique per the ViewSchema
    // convention).
    if (schema.column(c).nested != nullptr) {
      std::vector<const Table*> groups;
      for (const Table* table : tables) {
        for (const Tuple& row : table->rows()) {
          const Value& v = row[static_cast<size_t>(c)];
          if (v.IsTable()) groups.push_back(&v.AsTable());
        }
      }
      ComputeColumns(*schema.column(c).nested, groups, stats);
    }
  }
}

}  // namespace

ViewStats ComputeViewStats(const Table& extent) {
  ViewStats stats;
  stats.num_rows = extent.NumRows();
  ComputeColumns(extent.schema(), {&extent}, &stats);
  return stats;
}

namespace {

/// Number of stats entries ComputeColumns emits for `schema` (own columns
/// plus, recursively, the inner columns of nested columns).
int64_t CountStatsColumns(const Schema& schema) {
  int64_t n = 0;
  for (int32_t c = 0; c < schema.size(); ++c) {
    ++n;
    if (schema.column(c).nested != nullptr) {
      n += CountStatsColumns(*schema.column(c).nested);
    }
  }
  return n;
}

/// Folds `rows` into the cache (and, when `stats` is given, its additive
/// counters) with multiplicity `sign`, mirroring the ComputeColumns
/// traversal; `cursor` walks the flattened stats/cache columns.
void FoldRowsIntoCounts(const Schema& schema,
                        const std::vector<const Tuple*>& rows, size_t* cursor,
                        ValueCountCache* cache, int64_t sign,
                        ViewStats* stats) {
  for (int32_t c = 0; c < schema.size(); ++c) {
    size_t at = (*cursor)++;
    ValueCountCache::Column& col = cache->columns[at];
    ColumnStats* cs = stats != nullptr ? &stats->columns[at] : nullptr;
    for (const Tuple* row : rows) {
      const Value& v = (*row)[static_cast<size_t>(c)];
      if (v.IsNull()) continue;
      std::string key;
      EncodeValue(v, &key);
      auto vit = col.values.try_emplace(std::move(key), 0).first;
      vit->second += sign;
      SVX_DCHECK_MSG(vit->second >= 0, "value count underflow in stats cache");
      if (vit->second == 0) col.values.erase(vit);
      int64_t len = ValueLength(v);
      auto lit = col.lengths.try_emplace(len, 0).first;
      lit->second += sign;
      if (lit->second == 0) col.lengths.erase(lit);
      if (cs != nullptr) {
        cs->non_null += sign;
        if (v.IsTable()) cs->nested_rows += sign * v.AsTable().NumRows();
      }
    }
    if (cs != nullptr) {
      cs->distinct = static_cast<int64_t>(col.values.size());
      cs->min_len = col.lengths.empty() ? 0 : col.lengths.begin()->first;
      cs->max_len = col.lengths.empty() ? 0 : col.lengths.rbegin()->first;
    }
    if (schema.column(c).nested != nullptr) {
      std::vector<const Tuple*> inner;
      for (const Tuple* row : rows) {
        const Value& v = (*row)[static_cast<size_t>(c)];
        if (!v.IsTable()) continue;
        for (const Tuple& r : v.AsTable().rows()) inner.push_back(&r);
      }
      FoldRowsIntoCounts(*schema.column(c).nested, inner, cursor, cache, sign,
                         stats);
    }
  }
}

/// Whether the stats columns from `*cursor` on name `schema`'s columns in
/// ComputeColumns emission order; advances `cursor` past them.
bool StatsColumnsMatch(const Schema& schema,
                       const std::vector<ColumnStats>& columns,
                       size_t* cursor) {
  for (int32_t c = 0; c < schema.size(); ++c) {
    if (*cursor >= columns.size() ||
        columns[(*cursor)++].name != schema.column(c).name) {
      return false;
    }
    if (schema.column(c).nested != nullptr &&
        !StatsColumnsMatch(*schema.column(c).nested, columns, cursor)) {
      return false;
    }
  }
  return true;
}

std::vector<const Tuple*> RowPointers(const std::vector<Tuple>& rows) {
  std::vector<const Tuple*> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(&t);
  return out;
}

}  // namespace

ValueCountCache BuildValueCounts(const Table& extent) {
  ValueCountCache cache;
  cache.columns.resize(
      static_cast<size_t>(CountStatsColumns(extent.schema())));
  std::vector<const Tuple*> rows = RowPointers(extent.rows());
  size_t cursor = 0;
  FoldRowsIntoCounts(extent.schema(), rows, &cursor, &cache, +1, nullptr);
  return cache;
}

ViewStats RefreshViewStatsCached(const ViewStats& stats, const Schema& schema,
                                 ValueCountCache* cache,
                                 const std::vector<Tuple>& deleted,
                                 const std::vector<Tuple>& inserted) {
  SVX_CHECK_MSG(
      static_cast<int64_t>(cache->columns.size()) ==
              CountStatsColumns(schema) &&
          cache->columns.size() == stats.columns.size(),
      "value-count cache does not line up with the extent schema");
  ViewStats out = stats;
  out.num_rows += static_cast<int64_t>(inserted.size()) -
                  static_cast<int64_t>(deleted.size());
  size_t cursor = 0;
  FoldRowsIntoCounts(schema, RowPointers(deleted), &cursor, cache, -1, &out);
  cursor = 0;
  FoldRowsIntoCounts(schema, RowPointers(inserted), &cursor, cache, +1, &out);
  return out;
}

Status CheckViewStatsFit(const ViewStats& stats, const Schema& schema,
                         int64_t num_rows) {
  if (stats.num_rows != num_rows) {
    return Status::ParseError(
        StrFormat("statistics count %lld rows, the extent holds %lld",
                  static_cast<long long>(stats.num_rows),
                  static_cast<long long>(num_rows)));
  }
  size_t cursor = 0;
  if (!StatsColumnsMatch(schema, stats.columns, &cursor) ||
      cursor != stats.columns.size()) {
    return Status::ParseError(
        "statistics columns do not match the extent schema");
  }
  for (const ColumnStats& c : stats.columns) {
    if (c.non_null < 0 || c.distinct < 0 || c.min_len < 0 || c.max_len < 0 ||
        c.nested_rows < 0) {
      return Status::ParseError("negative count in statistics column " +
                                c.name);
    }
  }
  return Status::OK();
}

std::string ViewStatsToString(const ViewStats& stats) {
  std::string out = StrFormat("rows %lld\n",
                              static_cast<long long>(stats.num_rows));
  for (const ColumnStats& c : stats.columns) {
    out += StrFormat("col %s %lld %lld %lld %lld %lld\n", c.name.c_str(),
                     static_cast<long long>(c.non_null),
                     static_cast<long long>(c.distinct),
                     static_cast<long long>(c.min_len),
                     static_cast<long long>(c.max_len),
                     static_cast<long long>(c.nested_rows));
  }
  return out;
}

Result<ViewStats> ParseViewStats(std::string_view text) {
  ViewStats stats;
  bool saw_rows = false;
  for (const std::string& raw : Split(text, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty()) continue;
    std::vector<std::string> parts = Split(line, ' ');
    if (parts[0] == "rows" && parts.size() == 2) {
      std::optional<int64_t> n = ParseInt64(parts[1]);
      if (!n) return Status::ParseError("bad rows line: " + raw);
      stats.num_rows = *n;
      saw_rows = true;
    } else if (parts[0] == "col" && parts.size() == 7) {
      ColumnStats c;
      c.name = parts[1];
      std::optional<int64_t> vals[5];
      for (int i = 0; i < 5; ++i) {
        vals[i] = ParseInt64(parts[static_cast<size_t>(i) + 2]);
        if (!vals[i]) return Status::ParseError("bad col line: " + raw);
      }
      c.non_null = *vals[0];
      c.distinct = *vals[1];
      c.min_len = *vals[2];
      c.max_len = *vals[3];
      c.nested_rows = *vals[4];
      stats.columns.push_back(std::move(c));
    } else {
      return Status::ParseError("bad stats line: " + raw);
    }
  }
  if (!saw_rows) return Status::ParseError("stats text missing 'rows' line");
  return stats;
}

}  // namespace svx
