#include "src/viewstore/cost_model.h"

#include <algorithm>
#include <cstring>

namespace svx {

namespace {

// Default selectivities when no statistics apply. These stay fixed
// fractions (they model *data*, not per-row work), so they are not part of
// the calibrated constants.
constexpr double kLabelSelectivity = 0.2;
constexpr double kValueSelectivity = 0.33;
constexpr double kNonNullSelectivity = 0.9;

double ClampRows(double rows) { return std::max(rows, 1.0); }

// Work-unit indexes, CostConstants::ToArray() order.
enum : size_t {
  kUScan = 0,
  kUEqJoin = 1,
  kUParentJoin = 2,
  kUAncestorJoin = 3,
  kUEmit = 4,
  kUSelect = 5,
  kUProject = 6,
  kUSort = 7,
  kUNav = 8,
};

void AddUnits(std::array<double, CostConstants::kNumTerms>* units, size_t i,
              double v) {
  if (units != nullptr) (*units)[i] += v;
}

}  // namespace

const char* CostConstants::TermName(size_t i) {
  static const char* const kNames[kNumTerms] = {
      "scan", "eq_join", "parent_join", "ancestor_join", "emit",
      "select", "project", "sort", "nav"};
  return i < kNumTerms ? kNames[i] : "?";
}

uint64_t CostConstantsFingerprint(const CostConstants& c,
                                  double default_rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(double), "double must be 64-bit");
  std::memcpy(&bits, &default_rows, sizeof(bits));
  mix(bits);
  for (double term : c.ToArray()) {
    std::memcpy(&bits, &term, sizeof(bits));
    mix(bits);
  }
  return h;
}

void CostModel::AddViewStats(const std::string& view_name,
                             const ViewStats& stats) {
  PerView view;
  view.num_rows = stats.num_rows;
  // Includes the inner columns of nested columns (ComputeViewStats emits
  // them with their own unique names), so estimates survive an unnest.
  for (const ColumnStats& c : stats.columns) {
    view.columns[c.name] = c;
  }
  views_[view_name] = std::move(view);
}

CostModel::Origin CostModel::ResolveColumn(const PlanNode& plan,
                                           int32_t col) const {
  if (col < 0 || col >= plan.schema.size()) return {};
  switch (plan.kind) {
    case PlanKind::kViewScan: {
      auto it = views_.find(plan.view_name);
      if (it == views_.end()) return {};
      const PerView& view = it->second;
      auto c = view.columns.find(plan.schema.column(col).name);
      return {&view, c == view.columns.end() ? nullptr : &c->second};
    }
    case PlanKind::kIdEqJoin:
    case PlanKind::kStructJoin: {
      int32_t nl = plan.children[0]->schema.size();
      if (col < nl) return ResolveColumn(*plan.children[0], col);
      return ResolveColumn(*plan.children[1], col - nl);
    }
    case PlanKind::kSelect:
      return ResolveColumn(*plan.children[0], col);
    case PlanKind::kProject:
      return ResolveColumn(*plan.children[0],
                           plan.project_cols[static_cast<size_t>(col)]);
    case PlanKind::kUnion: {
      // Same position in every branch; only an unambiguous origin counts.
      Origin first = ResolveColumn(*plan.children[0], col);
      for (size_t i = 1; i < plan.children.size(); ++i) {
        Origin o = ResolveColumn(*plan.children[i], col);
        if (o.view != first.view || o.column != first.column) return {};
      }
      return first;
    }
    case PlanKind::kUnnest: {
      const Schema& in = plan.children[0]->schema;
      int32_t ninner = in.column(plan.unnest_col).nested->size();
      if (col < plan.unnest_col) return ResolveColumn(*plan.children[0], col);
      if (col < plan.unnest_col + ninner) {
        // An inner column of the flattened nested column: its stats live
        // flat under the owning view (see AddViewStats).
        Origin outer = ResolveColumn(*plan.children[0], plan.unnest_col);
        if (outer.view == nullptr) return {};
        auto c = outer.view->columns.find(plan.schema.column(col).name);
        return {outer.view,
                c == outer.view->columns.end() ? nullptr : &c->second};
      }
      return ResolveColumn(*plan.children[0], col - ninner + 1);
    }
    case PlanKind::kGroupBy: {
      int32_t nkeys = static_cast<int32_t>(plan.group_key_cols.size());
      if (col < nkeys) {
        return ResolveColumn(*plan.children[0],
                             plan.group_key_cols[static_cast<size_t>(col)]);
      }
      return {};  // the synthesized group column
    }
    case PlanKind::kNavigate:
    case PlanKind::kDeriveParent: {
      int32_t nin = plan.children[0]->schema.size();
      if (col < nin) return ResolveColumn(*plan.children[0], col);
      return {};  // derived columns carry no stored statistics
    }
  }
  return {};
}

CostEstimate CostModel::Estimate(
    const PlanNode& plan,
    std::array<double, CostConstants::kNumTerms>* units) const {
  switch (plan.kind) {
    case PlanKind::kViewScan: {
      auto it = views_.find(plan.view_name);
      double rows = it == views_.end()
                        ? default_rows
                        : static_cast<double>(it->second.num_rows);
      AddUnits(units, kUScan, rows);
      return {rows, constants.scan * rows};
    }
    case PlanKind::kIdEqJoin:
    case PlanKind::kStructJoin: {
      CostEstimate l = Estimate(*plan.children[0], units);
      CostEstimate r = Estimate(*plan.children[1], units);
      const ColumnStats* lc =
          ResolveColumn(*plan.children[0], plan.left_col).column;
      const ColumnStats* rc =
          ResolveColumn(*plan.children[1], plan.right_col).column;
      double dl = lc != nullptr ? static_cast<double>(lc->distinct) : l.rows;
      double dr = rc != nullptr ? static_cast<double>(rc->distinct) : r.rows;
      double rows;
      double probe;
      double probe_constant;
      if (plan.kind == PlanKind::kIdEqJoin) {
        // Containment assumption: |L ⋈= R| = |L||R| / max(dl, dr).
        rows = l.rows * r.rows / ClampRows(std::max(dl, dr));
        probe = l.rows + r.rows;
        probe_constant = constants.eq_join;
        AddUnits(units, kUEqJoin, probe);
      } else if (plan.struct_axis == StructAxis::kParent) {
        // Each right row has exactly one parent id; it matches the left rows
        // sharing that id (|L| / dl on average) if the parent is stored.
        rows = r.rows * l.rows / ClampRows(dl);
        probe = l.rows + r.rows;
        probe_constant = constants.parent_join;
        AddUnits(units, kUParentJoin, probe);
      } else {
        // Ancestor: each right row probes up to depth(right) prefixes.
        double depth =
            rc != nullptr && rc->non_null > 0
                ? static_cast<double>(rc->min_len + rc->max_len) / 2.0
                : 4.0;
        rows = r.rows * std::max(depth - 1.0, 1.0) * l.rows /
               ClampRows(dl * 2.0);
        probe = l.rows + r.rows * depth;
        probe_constant = constants.ancestor_join;
        AddUnits(units, kUAncestorJoin, probe);
      }
      rows = std::min(rows, l.rows * r.rows);
      AddUnits(units, kUEmit, rows);
      return {rows, l.cost + r.cost + probe_constant * probe +
                        constants.emit * rows};
    }
    case PlanKind::kSelect: {
      CostEstimate in = Estimate(*plan.children[0], units);
      Origin origin = ResolveColumn(*plan.children[0], plan.select_col);
      const ColumnStats* c = origin.column;
      double sel;
      switch (plan.select_kind) {
        case SelectKind::kLabelEq:
          // With stats: assume labels uniform over the distinct count.
          sel = c != nullptr && c->distinct > 0
                    ? 1.0 / static_cast<double>(c->distinct)
                    : kLabelSelectivity;
          break;
        case SelectKind::kValuePred:
          sel = kValueSelectivity;
          break;
        case SelectKind::kNonNull: {
          double nn = kNonNullSelectivity;
          if (c != nullptr && origin.view != nullptr &&
              origin.view->num_rows > 0) {
            // The owning view's non-null fraction carries over through
            // upstream operators (independence assumption). Using the
            // view's row count as the denominator — not the post-filter
            // input cardinality — keeps the fraction a property of the
            // stored data rather than of the plan shape above it.
            nn = static_cast<double>(std::max<int64_t>(c->non_null, 0)) /
                 static_cast<double>(origin.view->num_rows);
            nn = std::min(std::max(nn, 0.0), 1.0);
          }
          sel = nn;
          break;
        }
        default:
          sel = 1.0;
      }
      AddUnits(units, kUSelect, in.rows);
      return {in.rows * sel, in.cost + constants.select * in.rows};
    }
    case PlanKind::kProject: {
      CostEstimate in = Estimate(*plan.children[0], units);
      AddUnits(units, kUProject, in.rows);
      return {in.rows, in.cost + constants.project * in.rows};
    }
    case PlanKind::kUnion: {
      CostEstimate out{0, 0};
      for (const auto& child : plan.children) {
        CostEstimate c = Estimate(*child, units);
        out.rows += c.rows;
        out.cost += c.cost;
      }
      // Set-semantics dedup pass over the concatenated branches.
      AddUnits(units, kUSort, out.rows);
      out.cost += constants.sort * out.rows;
      return out;
    }
    case PlanKind::kUnnest: {
      CostEstimate in = Estimate(*plan.children[0], units);
      const ColumnStats* c =
          ResolveColumn(*plan.children[0], plan.unnest_col).column;
      double avg_group =
          c != nullptr && c->non_null > 0
              ? static_cast<double>(c->nested_rows) /
                    static_cast<double>(c->non_null)
              : 2.0;
      double rows = in.rows * std::max(avg_group, 1.0);
      AddUnits(units, kUEmit, rows);
      return {rows, in.cost + constants.emit * rows};
    }
    case PlanKind::kGroupBy: {
      CostEstimate in = Estimate(*plan.children[0], units);
      double rows = ClampRows(in.rows * 0.5);
      AddUnits(units, kUSort, in.rows);
      return {rows, in.cost + constants.sort * in.rows};
    }
    case PlanKind::kNavigate: {
      CostEstimate in = Estimate(*plan.children[0], units);
      double steps =
          static_cast<double>(std::max<size_t>(plan.navigate_steps.size(), 1));
      AddUnits(units, kUNav, in.rows * steps);
      return {in.rows, in.cost + constants.nav * (in.rows * steps)};
    }
    case PlanKind::kDeriveParent: {
      CostEstimate in = Estimate(*plan.children[0], units);
      AddUnits(units, kUNav, in.rows);
      return {in.rows, in.cost + constants.nav * in.rows};
    }
  }
  SVX_CHECK(false);
  return {};
}

}  // namespace svx
