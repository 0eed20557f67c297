#include "src/algebra/executor.h"

#include <functional>
#include <unordered_map>
#include <utility>

#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/util/timer.h"
#include "src/xml/document.h"

namespace svx {

namespace {

Tuple Concat(const Tuple& a, const Tuple& b) {
  Tuple out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

struct OrdPathKeyHash {
  size_t operator()(const OrdPath& p) const { return p.Hash(); }
};

using IdIndex =
    std::unordered_map<OrdPath, std::vector<int64_t>, OrdPathKeyHash>;

IdIndex BuildIdIndex(const Table& t, int32_t col) {
  IdIndex index;
  for (int64_t i = 0; i < t.NumRows(); ++i) {
    const Value& v = t.row(i)[static_cast<size_t>(col)];
    if (v.IsNull()) continue;  // ⊥ never joins
    index[v.AsId()].push_back(i);
  }
  return index;
}

Result<Table> ExecIdEqJoin(const PlanNode& p, Table left, Table right) {
  Table out(p.schema);
  IdIndex right_index = BuildIdIndex(right, p.right_col);
  for (int64_t i = 0; i < left.NumRows(); ++i) {
    const Value& v = left.row(i)[static_cast<size_t>(p.left_col)];
    if (v.IsNull()) continue;
    auto it = right_index.find(v.AsId());
    if (it == right_index.end()) continue;
    for (int64_t j : it->second) {
      out.AddRow(Concat(left.row(i), right.row(j)));
    }
  }
  return out;
}

/// Matches of `id` against left ids under the structural axis: the parent
/// prefix for ≺, every strict ancestor prefix for ≺≺.
void ForEachAncestorMatch(const IdIndex& left_index, const OrdPath& id,
                          StructAxis axis,
                          const std::function<void(int64_t)>& fn) {
  if (axis == StructAxis::kParent) {
    OrdPath parent = id.Parent();
    if (!parent.IsValid()) return;
    auto it = left_index.find(parent);
    if (it == left_index.end()) return;
    for (int64_t i : it->second) fn(i);
    return;
  }
  for (OrdPath a = id.Parent(); a.IsValid(); a = a.Parent()) {
    auto it = left_index.find(a);
    if (it == left_index.end()) continue;
    for (int64_t i : it->second) fn(i);
  }
}

Result<Table> ExecStructJoin(const PlanNode& p, Table left, Table right) {
  Table out(p.schema);
  IdIndex left_index = BuildIdIndex(left, p.left_col);
  for (int64_t j = 0; j < right.NumRows(); ++j) {
    const Value& v = right.row(j)[static_cast<size_t>(p.right_col)];
    if (v.IsNull()) continue;
    ForEachAncestorMatch(left_index, v.AsId(), p.struct_axis, [&](int64_t i) {
      out.AddRow(Concat(left.row(i), right.row(j)));
    });
  }
  return out;
}

bool SelectAccepts(const PlanNode& p, const Tuple& row) {
  const Value& v = row[static_cast<size_t>(p.select_col)];
  switch (p.select_kind) {
    case SelectKind::kNonNull:
      return !v.IsNull();
    case SelectKind::kLabelEq:
      return !v.IsNull() && v.IsString() && v.AsString() == p.select_label;
    case SelectKind::kValuePred:
      if (p.select_pred.IsTrue()) return true;
      return !v.IsNull() && v.IsString() &&
             p.select_pred.ContainsValue(v.AsString());
  }
  return false;
}

Result<Table> ExecUnnest(const PlanNode& p, Table in) {
  Table out(p.schema);
  int32_t group_width =
      p.schema.size() - in.schema().size() + 1;  // columns replacing the col
  for (int64_t i = 0; i < in.NumRows(); ++i) {
    const Tuple& row = in.row(i);
    const Value& nested = row[static_cast<size_t>(p.unnest_col)];
    bool empty = nested.IsNull() || nested.AsTable().NumRows() == 0;
    if (empty) {  // outer unnest: one ⊥-padded row keeps the tuple
      Tuple padded;
      padded.reserve(static_cast<size_t>(p.schema.size()));
      for (size_t c = 0; c < row.size(); ++c) {
        if (static_cast<int32_t>(c) == p.unnest_col) {
          for (int32_t e = 0; e < group_width; ++e) padded.emplace_back();
        } else {
          padded.push_back(row[c]);
        }
      }
      out.AddRow(std::move(padded));
      continue;
    }
    const Table& group = nested.AsTable();
    for (int64_t g = 0; g < group.NumRows(); ++g) {
      Tuple expanded;
      expanded.reserve(static_cast<size_t>(p.schema.size()));
      for (size_t c = 0; c < row.size(); ++c) {
        if (static_cast<int32_t>(c) == p.unnest_col) {
          for (const Value& v : group.row(g)) expanded.push_back(v);
        } else {
          expanded.push_back(row[c]);
        }
      }
      out.AddRow(std::move(expanded));
    }
  }
  return out;
}

Result<Table> ExecGroupBy(const PlanNode& p, Table in) {
  Table out(p.schema);
  const Schema& in_schema = in.schema();
  std::vector<bool> is_key(static_cast<size_t>(in_schema.size()), false);
  for (int32_t k : p.group_key_cols) is_key[static_cast<size_t>(k)] = true;

  struct Group {
    Tuple key;
    std::shared_ptr<Table> rows;
  };
  std::vector<Group> groups;
  std::unordered_map<size_t, std::vector<size_t>> by_hash;
  std::shared_ptr<const Schema> nested_schema =
      p.schema.column(p.schema.size() - 1).nested;

  for (int64_t i = 0; i < in.NumRows(); ++i) {
    const Tuple& row = in.row(i);
    Tuple key;
    Tuple rest;
    for (size_t c = 0; c < row.size(); ++c) {
      if (is_key[c]) continue;
      rest.push_back(row[c]);
    }
    for (int32_t k : p.group_key_cols) key.push_back(row[static_cast<size_t>(k)]);

    size_t h = TupleHash(key);
    size_t group_idx = SIZE_MAX;
    auto it = by_hash.find(h);
    if (it != by_hash.end()) {
      for (size_t g : it->second) {
        if (groups[g].key == key) {
          group_idx = g;
          break;
        }
      }
    }
    if (group_idx == SIZE_MAX) {
      group_idx = groups.size();
      groups.push_back({key, std::make_shared<Table>(*nested_schema)});
      by_hash[h].push_back(group_idx);
    }
    // Rows whose non-key part is all-⊥ contribute an empty group entry
    // (the optional/nested combination of Figure 12).
    bool all_null = true;
    for (const Value& v : rest) all_null = all_null && v.IsNull();
    if (!all_null) groups[group_idx].rows->AddRow(std::move(rest));
  }

  for (Group& g : groups) {
    g.rows->Deduplicate();
    Tuple row = std::move(g.key);
    row.emplace_back(TablePtr(g.rows));
    out.AddRow(std::move(row));
  }
  return out;
}

void CollectNavMatches(const Document& doc, NodeIndex from,
                       const std::vector<NavStep>& steps, size_t step_idx,
                       std::vector<NodeIndex>* out) {
  if (step_idx == steps.size()) {
    out->push_back(from);
    return;
  }
  const NavStep& s = steps[step_idx];
  if (s.axis == Axis::kChild) {
    for (NodeIndex c = doc.first_child(from); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      if (s.label == "*" || doc.label(c) == s.label) {
        CollectNavMatches(doc, c, steps, step_idx + 1, out);
      }
    }
  } else {
    for (NodeIndex c = from + 1; c < doc.subtree_end(from); ++c) {
      if (s.label == "*" || doc.label(c) == s.label) {
        CollectNavMatches(doc, c, steps, step_idx + 1, out);
      }
    }
  }
}

void AppendAttrValues(const Document& doc, NodeIndex n, uint8_t attrs,
                      Tuple* row) {
  if (attrs & kAttrId) row->emplace_back(doc.ord_path(n));
  if (attrs & kAttrLabel) row->emplace_back(doc.label(n));
  if (attrs & kAttrValue) {
    if (doc.has_value(n)) {
      row->emplace_back(doc.value(n));
    } else {
      row->emplace_back();
    }
  }
  if (attrs & kAttrContent) row->emplace_back(NodeRef{doc.ord_path(n)});
}

/// Navigates inside each row's content: the reference's node is looked up
/// in the catalog's document, which must hold it.
Result<Table> ExecNavigate(const PlanNode& p, const Document* doc, Table in) {
  Table out(p.schema);
  int32_t extra = p.schema.size() - in.schema().size();
  for (int64_t i = 0; i < in.NumRows(); ++i) {
    const Tuple& row = in.row(i);
    const Value& v = row[static_cast<size_t>(p.navigate_col)];
    std::vector<NodeIndex> matches;
    if (!v.IsNull()) {
      const OrdPath& id = v.AsContent().id;
      if (doc == nullptr) {
        return Status::InvalidArgument(
            "content navigation over a catalog without a document");
      }
      const NodeIndex node = doc->FindByOrdPath(id);
      if (node == kInvalidNode) {
        return Status::NotFound("content reference " + id.ToString() +
                                " not in the catalog's document");
      }
      CollectNavMatches(*doc, node, p.navigate_steps, 0, &matches);
    }
    if (matches.empty()) {
      // Optional navigation semantics: keep the row, pad with ⊥.
      Tuple padded = row;
      for (int32_t e = 0; e < extra; ++e) padded.emplace_back();
      out.AddRow(std::move(padded));
      continue;
    }
    for (NodeIndex m : matches) {
      Tuple expanded = row;
      AppendAttrValues(*doc, m, p.navigate_attrs, &expanded);
      out.AddRow(std::move(expanded));
    }
  }
  out.Deduplicate();
  return out;
}

Result<Table> ExecScan(const PlanNode& plan, const Catalog& catalog,
                       int64_t* rows_scanned) {
  Result<TablePtr> extent =
      catalog.Scan(plan.view_name);  // pinned for the copy below
  if (!extent.ok()) return extent.status();
  const Table& in = **extent;
  *rows_scanned += in.NumRows();
  Table out(plan.schema);
  for (const Tuple& row : in.rows()) out.AddRow(row);
  return out;
}

Result<Table> ExecNode(const PlanNode& plan, const Catalog& catalog,
                       TraceSpan* parent, int64_t* rows_scanned) {
  // Span names reuse the plan printer's operator vocabulary (plan.h), so a
  // trace tree reads like the compact plan form.
  ScopedSpan span(parent, PlanKindName(plan.kind));
  auto exec = [&]() -> Result<Table> {
    switch (plan.kind) {
      case PlanKind::kViewScan: {
        span.Attr("view", plan.view_name);
        return ExecScan(plan, catalog, rows_scanned);
      }
      case PlanKind::kIdEqJoin: {
        Result<Table> l =
            ExecNode(*plan.children[0], catalog, span.get(), rows_scanned);
        if (!l.ok()) return l;
        Result<Table> r =
            ExecNode(*plan.children[1], catalog, span.get(), rows_scanned);
        if (!r.ok()) return r;
        return ExecIdEqJoin(plan, std::move(*l), std::move(*r));
      }
      case PlanKind::kStructJoin: {
        Result<Table> l =
            ExecNode(*plan.children[0], catalog, span.get(), rows_scanned);
        if (!l.ok()) return l;
        Result<Table> r =
            ExecNode(*plan.children[1], catalog, span.get(), rows_scanned);
        if (!r.ok()) return r;
        return ExecStructJoin(plan, std::move(*l), std::move(*r));
      }
      case PlanKind::kSelect: {
        Result<Table> in =
            ExecNode(*plan.children[0], catalog, span.get(), rows_scanned);
        if (!in.ok()) return in;
        Table out(plan.schema);
        for (const Tuple& row : in->rows()) {
          if (SelectAccepts(plan, row)) out.AddRow(row);
        }
        return out;
      }
      case PlanKind::kProject: {
        Result<Table> in =
            ExecNode(*plan.children[0], catalog, span.get(), rows_scanned);
        if (!in.ok()) return in;
        Table out(plan.schema);
        for (const Tuple& row : in->rows()) {
          Tuple projected;
          projected.reserve(plan.project_cols.size());
          for (int32_t c : plan.project_cols) {
            projected.push_back(row[static_cast<size_t>(c)]);
          }
          out.AddRow(std::move(projected));
        }
        out.Deduplicate();
        return out;
      }
      case PlanKind::kUnion: {
        Table out(plan.schema);
        for (const PlanPtr& c : plan.children) {
          Result<Table> in = ExecNode(*c, catalog, span.get(), rows_scanned);
          if (!in.ok()) return in;
          for (const Tuple& row : in->rows()) out.AddRow(row);
        }
        out.Deduplicate();
        return out;
      }
      case PlanKind::kUnnest: {
        Result<Table> in =
            ExecNode(*plan.children[0], catalog, span.get(), rows_scanned);
        if (!in.ok()) return in;
        return ExecUnnest(plan, std::move(*in));
      }
      case PlanKind::kGroupBy: {
        Result<Table> in =
            ExecNode(*plan.children[0], catalog, span.get(), rows_scanned);
        if (!in.ok()) return in;
        return ExecGroupBy(plan, std::move(*in));
      }
      case PlanKind::kNavigate: {
        Result<Table> in =
            ExecNode(*plan.children[0], catalog, span.get(), rows_scanned);
        if (!in.ok()) return in;
        return ExecNavigate(plan, catalog.document(), std::move(*in));
      }
      case PlanKind::kDeriveParent: {
        Result<Table> in =
            ExecNode(*plan.children[0], catalog, span.get(), rows_scanned);
        if (!in.ok()) return in;
        Table out(plan.schema);
        for (const Tuple& row : in->rows()) {
          Tuple expanded = row;
          const Value& v = row[static_cast<size_t>(plan.derive_col)];
          if (v.IsNull()) {
            expanded.emplace_back();
          } else {
            OrdPath anc = v.AsId().Ancestor(plan.derive_steps);
            if (anc.IsValid()) {
              expanded.emplace_back(std::move(anc));
            } else {
              expanded.emplace_back();
            }
          }
          out.AddRow(std::move(expanded));
        }
        return out;
      }
    }
    return Status::Internal("unknown plan kind");
  };
  Result<Table> out = exec();
  if (out.ok()) span.Attr("out_rows", out->NumRows());
  return out;
}

}  // namespace

Result<Table> Execute(const PlanNode& plan, const Catalog& catalog,
                      TraceSpan* trace) {
  Timer timer;
  int64_t rows_scanned = 0;
  Result<Table> out = ExecNode(plan, catalog, trace, &rows_scanned);
  metrics::ExecutorRuns()->Add(1);
  metrics::ExecutorRowsScanned()->Add(rows_scanned);
  if (out.ok()) metrics::ExecutorRowsEmitted()->Add(out->NumRows());
  metrics::ExecutorLatencyUs()->Observe(
      static_cast<int64_t>(timer.ElapsedMicros()));
  return out;
}

}  // namespace svx
