#include "src/algebra/executor.h"

#include <deque>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/util/timer.h"
#include "src/xml/document.h"

namespace svx {

namespace {

/// The ⊥ every padded or underivable cell points at.
const Value& Null() {
  static const Value null;
  return null;
}

/// An operator's output: `width` borrowed cells per row, row-major. A cell
/// points into an extent the call pinned, into a nested group inside one,
/// or into the call's arena of derived values.
class CellRelation {
 public:
  explicit CellRelation(int32_t width) : width_(width) {}

  int32_t width() const { return width_; }
  int64_t NumRows() const { return rows_; }
  const Value* const* row(int64_t i) const {
    return cells_.data() + static_cast<size_t>(i) * static_cast<size_t>(width_);
  }
  const Value& cell(int64_t i, int32_t col) const {
    return *row(i)[static_cast<size_t>(col)];
  }

  // Building: push a row's cells, then EndRow().
  void Reserve(int64_t rows) {
    cells_.reserve(static_cast<size_t>(rows) * static_cast<size_t>(width_));
  }
  void Push(const Value* v) { cells_.push_back(v); }
  void PushCells(const Value* const* cells, int32_t n) {
    cells_.insert(cells_.end(), cells, cells + n);
  }
  void EndRow() { ++rows_; }
  void DropLastRow() {
    cells_.resize(cells_.size() - static_cast<size_t>(width_));
    --rows_;
  }

 private:
  int32_t width_;
  int64_t rows_ = 0;
  std::vector<const Value*> cells_;
};

size_t RowHash(const Value* const* row, int32_t width) {
  size_t h = 0x9E3779B97f4A7C15ULL;
  for (int32_t c = 0; c < width; ++c) {
    h ^= row[c]->Hash() + 0x9E3779B9 + (h << 6) + (h >> 2);
  }
  return h;
}

bool RowsEqual(const Value* const* a, const Value* const* b, int32_t width) {
  for (int32_t c = 0; c < width; ++c) {
    if (a[c] != b[c] && *a[c] != *b[c]) return false;
  }
  return true;
}

/// Set semantics while a relation is built (as Table::Deduplicate): after
/// each appended row, KeepFirst drops it when an earlier row is equal by
/// value, so first occurrences survive in order.
class FirstOccurrences {
 public:
  explicit FirstOccurrences(CellRelation* out) : out_(out), slots_(16, -1) {}

  /// The index of the first row equal to the relation's last row; drops
  /// the last row when that is an earlier one.
  int64_t KeepFirst() {
    const int64_t last = out_->NumRows() - 1;
    const size_t h = RowHash(out_->row(last), out_->width());
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = h & mask;; s = (s + 1) & mask) {
      const int64_t r = slots_[s];
      if (r < 0) {
        slots_[s] = last;
        hashes_.push_back(h);
        return last;
      }
      if (hashes_[static_cast<size_t>(r)] == h &&
          RowsEqual(out_->row(r), out_->row(last), out_->width())) {
        out_->DropLastRow();
        return r;
      }
    }
  }

 private:
  void Grow() {
    slots_.assign(slots_.size() * 2, -1);
    const size_t mask = slots_.size() - 1;
    for (size_t r = 0; r < hashes_.size(); ++r) {
      size_t s = hashes_[r] & mask;
      while (slots_[s] >= 0) s = (s + 1) & mask;
      slots_[s] = static_cast<int64_t>(r);
    }
  }

  CellRelation* out_;
  std::vector<int64_t> slots_;  // kept row index, or -1
  std::vector<size_t> hashes_;  // per kept row
};

/// The rows of a relation by the bytes of one id column, for the joins' build
/// sides. ⊥ is not indexed: it never joins. Keys view the ids' bytes, which
/// the relation's cells own.
class IdIndex {
 public:
  IdIndex(const CellRelation& rel, int32_t col)
      : next_(static_cast<size_t>(rel.NumRows()), -1) {
    size_t capacity = 2;
    while (capacity < 2 * static_cast<size_t>(rel.NumRows())) capacity *= 2;
    slots_.resize(capacity);
    // Rows go in last to first, so each key's chain lists them in order.
    for (int64_t i = rel.NumRows() - 1; i >= 0; --i) {
      const Value& v = rel.cell(i, col);
      if (v.IsNull()) continue;
      Slot& slot = slots_[SlotOf(v.AsId().bytes())];
      slot.key = v.AsId().bytes();
      next_[static_cast<size_t>(i)] = slot.head;
      slot.head = i;
    }
  }

  /// Calls fn(row) for each row whose id's bytes are `key`, in row order.
  template <typename Fn>
  void ForEachMatch(std::string_view key, Fn fn) const {
    for (int64_t i = slots_[SlotOf(key)].head; i >= 0;
         i = next_[static_cast<size_t>(i)]) {
      fn(i);
    }
  }

 private:
  struct Slot {
    std::string_view key;
    int64_t head = -1;  // first row with this key; -1 for an empty slot
  };

  /// The slot holding `key`, or the empty slot where it would go.
  size_t SlotOf(std::string_view key) const {
    const size_t mask = slots_.size() - 1;
    size_t s = std::hash<std::string_view>{}(key) & mask;
    while (slots_[s].head >= 0 && slots_[s].key != key) s = (s + 1) & mask;
    return s;
  }

  std::vector<Slot> slots_;
  std::vector<int64_t> next_;  // next row with the same key, or -1
};

bool SelectAccepts(const PlanNode& p, const Value& v) {
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

/// One Execute call: the extents its scans pinned and the values its plan
/// derives, both alive until the call has copied its result out.
class Executor {
 public:
  explicit Executor(const Catalog& catalog) : catalog_(catalog) {}

  int64_t rows_scanned() const { return rows_scanned_; }

  /// Runs `plan` under `parent`: a span per operator, as the plan printer
  /// names it, with the operator's out_rows (and a scan's view).
  Result<CellRelation> Run(const PlanNode& plan, TraceSpan* parent) {
    ScopedSpan span(parent, PlanKindName(plan.kind));
    if (plan.kind == PlanKind::kViewScan) span.Attr("view", plan.view_name);
    Result<CellRelation> out = RunOperator(plan, span.get());
    if (out.ok()) span.Attr("out_rows", out->NumRows());
    return out;
  }

  /// The result: one Table that owns copies of the cells.
  static Table Materialize(const Schema& schema, const CellRelation& rel) {
    Table out(schema);
    std::vector<Tuple>& rows = out.mutable_rows();
    rows.reserve(static_cast<size_t>(rel.NumRows()));
    for (int64_t i = 0; i < rel.NumRows(); ++i) {
      const Value* const* cells = rel.row(i);
      Tuple& row = rows.emplace_back();
      row.reserve(static_cast<size_t>(rel.width()));
      for (int32_t c = 0; c < rel.width(); ++c) row.push_back(*cells[c]);
    }
    return out;
  }

 private:
  Result<CellRelation> RunOperator(const PlanNode& plan, TraceSpan* span) {
    if (plan.kind == PlanKind::kViewScan) return Scan(plan);
    if (plan.kind == PlanKind::kUnion) return Union(plan, span);
    Result<CellRelation> in = Run(*plan.children[0], span);
    if (!in.ok()) return in;
    switch (plan.kind) {
      case PlanKind::kIdEqJoin:
      case PlanKind::kStructJoin: {
        Result<CellRelation> right = Run(*plan.children[1], span);
        if (!right.ok()) return right;
        return plan.kind == PlanKind::kIdEqJoin
                   ? IdEqJoin(plan, *in, *right)
                   : StructJoin(plan, *in, *right);
      }
      case PlanKind::kSelect:
        return Select(plan, *in);
      case PlanKind::kProject:
        return Project(plan, *in);
      case PlanKind::kUnnest:
        return Unnest(plan, *in);
      case PlanKind::kGroupBy:
        return GroupBy(plan, *in);
      case PlanKind::kNavigate:
        return Navigate(plan, *in);
      case PlanKind::kDeriveParent:
        return DeriveParent(plan, *in);
      case PlanKind::kViewScan:
      case PlanKind::kUnion:
        break;
    }
    return Status::Internal("unknown plan kind");
  }

  /// Borrows the extent's cells; the extent stays pinned until the call
  /// returns, even if the memory budget evicts it meanwhile.
  Result<CellRelation> Scan(const PlanNode& plan) {
    Result<TablePtr> extent = catalog_.Scan(plan.view_name);
    if (!extent.ok()) return extent.status();
    pins_.push_back(std::move(extent).value());
    const Table& in = *pins_.back();
    rows_scanned_ += in.NumRows();
    CellRelation out(plan.schema.size());
    out.Reserve(in.NumRows());
    for (const Tuple& row : in.rows()) {
      if (static_cast<int32_t>(row.size()) != out.width()) {
        return Status::Internal("extent of " + plan.view_name +
                                " does not have its scan's arity");
      }
      for (const Value& v : row) out.Push(&v);
      out.EndRow();
    }
    return out;
  }

  Result<CellRelation> Union(const PlanNode& plan, TraceSpan* span) {
    CellRelation out(plan.schema.size());
    FirstOccurrences seen(&out);
    for (const PlanPtr& c : plan.children) {
      Result<CellRelation> in = Run(*c, span);
      if (!in.ok()) return in;
      if (in->width() != out.width()) {
        return Status::Internal("union branch does not have the union's arity");
      }
      for (int64_t i = 0; i < in->NumRows(); ++i) {
        out.PushCells(in->row(i), out.width());
        out.EndRow();
        seen.KeepFirst();
      }
    }
    return out;
  }

  /// Left-major: each left row with its matching right rows in order.
  static CellRelation IdEqJoin(const PlanNode& p, const CellRelation& left,
                               const CellRelation& right) {
    CellRelation out(left.width() + right.width());
    const IdIndex right_index(right, p.right_col);
    for (int64_t i = 0; i < left.NumRows(); ++i) {
      const Value& v = left.cell(i, p.left_col);
      if (v.IsNull()) continue;
      right_index.ForEachMatch(v.AsId().bytes(), [&](int64_t j) {
        out.PushCells(left.row(i), left.width());
        out.PushCells(right.row(j), right.width());
        out.EndRow();
      });
    }
    return out;
  }

  /// Right-major: each right row with the left rows its id's parent (≺) or
  /// strict ancestors (≺≺, nearest first) match, probed as prefixes of its
  /// id's bytes.
  static CellRelation StructJoin(const PlanNode& p, const CellRelation& left,
                                 const CellRelation& right) {
    CellRelation out(left.width() + right.width());
    const IdIndex left_index(left, p.left_col);
    for (int64_t j = 0; j < right.NumRows(); ++j) {
      const Value& v = right.cell(j, p.right_col);
      if (v.IsNull()) continue;
      const std::string_view id = v.AsId().bytes();
      for (size_t len = OrdPath::ParentLength(id); len > 0;
           len = OrdPath::ParentLength(id.substr(0, len))) {
        left_index.ForEachMatch(id.substr(0, len), [&](int64_t i) {
          out.PushCells(left.row(i), left.width());
          out.PushCells(right.row(j), right.width());
          out.EndRow();
        });
        if (p.struct_axis == StructAxis::kParent) break;
      }
    }
    return out;
  }

  static CellRelation Select(const PlanNode& p, const CellRelation& in) {
    CellRelation out(in.width());
    for (int64_t i = 0; i < in.NumRows(); ++i) {
      if (!SelectAccepts(p, in.cell(i, p.select_col))) continue;
      out.PushCells(in.row(i), in.width());
      out.EndRow();
    }
    return out;
  }

  static CellRelation Project(const PlanNode& p, const CellRelation& in) {
    CellRelation out(static_cast<int32_t>(p.project_cols.size()));
    FirstOccurrences seen(&out);
    for (int64_t i = 0; i < in.NumRows(); ++i) {
      const Value* const* row = in.row(i);
      for (int32_t c : p.project_cols) out.Push(row[c]);
      out.EndRow();
      seen.KeepFirst();
    }
    return out;
  }

  /// Outer unnest: each group row replaces the nested cell; an empty or ⊥
  /// group keeps the row once, padded with ⊥.
  static Result<CellRelation> Unnest(const PlanNode& p,
                                     const CellRelation& in) {
    CellRelation out(p.schema.size());
    const int32_t col = p.unnest_col;
    const int32_t group_width = out.width() - in.width() + 1;
    const int32_t after = in.width() - col - 1;
    for (int64_t i = 0; i < in.NumRows(); ++i) {
      const Value* const* row = in.row(i);
      const Value& nested = *row[col];
      if (nested.IsNull() || nested.AsTable().NumRows() == 0) {
        out.PushCells(row, col);
        for (int32_t e = 0; e < group_width; ++e) out.Push(&Null());
        out.PushCells(row + col + 1, after);
        out.EndRow();
        continue;
      }
      for (const Tuple& g : nested.AsTable().rows()) {
        if (static_cast<int32_t>(g.size()) != group_width) {
          return Status::Internal("nested group row has the wrong arity");
        }
        out.PushCells(row, col);
        for (const Value& v : g) out.Push(&v);
        out.PushCells(row + col + 1, after);
        out.EndRow();
      }
    }
    return out;
  }

  /// Nests the non-key columns under each distinct key, in first-occurrence
  /// order. The only operator that builds tables mid-plan: its groups are
  /// values the plan derives.
  CellRelation GroupBy(const PlanNode& p, const CellRelation& in) {
    std::vector<bool> is_key(static_cast<size_t>(in.width()), false);
    for (int32_t k : p.group_key_cols) is_key[static_cast<size_t>(k)] = true;
    const std::shared_ptr<const Schema>& nested_schema =
        p.schema.column(p.schema.size() - 1).nested;

    CellRelation keys(static_cast<int32_t>(p.group_key_cols.size()));
    FirstOccurrences seen(&keys);
    std::vector<std::shared_ptr<Table>> groups;
    for (int64_t i = 0; i < in.NumRows(); ++i) {
      const Value* const* row = in.row(i);
      for (int32_t k : p.group_key_cols) keys.Push(row[k]);
      keys.EndRow();
      const auto g = static_cast<size_t>(seen.KeepFirst());
      if (g == groups.size()) {
        groups.push_back(std::make_shared<Table>(*nested_schema));
      }
      // A row whose non-key part is all ⊥ contributes an empty group (the
      // optional/nested combination of Figure 12).
      Tuple rest;
      bool all_null = true;
      for (int32_t c = 0; c < in.width(); ++c) {
        if (is_key[static_cast<size_t>(c)]) continue;
        rest.push_back(*row[c]);
        all_null = all_null && row[c]->IsNull();
      }
      if (!all_null) groups[g]->AddRow(std::move(rest));
    }

    CellRelation out(keys.width() + 1);
    for (size_t g = 0; g < groups.size(); ++g) {
      groups[g]->Deduplicate();
      out.PushCells(keys.row(static_cast<int64_t>(g)), keys.width());
      out.Push(Derived(Value(TablePtr(std::move(groups[g])))));
      out.EndRow();
    }
    return out;
  }

  /// navC: each row's content reference is looked up in the catalog's
  /// document, which must hold it; a row without matches keeps ⊥ padding.
  Result<CellRelation> Navigate(const PlanNode& p, const CellRelation& in) {
    const Document* doc = catalog_.document();
    CellRelation out(p.schema.size());
    FirstOccurrences seen(&out);
    const int32_t extra = out.width() - in.width();
    std::vector<NodeIndex> matches;
    for (int64_t i = 0; i < in.NumRows(); ++i) {
      const Value* const* row = in.row(i);
      const Value& v = *row[p.navigate_col];
      matches.clear();
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
        out.PushCells(row, in.width());
        for (int32_t e = 0; e < extra; ++e) out.Push(&Null());
        out.EndRow();
        seen.KeepFirst();
        continue;
      }
      for (NodeIndex m : matches) {
        out.PushCells(row, in.width());
        PushAttrValues(*doc, m, p.navigate_attrs, &out);
        out.EndRow();
        seen.KeepFirst();
      }
    }
    return out;
  }

  /// navfID: appends the id `derive_steps` levels above the row's id, or ⊥
  /// past the root.
  CellRelation DeriveParent(const PlanNode& p, const CellRelation& in) {
    CellRelation out(in.width() + 1);
    out.Reserve(in.NumRows());
    for (int64_t i = 0; i < in.NumRows(); ++i) {
      out.PushCells(in.row(i), in.width());
      const Value& v = in.cell(i, p.derive_col);
      const Value* derived = &Null();
      if (!v.IsNull()) {
        OrdPath anc = v.AsId().Ancestor(p.derive_steps);
        if (anc.IsValid()) derived = Derived(Value(std::move(anc)));
      }
      out.Push(derived);
      out.EndRow();
    }
    return out;
  }

  void PushAttrValues(const Document& doc, NodeIndex n, uint8_t attrs,
                      CellRelation* out) {
    if (attrs & kAttrId) out->Push(Derived(Value(doc.ord_path(n))));
    if (attrs & kAttrLabel) out->Push(Derived(Value(doc.label(n))));
    if (attrs & kAttrValue) {
      out->Push(doc.has_value(n)
                    ? Derived(Value(std::string(doc.value(n))))
                    : &Null());
    }
    if (attrs & kAttrContent) {
      out->Push(Derived(Value(NodeRef{doc.ord_path(n)})));
    }
  }

  /// Keeps a value the plan derived for the rest of the call.
  const Value* Derived(Value v) {
    arena_.push_back(std::move(v));
    return &arena_.back();
  }

  const Catalog& catalog_;
  std::vector<TablePtr> pins_;
  std::deque<Value> arena_;  // grows without moving what it holds
  int64_t rows_scanned_ = 0;
};

}  // namespace

Result<Table> Execute(const PlanNode& plan, const Catalog& catalog,
                      TraceSpan* trace) {
  Timer timer;
  Executor exec(catalog);
  Result<CellRelation> cells = exec.Run(plan, trace);
  Result<Table> out = cells.ok()
                          ? Result<Table>(Executor::Materialize(plan.schema,
                                                                *cells))
                          : Result<Table>(cells.status());
  metrics::ExecutorRuns()->Add(1);
  metrics::ExecutorRowsScanned()->Add(exec.rows_scanned());
  if (out.ok()) metrics::ExecutorRowsEmitted()->Add(out->NumRows());
  metrics::ExecutorLatencyUs()->Observe(
      static_cast<int64_t>(timer.ElapsedMicros()));
  return out;
}

}  // namespace svx
