#include "src/algebra/plan.h"

namespace svx {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kViewScan:
      return "scan";
    case PlanKind::kIdEqJoin:
      return "join=";
    case PlanKind::kStructJoin:
      return "sjoin";
    case PlanKind::kSelect:
      return "select";
    case PlanKind::kProject:
      return "project";
    case PlanKind::kUnion:
      return "union";
    case PlanKind::kUnnest:
      return "unnest";
    case PlanKind::kGroupBy:
      return "groupby";
    case PlanKind::kNavigate:
      return "navC";
    case PlanKind::kDeriveParent:
      return "navfID";
  }
  return "?";
}

namespace {

Schema ConcatSchemas(const Schema& a, const Schema& b) {
  Schema out = a;
  for (const ColumnSpec& c : b.columns()) out.Append(c);
  return out;
}

void AppendAttrColumns(Schema* schema, const std::string& prefix,
                       uint8_t attrs) {
  if (attrs & kAttrId) {
    schema->Append({prefix + ".id", ColumnKind::kId, nullptr});
  }
  if (attrs & kAttrLabel) {
    schema->Append({prefix + ".l", ColumnKind::kLabel, nullptr});
  }
  if (attrs & kAttrValue) {
    schema->Append({prefix + ".v", ColumnKind::kValue, nullptr});
  }
  if (attrs & kAttrContent) {
    schema->Append({prefix + ".c", ColumnKind::kContent, nullptr});
  }
}

}  // namespace

PlanPtr MakeViewScan(const std::string& view_name, Schema schema) {
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kViewScan;
  p->view_name = view_name;
  p->schema = std::move(schema);
  return p;
}

PlanPtr MakeIdEqJoin(PlanPtr left, PlanPtr right, int32_t left_col,
                     int32_t right_col) {
  SVX_CHECK(left->schema.column(left_col).kind == ColumnKind::kId);
  SVX_CHECK(right->schema.column(right_col).kind == ColumnKind::kId);
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kIdEqJoin;
  p->schema = ConcatSchemas(left->schema, right->schema);
  p->left_col = left_col;
  p->right_col = right_col;
  p->children.push_back(std::move(left));
  p->children.push_back(std::move(right));
  return p;
}

PlanPtr MakeStructJoin(PlanPtr left, PlanPtr right, int32_t left_col,
                       int32_t right_col, StructAxis axis) {
  SVX_CHECK(left->schema.column(left_col).kind == ColumnKind::kId);
  SVX_CHECK(right->schema.column(right_col).kind == ColumnKind::kId);
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kStructJoin;
  p->schema = ConcatSchemas(left->schema, right->schema);
  p->left_col = left_col;
  p->right_col = right_col;
  p->struct_axis = axis;
  p->children.push_back(std::move(left));
  p->children.push_back(std::move(right));
  return p;
}

namespace {
PlanPtr MakeSelect(PlanPtr input, SelectKind kind, int32_t col,
                   std::string label, Predicate pred) {
  SVX_CHECK(col >= 0 && col < input->schema.size());
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kSelect;
  p->schema = input->schema;
  p->select_kind = kind;
  p->select_col = col;
  p->select_label = std::move(label);
  p->select_pred = std::move(pred);
  p->children.push_back(std::move(input));
  return p;
}
}  // namespace

PlanPtr MakeSelectNonNull(PlanPtr input, int32_t col) {
  return MakeSelect(std::move(input), SelectKind::kNonNull, col, "",
                    Predicate::True());
}

PlanPtr MakeSelectLabel(PlanPtr input, int32_t col, const std::string& label) {
  SVX_CHECK(input->schema.column(col).kind == ColumnKind::kLabel);
  return MakeSelect(std::move(input), SelectKind::kLabelEq, col, label,
                    Predicate::True());
}

PlanPtr MakeSelectValue(PlanPtr input, int32_t col, Predicate pred) {
  return MakeSelect(std::move(input), SelectKind::kValuePred, col, "",
                    std::move(pred));
}

PlanPtr MakeProject(PlanPtr input, std::vector<int32_t> cols) {
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kProject;
  for (int32_t c : cols) p->schema.Append(input->schema.column(c));
  p->project_cols = std::move(cols);
  p->children.push_back(std::move(input));
  return p;
}

PlanPtr MakeUnion(std::vector<PlanPtr> inputs) {
  SVX_CHECK(!inputs.empty());
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kUnion;
  p->schema = inputs[0]->schema;
  for (size_t i = 1; i < inputs.size(); ++i) {
    SVX_CHECK_MSG(inputs[i]->schema.size() == p->schema.size(),
                  "union inputs must have equal arity");
  }
  p->children = std::move(inputs);
  return p;
}

PlanPtr MakeOuterUnnest(PlanPtr input, int32_t col) {
  SVX_CHECK(input->schema.column(col).kind == ColumnKind::kNested);
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kUnnest;
  const Schema& in = input->schema;
  for (int32_t i = 0; i < in.size(); ++i) {
    if (i == col) {
      for (const ColumnSpec& c : in.column(col).nested->columns()) {
        p->schema.Append(c);
      }
    } else {
      p->schema.Append(in.column(i));
    }
  }
  p->unnest_col = col;
  p->children.push_back(std::move(input));
  return p;
}

PlanPtr MakeGroupBy(PlanPtr input, std::vector<int32_t> key_cols,
                    const std::string& group_col_name) {
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kGroupBy;
  const Schema& in = input->schema;
  auto nested = std::make_shared<Schema>();
  std::vector<bool> is_key(static_cast<size_t>(in.size()), false);
  for (int32_t k : key_cols) is_key[static_cast<size_t>(k)] = true;
  for (int32_t k : key_cols) p->schema.Append(in.column(k));
  for (int32_t i = 0; i < in.size(); ++i) {
    if (!is_key[static_cast<size_t>(i)]) nested->Append(in.column(i));
  }
  p->schema.Append({group_col_name, ColumnKind::kNested, nested});
  p->group_key_cols = std::move(key_cols);
  p->group_col_name = group_col_name;
  p->children.push_back(std::move(input));
  return p;
}

PlanPtr MakeNavigate(PlanPtr input, int32_t content_col,
                     std::vector<NavStep> steps, uint8_t attrs,
                     const std::string& name) {
  SVX_CHECK(input->schema.column(content_col).kind == ColumnKind::kContent);
  SVX_CHECK(attrs != 0);
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kNavigate;
  p->schema = input->schema;
  AppendAttrColumns(&p->schema, name, attrs);
  p->navigate_col = content_col;
  p->navigate_steps = std::move(steps);
  p->navigate_attrs = attrs;
  p->navigate_name = name;
  p->children.push_back(std::move(input));
  return p;
}

PlanPtr MakeDeriveParent(PlanPtr input, int32_t id_col, int32_t steps,
                         const std::string& name) {
  SVX_CHECK(input->schema.column(id_col).kind == ColumnKind::kId);
  SVX_CHECK(steps >= 1);
  auto p = std::make_shared<PlanNode>();
  p->kind = PlanKind::kDeriveParent;
  p->schema = input->schema;
  p->schema.Append({name, ColumnKind::kId, nullptr});
  p->derive_col = id_col;
  p->derive_steps = steps;
  p->derive_name = name;
  p->children.push_back(std::move(input));
  return p;
}

}  // namespace svx
