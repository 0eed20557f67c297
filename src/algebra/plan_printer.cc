#include "src/algebra/plan_printer.h"

#include "src/util/strings.h"

namespace svx {

namespace {

std::string NodeLabel(const PlanNode& p) {
  switch (p.kind) {
    case PlanKind::kViewScan:
      return "scan(" + p.view_name + ")";
    case PlanKind::kIdEqJoin:
      return StrFormat("⋈= [%s = %s]",
                       p.children[0]->schema.column(p.left_col).name.c_str(),
                       p.children[1]->schema.column(p.right_col).name.c_str());
    case PlanKind::kStructJoin: {
      const char* axis = p.struct_axis == StructAxis::kParent ? "≺" : "≺≺";
      return StrFormat("⋈%s [%s, %s]", axis,
                       p.children[0]->schema.column(p.left_col).name.c_str(),
                       p.children[1]->schema.column(p.right_col).name.c_str());
    }
    case PlanKind::kSelect:
      switch (p.select_kind) {
        case SelectKind::kNonNull:
          return StrFormat("σ [%s ≠ ⊥]",
                           p.schema.column(p.select_col).name.c_str());
        case SelectKind::kLabelEq:
          return StrFormat("σ [%s = '%s']",
                           p.schema.column(p.select_col).name.c_str(),
                           p.select_label.c_str());
        case SelectKind::kValuePred:
          return StrFormat("σ [%s: %s]",
                           p.schema.column(p.select_col).name.c_str(),
                           p.select_pred.ToString().c_str());
      }
      return "σ";
    case PlanKind::kProject: {
      std::string cols;
      for (size_t i = 0; i < p.project_cols.size(); ++i) {
        if (i > 0) cols += ", ";
        cols += p.schema.column(static_cast<int32_t>(i)).name;
      }
      return "π [" + cols + "]";
    }
    case PlanKind::kUnion:
      return "∪";
    case PlanKind::kUnnest:
      return StrFormat(
          "unnest [%s]",
          p.children[0]->schema.column(p.unnest_col).name.c_str());
    case PlanKind::kGroupBy:
      return StrFormat("groupby → %s", p.group_col_name.c_str());
    case PlanKind::kNavigate: {
      std::string path;
      for (const NavStep& s : p.navigate_steps) {
        path += s.axis == Axis::kChild ? "/" : "//";
        path += s.label;
      }
      return StrFormat(
          "navC [%s%s]",
          p.children[0]->schema.column(p.navigate_col).name.c_str(),
          path.c_str());
    }
    case PlanKind::kDeriveParent:
      return StrFormat("navfID [%s ↑%d → %s]",
                       p.children[0]->schema.column(p.derive_col).name.c_str(),
                       p.derive_steps, p.derive_name.c_str());
  }
  return "?";
}

void Render(const PlanNode& p, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(NodeLabel(p));
  out->push_back('\n');
  for (const PlanPtr& c : p.children) Render(*c, depth + 1, out);
}

void RenderCompact(const PlanNode& p, std::string* out) {
  switch (p.kind) {
    case PlanKind::kViewScan:
      out->append(p.view_name);
      return;
    case PlanKind::kIdEqJoin:
    case PlanKind::kStructJoin: {
      out->push_back('(');
      RenderCompact(*p.children[0], out);
      if (p.kind == PlanKind::kIdEqJoin) {
        out->append(" ⋈= ");
      } else {
        out->append(p.struct_axis == StructAxis::kParent ? " ⋈≺ " : " ⋈≺≺ ");
      }
      RenderCompact(*p.children[1], out);
      out->push_back(')');
      return;
    }
    case PlanKind::kUnion: {
      out->push_back('(');
      for (size_t i = 0; i < p.children.size(); ++i) {
        if (i > 0) out->append(" ∪ ");
        RenderCompact(*p.children[i], out);
      }
      out->push_back(')');
      return;
    }
    default:
      out->append(PlanKindName(p.kind));
      out->push_back('(');
      for (size_t i = 0; i < p.children.size(); ++i) {
        if (i > 0) out->append(", ");
        RenderCompact(*p.children[i], out);
      }
      out->push_back(')');
      return;
  }
}

}  // namespace

std::string PlanToString(const PlanNode& plan) {
  std::string out;
  Render(plan, 0, &out);
  return out;
}

std::string PlanToCompactString(const PlanNode& plan) {
  std::string out;
  RenderCompact(plan, &out);
  return out;
}

}  // namespace svx
