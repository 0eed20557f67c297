#include "src/rewriting/view.h"

#include "src/util/strings.h"

namespace svx {

namespace {

std::string ColumnPrefix(const std::string& view_name, PatternNodeId n) {
  return StrFormat("%s.n%d", view_name.c_str(), n);
}

/// Appends the attribute columns of `n` itself.
void AppendOwnColumns(const Pattern& p, PatternNodeId n,
                      const std::string& view_name, Schema* schema) {
  const Pattern::Node& node = p.node(n);
  std::string prefix = ColumnPrefix(view_name, n);
  if (node.attrs & kAttrId) {
    schema->Append({prefix + ".id", ColumnKind::kId, nullptr});
  }
  if (node.attrs & kAttrLabel) {
    schema->Append({prefix + ".l", ColumnKind::kLabel, nullptr});
  }
  if (node.attrs & kAttrValue) {
    schema->Append({prefix + ".v", ColumnKind::kValue, nullptr});
  }
  if (node.attrs & kAttrContent) {
    schema->Append({prefix + ".c", ColumnKind::kContent, nullptr});
  }
}

/// Schema of the pattern subtree rooted at `n` (own attrs, then children;
/// nested children collapse into one nested column).
Schema SubtreeSchema(const Pattern& p, PatternNodeId n,
                     const std::string& view_name) {
  Schema schema;
  AppendOwnColumns(p, n, view_name, &schema);
  for (PatternNodeId m : p.node(n).children) {
    Schema child = SubtreeSchema(p, m, view_name);
    if (p.node(m).nested) {
      schema.Append({ColumnPrefix(view_name, m) + ".g", ColumnKind::kNested,
                     std::make_shared<Schema>(std::move(child))});
    } else {
      for (const ColumnSpec& c : child.columns()) schema.Append(c);
    }
  }
  return schema;
}

}  // namespace

bool PatternNodeMatches(const Pattern& p, PatternNodeId pn,
                        const Document& doc, NodeIndex dn) {
  const Pattern::Node& node = p.node(pn);
  if (!node.IsWildcard() && doc.label(dn) != node.label) return false;
  if (node.pred.IsTrue()) return true;
  return doc.has_value(dn) && node.pred.ContainsValue(doc.value(dn));
}

std::vector<NodeIndex> PatternCandidates(const Pattern& p, PatternNodeId pn,
                                         const Document& doc, NodeIndex dn) {
  const Pattern::Node& node = p.node(pn);
  std::vector<NodeIndex> out;
  if (node.axis == Axis::kChild) {
    for (NodeIndex c = doc.first_child(dn); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      if (PatternNodeMatches(p, pn, doc, c)) out.push_back(c);
    }
  } else {
    for (NodeIndex c = dn + 1; c < doc.subtree_end(dn); ++c) {
      if (PatternNodeMatches(p, pn, doc, c)) out.push_back(c);
    }
  }
  return out;
}

Tuple PatternOwnValues(const Pattern& p, PatternNodeId pn,
                       const Document& doc, NodeIndex dn) {
  const Pattern::Node& node = p.node(pn);
  Tuple out;
  if (node.attrs & kAttrId) out.emplace_back(doc.ord_path(dn));
  if (node.attrs & kAttrLabel) out.emplace_back(doc.label(dn));
  if (node.attrs & kAttrValue) {
    if (doc.has_value(dn)) {
      out.emplace_back(doc.value(dn));
    } else {
      out.emplace_back();
    }
  }
  if (node.attrs & kAttrContent) out.emplace_back(NodeRef{doc.ord_path(dn)});
  return out;
}

int32_t PatternSubtreeWidth(const Pattern& p, PatternNodeId n) {
  const Pattern::Node& node = p.node(n);
  int32_t w = __builtin_popcount(node.attrs);
  for (PatternNodeId m : node.children) {
    w += p.node(m).nested ? 1 : PatternSubtreeWidth(p, m);
  }
  return w;
}

std::vector<Tuple> MaterializeSubtreeRows(const Pattern& p, PatternNodeId pn,
                                          const std::string& view_name,
                                          const Document& doc, NodeIndex dn) {
  std::vector<Tuple> rows{PatternOwnValues(p, pn, doc, dn)};
  for (PatternNodeId m : p.node(pn).children) {
    const Pattern::Node& child = p.node(m);
    std::vector<Tuple> sub;
    for (NodeIndex cand : PatternCandidates(p, m, doc, dn)) {
      std::vector<Tuple> s = MaterializeSubtreeRows(p, m, view_name, doc,
                                                    cand);
      sub.insert(sub.end(), std::make_move_iterator(s.begin()),
                 std::make_move_iterator(s.end()));
    }
    if (child.nested) {
      // One nested-table value groups all bindings (possibly none —
      // Figure 12 keeps empty tables). Canonically ordered so equal groups
      // serialize identically regardless of how they were produced.
      Schema nested_schema = SubtreeSchema(p, m, view_name);
      auto nested = std::make_shared<Table>(nested_schema);
      for (Tuple& t : sub) nested->AddRow(std::move(t));
      nested->Deduplicate();
      nested->SortRowsCanonical();
      Value v{TablePtr(nested)};
      for (Tuple& r : rows) r.push_back(v);
      continue;
    }
    if (sub.empty()) {
      if (!child.optional) return {};
      // ⊥-padding (§4.3).
      sub.emplace_back(static_cast<size_t>(PatternSubtreeWidth(p, m)));
    }
    // Cartesian combination.
    std::vector<Tuple> combined;
    combined.reserve(rows.size() * sub.size());
    for (const Tuple& a : rows) {
      for (const Tuple& b : sub) {
        Tuple r = a;
        r.insert(r.end(), b.begin(), b.end());
        combined.push_back(std::move(r));
      }
    }
    rows = std::move(combined);
  }
  return rows;
}

bool PatternSubtreeYieldsNothing(const Pattern& p, PatternNodeId pn,
                                 const Document& doc, NodeIndex dn) {
  // The subtree yields a row iff every non-optional, non-nested child has a
  // candidate yielding a row (nested children always contribute a group,
  // optional children pad). So pn bound to dn yields nothing iff some
  // mandatory child has only barren candidates.
  for (PatternNodeId m : p.node(pn).children) {
    const Pattern::Node& child = p.node(m);
    if (child.optional || child.nested) continue;
    bool any = false;
    for (NodeIndex cand : PatternCandidates(p, m, doc, dn)) {
      if (!PatternSubtreeYieldsNothing(p, m, doc, cand)) {
        any = true;
        break;
      }
    }
    if (!any) return true;
  }
  return false;
}

Schema ViewSchema(const Pattern& pattern, const std::string& view_name) {
  return SubtreeSchema(pattern, pattern.root(), view_name);
}

Schema ViewSubtreeSchema(const Pattern& pattern, PatternNodeId n,
                         const std::string& view_name) {
  return SubtreeSchema(pattern, n, view_name);
}

Table MaterializeView(const Pattern& pattern, const std::string& view_name,
                      const Document& doc) {
  Schema schema = SubtreeSchema(pattern, pattern.root(), view_name);
  Table out(schema);
  if (doc.size() > 0 &&
      PatternNodeMatches(pattern, pattern.root(), doc, doc.root())) {
    for (Tuple& row : MaterializeSubtreeRows(pattern, pattern.root(),
                                             view_name, doc, doc.root())) {
      out.AddRow(std::move(row));
    }
  }
  out.Deduplicate();
  return out;
}

std::vector<MaterializedView> MaterializeAll(const std::vector<ViewDef>& defs,
                                             const Document& doc) {
  std::vector<MaterializedView> out;
  out.reserve(defs.size());
  for (const ViewDef& def : defs) {
    out.push_back(
        {def, MaterializeView(def.pattern, def.name, doc)});
  }
  return out;
}

}  // namespace svx
