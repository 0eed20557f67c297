#include "src/maintenance/delta_evaluator.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/rewriting/view.h"
#include "src/viewstore/extent_io.h"

namespace svx {

namespace {

/// Stable deep cell encoding of a whole tuple: the multiset/set identity
/// used throughout maintenance.
std::string TupleKey(const Tuple& t) { return EncodeTupleKey(t); }

std::string ValueKey(const Value& v) {
  std::string key;
  EncodeValue(v, &key);
  return key;
}

/// Removes encoding-identical pairs from the two multisets (no-op deltas
/// that would otherwise churn the extent).
void CancelCommon(std::vector<Tuple>* removed, std::vector<Tuple>* added) {
  if (removed->empty() || added->empty()) return;
  std::unordered_map<std::string, int64_t> counts;
  for (const Tuple& t : *removed) ++counts[TupleKey(t)];
  std::vector<Tuple> kept_added;
  for (Tuple& t : *added) {
    auto it = counts.find(TupleKey(t));
    if (it != counts.end() && it->second > 0) {
      --it->second;  // cancelled against one removed copy
      continue;
    }
    kept_added.push_back(std::move(t));
  }
  // `counts` now holds the multiplicity of removed copies that survived.
  std::vector<Tuple> kept_removed;
  for (Tuple& t : *removed) {
    auto it = counts.find(TupleKey(t));
    if (it->second > 0) {
      --it->second;
      kept_removed.push_back(std::move(t));
    }
  }
  *removed = std::move(kept_removed);
  *added = std::move(kept_added);
}

/// The §4.3 ⊥-padding condition: no candidate of `m` under `dn` yields rows.
bool SubYieldsNothing(const Pattern& p, PatternNodeId m, const Document& doc,
                      NodeIndex dn) {
  for (NodeIndex cand : PatternCandidates(p, m, doc, dn)) {
    if (!PatternSubtreeYieldsNothing(p, m, doc, cand)) return false;
  }
  return true;
}

/// The nested-table value of nested child `m` under binding `dn`
/// (deduplicated, canonically ordered — the extent-at-rest form).
Value GroupValue(const Pattern& p, const std::string& view_name,
                 PatternNodeId m, const Document& doc, NodeIndex dn) {
  auto nested = std::make_shared<Table>(ViewSubtreeSchema(p, m, view_name));
  for (NodeIndex cand : PatternCandidates(p, m, doc, dn)) {
    for (Tuple& t : MaterializeSubtreeRows(p, m, view_name, doc, cand)) {
      nested->AddRow(std::move(t));
    }
  }
  nested->Deduplicate();
  nested->SortRowsCanonical();
  return Value(TablePtr(std::move(nested)));
}

/// Tuple-constrained derivability search (see CanDeriveTuple). Bindings
/// with an ID attribute are pinned via FindByOrdPath; everything else
/// backtracks over the candidate sets.
class Deriver {
 public:
  Deriver(const Pattern& p, const std::string& view_name, const Document& doc)
      : p_(p), view_name_(view_name), doc_(doc) {}

  bool Derive(const Tuple& t) {
    if (doc_.size() == 0) return false;
    if (!PatternNodeMatches(p_, p_.root(), doc_, doc_.root())) return false;
    if (static_cast<int32_t>(t.size()) !=
        PatternSubtreeWidth(p_, p_.root())) {
      return false;
    }
    return DeriveSub(p_.root(), doc_.root(), t, 0);
  }

 private:
  /// True iff MatchSub(pn, dn) can contain exactly cells [pos, pos+width).
  bool DeriveSub(PatternNodeId pn, NodeIndex dn, const Tuple& t, size_t pos) {
    Tuple own = PatternOwnValues(p_, pn, doc_, dn);
    for (const Value& v : own) {
      if (ValueKey(v) != ValueKey(t[pos])) return false;
      ++pos;
    }
    for (PatternNodeId m : p_.node(pn).children) {
      const Pattern::Node& child = p_.node(m);
      if (child.nested) {
        const Value& cell = t[pos];
        if (!cell.IsTable()) return false;
        Value group = GroupValue(p_, view_name_, m, doc_, dn);
        if (ValueKey(group) != ValueKey(cell)) return false;
        ++pos;
        continue;
      }
      size_t w = static_cast<size_t>(PatternSubtreeWidth(p_, m));
      bool ok = false;
      if ((child.attrs & kAttrId) && t[pos].IsId()) {
        // The subtree's first cell is m's own ID: the binding is pinned.
        NodeIndex cand = doc_.FindByOrdPath(t[pos].AsId());
        if (cand != kInvalidNode && AxisHolds(child.axis, dn, cand) &&
            PatternNodeMatches(p_, m, doc_, cand)) {
          ok = DeriveSub(m, cand, t, pos);
        }
      } else {
        for (NodeIndex cand : PatternCandidates(p_, m, doc_, dn)) {
          if (DeriveSub(m, cand, t, pos)) {
            ok = true;
            break;
          }
        }
      }
      if (!ok && child.optional && AllNull(t, pos, w)) {
        ok = SubYieldsNothing(p_, m, doc_, dn);
      }
      if (!ok) return false;
      pos += w;
    }
    return true;
  }

  bool AxisHolds(Axis axis, NodeIndex parent_binding, NodeIndex cand) const {
    if (axis == Axis::kChild) return doc_.parent(cand) == parent_binding;
    return doc_.IsAncestor(parent_binding, cand);
  }

  static bool AllNull(const Tuple& t, size_t pos, size_t w) {
    for (size_t i = 0; i < w; ++i) {
      if (!t[pos + i].IsNull()) return false;
    }
    return true;
  }

  const Pattern& p_;
  const std::string& view_name_;
  const Document& doc_;
};

/// The spine-walking diff evaluator (see header comment).
class DeltaEvaluator {
 public:
  struct Diff {
    std::vector<Tuple> removed, added;
    bool Empty() const { return removed.empty() && added.empty(); }
  };

  DeltaEvaluator(const Pattern& p, const std::string& view_name,
                 const DocumentDelta& delta)
      : p_(p),
        view_name_(view_name),
        delta_(delta),
        old_doc_(*delta.old_doc),
        new_doc_(*delta.new_doc) {}

  /// Resolves the spine in both documents; false if the update shape does
  /// not admit incremental evaluation (caller rematerializes).
  bool Init() {
    const OrdPath& region = delta_.region;
    if (!region.IsValid() || region.Depth() < 2) return false;
    int32_t levels = region.Depth() - 1;
    for (int32_t i = 0; i < levels; ++i) {
      OrdPath id = region.Ancestor(levels - i);
      NodeIndex o = old_doc_.FindByOrdPath(id);
      NodeIndex n = new_doc_.FindByOrdPath(id);
      if (o == kInvalidNode || n == kInvalidNode) return false;
      spine_old_.push_back(o);
      spine_new_.push_back(n);
    }
    region_root_ = RegionDoc().FindByOrdPath(region);
    return region_root_ != kInvalidNode;
  }

  Diff Root() {
    if (old_doc_.size() == 0 || new_doc_.size() == 0) return {};
    // The pattern root binds the document root only; the root survives
    // every update unchanged, so matching is version-independent.
    if (!PatternNodeMatches(p_, p_.root(), old_doc_, old_doc_.root())) {
      return {};
    }
    return DiffAtSpine(p_.root(), 0);
  }

 private:
  bool IsInsert() const { return delta_.kind == DocumentDelta::Kind::kInsert; }

  /// The document the updated region exists in.
  const Document& RegionDoc() const { return IsInsert() ? new_doc_ : old_doc_; }

  /// Diff of MatchSub(pn, spine[d]) between the old and new document.
  Diff DiffAtSpine(PatternNodeId pn, int32_t d) {
    int64_t key = (static_cast<int64_t>(pn) << 32) | d;
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    Diff out = DiffAtSpineUncached(pn, d);
    memo_.emplace(key, out);
    return out;
  }

  Diff DiffAtSpineUncached(PatternNodeId pn, int32_t d) {
    const std::vector<PatternNodeId>& children = p_.node(pn).children;
    NodeIndex s_old = spine_old_[static_cast<size_t>(d)];
    NodeIndex s_new = spine_new_[static_cast<size_t>(d)];

    // Per-child factor diffs of the §4 product at this binding.
    struct Factor {
      std::vector<Tuple> removed, added;
      bool changed = false;
    };
    std::vector<Factor> factors(children.size());
    size_t nchanged = 0;
    for (size_t i = 0; i < children.size(); ++i) {
      PatternNodeId m = children[i];
      const Pattern::Node& child = p_.node(m);
      Diff hot = HotChildDiff(m, d);
      if (hot.Empty()) continue;
      Factor& f = factors[i];
      if (child.nested) {
        // The group aggregates hot and cold contributions; re-aggregate.
        Value g_old = GroupValue(p_, view_name_, m, old_doc_, s_old);
        Value g_new = GroupValue(p_, view_name_, m, new_doc_, s_new);
        if (ValueKey(g_old) != ValueKey(g_new)) {
          f.changed = true;
          f.removed.push_back(Tuple{std::move(g_old)});
          f.added.push_back(Tuple{std::move(g_new)});
        }
      } else {
        // Re-check the ⊥-padding condition on both sides; the hot diff
        // alone cannot tell whether the whole (hot + cold) sub is empty.
        bool old_pad =
            child.optional && SubYieldsNothing(p_, m, old_doc_, s_old);
        bool new_pad =
            child.optional && SubYieldsNothing(p_, m, new_doc_, s_new);
        if (old_pad && new_pad) continue;
        f.removed = old_pad ? PadRows(m) : std::move(hot.removed);
        f.added = new_pad ? PadRows(m) : std::move(hot.added);
        CancelCommon(&f.removed, &f.added);
        f.changed = !f.removed.empty() || !f.added.empty();
      }
      if (f.changed) ++nchanged;
    }
    Diff out;
    if (nchanged == 0) return out;

    // Telescoped product: rewrite one factor at a time, old → new. Step j
    // contributes  own × Π_{i<j} new_i × (factor-j diff) × Π_{i>j} old_i.
    // Unchanged factors are encoding-identical across versions, so one
    // evaluation (on the new document) serves both sides.
    Tuple own = PatternOwnValues(p_, pn, new_doc_, s_new);
    std::vector<std::optional<std::vector<Tuple>>> full_new(children.size());
    std::vector<std::optional<std::vector<Tuple>>> full_old(children.size());
    auto FullNew = [&](size_t i) -> const std::vector<Tuple>& {
      if (!full_new[i]) {
        full_new[i] = FullFactor(new_doc_, children[i], s_new);
      }
      return *full_new[i];
    };
    auto FullOld = [&](size_t i) -> const std::vector<Tuple>& {
      if (!factors[i].changed) return FullNew(i);
      if (!full_old[i]) {
        full_old[i] = FullFactor(old_doc_, children[i], s_old);
      }
      return *full_old[i];
    };
    for (size_t j = 0; j < children.size(); ++j) {
      if (!factors[j].changed) continue;
      std::vector<const std::vector<Tuple>*> lists(children.size());
      for (size_t i = 0; i < j; ++i) lists[i] = &FullNew(i);
      for (size_t i = j + 1; i < children.size(); ++i) lists[i] = &FullOld(i);
      lists[j] = &factors[j].removed;
      AppendProduct(own, lists, &out.removed);
      lists[j] = &factors[j].added;
      AppendProduct(own, lists, &out.added);
    }
    CancelCommon(&out.removed, &out.added);
    return out;
  }

  /// Diff of child `m`'s combined sub-result under spine[d], restricted to
  /// hot candidates: deeper spine nodes (recursed) and region nodes (fully
  /// evaluated — they exist in only one document version).
  Diff HotChildDiff(PatternNodeId m, int32_t d) {
    Diff out;
    const Pattern::Node& child = p_.node(m);
    int32_t last = static_cast<int32_t>(spine_old_.size()) - 1;
    if (child.axis == Axis::kChild) {
      if (d + 1 <= last && SpineMatches(m, d + 1)) {
        Merge(&out, DiffAtSpine(m, d + 1));
      }
      if (d == last) MergeRegion(&out, RegionRows(m, /*root_only=*/true));
    } else {
      for (int32_t e = d + 1; e <= last; ++e) {
        if (SpineMatches(m, e)) Merge(&out, DiffAtSpine(m, e));
      }
      MergeRegion(&out, RegionRows(m, /*root_only=*/false));
    }
    return out;
  }

  /// Pattern-node match of a spine node (identical in both versions).
  bool SpineMatches(PatternNodeId m, int32_t e) {
    return PatternNodeMatches(p_, m, old_doc_,
                              spine_old_[static_cast<size_t>(e)]);
  }

  static void Merge(Diff* out, Diff in) {
    std::move(in.removed.begin(), in.removed.end(),
              std::back_inserter(out->removed));
    std::move(in.added.begin(), in.added.end(),
              std::back_inserter(out->added));
  }

  /// Region contributions are pure adds (insert) or pure removes (delete).
  void MergeRegion(Diff* out, const std::vector<Tuple>& rows) {
    std::vector<Tuple>& dst = IsInsert() ? out->added : out->removed;
    dst.insert(dst.end(), rows.begin(), rows.end());
  }

  /// Rows of `m` bound inside the region (memoized): all matching region
  /// nodes for the descendant axis, just the region root for the child
  /// axis (deeper region nodes are not children of the spine).
  const std::vector<Tuple>& RegionRows(PatternNodeId m, bool root_only) {
    auto& cache = root_only ? region_root_rows_ : region_rows_;
    auto it = cache.find(m);
    if (it != cache.end()) return it->second;
    const Document& doc = RegionDoc();
    std::vector<Tuple> rows;
    NodeIndex end =
        root_only ? region_root_ + 1 : doc.subtree_end(region_root_);
    for (NodeIndex x = region_root_; x < end; ++x) {
      if (!PatternNodeMatches(p_, m, doc, x)) continue;
      std::vector<Tuple> s = MaterializeSubtreeRows(p_, m, view_name_, doc, x);
      std::move(s.begin(), s.end(), std::back_inserter(rows));
    }
    return cache.emplace(m, std::move(rows)).first->second;
  }

  /// One all-⊥ row of the child's width (the §4.3 padding row).
  std::vector<Tuple> PadRows(PatternNodeId m) const {
    return {Tuple(static_cast<size_t>(PatternSubtreeWidth(p_, m)))};
  }

  /// The full (hot + cold) factor rows of child `m` under a spine binding,
  /// in one document version — the cross terms of the telescoped product.
  std::vector<Tuple> FullFactor(const Document& doc, PatternNodeId m,
                                NodeIndex dn) {
    const Pattern::Node& child = p_.node(m);
    if (child.nested) return {Tuple{GroupValue(p_, view_name_, m, doc, dn)}};
    std::vector<Tuple> sub;
    for (NodeIndex cand : PatternCandidates(p_, m, doc, dn)) {
      std::vector<Tuple> s = MaterializeSubtreeRows(p_, m, view_name_, doc,
                                                    cand);
      std::move(s.begin(), s.end(), std::back_inserter(sub));
    }
    if (sub.empty() && child.optional) return PadRows(m);
    return sub;
  }

  static void AppendProduct(const Tuple& own,
                            const std::vector<const std::vector<Tuple>*>& lists,
                            std::vector<Tuple>* out) {
    for (const std::vector<Tuple>* l : lists) {
      if (l->empty()) return;  // an empty factor annihilates the product
    }
    std::vector<size_t> idx(lists.size(), 0);
    while (true) {
      Tuple row = own;
      for (size_t i = 0; i < lists.size(); ++i) {
        const Tuple& part = (*lists[i])[idx[i]];
        row.insert(row.end(), part.begin(), part.end());
      }
      out->push_back(std::move(row));
      size_t k = lists.size();
      bool done = true;
      while (k-- > 0) {
        if (++idx[k] < lists[k]->size()) {
          done = false;
          break;
        }
        idx[k] = 0;
      }
      if (done) return;
    }
  }

  const Pattern& p_;
  const std::string& view_name_;
  const DocumentDelta& delta_;
  const Document& old_doc_;
  const Document& new_doc_;
  std::vector<NodeIndex> spine_old_, spine_new_;  // depths 1..|region|-1
  NodeIndex region_root_ = kInvalidNode;          // in RegionDoc()
  std::unordered_map<int64_t, Diff> memo_;        // (pn, spine depth)
  std::unordered_map<PatternNodeId, std::vector<Tuple>> region_rows_;
  std::unordered_map<PatternNodeId, std::vector<Tuple>> region_root_rows_;
};

}  // namespace

bool CanDeriveTuple(const Pattern& pattern, const std::string& view_name,
                    const Document& doc, const Tuple& tuple) {
  return Deriver(pattern, view_name, doc).Derive(tuple);
}

TableDelta ComputeViewDelta(const Pattern& pattern,
                            const std::string& view_name,
                            const Table& old_extent,
                            const DocumentDelta& delta) {
  TableDelta td;
  if (delta.old_doc == nullptr || delta.new_doc == nullptr) {
    td.full_rebuild = true;
    return td;
  }
  DeltaEvaluator eval(pattern, view_name, delta);
  if (!eval.Init()) {
    td.full_rebuild = true;
    return td;
  }
  DeltaEvaluator::Diff diff = eval.Root();
  if (diff.Empty()) return td;

  std::unordered_map<std::string, int64_t> old_keys;  // key → row index
  for (int64_t i = 0; i < old_extent.NumRows(); ++i) {
    old_keys.emplace(TupleKey(old_extent.row(i)), i);
  }

  // Deduplicate candidates by encoding; the diff lists are multisets.
  std::unordered_set<std::string> removed_keys;
  std::vector<std::pair<std::string, Tuple>> removed_unique;
  for (Tuple& t : diff.removed) {
    std::string k = TupleKey(t);
    if (removed_keys.insert(k).second) {
      removed_unique.emplace_back(std::move(k), std::move(t));
    }
  }

  // Inserts: new tuples not already present. A tuple also appearing on the
  // removed side has ambiguous net multiplicity — settle by derivability.
  std::unordered_set<std::string> added_seen;
  for (Tuple& t : diff.added) {
    std::string k = TupleKey(t);
    if (!added_seen.insert(k).second) continue;
    if (old_keys.count(k) != 0) continue;  // already stored, stays
    if (removed_keys.count(k) != 0 &&
        !CanDeriveTuple(pattern, view_name, *delta.new_doc, t)) {
      continue;
    }
    td.inserts.push_back(std::move(t));
  }

  // Deletes: stored tuples whose region-using derivations vanished — but a
  // derivation outside the region may still justify them (set semantics),
  // so emit only tuples no longer derivable at all.
  for (auto& [key, t] : removed_unique) {
    auto it = old_keys.find(key);
    if (it == old_keys.end()) continue;
    if (CanDeriveTuple(pattern, view_name, *delta.new_doc, t)) continue;
    td.delete_rows.push_back(it->second);
    td.deletes.push_back(std::move(t));
  }
  std::sort(td.delete_rows.begin(), td.delete_rows.end());
  return td;
}

}  // namespace svx
