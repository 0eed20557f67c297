// Shared by the rewriting benches: the paper's §5 view mix — one 2-node
// base pattern per distinct summary tag, storing ID and V ("to ensure some
// rewritings exist"), plus random 3-node views.
#ifndef SVX_BENCH_BASE_VIEWS_H_
#define SVX_BENCH_BASE_VIEWS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/pattern/pattern_parser.h"
#include "src/rewriting/view.h"
#include "src/summary/summary.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workload/pattern_generator.h"

namespace svx {

inline std::vector<ViewDef> BuildBaseTagViews(const Summary& summary) {
  std::vector<ViewDef> views;
  std::vector<std::string> tags;
  for (PathId s = 1; s < summary.size(); ++s) {
    tags.push_back(summary.label(s));
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  int i = 0;
  for (const std::string& tag : tags) {
    views.push_back(
        {StrFormat("B%d_%s", i++, tag.c_str()),
         MustParsePattern(StrFormat("%s(//%s{id,v})",
                                    summary.label(summary.root()).c_str(),
                                    tag.c_str()))});
  }
  return views;
}

/// Appends the Figure 15 random views: `count` draws (seeded, so the same
/// for every caller) of a 3-node pattern with 50% optional edges and no
/// value predicates, each non-root node storing ID and V with probability
/// 0.75, named R<draw>; draws that store nothing are skipped.
inline void AddRandomViews(const Summary& summary, int count,
                           std::vector<ViewDef>* views) {
  Rng rng(99);
  PatternGenOptions gen;
  gen.num_nodes = 3;
  gen.num_return = 1;
  gen.p_optional = 0.5;
  gen.p_pred = 0.0;  // "random value predicates had the same effect"
  for (int i = 0; i < count; ++i) {
    Result<Pattern> p = GeneratePattern(summary, gen, &rng);
    if (!p.ok()) continue;
    for (PatternNodeId n = 1; n < p->size(); ++n) {
      p->mutable_node(n).attrs =
          rng.Bernoulli(0.75) ? (kAttrId | kAttrValue) : 0;
    }
    if (p->Arity() == 0) continue;
    views->push_back({StrFormat("R%d", i), std::move(*p)});
  }
}

}  // namespace svx

#endif  // SVX_BENCH_BASE_VIEWS_H_
