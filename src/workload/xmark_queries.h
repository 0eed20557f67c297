// The tree patterns of the 20 XMark benchmark queries (§5: "we first
// extracted the patterns of the 20 XMark queries"), expressed in the svx
// pattern syntax over the vocabulary of the XMark-like generator. As in the
// paper, 16 of the 20 patterns carry optional edges, several have nested
// edges (the nested-FLWR queries), and q7 consists of three structurally
// unrelated counting branches — the pattern whose canonical model dominates
// Figure 13.
#ifndef SVX_WORKLOAD_XMARK_QUERIES_H_
#define SVX_WORKLOAD_XMARK_QUERIES_H_

#include <string>
#include <vector>

#include "src/pattern/pattern.h"

namespace svx {

/// One benchmark query pattern.
struct XmarkQuery {
  int number;          // 1..20
  std::string text;    // pattern syntax
  std::string intent;  // one-line description
};

/// All 20 query patterns.
const std::vector<XmarkQuery>& XmarkQueryPatterns();

/// Parses query `number` (1-based).
Pattern GetXmarkQueryPattern(int number);

/// Query `number` in conjunctive value form — C attributes become V,
/// optional and nested edges become required — the shape answerable from
/// the {id, v} base tag views (bench/base_views.h). The workload of
/// bench_rewriter and tools/calibrate_costs.
Pattern GetXmarkQueryPatternConjunctive(int number);

}  // namespace svx

#endif  // SVX_WORKLOAD_XMARK_QUERIES_H_
