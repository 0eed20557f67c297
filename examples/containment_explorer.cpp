// Interactive-style demonstration of summary-constrained containment: the
// §3.2 and §4 phenomena on small summaries, printed with explanations.
//
//   $ ./build/examples/containment_explorer
#include <cstdio>

#include "src/containment/containment.h"
#include "src/pattern/pattern_parser.h"
#include "src/summary/summary_io.h"

namespace {

/// Containment checks that failed (each printed with its status).
int failures = 0;

void Check(const svx::Summary& s, const char* p, const char* q,
           const char* comment) {
  using namespace svx;
  Result<bool> pq = IsContained(MustParsePattern(p), MustParsePattern(q), s);
  Result<bool> qp = IsContained(MustParsePattern(q), MustParsePattern(p), s);
  for (const Result<bool>* r : {&pq, &qp}) {
    if (!r->ok()) {
      std::printf("  p = %s q = %s: %s\n", p, q,
                  r->status().ToString().c_str());
      ++failures;
      return;
    }
  }
  const char* rel = "incomparable";
  if (*pq && *qp) {
    rel = "equivalent";
  } else if (*pq) {
    rel = "p ⊆S q";
  } else if (*qp) {
    rel = "q ⊆S p";
  }
  std::printf("  p = %-38s q = %-38s -> %s\n     (%s)\n", p, q, rel, comment);
}

}  // namespace

int main() {
  using namespace svx;

  {
    std::printf("summary r(a(b)) — every b sits under an a:\n");
    auto s = ParseSummary("r(a(b))");
    Check(**s, "r(//b{id})", "r(//a(//b{id}))",
          "the a node is implicit under the summary (§3.2)");
  }
  {
    std::printf("\nenhanced summary a(b(c! e) f!) — strong edges:\n");
    auto s = ParseSummary("a(b(c! e) f!)");
    Check(**s, "a(/b{id})", "a(/b{id}(/c) /f)",
          "every b has a c child and every a an f child (§4.1)");
  }
  {
    std::printf("\nvalue predicates (§4.2):\n");
    auto s = ParseSummary("r(c(b))");
    Check(**s, "r(/c{id}[v=3])", "r(/c{id}[v>1])",
          "v=3 implies v>1 on the same node");
  }
  {
    std::printf("\noptional edges (§4.3):\n");
    auto s = ParseSummary("a(c(b))");
    Check(**s, "a(/c{id}(/b{id}))", "a(/c{id}(?/b{id}))",
          "required tuples are a subset of the optional ones");
    auto strong = ParseSummary("a(c(b!))");
    Check(**strong, "a(/c{id}(/b{id}))", "a(/c{id}(?/b{id}))",
          "with a strong edge the ⊥ variant is impossible: equivalent");
  }
  {
    std::printf("\nnested edges (§4.5):\n");
    auto s = ParseSummary("a(b!!(c))");
    Check(**s, "a(/b(n/c{id}))", "a(n/b(/c{id}))",
          "one-to-one edge a->b: nesting under a equals nesting under b");
    auto plain = ParseSummary("a(b(c))");
    Check(**plain, "a(/b(n/c{id}))", "a(n/b(/c{id}))",
          "without the constraint the anchors differ: incomparable");
  }
  {
    std::printf("\nunions (Prop 3.2):\n");
    auto s = ParseSummary("a(b d(b))");
    Pattern p = MustParsePattern("a(//b{id})");
    Pattern q1 = MustParsePattern("a(/b{id})");
    Pattern q2 = MustParsePattern("a(/d(/b{id}))");
    Result<bool> in_union = IsContainedInUnion(p, {&q1, &q2}, **s);
    if (!in_union.ok()) {
      std::printf("  union check: %s\n", in_union.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "  a(//b) ⊆S a(/b) ∪ a(/d/b): %s — neither member suffices alone\n",
        *in_union ? "yes" : "no");
  }
  return failures == 0 ? 0 : 1;
}
