// Property-based tests: randomized checks of the semantic contracts that
// the paper's propositions rest on.
//   * Containment soundness: whenever IsContained(p, q) holds, p(d) ⊆ q(d)
//     on random documents conforming to the summary (Def. 3.1).
//   * Satisfiability soundness: a pattern with a nonempty result on a
//     conforming document is S-satisfiable (Prop. 2.1).
//   * Evaluation/materialization agreement: the row evaluator and the view
//     materializer agree on result cardinality for ID-only patterns.
//   * Canonical-model witnesses: every canonical tree weakly conforms to
//     the summary and reproduces its own return tuple.
//   * Carried plans: under a random stream of item inserts and deletes,
//     which flips strong / one-to-one edges and renumbers summary paths,
//     every query a catalog serves (plans cached under earlier epochs
//     included) equals direct evaluation over the epoch's document.
#include <gtest/gtest.h>

#include <set>

#include "src/containment/containment.h"
#include "src/pattern/canonical.h"
#include "src/pattern/evaluator.h"
#include "src/pattern/pattern_parser.h"
#include "src/pattern/pattern_printer.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/summary/summary_io.h"
#include "src/util/rng.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/pattern_generator.h"
#include "src/xml/builder.h"
#include "src/xml/serializer.h"
#include "src/xml/update.h"

namespace svx {
namespace {

/// Generates a random document weakly conforming to `summary`: children per
/// child-path drawn from [min, max], where strong edges force min >= 1 and
/// one-to-one edges force exactly 1.
std::unique_ptr<Document> RandomConformingDoc(const Summary& summary,
                                              Rng* rng, int max_fanout = 2,
                                              int max_nodes = 400) {
  DocumentBuilder b;
  int budget = max_nodes;
  std::function<void(PathId, int)> emit = [&](PathId path, int depth) {
    b.StartElement(summary.label(path));
    if (rng->Bernoulli(0.6)) {
      b.AppendValue(std::to_string(rng->Uniform(0, 9)));
    }
    for (PathId c : summary.children(path)) {
      int lo = summary.strong_edge(c) ? 1 : 0;
      int hi = summary.one_to_one(c) ? 1 : max_fanout;
      if (summary.one_to_one(c)) lo = 1;
      int count = static_cast<int>(rng->Uniform(lo, hi));
      if (budget <= 0) count = lo;  // keep strong edges satisfied
      for (int i = 0; i < count && depth < 24; ++i) {
        --budget;
        emit(c, depth + 1);
      }
    }
    b.EndElement();
  };
  emit(summary.root(), 1);
  return b.Finish();
}

/// Node tuples of p(d), ignoring nesting sequences.
std::vector<std::vector<int32_t>> Tuples(const Pattern& p,
                                         const Document& d) {
  std::vector<std::vector<int32_t>> out;
  for (const EvalRow& r : EvaluateOnDocument(p, d)) out.push_back(r.nodes);
  std::sort(out.begin(), out.end());
  return out;
}

bool SubsetOf(const std::vector<std::vector<int32_t>>& a,
              const std::vector<std::vector<int32_t>>& b) {
  for (const auto& t : a) {
    if (!std::binary_search(b.begin(), b.end(), t)) return false;
  }
  return true;
}

class ContainmentSoundness : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentSoundness, PositiveDecisionsHoldOnRandomDocuments) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 3);
  // A small summary with recursion-free structure and constraints.
  Result<std::unique_ptr<Summary>> sr =
      ParseSummary("a(b!(c d(c! e)) f(b(c) g!!) h)");
  ASSERT_TRUE(sr.ok());
  const Summary& s = **sr;

  PatternGenOptions gen;
  gen.num_nodes = 2 + seed % 5;
  gen.num_return = 1;
  gen.p_pred = 0.15;
  gen.p_optional = 0.4;
  gen.return_labels = {};

  Result<Pattern> p = GeneratePattern(s, gen, &rng);
  Result<Pattern> q = GeneratePattern(s, gen, &rng);
  if (!p.ok() || !q.ok()) GTEST_SKIP();

  Result<bool> contained = IsContained(*p, *q, s);
  ASSERT_TRUE(contained.ok());
  if (!*contained) GTEST_SKIP();  // only positive decisions are checked

  for (int d = 0; d < 8; ++d) {
    std::unique_ptr<Document> doc = RandomConformingDoc(s, &rng);
    ASSERT_TRUE(WeaklyConforms(*doc, s)) << ToTreeNotation(*doc);
    auto tp = Tuples(*p, *doc);
    auto tq = Tuples(*q, *doc);
    EXPECT_TRUE(SubsetOf(tp, tq))
        << "p = " << PatternToString(*p) << "\nq = " << PatternToString(*q)
        << "\ndoc = " << ToTreeNotation(*doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContainmentSoundness,
                         ::testing::Range(0, 40));

class SatisfiabilitySoundness : public ::testing::TestWithParam<int> {};

TEST_P(SatisfiabilitySoundness, NonEmptyResultsImplySatisfiable) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 104729 + 17);
  Result<std::unique_ptr<Summary>> sr =
      ParseSummary("a(b!(c d(c! e)) f(b(c) g!!) h)");
  ASSERT_TRUE(sr.ok());
  const Summary& s = **sr;

  PatternGenOptions gen;
  gen.num_nodes = 2 + seed % 6;
  gen.num_return = 1;
  gen.p_pred = 0.0;  // document values are random; keep the check structural
  gen.p_optional = 0.3;
  gen.return_labels = {};
  Result<Pattern> p = GeneratePattern(s, gen, &rng);
  if (!p.ok()) GTEST_SKIP();

  std::unique_ptr<Document> doc = RandomConformingDoc(s, &rng);
  if (Tuples(*p, *doc).empty()) GTEST_SKIP();
  Result<bool> sat = IsSatisfiable(*p, s);
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(*sat) << PatternToString(*p);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SatisfiabilitySoundness,
                         ::testing::Range(0, 30));

class EvaluatorMaterializerAgreement : public ::testing::TestWithParam<int> {
};

TEST_P(EvaluatorMaterializerAgreement, SameCardinalityForIdPatterns) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 31 + 7);
  Result<std::unique_ptr<Summary>> sr = ParseSummary("a(b(c d) e(b(c)))");
  ASSERT_TRUE(sr.ok());
  const Summary& s = **sr;
  PatternGenOptions gen;
  gen.num_nodes = 2 + seed % 5;
  gen.num_return = 1 + seed % 2;
  gen.p_pred = 0.0;
  gen.return_labels = {};
  Result<Pattern> p = GeneratePattern(s, gen, &rng);
  if (!p.ok()) GTEST_SKIP();
  // IDs identify nodes uniquely, so row sets must have equal size.
  std::unique_ptr<Document> doc = RandomConformingDoc(s, &rng);
  size_t eval_rows = Tuples(*p, *doc).size();
  Table extent = MaterializeView(*p, "V", *doc);
  EXPECT_EQ(eval_rows, static_cast<size_t>(extent.NumRows()))
      << PatternToString(*p) << "\ndoc = " << ToTreeNotation(*doc);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EvaluatorMaterializerAgreement,
                         ::testing::Range(0, 30));

class CanonicalWitness : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalWitness, TreesReproduceTheirReturnTuples) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 1299709 + 11);
  Result<std::unique_ptr<Summary>> sr =
      ParseSummary("a(b!(c d(c! e)) f(b(c) g!!) h)");
  ASSERT_TRUE(sr.ok());
  const Summary& s = **sr;
  PatternGenOptions gen;
  gen.num_nodes = 2 + seed % 5;
  gen.num_return = 1;
  gen.p_pred = 0.2;
  gen.p_optional = 0.4;
  gen.return_labels = {};
  Result<Pattern> p = GeneratePattern(s, gen, &rng);
  if (!p.ok()) GTEST_SKIP();
  Result<std::vector<CanonicalTree>> model = BuildCanonicalModel(*p, s);
  ASSERT_TRUE(model.ok());
  for (const CanonicalTree& te : *model) {
    // Structure sanity: parents precede children, root is the summary root.
    ASSERT_GT(te.size(), 0);
    EXPECT_EQ(te.paths[0], s.root());
    for (int32_t n = 1; n < te.size(); ++n) {
      EXPECT_LT(te.parents[static_cast<size_t>(n)], n);
      EXPECT_EQ(s.parent(te.paths[static_cast<size_t>(n)]),
                te.paths[static_cast<size_t>(
                    te.parents[static_cast<size_t>(n)])]);
    }
    // Witness property (Prop 2.1 / §4.3): the tree reproduces its own
    // return tuple under satisfiability semantics.
    CanonicalTreeView view(te, s);
    std::vector<EvalRow> rows =
        EvaluateReturnRows(*p, view, FormulaMode::kSatisfiability);
    EXPECT_TRUE(ContainsNodeTuple(rows, te.return_tuple))
        << PatternToString(*p);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CanonicalWitness, ::testing::Range(0, 30));

TEST(CarriedPlans, EveryServedQueryEqualsDirectEvaluation) {
  std::shared_ptr<Document> doc(
      ParseTreeNotation(
          "site(regions(asia(item(name=a keyword=k1 description(text=x)) "
          "item(name=b keyword=k2 description(text=y))) "
          "europe(item(name=c keyword=k3 description(text=z)))))")
          .value());
  std::shared_ptr<const Summary> summary(SummaryBuilder::Build(doc.get()));
  ViewCatalog catalog;
  for (const char* tag : {"name", "keyword", "description", "text", "asia",
                          "europe"}) {
    const std::string text = std::string("site(//") + tag + "{id,v})";
    ASSERT_TRUE(
        catalog.Materialize({std::string("B_") + tag, MustParsePattern(text)},
                            *doc)
            .ok());
  }
  // The only view storing item ids. It holds every item only while
  // item->description is strong, and a plan deriving item ids from a
  // child's id (a virtual parent id, §4.6) holds only while that child's
  // edge is strong: queries needing item ids have a rewriting in some
  // epochs and none in others.
  ASSERT_TRUE(catalog
                  .Materialize({"described", MustParsePattern(
                                                 "site(//regions(//*{id}"
                                                 "(/description)))")},
                               *doc)
                  .ok());
  catalog.BindDocument(doc, summary);
  const std::vector<Pattern> queries = {
      MustParsePattern("site(//item{id})"),
      MustParsePattern("site(//item{id}(/name{v}))"),
      MustParsePattern("site(//asia(/item{id}(/keyword{v})))"),
      MustParsePattern("site(//item(/description(/text{v})))"),
  };
  // Item shapes: complete, missing children (flag flips: every child edge
  // of item, from which a plan could derive item ids, stops being strong in
  // some epochs), and children in another order (renumbering when the item
  // becomes a region's first).
  const char* shapes[] = {
      "item(name=n keyword=k description(text=t))",
      "item(name=n)",
      "item(keyword=k description(text=t))",
      "item(description(text=t) name=n keyword=k)",
      "item(keyword=k name=n)",
  };
  Rng rng(20231);
  std::vector<OrdPath> inserted;
  std::set<std::string> structures{summary->StructureKey()};
  int renumbered = 0;
  size_t hits = 0;
  size_t answered = 0;
  size_t unanswered = 0;
  for (int step = 0; step < 60; ++step) {
    Result<UpdateResult> up = Status::Internal("no update");
    if (rng.Bernoulli(static_cast<double>(inserted.size()) / 8)) {
      const size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(inserted.size()) - 1));
      up = DeleteSubtree(*doc, inserted[i]);
      inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const std::string label = rng.Bernoulli(0.5) ? "asia" : "europe";
      NodeIndex region = 0;
      while (doc->label(region) != label) ++region;
      std::unique_ptr<Document> item =
          ParseTreeNotation(shapes[rng.Uniform(0, 4)]).value();
      const OrdPath first = doc->ord_path(doc->children(region).front());
      up = rng.Bernoulli(0.5) ? InsertSubtree(*doc, doc->ord_path(region),
                                              *item, &first)
                              : InsertSubtree(*doc, doc->ord_path(region),
                                              *item);
      if (up.ok()) inserted.push_back(up->delta.region);
    }
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    std::shared_ptr<Document> next(std::move(up->doc));
    std::shared_ptr<const Summary> next_summary(
        SummaryBuilder::Build(next.get()));
    if (!next_summary->StructurallyEquals(*summary) &&
        next_summary->StructureKey() == summary->StructureKey()) {
      ++renumbered;
    }
    structures.insert(next_summary->StructureKey());
    ASSERT_TRUE(
        catalog.ApplyUpdateBatch({up->delta}, next, next_summary).ok());
    doc = std::move(next);
    summary = std::move(next_summary);
    std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
    for (const Pattern& q : queries) {
      RewriteStats stats;
      Result<Table> got = snap->Query(q, nullptr, &stats);
      hits += stats.rewrite_cache_hits;
      if (!got.ok()) {
        ASSERT_EQ(got.status().code(), StatusCode::kNotFound)
            << "step " << step << " " << PatternToString(q) << ": "
            << got.status().ToString();
        ++unanswered;
        continue;
      }
      ++answered;
      EXPECT_TRUE(got->EqualsIgnoringOrder(MaterializeView(q, "q", *doc)))
          << "step " << step << " " << PatternToString(q);
    }
  }
  EXPECT_GE(structures.size(), 3u);
  EXPECT_GT(renumbered, 0);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(answered, 0u);
  EXPECT_GT(unanswered, 0u);
}

}  // namespace
}  // namespace svx
