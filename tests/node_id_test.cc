#include "src/xml/node_id.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace svx {
namespace {

TEST(OrdPath, RootAndChildren) {
  OrdPath root = OrdPath::Root();
  EXPECT_EQ(root.ToString(), "1");
  EXPECT_EQ(root.Depth(), 1);
  OrdPath c = root.Child(3);
  EXPECT_EQ(c.ToString(), "1.3");
  EXPECT_EQ(c.Child(1).ToString(), "1.3.1");
}

TEST(OrdPath, FromStringRoundTrip) {
  OrdPath p = OrdPath::FromString("1.3.3.1");
  ASSERT_TRUE(p.IsValid());
  EXPECT_EQ(p.ToString(), "1.3.3.1");
  EXPECT_EQ(p.Depth(), 4);
}

TEST(OrdPath, FromStringRejectsMalformed) {
  EXPECT_FALSE(OrdPath::FromString("").IsValid());
  EXPECT_FALSE(OrdPath::FromString("1.x").IsValid());
  EXPECT_FALSE(OrdPath::FromString("1.0").IsValid());
  EXPECT_FALSE(OrdPath::FromString("1.-2").IsValid());
}

TEST(OrdPath, ParentDerivation) {
  // The paper's §4.6 navfID: an element's ID derives from its child's ID.
  OrdPath p = OrdPath::FromString("1.3.3.1");
  EXPECT_EQ(p.Parent().ToString(), "1.3.3");
  EXPECT_EQ(p.Parent().Parent().ToString(), "1.3");
  EXPECT_FALSE(OrdPath::Root().Parent().IsValid());
}

TEST(OrdPath, AncestorSteps) {
  OrdPath p = OrdPath::FromString("1.2.3.4.5");
  EXPECT_EQ(p.Ancestor(0), p);
  EXPECT_EQ(p.Ancestor(2).ToString(), "1.2.3");
  EXPECT_EQ(p.Ancestor(4).ToString(), "1");
  EXPECT_FALSE(p.Ancestor(5).IsValid());
}

TEST(OrdPath, StructuralRelationships) {
  // §1: "structural IDs allow deciding whether an element is a parent
  // (ancestor) of another by comparing their IDs".
  OrdPath a = OrdPath::FromString("1.3");
  OrdPath b = OrdPath::FromString("1.3.3");
  OrdPath c = OrdPath::FromString("1.3.3.1");
  OrdPath d = OrdPath::FromString("1.5");
  EXPECT_TRUE(a.IsParentOf(b));
  EXPECT_FALSE(a.IsParentOf(c));
  EXPECT_TRUE(a.IsAncestorOf(b));
  EXPECT_TRUE(a.IsAncestorOf(c));
  EXPECT_FALSE(a.IsAncestorOf(d));
  EXPECT_FALSE(b.IsAncestorOf(a));
  EXPECT_FALSE(a.IsAncestorOf(a));
  EXPECT_TRUE(a.IsAncestorOrSelf(a));
}

TEST(OrdPath, DocumentOrderIsPreorder) {
  std::vector<OrdPath> ids = {
      OrdPath::FromString("1"),     OrdPath::FromString("1.1"),
      OrdPath::FromString("1.1.1"), OrdPath::FromString("1.2"),
      OrdPath::FromString("1.10"),
  };
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(ids[i] < ids[j], i < j)
          << ids[i].ToString() << " vs " << ids[j].ToString();
    }
  }
}

TEST(OrdPath, SortOrdersSiblingsNumerically) {
  // "1.10" must sort after "1.9" (component-wise, not lexicographic).
  EXPECT_TRUE(OrdPath::FromString("1.9") < OrdPath::FromString("1.10"));
}

TEST(OrdPath, HashAndEquality) {
  OrdPath a = OrdPath::FromString("1.2.3");
  OrdPath b = OrdPath::Root().Child(2).Child(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, a.Parent());
}

// ---------------------------------------------------------------------------
// Careting (mid-sibling insertion ids)
// ---------------------------------------------------------------------------

TEST(OrdPathCaret, FromStringRoundTripsCarets) {
  OrdPath p = OrdPath::FromString("1.3.^.1");
  ASSERT_TRUE(p.IsValid());
  EXPECT_EQ(p.ToString(), "1.3.^.1");
  OrdPath q = OrdPath::FromString("1.0.1");
  ASSERT_TRUE(q.IsValid());
  EXPECT_EQ(q.ToString(), "1.0.1");
  // Trailing carets never end a valid id.
  EXPECT_FALSE(OrdPath::FromString("1.3.^").IsValid());
  EXPECT_FALSE(OrdPath::FromString("1.0").IsValid());
}

TEST(OrdPathCaret, HighCaretKeysAddNoDepth) {
  // "1.3.^.1" names a sibling squeezed in after "1.3"'s subtree.
  OrdPath p = OrdPath::FromString("1.3.^.1");
  EXPECT_EQ(p.Depth(), 2);
  EXPECT_EQ(p.Parent().ToString(), "1");
  // Its own children go one level down as usual.
  EXPECT_EQ(p.Child(2).Depth(), 3);
  EXPECT_EQ(p.Child(2).Parent(), p);
  // "1.0.1" is a child before the first child.
  OrdPath q = OrdPath::FromString("1.0.1");
  EXPECT_EQ(q.Depth(), 2);
  EXPECT_EQ(q.Parent().ToString(), "1");
  // Ancestor steps through caret keys.
  EXPECT_EQ(p.Child(2).Ancestor(2).ToString(), "1");
}

TEST(OrdPathCaret, StructuralRelationshipsAreCaretAware) {
  OrdPath anchor = OrdPath::FromString("1.3");
  OrdPath caret = OrdPath::FromString("1.3.^.1");
  OrdPath caret_child = OrdPath::FromString("1.3.^.1.1");
  // The caret node extends "1.3"'s components but is its sibling.
  EXPECT_FALSE(anchor.IsAncestorOf(caret));
  EXPECT_FALSE(anchor.IsParentOf(caret));
  EXPECT_FALSE(anchor.IsAncestorOf(caret_child));
  EXPECT_TRUE(OrdPath::Root().IsParentOf(caret));
  EXPECT_TRUE(caret.IsParentOf(caret_child));
  EXPECT_TRUE(OrdPath::Root().IsAncestorOf(caret_child));
  // Low-caret first children are ordinary descendants.
  EXPECT_TRUE(OrdPath::Root().IsParentOf(OrdPath::FromString("1.0.1")));
}

TEST(OrdPathCaret, ParentLengthWalksTheAncestorsAsPrefixes) {
  for (const char* s : {"1.3.^.1.2", "1.0.1.5", "1.2.4.^.^.7.1", "1"}) {
    const OrdPath id = OrdPath::FromString(s);
    ASSERT_TRUE(id.IsValid()) << s;
    const std::string_view bytes = id.bytes();
    std::vector<std::string_view> walked;
    for (size_t len = OrdPath::ParentLength(bytes); len > 0;
         len = OrdPath::ParentLength(bytes.substr(0, len))) {
      walked.push_back(bytes.substr(0, len));
    }
    std::vector<std::string> want;
    for (OrdPath a = id.Parent(); a.IsValid(); a = a.Parent()) {
      want.emplace_back(a.bytes());
    }
    EXPECT_EQ(std::vector<std::string>(walked.begin(), walked.end()), want)
        << s;
  }
  EXPECT_EQ(OrdPath::ParentLength(OrdPath::Root().bytes()), 0u);
}

TEST(OrdPathCaret, CaretBeforeSortsBetweenNeighbors) {
  OrdPath parent = OrdPath::Root();
  OrdPath left = OrdPath::FromString("1.3");
  OrdPath left_desc = OrdPath::FromString("1.3.7.2");
  OrdPath right = OrdPath::FromString("1.4");
  OrdPath x = OrdPath::CaretBefore(parent, left, right);
  EXPECT_EQ(x.ToString(), "1.3.^.1");
  EXPECT_TRUE(left < x && x < right);
  EXPECT_TRUE(left_desc < x) << "must follow the left subtree";
  EXPECT_EQ(x.Depth(), 2);

  // Before a first child: descend with a low caret.
  OrdPath first = OrdPath::CaretBefore(parent, OrdPath(), right);
  EXPECT_EQ(first.ToString(), "1.3");  // ordinal room before "1.4"
  OrdPath before_one =
      OrdPath::CaretBefore(parent, OrdPath(), OrdPath::FromString("1.1"));
  EXPECT_EQ(before_one.ToString(), "1.0.1");
  EXPECT_TRUE(parent < before_one &&
              before_one < OrdPath::FromString("1.1"));
}

TEST(OrdPathCaret, RepeatedInsertsAtTheSameSlotStayOrdered) {
  // Keep inserting before the same right sibling; every new id must fall
  // strictly between the (previous) left neighbor's subtree and `right`.
  OrdPath parent = OrdPath::Root();
  OrdPath left = OrdPath::FromString("1.1");
  OrdPath right = OrdPath::FromString("1.2");
  std::vector<OrdPath> all = {left, right};
  OrdPath cur_left = left;
  for (int i = 0; i < 8; ++i) {
    OrdPath x = OrdPath::CaretBefore(parent, cur_left, right);
    EXPECT_TRUE(cur_left < x && x < right) << x.ToString();
    EXPECT_EQ(x.Depth(), 2) << x.ToString();
    EXPECT_EQ(x.Parent(), parent) << x.ToString();
    all.push_back(x);
    cur_left = x;  // next insert goes between x and right
  }
  // And inserting always-first keeps descending below `left`'s slot.
  OrdPath cur_right = right;
  for (int i = 0; i < 8; ++i) {
    OrdPath x = OrdPath::CaretBefore(parent, left, cur_right);
    EXPECT_TRUE(left < x && x < cur_right) << x.ToString();
    EXPECT_EQ(x.Depth(), 2) << x.ToString();
    EXPECT_EQ(x.Parent(), parent) << x.ToString();
    all.push_back(x);
    cur_right = x;
  }
  for (const OrdPath& p : all) {
    EXPECT_FALSE(left.IsAncestorOf(p)) << p.ToString();
  }
}

// ---------------------------------------------------------------------------
// The byte code against a component-vector reference
// ---------------------------------------------------------------------------

/// An id as its list of components, with the component-level algorithms
/// every OrdPath operation must agree with.
struct RefPath {
  std::vector<int32_t> c;

  bool IsValid() const { return !c.empty(); }

  int Compare(const RefPath& o) const {
    if (c == o.c) return 0;
    return std::lexicographical_compare(c.begin(), c.end(), o.c.begin(),
                                        o.c.end())
               ? -1
               : 1;
  }

  /// Start of the key that ends at `end` (exclusive): the caret run before
  /// the real ordinal at end - 1.
  size_t KeyStart(size_t end) const {
    size_t start = end - 1;
    while (start > 0 && OrdPath::IsCaret(c[start - 1])) --start;
    return start;
  }

  int32_t Depth() const {
    int32_t depth = 0;
    for (size_t end = c.size(); end > 0; end = KeyStart(end)) {
      if (c[KeyStart(end)] != OrdPath::kCaretHigh) ++depth;
    }
    return depth;
  }

  /// Drops trailing keys until `steps` depth-contributing keys are gone.
  RefPath Ancestor(int32_t steps) const {
    size_t end = c.size();
    for (int32_t dropped = 0; end > 0 && dropped < steps;) {
      const size_t start = KeyStart(end);
      if (c[start] != OrdPath::kCaretHigh) ++dropped;
      end = start;
    }
    return RefPath{std::vector<int32_t>(c.begin(), c.begin() + end)};
  }

  bool IsPrefixOf(const RefPath& o) const {
    return c.size() <= o.c.size() &&
           std::equal(c.begin(), c.end(), o.c.begin());
  }

  bool IsAncestorOf(const RefPath& o) const {
    return IsValid() && o.c.size() > c.size() && IsPrefixOf(o) &&
           o.c[c.size()] != OrdPath::kCaretHigh;
  }

  bool IsParentOf(const RefPath& o) const {
    return IsValid() && o.c.size() > c.size() && o.Ancestor(1).c == c;
  }

  std::string ToString() const {
    std::string out;
    for (size_t i = 0; i < c.size(); ++i) {
      if (i > 0) out += '.';
      out += c[i] == OrdPath::kCaretHigh ? "^" : std::to_string(c[i]);
    }
    return out;
  }

  /// The key just below `tail`'s key at `start`: (0^z, m) becomes
  /// (0^z, m-1), or (0^(z+1), 1) when m == 1.
  static void AppendKeyBefore(const RefPath& tail, size_t start,
                              RefPath* out) {
    size_t z = start;
    while (tail.c[z] == OrdPath::kCaretLow) out->c.push_back(tail.c[z++]);
    if (tail.c[z] > 1) {
      out->c.push_back(tail.c[z] - 1);
    } else {
      out->c.push_back(OrdPath::kCaretLow);
      out->c.push_back(1);
    }
  }

  static RefPath CaretBefore(const RefPath& parent, const RefPath* left,
                             const RefPath& right) {
    if (left == nullptr) {
      RefPath out = parent;
      AppendKeyBefore(right, parent.c.size(), &out);
      return out;
    }
    RefPath out = *left;
    out.c.push_back(OrdPath::kCaretHigh);
    if (left->IsPrefixOf(right)) {
      AppendKeyBefore(right, out.c.size(), &out);
    } else {
      out.c.push_back(1);
    }
    return out;
  }
};

int Sign(int x) { return (x > 0) - (x < 0); }

/// One generated id in both forms, and its children in document order.
struct Generated {
  OrdPath id;
  RefPath ref;
  std::vector<size_t> kids;  // indexes into the pool, sorted
};

/// Checks everything one id answers alone against its reference.
void ExpectSameId(const OrdPath& id, const RefPath& ref) {
  ASSERT_EQ(id.ToString(), ref.ToString());
  ASSERT_EQ(OrdPath::FromString(ref.ToString()), id) << ref.ToString();
  ASSERT_EQ(id.IsValid(), ref.IsValid());
  ASSERT_EQ(id.Depth(), ref.Depth()) << ref.ToString();
  ASSERT_EQ(id.Parent().ToString(), ref.Ancestor(1).ToString());
  for (int32_t k = 0; k <= ref.Depth() + 1; ++k) {
    ASSERT_EQ(id.Ancestor(k).ToString(), ref.Ancestor(k).ToString())
        << ref.ToString() << " up " << k;
  }
  // The component view the extent codec reads and writes.
  ASSERT_EQ(id.NumComponents(), static_cast<int32_t>(ref.c.size()));
  std::vector<int32_t> comps;
  for (size_t pos = 0; pos < id.bytes().size();) {
    comps.push_back(id.ComponentAt(&pos));
  }
  ASSERT_EQ(comps, ref.c);
  OrdPath rebuilt;
  for (int32_t c : ref.c) rebuilt.AppendComponent(c);
  ASSERT_EQ(rebuilt, id);
}

/// Checks everything a pair of ids answers against the references.
void ExpectSamePair(const Generated& a, const Generated& b) {
  ASSERT_EQ(Sign(a.id.Compare(b.id)), Sign(a.ref.Compare(b.ref)))
      << a.ref.ToString() << " vs " << b.ref.ToString();
  ASSERT_EQ(a.id == b.id, a.ref.c == b.ref.c);
  if (a.id == b.id) {
    ASSERT_EQ(a.id.Hash(), b.id.Hash());
  }
  ASSERT_EQ(a.id.IsAncestorOf(b.id), a.ref.IsAncestorOf(b.ref))
      << a.ref.ToString() << " anc " << b.ref.ToString();
  ASSERT_EQ(a.id.IsParentOf(b.id), a.ref.IsParentOf(b.ref))
      << a.ref.ToString() << " par " << b.ref.ToString();
}

TEST(OrdPathDifferential, ByteCodeMatchesComponentVectors) {
  // Ordinals on both sides of every code-length boundary (1 to 5 bytes).
  const int32_t kBoundaryOrdinals[] = {
      1,         2,         126,       127,       128,
      129,       16510,     16511,     16512,     16513,
      2113662,   2113663,   2113664,   2113665,   270549118,
      270549119, 270549120, 270549121, OrdPath::kCaretHigh - 2,
      OrdPath::kCaretHigh - 1};
  Rng rng(29);
  std::vector<Generated> pool;
  pool.push_back({OrdPath::Root(), RefPath{{1}}, {}});
  std::unordered_set<std::string> seen = {"1"};
  int careted = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto p = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1));
    const std::vector<size_t>& sibs = pool[p].kids;
    Generated next;
    if (sibs.empty() || rng.Bernoulli(0.35)) {
      // A child with a boundary, small or any ordinal; it lands wherever
      // its ordinal sorts among the siblings.
      int32_t ordinal = 0;
      const double r = rng.NextDouble();
      if (r < 0.5) {
        ordinal = kBoundaryOrdinals[rng.Uniform(
            0, static_cast<int64_t>(std::size(kBoundaryOrdinals)) - 1)];
      } else if (r < 0.8) {
        ordinal = static_cast<int32_t>(rng.Uniform(1, 300));
      } else {
        ordinal = static_cast<int32_t>(rng.Uniform(1, OrdPath::kCaretHigh - 1));
      }
      next.id = pool[p].id.Child(ordinal);
      next.ref = pool[p].ref;
      next.ref.c.push_back(ordinal);
    } else {
      // A caret between two adjacent siblings, or before the first one.
      const auto i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(sibs.size()) - 1));
      const Generated& right = pool[sibs[i]];
      const Generated* left = i == 0 ? nullptr : &pool[sibs[i - 1]];
      next.id = OrdPath::CaretBefore(pool[p].id,
                                     left == nullptr ? OrdPath() : left->id,
                                     right.id);
      next.ref = RefPath::CaretBefore(pool[p].ref,
                                      left == nullptr ? nullptr : &left->ref,
                                      right.ref);
      ++careted;
    }
    SCOPED_TRACE(next.ref.ToString());
    ASSERT_NO_FATAL_FAILURE(ExpectSameId(next.id, next.ref));
    if (!seen.insert(next.ref.ToString()).second) continue;  // a duplicate
    ASSERT_TRUE(pool[p].id.IsParentOf(next.id));
    pool.push_back(next);
    const size_t added = pool.size() - 1;
    std::vector<size_t>& kids = pool[p].kids;
    auto at = std::lower_bound(kids.begin(), kids.end(), added,
                               [&](size_t x, size_t y) {
                                 return pool[x].ref.Compare(pool[y].ref) < 0;
                               });
    kids.insert(at, added);
  }
  EXPECT_GT(careted, 1000);
  size_t longest = 0;
  for (const Generated& g : pool) longest = std::max(longest, g.ref.c.size());
  EXPECT_GT(longest, 10u) << "chains too shallow to nest carets";

  for (int k = 0; k < 50000; ++k) {
    const Generated& a = rng.Pick(pool);
    const Generated& b = rng.Pick(pool);
    ASSERT_NO_FATAL_FAILURE(ExpectSamePair(a, b));
  }
  // Every id against its own ancestors, and sorting agrees end to end.
  for (const Generated& g : pool) {
    for (int32_t k = 1; k < g.ref.Depth(); ++k) {
      Generated up{g.id.Ancestor(k), g.ref.Ancestor(k), {}};
      ASSERT_NO_FATAL_FAILURE(ExpectSamePair(up, g));
      ASSERT_NO_FATAL_FAILURE(ExpectSamePair(g, up));
    }
  }
  std::vector<Generated> by_id = pool;
  std::sort(by_id.begin(), by_id.end(),
            [](const Generated& a, const Generated& b) { return a.id < b.id; });
  for (size_t i = 1; i < by_id.size(); ++i) {
    ASSERT_LT(by_id[i - 1].ref.Compare(by_id[i].ref), 0);
  }
}

}  // namespace
}  // namespace svx
