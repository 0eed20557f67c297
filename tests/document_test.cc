#include "src/xml/document.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/summary/summary_builder.h"
#include "src/util/rng.h"
#include "src/workload/xmark.h"
#include "src/xml/builder.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "src/xml/update.h"

namespace svx {
namespace {

std::unique_ptr<Document> MustParse(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(DocumentBuilder, SingleNode) {
  DocumentBuilder b;
  b.StartElement("a");
  b.EndElement();
  std::unique_ptr<Document> d = b.Finish();
  EXPECT_EQ(d->size(), 1);
  EXPECT_EQ(d->label(d->root()), "a");
  EXPECT_FALSE(d->has_value(d->root()));
  EXPECT_EQ(d->parent(d->root()), kInvalidNode);
  EXPECT_EQ(d->ord_path(d->root()).Depth(), 1);
}

TEST(DocumentBuilder, StructureAndValues) {
  std::unique_ptr<Document> d = MustParse("a(b=1 c(d=2 e) b)");
  ASSERT_EQ(d->size(), 6);
  NodeIndex a = d->root();
  std::vector<NodeIndex> kids = d->children(a);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(d->label(kids[0]), "b");
  EXPECT_EQ(d->value(kids[0]), "1");
  EXPECT_EQ(d->label(kids[1]), "c");
  EXPECT_EQ(d->label(kids[2]), "b");
  EXPECT_FALSE(d->has_value(kids[2]));
  std::vector<NodeIndex> ckids = d->children(kids[1]);
  ASSERT_EQ(ckids.size(), 2u);
  EXPECT_EQ(d->value(ckids[0]), "2");
}

TEST(Document, PreorderIntervalsGiveAncestry) {
  std::unique_ptr<Document> d = MustParse("a(b(c(d)) e)");
  NodeIndex a = 0;
  NodeIndex b = 1;
  NodeIndex c = 2;
  NodeIndex dd = 3;
  NodeIndex e = 4;
  EXPECT_TRUE(d->IsAncestor(a, dd));
  EXPECT_TRUE(d->IsAncestor(b, dd));
  EXPECT_TRUE(d->IsAncestor(c, dd));
  EXPECT_FALSE(d->IsAncestor(dd, c));
  EXPECT_FALSE(d->IsAncestor(b, e));
  EXPECT_FALSE(d->IsAncestor(a, a));
  EXPECT_TRUE(d->IsParent(c, dd));
  EXPECT_FALSE(d->IsParent(b, dd));
}

TEST(Document, OrdPathsMatchPaperNumbering) {
  std::unique_ptr<Document> d = MustParse("a(b c(b d) d)");
  EXPECT_EQ(d->ord_path(0).ToString(), "1");
  EXPECT_EQ(d->ord_path(1).ToString(), "1.1");
  EXPECT_EQ(d->ord_path(2).ToString(), "1.2");
  EXPECT_EQ(d->ord_path(3).ToString(), "1.2.1");
  EXPECT_EQ(d->ord_path(4).ToString(), "1.2.2");
  EXPECT_EQ(d->ord_path(5).ToString(), "1.3");
}

TEST(Document, FindByOrdPath) {
  std::unique_ptr<Document> d = MustParse("a(b c(b d) d)");
  for (NodeIndex n = 0; n < d->size(); ++n) {
    EXPECT_EQ(d->FindByOrdPath(d->ord_path(n)), n);
  }
  EXPECT_EQ(d->FindByOrdPath(OrdPath::FromString("1.9")), kInvalidNode);
  EXPECT_EQ(d->FindByOrdPath(OrdPath::FromString("2")), kInvalidNode);
  EXPECT_EQ(d->FindByOrdPath(OrdPath()), kInvalidNode);
}

TEST(Document, DepthTracksLevels) {
  std::unique_ptr<Document> d = MustParse("a(b(c(d)))");
  EXPECT_EQ(d->ord_path(0).Depth(), 1);
  EXPECT_EQ(d->ord_path(1).Depth(), 2);
  EXPECT_EQ(d->ord_path(2).Depth(), 3);
  EXPECT_EQ(d->ord_path(3).Depth(), 4);
}

TEST(TreeNotation, QuotedValues) {
  std::unique_ptr<Document> d = MustParse("a(b='hello world')");
  EXPECT_EQ(d->value(1), "hello world");
}

TEST(TreeNotation, RoundTrip) {
  const char* cases[] = {
      "a",
      "a(b c)",
      "a(b=1 c(d=2 e) b)",
      "site(regions(asia(item(name='x y' description))))",
  };
  for (const char* c : cases) {
    std::unique_ptr<Document> d = MustParse(c);
    EXPECT_EQ(ToTreeNotation(*d), c);
  }
}

TEST(TreeNotation, AttributesRoundTrip) {
  // ToTreeNotation prints attributes as `@` leaves; they parse back, and
  // the tree is the one XML reads.
  const char* text = "site(item(@id=i1 @x='' name=a) item(@id=i2))";
  std::unique_ptr<Document> d = MustParse(text);
  EXPECT_EQ(ToTreeNotation(*d), text);
  Result<std::unique_ptr<Document>> xml = ParseXml(SerializeXml(*d));
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  EXPECT_EQ(ToTreeNotation(**xml), text);
}

TEST(TreeNotation, Errors) {
  EXPECT_FALSE(ParseTreeNotation("").ok());
  EXPECT_FALSE(ParseTreeNotation("a(").ok());
  EXPECT_FALSE(ParseTreeNotation("a()").ok());
  EXPECT_FALSE(ParseTreeNotation("a b").ok());
  EXPECT_FALSE(ParseTreeNotation("a(b='x)").ok());
  EXPECT_FALSE(ParseTreeNotation("1a").ok());
}

// ---------------------------------------------------------------------------
// Document versions: a seeded insert/delete stream over XMark
// ---------------------------------------------------------------------------

/// Item subtrees the stream inserts.
const char* kItems[] = {
    "item(location=Chad quantity=2 name='gold ring' payment=Cash "
    "shipping='Will ship internationally')",
    "item(name=lamp description(text(keyword=brass)) incategory=c1)",
    "item(location=Peru)",
};
/// Inserted once, at VersionStream::kNewLabelStep: `novelty` and `sticker`
/// are labels XMark lacks.
constexpr const char* kNewLabelItem = "item(name=kite novelty(sticker=yes))";

/// A seeded update stream over XMark: items inserted into a continent
/// (careted before one of its children or appended), leaves appended under
/// any node (leaves included; attributes refuse them), and deletes of
/// inserted items and of small original subtrees below the continents.
class VersionStream {
 public:
  static constexpr int kNewLabelStep = 250;

  explicit VersionStream(uint64_t seed) : rng_(seed) {
    XmarkOptions opts;
    opts.scale = 0.2;
    opts.seed = seed;
    first_ = GenerateXmark(opts);
    initial_size_ = first_->size();
  }

  /// The generated document; call once, before the first Next().
  std::unique_ptr<Document> TakeFirst() { return std::move(first_); }

  /// The next update of `doc`; `*subtree` holds what an insert inserted
  /// (null after a delete).
  Result<UpdateResult> Next(const Document& doc,
                            std::unique_ptr<Document>* subtree) {
    subtree->reset();
    const int step = step_++;
    if (step != kNewLabelStep) {
      if (!inserted_.empty() && rng_.Bernoulli(0.3)) {
        const auto i = static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(inserted_.size()) - 1));
        const OrdPath target = inserted_[i];
        inserted_.erase(inserted_.begin() + static_cast<std::ptrdiff_t>(i));
        // An original delete may have taken it with an enclosing subtree.
        if (doc.FindByOrdPath(target) != kInvalidNode) {
          return DeleteSubtree(doc, target);
        }
      }
      if (doc.size() > initial_size_ / 2 && rng_.Bernoulli(0.25)) {
        for (int tries = 0; tries < 20; ++tries) {
          const auto n = static_cast<NodeIndex>(rng_.Uniform(1, doc.size() - 1));
          if (doc.ord_path(n).Depth() >= 4 && doc.subtree_end(n) - n <= 12) {
            return DeleteSubtree(doc, doc.ord_path(n));
          }
        }
      }
      if (rng_.Bernoulli(0.15)) {
        // Any node may be drawn, but an attribute refuses children: XML
        // could not write them back. Then an item is inserted instead.
        const auto n = static_cast<NodeIndex>(rng_.Uniform(0, doc.size() - 1));
        *subtree = MustParse("keyword=fresh");
        Result<UpdateResult> r = InsertSubtree(doc, doc.ord_path(n), **subtree);
        if (doc.label(n)[0] != '@') return r;
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << doc.ord_path(n).ToString();
        ++attribute_parents_;
      }
    }
    std::vector<NodeIndex> continents;
    for (NodeIndex n = 0; n < doc.size(); ++n) {
      if (doc.ord_path(n).Depth() == 3 &&
          doc.label(doc.parent(n)) == "regions") {
        continents.push_back(n);
      }
    }
    const NodeIndex continent = rng_.Pick(continents);
    const OrdPath parent = doc.ord_path(continent);
    *subtree = MustParse(step == kNewLabelStep
                             ? kNewLabelItem
                             : kItems[rng_.Uniform(0, std::size(kItems) - 1)]);
    const std::vector<NodeIndex> kids = doc.children(continent);
    Result<UpdateResult> r = Status::Internal("unset");
    if (!kids.empty() && rng_.Bernoulli(0.5)) {
      const OrdPath before = doc.ord_path(rng_.Pick(kids));
      r = InsertSubtree(doc, parent, **subtree, &before);
    } else {
      r = InsertSubtree(doc, parent, **subtree);
    }
    if (r.ok()) inserted_.push_back(r->delta.region);
    return r;
  }

  /// Leaf inserts refused so far because they drew an attribute parent.
  int attribute_parents() const { return attribute_parents_; }

 private:
  Rng rng_;
  std::unique_ptr<Document> first_;
  int32_t initial_size_ = 0;
  int step_ = 0;
  int attribute_parents_ = 0;
  std::vector<OrdPath> inserted_;
};

constexpr int kStreamSteps = 500;

/// Checks every per-node array of `d`, and the navigation derived from
/// them, against what its ORDPATHs and preorder positions imply.
void ExpectArraysFollowOrdPaths(const Document& d) {
  std::vector<NodeIndex> open;  // ancestors of node n, by ORDPATH
  std::vector<NodeIndex> last_child(static_cast<size_t>(d.size()),
                                    kInvalidNode);
  for (NodeIndex n = 0; n < d.size(); ++n) {
    const OrdPath& id = d.ord_path(n);
    if (n > 0) {
      ASSERT_LT(d.ord_path(n - 1).Compare(id), 0) << n;
    }
    while (!open.empty() && !d.ord_path(open.back()).IsAncestorOf(id)) {
      ASSERT_EQ(d.subtree_end(open.back()), n) << open.back();
      open.pop_back();
    }
    const NodeIndex parent = open.empty() ? kInvalidNode : open.back();
    ASSERT_EQ(d.parent(n), parent) << n;
    ASSERT_EQ(id.Depth(), static_cast<int32_t>(open.size()) + 1) << n;
    if (parent != kInvalidNode) {
      ASSERT_TRUE(d.ord_path(parent).IsParentOf(id)) << n;
      NodeIndex& left = last_child[static_cast<size_t>(parent)];
      if (left == kInvalidNode) {
        ASSERT_EQ(d.first_child(parent), n) << parent;
      } else {
        ASSERT_EQ(d.next_sibling(left), n) << left;
      }
      left = n;
    }
    open.push_back(n);
  }
  for (NodeIndex n : open) ASSERT_EQ(d.subtree_end(n), d.size()) << n;
  for (NodeIndex n = 0; n < d.size(); ++n) {
    const NodeIndex last = last_child[static_cast<size_t>(n)];
    if (last == kInvalidNode) {
      ASSERT_EQ(d.first_child(n), kInvalidNode) << n;
    } else {
      ASSERT_EQ(d.next_sibling(last), kInvalidNode) << last;
    }
  }
  ASSERT_EQ(d.next_sibling(d.root()), kInvalidNode);
}

/// Checks that `up` kept every node of `prev` outside its region at the
/// same id with the same label and value, and that an insert's region
/// holds `subtree`'s nodes in preorder.
void ExpectSpliced(const Document& prev, const UpdateResult& up,
                   const Document* subtree) {
  const Document& next = *up.doc;
  const bool insert = up.delta.kind == DocumentDelta::Kind::kInsert;
  ASSERT_EQ(insert, subtree != nullptr);
  const Document& region_doc = insert ? next : prev;
  const NodeIndex root = region_doc.FindByOrdPath(up.delta.region);
  ASSERT_NE(root, kInvalidNode);
  const NodeIndex k = region_doc.subtree_end(root) - root;
  ASSERT_EQ(k, up.delta.region_size);
  ASSERT_EQ(next.size(), prev.size() + (insert ? k : -k));
  // Surviving node i of `prev` sits at i, or k places later (insert) or
  // earlier (delete) past the region.
  for (NodeIndex i = 0; i < prev.size(); ++i) {
    if (!insert && i >= root && i < root + k) {
      ASSERT_EQ(next.FindByOrdPath(prev.ord_path(i)), kInvalidNode) << i;
      continue;
    }
    const NodeIndex j = i < root ? i : (insert ? i + k : i - k);
    ASSERT_EQ(next.ord_path(j), prev.ord_path(i)) << i;
    ASSERT_EQ(next.label(j), prev.label(i)) << i;
    ASSERT_EQ(next.has_value(j), prev.has_value(i)) << i;
    if (prev.has_value(i)) {
      ASSERT_EQ(next.value(j), prev.value(i)) << i;
    }
  }
  if (!insert) return;
  ASSERT_EQ(k, subtree->size());
  for (NodeIndex j = 0; j < k; ++j) {
    const NodeIndex n = root + j;
    ASSERT_EQ(next.label(n), subtree->label(j)) << j;
    ASSERT_EQ(next.has_value(n), subtree->has_value(j)) << j;
    if (subtree->has_value(j)) {
      ASSERT_EQ(next.value(n), subtree->value(j)) << j;
    }
    // The subtree's "1" becomes the region id: "1.2.3" lands at
    // region + ".2.3".
    const std::string rest = subtree->ord_path(j).ToString().substr(1);
    ASSERT_EQ(next.ord_path(n),
              OrdPath::FromString(up.delta.region.ToString() + rest))
        << j;
  }
}

/// Bytes of the values of `d`'s nodes; an update keeps no others.
size_t ValueBytesOfNodes(const Document& d) {
  size_t n = 0;
  for (NodeIndex i = 0; i < d.size(); ++i) {
    n += d.has_value(i) ? d.value(i).size() : 0;
  }
  return n;
}

TEST(DocumentVersions, SplicedVersionsStayWellFormed) {
  VersionStream stream(17);
  std::unique_ptr<Document> doc = stream.TakeFirst();
  ASSERT_NO_FATAL_FAILURE(ExpectArraysFollowOrdPaths(*doc));
  int inserts = 0;
  int deletes = 0;
  bool new_label_seen = false;
  for (int step = 0; step < kStreamSteps; ++step) {
    std::unique_ptr<Document> subtree;
    Result<UpdateResult> up = stream.Next(*doc, &subtree);
    ASSERT_TRUE(up.ok()) << step << ": " << up.status().ToString();
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_NO_FATAL_FAILURE(ExpectSpliced(*doc, *up, subtree.get()));
    ASSERT_NO_FATAL_FAILURE(ExpectArraysFollowOrdPaths(*up->doc));
    ASSERT_EQ(up->doc->value_bytes(), ValueBytesOfNodes(*up->doc));
    (subtree != nullptr ? inserts : deletes) += 1;
    if (step == VersionStream::kNewLabelStep) {
      ASSERT_EQ(doc->labels().Find("novelty"), StringInterner::kNone);
      const NodeIndex item = up->doc->FindByOrdPath(up->delta.region);
      EXPECT_EQ(up->doc->label(item + 2), "novelty");
      new_label_seen = true;
    }
    doc = std::move(up->doc);
  }
  EXPECT_TRUE(new_label_seen);
  EXPECT_GT(inserts, kStreamSteps / 4);
  EXPECT_GT(deletes, kStreamSteps / 4);

  // Repeated insert/delete cycles leave value storage where it started.
  const size_t values = doc->value_bytes();
  const NodeIndex continent = doc->parent(doc->FindByOrdPath(
      OrdPath::FromString("1.1.1.1")));
  ASSERT_NE(continent, kInvalidNode);
  std::unique_ptr<Document> item = MustParse(kItems[0]);
  for (int cycle = 0; cycle < 50; ++cycle) {
    Result<UpdateResult> in =
        InsertSubtree(*doc, doc->ord_path(continent), *item);
    ASSERT_TRUE(in.ok());
    Result<UpdateResult> out = DeleteSubtree(*in->doc, in->delta.region);
    ASSERT_TRUE(out.ok());
    doc = std::move(out->doc);
    ASSERT_EQ(doc->value_bytes(), values) << cycle;
  }
}

/// "/site/regions/..." for every node of `d`, from its labels alone.
std::vector<std::string> LabelPaths(const Document& d) {
  std::vector<std::string> paths(static_cast<size_t>(d.size()));
  for (NodeIndex n = 0; n < d.size(); ++n) {
    const NodeIndex p = d.parent(n);
    paths[static_cast<size_t>(n)] =
        (p == kInvalidNode ? "" : paths[static_cast<size_t>(p)]) + "/" +
        d.label(n);
  }
  return paths;
}

TEST(DocumentVersions, SummaryOfEachVersionMatchesAParsedRebuild) {
  VersionStream stream(17);
  std::unique_ptr<Document> doc = stream.TakeFirst();
  for (int step = 0; step < kStreamSteps; ++step) {
    std::unique_ptr<Document> subtree;
    Result<UpdateResult> up = stream.Next(*doc, &subtree);
    ASSERT_TRUE(up.ok()) << step << ": " << up.status().ToString();
    doc = std::move(up->doc);
    SCOPED_TRACE("step " + std::to_string(step));
    std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());
    // Conforms counts children by its own walk over label strings.
    ASSERT_TRUE(Conforms(*doc, *summary));
    // The same tree through XML, whose parser interns labels afresh.
    Result<std::unique_ptr<Document>> parsed = ParseXml(SerializeXml(*doc));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(ToTreeNotation(**parsed), ToTreeNotation(*doc));
    ASSERT_NO_FATAL_FAILURE(ExpectArraysFollowOrdPaths(**parsed));
    std::unique_ptr<Summary> rebuilt = SummaryBuilder::Build(parsed->get());
    ASSERT_EQ(summary->StructureKey(), rebuilt->StructureKey());
    ASSERT_TRUE(summary->StructurallyEquals(*rebuilt));
    // Every node's label path is a summary path, numbered alike in both.
    const std::vector<std::string> paths = LabelPaths(*doc);
    const std::vector<std::string> parsed_paths = LabelPaths(**parsed);
    for (NodeIndex n = 0; n < doc->size(); ++n) {
      const std::string& path = paths[static_cast<size_t>(n)];
      const PathId id = summary->Resolve(path);
      ASSERT_NE(id, kInvalidPath) << path;
      ASSERT_EQ(summary->PathString(id), path);
      ASSERT_EQ(rebuilt->Resolve(parsed_paths[static_cast<size_t>(n)]), id)
          << path;
    }
  }
  EXPECT_GT(stream.attribute_parents(), 0);
}

TEST(DocumentVersions, NavigationFollowsOrdPathsOnEveryConstruction) {
  XmarkOptions opts;
  opts.scale = 0.05;
  ASSERT_NO_FATAL_FAILURE(ExpectArraysFollowOrdPaths(*GenerateXmark(opts)));
  ASSERT_NO_FATAL_FAILURE(ExpectArraysFollowOrdPaths(
      *MustParse("a(b=1 c(d=2 e(f g) h) b i(j(k(l))) m)")));
  Result<std::unique_ptr<Document>> xml =
      ParseXml("<a x=\"1\"><b y=\"2\">t<c/><d z=\"3\"/></b><e/></a>");
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  ASSERT_NO_FATAL_FAILURE(ExpectArraysFollowOrdPaths(**xml));
}

}  // namespace
}  // namespace svx
