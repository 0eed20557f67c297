// Structural node identifiers (ORDPATH / Dewey order, O'Neil et al. SIGMOD'04
// and Tatarinov et al. SIGMOD'02). These ids make the paper's "Exploiting ID
// properties" reasoning possible:
//   * document order is id order,
//   * parent / ancestor relationships are decidable by comparing two ids,
//   * a node's parent id is derivable from the node's own id (navfID).
//
// As in the ORDPATH paper, an id is one prefix-free byte string: each
// component has an order-preserving code whose lead byte fixes its length,
// so comparing two ids is comparing their bytes, and an ancestor's bytes are
// a prefix of its descendants'. XMark ids average under 8 bytes and take
// at most 13 at scale 8, which std::string keeps inline (libstdc++ holds up
// to 15 bytes without allocating): copying such an id allocates nothing.
#ifndef SVX_XML_NODE_ID_H_
#define SVX_XML_NODE_ID_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace svx {

/// A Dewey-style structural identifier: the sequence of 1-based ordinals on
/// the path from the root ("1") to the node, e.g. "1.3.3.1" in the paper's
/// Figure 2. Total order = document order.
///
/// Careting (ORDPATH §"insertion between siblings", adapted to consecutive
/// ordinals): besides real ordinals (≥ 1), a component may be a *caret* —
/// kCaretLow (0, printed "0") or kCaretHigh (printed "^").
/// Components decompose into *keys*, each a run of carets followed by one
/// real ordinal; a key starting with kCaretHigh anchors the node AFTER the
/// subtree of the id it extends (a later sibling), any other key descends
/// one level. Examples (children of "1"):
///
///   1.0.1      before the first child "1.1"        (depth 2, parent "1")
///   1.3.^.1    between "1.3"'s subtree and "1.4"   (depth 2, parent "1")
///   1.3.^.0.1  between "1.3"'s subtree and 1.3.^.1 (depth 2, parent "1")
///
/// The byte code of one component, by lead byte:
///
///   0x00–0x7F  the ordinal itself (0 is kCaretLow)       1 byte
///   0x80–0xBF  ordinals 128 .. 16,511                    2 bytes
///   0xC0–0xDF  ordinals 16,512 .. 2,113,663              3 bytes
///   0xE0–0xEF  ordinals 2,113,664 .. 270,549,119         4 bytes
///   0xF0       ordinals 270,549,120 .. kCaretHigh - 1    5 bytes
///   0xFF       kCaretHigh                                1 byte
///
/// A longer code has a larger lead byte and the rest is big-endian, so byte
/// order is numeric order within a level and, ids being concatenated codes,
/// document order overall. Existing ids never change, and Parent() /
/// Depth() / ancestor tests are caret-aware prefix operations — which is
/// what lets InsertSubtree place a subtree before an arbitrary sibling
/// without renumbering (src/xml/update.h).
class OrdPath {
 public:
  /// Caret component values (see class comment). Real ordinals are
  /// 1..kCaretHigh-1.
  static constexpr int32_t kCaretLow = 0;
  static constexpr int32_t kCaretHigh =
      std::numeric_limits<int32_t>::max();

  static constexpr bool IsCaret(int32_t c) {
    return c == kCaretLow || c == kCaretHigh;
  }

  OrdPath() = default;

  /// Parses "1.3.3.1" (carets: "0" and "^"); returns an empty (invalid) id
  /// on malformed input.
  static OrdPath FromString(const std::string& s);

  /// The root identifier "1".
  static OrdPath Root() { return OrdPath(std::string_view("\x01", 1)); }

  /// Id of this node's `i`-th child (1-based).
  OrdPath Child(int32_t ordinal) const;

  /// Id for a fresh node placed immediately before sibling `right` in
  /// document order, leaving every existing id unchanged. `left` is
  /// `right`'s immediate preceding sibling, or invalid when `right` is its
  /// parent's first child (then `parent` anchors the caret). The result is
  /// a sibling of `right` (child of `parent`, same depth) that sorts after
  /// `left`'s entire subtree and before `right`. Requires that no existing
  /// node sorts strictly between `left`'s subtree (resp. `parent`) and
  /// `right` — i.e. that `left`/`parent` really is the immediate
  /// predecessor context.
  static OrdPath CaretBefore(const OrdPath& parent, const OrdPath& left,
                             const OrdPath& right);

  /// Id of the parent; invalid (empty) for the root. This is the paper's
  /// parent-ID derivation used by the navfID operator. Caret-aware: the
  /// parent of "1.3.^.1" is "1" (the id is a sibling of "1.3").
  OrdPath Parent() const;

  /// Id of the ancestor `steps` levels up (Parent applied `steps` times).
  OrdPath Ancestor(int32_t steps) const;

  /// Length of the parent's id within an id's `bytes`: 0 for the root.
  /// Applied to its own result it walks the strict ancestors, nearest
  /// first, as prefixes of `bytes`, so an ancestor probe builds no OrdPath.
  static size_t ParentLength(std::string_view bytes);

  /// True for default-constructed / root-parent results.
  bool IsValid() const { return !bytes_.empty(); }

  /// Depth of the node; the root has depth 1. Caret keys starting with
  /// kCaretHigh contribute no depth (they denote later siblings, not
  /// descendants).
  int32_t Depth() const;

  /// True iff this node is the parent of `other`.
  bool IsParentOf(const OrdPath& other) const;

  /// True iff this node is a strict ancestor of `other`: its bytes are a
  /// proper prefix of `other`'s that a high caret does not continue.
  bool IsAncestorOf(const OrdPath& other) const;

  /// True iff this node is `other` or a strict ancestor of it.
  bool IsAncestorOrSelf(const OrdPath& other) const;

  /// Document order comparison: <0, 0, >0. An ancestor precedes its
  /// descendants (pre-order). A byte comparison.
  int Compare(const OrdPath& other) const {
    return bytes_.compare(other.bytes_);
  }

  bool operator==(const OrdPath& other) const {
    return bytes_ == other.bytes_;
  }
  bool operator!=(const OrdPath& other) const { return !(*this == other); }
  bool operator<(const OrdPath& other) const { return Compare(other) < 0; }

  /// "1.3.3.1".
  std::string ToString() const;

  /// Hash of the bytes, for hash joins on ids.
  size_t Hash() const;

  /// The id's byte string (see the class comment).
  std::string_view bytes() const { return bytes_; }

  // Component access, for the extent codec, which stores an id as its list
  // of components (real ordinals, kCaretLow and kCaretHigh).

  /// Number of components.
  int32_t NumComponents() const;

  /// The component whose code starts at byte `*pos` (0 for the first);
  /// advances `*pos` to the next code. Requires *pos < bytes().size().
  int32_t ComponentAt(size_t* pos) const;

  /// Appends component `c` (0 <= c <= kCaretHigh). An id that ends in a
  /// caret names no node: decoders must reject it.
  void AppendComponent(int32_t c);

 private:
  friend class Document;

  /// An id from bytes some id's bytes() returned.
  explicit OrdPath(std::string_view bytes) : bytes_(bytes) {}

  std::string bytes_;
};

/// std::hash adapter for OrdPath.
struct OrdPathHash {
  size_t operator()(const OrdPath& p) const { return p.Hash(); }
};

}  // namespace svx

#endif  // SVX_XML_NODE_ID_H_
