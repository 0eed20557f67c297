#include "src/xml/node_id.h"

#include <functional>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace svx {

namespace {

// First ordinal of each multi-byte code length (see the class comment).
constexpr int32_t kTwoByteBase = 0x80;
constexpr int32_t kThreeByteBase = kTwoByteBase + (1 << 14);
constexpr int32_t kFourByteBase = kThreeByteBase + (1 << 21);
constexpr int32_t kFiveByteBase = kFourByteBase + (1 << 28);

constexpr uint8_t kLowCaretByte = 0x00;
constexpr uint8_t kHighCaretByte = 0xFF;

uint8_t ByteAt(std::string_view b, size_t i) {
  return static_cast<uint8_t>(b[i]);
}

/// Length of the code whose lead byte is `lead`.
size_t CodeLength(uint8_t lead) {
  if (lead < 0x80 || lead == kHighCaretByte) return 1;
  if (lead < 0xC0) return 2;
  if (lead < 0xE0) return 3;
  if (lead < 0xF0) return 4;
  return 5;
}

bool IsCaretByte(uint8_t lead) {
  return lead == kLowCaretByte || lead == kHighCaretByte;
}

/// Calls fn(start) for each key of `b` at or past byte `from` (a key
/// start) with the byte position where it starts. A key is a run of
/// one-byte caret codes and the real ordinal that ends it; it descends one
/// level unless its first byte is a high caret.
template <typename Fn>
void ForEachKey(std::string_view b, size_t from, Fn fn) {
  size_t pos = from;
  while (pos < b.size()) {
    const size_t start = pos;
    while (pos < b.size() && IsCaretByte(ByteAt(b, pos))) ++pos;
    if (pos < b.size()) pos += CodeLength(ByteAt(b, pos));
    fn(start);
  }
}

/// Whether the key starting at byte `start` of `b` descends a level.
bool Descends(std::string_view b, size_t start) {
  return ByteAt(b, start) != kHighCaretByte;
}

/// Start of the `index`-th (0-based) depth-contributing key of `b`; the
/// caller knows there are more than `index` of them.
size_t LevelStart(std::string_view b, int32_t index) {
  size_t found = 0;
  int32_t seen = 0;
  ForEachKey(b, 0, [&](size_t start) {
    if (Descends(b, start) && seen++ == index) found = start;
  });
  return found;
}

bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Appends to `out` a key sorting just below the key of `right` that starts
/// at byte `pos` — its run of low carets plus its real ordinal m becomes
/// (0^z, m-1), or (0^(z+1), 1) when m == 1.
void AppendKeyBefore(const OrdPath& right, size_t pos, OrdPath* out) {
  SVX_CHECK_MSG(pos < right.bytes().size(), "malformed ordpath key");
  int32_t c = right.ComponentAt(&pos);
  while (c == OrdPath::kCaretLow) {
    out->AppendComponent(OrdPath::kCaretLow);
    SVX_CHECK_MSG(pos < right.bytes().size(), "malformed ordpath key");
    c = right.ComponentAt(&pos);
  }
  SVX_CHECK_MSG(!OrdPath::IsCaret(c), "malformed ordpath key");
  if (c > 1) {
    out->AppendComponent(c - 1);
  } else {
    out->AppendComponent(OrdPath::kCaretLow);
    out->AppendComponent(1);
  }
}

}  // namespace

OrdPath OrdPath::FromString(const std::string& s) {
  OrdPath out;
  int32_t last = kCaretLow;
  for (const std::string& piece : Split(s, '.')) {
    if (piece == "^") {
      last = kCaretHigh;
    } else {
      auto v = ParseInt64(piece);
      if (!v.has_value() || *v < 0 || *v >= kCaretHigh) return OrdPath();
      last = static_cast<int32_t>(*v);
    }
    out.AppendComponent(last);
  }
  // A valid id ends each caret run with a real ordinal.
  if (IsCaret(last)) return OrdPath();
  return out;
}

OrdPath OrdPath::Child(int32_t ordinal) const {
  SVX_CHECK(ordinal >= 1 && ordinal < kCaretHigh);
  OrdPath out = *this;
  out.AppendComponent(ordinal);
  return out;
}

OrdPath OrdPath::CaretBefore(const OrdPath& parent, const OrdPath& left,
                             const OrdPath& right) {
  SVX_CHECK(parent.IsValid() && right.IsValid());
  if (!left.IsValid()) {
    // New first child: descend from the parent just below `right`'s first
    // suffix key (which starts with a low caret or a real ordinal — a high
    // caret would make `right` a sibling of the parent, not a child).
    SVX_CHECK(parent.IsAncestorOf(right));
    OrdPath out = parent;
    AppendKeyBefore(right, parent.bytes_.size(), &out);
    return out;
  }
  SVX_CHECK(left.Compare(right) < 0);
  OrdPath out = left;
  out.AppendComponent(kCaretHigh);
  if (HasPrefix(right.bytes_, left.bytes_)) {
    // `right` is caret-anchored at `left`: squeeze below its anchor key,
    // which must start with a high caret (a sibling, not a descendant).
    SVX_CHECK(!Descends(right.bytes_, left.bytes_.size()));
    AppendKeyBefore(right, left.bytes_.size() + 1, &out);
  } else {
    // Anything extending `left` with a high-caret key sorts after `left`'s
    // subtree and (diverging from `right` inside `left`'s own bytes)
    // before `right`.
    out.AppendComponent(1);
  }
  return out;
}

int32_t OrdPath::Depth() const {
  int32_t depth = 0;
  ForEachKey(bytes_, 0, [&](size_t start) {
    if (Descends(bytes_, start)) ++depth;
  });
  return depth;
}

size_t OrdPath::ParentLength(std::string_view bytes) {
  // The parent ends where the id's last level begins; the root's begins at
  // 0, so its parent is empty.
  size_t last = 0;
  ForEachKey(bytes, 0, [&](size_t start) {
    if (Descends(bytes, start)) last = start;
  });
  return last;
}

OrdPath OrdPath::Parent() const {
  return OrdPath(std::string_view(bytes_).substr(0, ParentLength(bytes_)));
}

OrdPath OrdPath::Ancestor(int32_t steps) const {
  SVX_CHECK(steps >= 0);
  if (steps == 0) return *this;
  // The ancestor ends where the id's (depth - steps)-th level begins.
  const int32_t keep = Depth() - steps;
  if (keep <= 0) return OrdPath();
  return OrdPath(std::string_view(bytes_).substr(0, LevelStart(bytes_, keep)));
}

bool OrdPath::IsParentOf(const OrdPath& other) const {
  if (!IsAncestorOf(other)) return false;
  // Past this id, `other` has one descending key and only sibling keys.
  int32_t levels = 0;
  ForEachKey(other.bytes_, bytes_.size(), [&](size_t start) {
    if (Descends(other.bytes_, start)) ++levels;
  });
  return levels == 1;
}

bool OrdPath::IsAncestorOf(const OrdPath& other) const {
  // A proper prefix ends at a code boundary of `other` (the code is
  // prefix-free). If the extension starts with a high caret it names a
  // later *sibling* of this node (or a node hanging under one), not a
  // descendant.
  return IsValid() && other.bytes_.size() > bytes_.size() &&
         HasPrefix(other.bytes_, bytes_) &&
         Descends(other.bytes_, bytes_.size());
}

bool OrdPath::IsAncestorOrSelf(const OrdPath& other) const {
  return *this == other || IsAncestorOf(other);
}

std::string OrdPath::ToString() const {
  std::string out;
  for (size_t pos = 0; pos < bytes_.size();) {
    if (pos > 0) out += '.';
    const int32_t c = ComponentAt(&pos);
    if (c == kCaretHigh) {
      out += '^';
    } else {
      out += std::to_string(c);
    }
  }
  return out;
}

size_t OrdPath::Hash() const { return std::hash<std::string_view>{}(bytes_); }

int32_t OrdPath::NumComponents() const {
  int32_t n = 0;
  for (size_t pos = 0; pos < bytes_.size();
       pos += CodeLength(ByteAt(bytes_, pos))) {
    ++n;
  }
  return n;
}

int32_t OrdPath::ComponentAt(size_t* pos) const {
  SVX_DCHECK(*pos < bytes_.size());
  const uint8_t lead = ByteAt(bytes_, *pos);
  const size_t len = CodeLength(lead);
  SVX_DCHECK(*pos + len <= bytes_.size());
  if (lead == kHighCaretByte) {
    ++*pos;
    return kCaretHigh;
  }
  // The payload: the lead byte's low bits (none for 0xF0), then the
  // continuation bytes, big-endian.
  static constexpr uint8_t kLeadMask[] = {0x7F, 0x3F, 0x1F, 0x0F, 0x00};
  static constexpr int32_t kBase[] = {0, kTwoByteBase, kThreeByteBase,
                                      kFourByteBase, kFiveByteBase};
  uint32_t x = lead & kLeadMask[len - 1];
  for (size_t i = 1; i < len; ++i) x = (x << 8) | ByteAt(bytes_, *pos + i);
  *pos += len;
  return static_cast<int32_t>(static_cast<uint32_t>(kBase[len - 1]) + x);
}

void OrdPath::AppendComponent(int32_t c) {
  SVX_DCHECK(c >= 0);
  if (c == kCaretHigh) {
    bytes_ += static_cast<char>(kHighCaretByte);
    return;
  }
  size_t len = 1;
  uint32_t x = static_cast<uint32_t>(c);
  uint8_t lead_bits = 0;
  if (c >= kFiveByteBase) {
    len = 5;
    x -= kFiveByteBase;
    lead_bits = 0xF0;
  } else if (c >= kFourByteBase) {
    len = 4;
    x -= kFourByteBase;
    lead_bits = 0xE0;
  } else if (c >= kThreeByteBase) {
    len = 3;
    x -= kThreeByteBase;
    lead_bits = 0xC0;
  } else if (c >= kTwoByteBase) {
    len = 2;
    x -= kTwoByteBase;
    lead_bits = 0x80;
  }
  // Lead byte: the tag bits and the payload bits above the continuation
  // bytes (a 5-byte code's payload is all in its four continuation bytes).
  const uint32_t lead_payload = len == 5 ? 0 : x >> (8 * (len - 1));
  bytes_ += static_cast<char>(lead_bits | lead_payload);
  for (size_t i = len - 1; i > 0; --i) {
    bytes_ += static_cast<char>((x >> (8 * (i - 1))) & 0xFF);
  }
}

}  // namespace svx
