#include "src/xml/serializer.h"

#include "src/util/strings.h"

namespace svx {

namespace {

void SerializeNode(const Document& doc, NodeIndex n, int indent, int depth,
                   std::string* out) {
  auto pad = [&](int d) {
    if (indent >= 0) out->append(static_cast<size_t>(d * indent), ' ');
  };
  pad(depth);
  out->push_back('<');
  out->append(doc.label(n));

  // Emit "@" children as attributes.
  std::vector<NodeIndex> element_children;
  for (NodeIndex c = doc.first_child(n); c != kInvalidNode;
       c = doc.next_sibling(c)) {
    const std::string& l = doc.label(c);
    if (!l.empty() && l[0] == '@' && doc.first_child(c) == kInvalidNode) {
      out->push_back(' ');
      out->append(l.substr(1));
      out->append("=\"");
      out->append(doc.has_value(c) ? XmlEscape(doc.value(c)) : "");
      out->push_back('"');
    } else {
      element_children.push_back(c);
    }
  }

  bool has_text = doc.has_value(n);
  if (element_children.empty() && !has_text) {
    out->append("/>");
    if (indent >= 0) out->push_back('\n');
    return;
  }
  out->push_back('>');
  if (has_text) {
    out->append(XmlEscape(doc.value(n)));
  }
  if (!element_children.empty()) {
    if (indent >= 0) out->push_back('\n');
    for (NodeIndex c : element_children) {
      SerializeNode(doc, c, indent, depth + 1, out);
    }
    pad(depth);
  }
  out->append("</");
  out->append(doc.label(n));
  out->push_back('>');
  if (indent >= 0) out->push_back('\n');
}

bool NeedsQuoting(std::string_view v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ' ' || c == '(' || c == ')' || c == ',' || c == '\'' ||
        c == '\n') {
      return true;
    }
  }
  return false;
}

void TreeNotationNode(const Document& doc, NodeIndex n, std::string* out) {
  out->append(doc.label(n));
  if (doc.has_value(n)) {
    out->push_back('=');
    const std::string_view v = doc.value(n);
    if (NeedsQuoting(v)) {
      out->push_back('\'');
      out->append(v);  // note: assumes no single quotes inside
      out->push_back('\'');
    } else {
      out->append(v);
    }
  }
  NodeIndex c = doc.first_child(n);
  if (c != kInvalidNode) {
    out->push_back('(');
    bool first = true;
    for (; c != kInvalidNode; c = doc.next_sibling(c)) {
      if (!first) out->push_back(' ');
      first = false;
      TreeNotationNode(doc, c, out);
    }
    out->push_back(')');
  }
}

}  // namespace

std::string SerializeXmlSubtree(const Document& doc, NodeIndex n, int indent) {
  std::string out;
  if (n != kInvalidNode) SerializeNode(doc, n, indent, 0, &out);
  return out;
}

std::string SerializeXml(const Document& doc, int indent) {
  return SerializeXmlSubtree(doc, doc.root(), indent);
}

std::string ToTreeNotation(const Document& doc, NodeIndex n) {
  std::string out;
  if (n != kInvalidNode) TreeNotationNode(doc, n, &out);
  return out;
}

std::string ToTreeNotation(const Document& doc) {
  return ToTreeNotation(doc, doc.root());
}

}  // namespace svx
