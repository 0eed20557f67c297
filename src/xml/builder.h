// Incremental construction of Documents (SAX-style) plus the paper's
// parenthesized tree notation, e.g. "a(b c(d))" or with values
// "a(b=1 c(d=2))" (§2.1: "We may denote trees in a simple parenthesized
// notation").
#ifndef SVX_XML_BUILDER_H_
#define SVX_XML_BUILDER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"
#include "src/xml/document.h"

namespace svx {

/// SAX-style document builder. Usage:
///   DocumentBuilder b;
///   b.StartElement("a"); b.StartElement("b"); b.SetValue("1");
///   b.EndElement(); b.EndElement();
///   std::unique_ptr<Document> doc = b.Finish();
class DocumentBuilder {
 public:
  DocumentBuilder();

  /// Opens a new element; returns its node index.
  NodeIndex StartElement(std::string_view label);

  /// Attaches (or appends to) the atomic value of the innermost open element.
  void AppendValue(std::string_view value);

  /// Closes the innermost open element.
  void EndElement();

  /// Finishes the document. All elements must be closed; the builder must
  /// have produced exactly one root.
  std::unique_ptr<Document> Finish();

  /// Depth of the currently open element stack.
  int32_t open_depth() const { return static_cast<int32_t>(stack_.size()); }

 private:
  std::unique_ptr<Document> doc_;
  StringInterner labels_;
  // Values by node until Finish lays them out in preorder: text after a
  // child element (mixed content) still appends to its parent's value.
  std::vector<int32_t> value_ids_;  // -1 = no value
  std::vector<std::string> values_;
  struct Open {
    NodeIndex node;
    int32_t child_count = 0;
  };
  std::vector<Open> stack_;
  bool root_emitted_ = false;
};

/// Parses the parenthesized notation, which ToTreeNotation prints. Labels
/// are [@A-Za-z_][A-Za-z0-9_-]* ("@id" names an attribute); a value is
/// attached with '=' followed by either a bare token or a single-quoted
/// string. Children are whitespace- or comma-separated inside parentheses.
///   "site(regions(asia(item(@id=i3 name=pen))))"
Result<std::unique_ptr<Document>> ParseTreeNotation(std::string_view text);

}  // namespace svx

#endif  // SVX_XML_BUILDER_H_
