#include "src/util/check.h"
#include "src/xml/builder.h"

#include <cctype>

#include "src/util/strings.h"

namespace svx {

DocumentBuilder::DocumentBuilder() : doc_(new Document()) {}

NodeIndex DocumentBuilder::StartElement(std::string_view label) {
  SVX_CHECK_MSG(!root_emitted_ || !stack_.empty(),
                "document must have a single root");
  Document& d = *doc_;
  NodeIndex n = d.size();
  d.labels_.push_back(d.label_interner_.Intern(label));
  d.value_ids_.push_back(-1);
  d.subtree_ends_.push_back(kInvalidNode);

  if (stack_.empty()) {
    d.parents_.push_back(kInvalidNode);
    d.ord_paths_.push_back(OrdPath::Root());
    root_emitted_ = true;
  } else {
    Open& top = stack_.back();
    d.parents_.push_back(top.node);
    ++top.child_count;
    d.ord_paths_.push_back(
        d.ord_paths_[static_cast<size_t>(top.node)].Child(top.child_count));
  }
  stack_.push_back(Open{n, 0});
  return n;
}

void DocumentBuilder::AppendValue(std::string_view value) {
  SVX_CHECK_MSG(!stack_.empty(), "AppendValue outside any element");
  Document& d = *doc_;
  size_t n = static_cast<size_t>(stack_.back().node);
  if (d.value_ids_[n] < 0) {
    d.value_ids_[n] = static_cast<int32_t>(d.values_.size());
    d.values_.emplace_back(value);
  } else {
    d.values_[static_cast<size_t>(d.value_ids_[n])].append(value);
  }
}

void DocumentBuilder::EndElement() {
  SVX_CHECK_MSG(!stack_.empty(), "EndElement without StartElement");
  Document& d = *doc_;
  NodeIndex n = stack_.back().node;
  d.subtree_ends_[static_cast<size_t>(n)] = d.size();
  stack_.pop_back();
}

std::unique_ptr<Document> DocumentBuilder::Finish() {
  SVX_CHECK_MSG(stack_.empty(), "unclosed elements at Finish");
  SVX_CHECK_MSG(root_emitted_, "empty document");
  return std::move(doc_);
}

namespace {

/// Recursive-descent parser for the parenthesized notation.
class TreeNotationParser {
 public:
  explicit TreeNotationParser(std::string_view text) : text_(text) {}

  Result<std::unique_ptr<Document>> Parse() {
    SkipSpace();
    SVX_RETURN_IF_ERROR(ParseNode());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError(
          StrFormat("trailing input at offset %zu", pos_));
    }
    return builder_.Finish();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == ',')) {
      ++pos_;
    }
  }

  static bool IsLabelStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == '*' || c == '#';
  }
  static bool IsLabelChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '#';
  }

  Status ParseNode() {
    if (pos_ >= text_.size() || !IsLabelStart(text_[pos_])) {
      return Status::ParseError(
          StrFormat("expected label at offset %zu", pos_));
    }
    size_t start = pos_;
    ++pos_;
    while (pos_ < text_.size() && IsLabelChar(text_[pos_])) ++pos_;
    builder_.StartElement(text_.substr(start, pos_ - start));

    if (pos_ < text_.size() && text_[pos_] == '=') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == '\'') {
        ++pos_;
        size_t vstart = pos_;
        while (pos_ < text_.size() && text_[pos_] != '\'') ++pos_;
        if (pos_ >= text_.size()) {
          return Status::ParseError("unterminated quoted value");
        }
        builder_.AppendValue(text_.substr(vstart, pos_ - vstart));
        ++pos_;
      } else {
        size_t vstart = pos_;
        while (pos_ < text_.size() && text_[pos_] != ' ' &&
               text_[pos_] != '(' && text_[pos_] != ')' &&
               text_[pos_] != ',' && text_[pos_] != '\n') {
          ++pos_;
        }
        if (vstart == pos_) return Status::ParseError("empty value after '='");
        builder_.AppendValue(text_.substr(vstart, pos_ - vstart));
      }
    }

    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '(') {
      ++pos_;
      SkipSpace();
      bool any = false;
      while (pos_ < text_.size() && text_[pos_] != ')') {
        SVX_RETURN_IF_ERROR(ParseNode());
        any = true;
        SkipSpace();
      }
      if (pos_ >= text_.size()) return Status::ParseError("missing ')'");
      if (!any) return Status::ParseError("empty child list");
      ++pos_;  // consume ')'
      SkipSpace();
    }
    builder_.EndElement();
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  DocumentBuilder builder_;
};

}  // namespace

Result<std::unique_ptr<Document>> ParseTreeNotation(std::string_view text) {
  return TreeNotationParser(text).Parse();
}

}  // namespace svx
