#include "src/util/check.h"
#include "src/xml/parser.h"

#include <cctype>
#include <cstdlib>
#include <string>

#include "src/util/strings.h"
#include "src/xml/builder.h"

namespace svx {

namespace {

class XmlParserImpl {
 public:
  explicit XmlParserImpl(std::string_view text) : text_(text) {}

  Result<std::unique_ptr<Document>> Parse() {
    SkipMisc();
    if (!AtChar('<')) return Err("expected root element");
    SVX_RETURN_IF_ERROR(ParseElement());
    SkipMisc();
    if (pos_ != text_.size()) return Err("trailing content after root");
    return builder_.Finish();
  }

 private:
  Result<std::unique_ptr<Document>> Err(const std::string& what) {
    return Status::ParseError(
        StrFormat("%s at offset %zu", what.c_str(), pos_));
  }
  Status ErrS(const std::string& what) {
    return Status::ParseError(
        StrFormat("%s at offset %zu", what.c_str(), pos_));
  }

  bool AtChar(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool AtString(std::string_view s) const {
    return text_.size() - pos_ >= s.size() &&
           text_.substr(pos_, s.size()) == s;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  // Skips whitespace, comments, PIs and the XML declaration / doctype.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (AtString("<!--")) {
        size_t end = text_.find("-->", pos_ + 4);
        pos_ = (end == std::string_view::npos) ? text_.size() : end + 3;
      } else if (AtString("<?")) {
        size_t end = text_.find("?>", pos_ + 2);
        pos_ = (end == std::string_view::npos) ? text_.size() : end + 2;
      } else if (AtString("<!DOCTYPE")) {
        size_t end = text_.find('>', pos_ + 9);
        pos_ = (end == std::string_view::npos) ? text_.size() : end + 1;
      } else {
        break;
      }
    }
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }

  std::string_view ParseName() {
    size_t start = pos_;
    if (pos_ < text_.size() && IsNameStart(text_[pos_])) {
      ++pos_;
      while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  // Decodes the predefined entities and numeric character references into
  // `out`.
  void AppendDecoded(std::string_view raw, std::string* out) {
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] == '&') {
        size_t semi = raw.find(';', i + 1);
        if (semi != std::string_view::npos && semi - i <= 8) {
          std::string_view ent = raw.substr(i + 1, semi - i - 1);
          if (ent == "amp") {
            *out += '&';
            i = semi + 1;
            continue;
          } else if (ent == "lt") {
            *out += '<';
            i = semi + 1;
            continue;
          } else if (ent == "gt") {
            *out += '>';
            i = semi + 1;
            continue;
          } else if (ent == "quot") {
            *out += '"';
            i = semi + 1;
            continue;
          } else if (ent == "apos") {
            *out += '\'';
            i = semi + 1;
            continue;
          } else if (!ent.empty() && ent[0] == '#') {
            long code = 0;
            bool ok = false;
            if (ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')) {
              code = std::strtol(std::string(ent.substr(2)).c_str(), nullptr, 16);
              ok = true;
            } else if (ent.size() > 1) {
              code = std::strtol(std::string(ent.substr(1)).c_str(), nullptr, 10);
              ok = true;
            }
            if (ok && code > 0 && code < 128) {
              *out += static_cast<char>(code);
              i = semi + 1;
              continue;
            }
          }
        }
      }
      *out += raw[i];
      ++i;
    }
  }

  Status ParseElement() {
    SVX_CHECK(AtChar('<'));
    ++pos_;
    std::string_view name = ParseName();
    if (name.empty()) return ErrS("expected element name");
    builder_.StartElement(name);

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtString("/>")) {
        pos_ += 2;
        builder_.EndElement();
        return Status::OK();
      }
      if (AtChar('>')) {
        ++pos_;
        break;
      }
      std::string_view attr = ParseName();
      if (attr.empty()) return ErrS("expected attribute name");
      SkipWhitespace();
      if (!AtChar('=')) return ErrS("expected '=' after attribute name");
      ++pos_;
      SkipWhitespace();
      if (!AtChar('"') && !AtChar('\'')) {
        return ErrS("expected quoted attribute value");
      }
      char quote = text_[pos_];
      ++pos_;
      size_t vstart = pos_;
      while (pos_ < text_.size() && text_[pos_] != quote) ++pos_;
      if (pos_ >= text_.size()) return ErrS("unterminated attribute value");
      std::string decoded;
      AppendDecoded(text_.substr(vstart, pos_ - vstart), &decoded);
      ++pos_;
      builder_.StartElement(std::string("@") + std::string(attr));
      builder_.AppendValue(decoded);
      builder_.EndElement();
    }

    // Content.
    std::string pending_text;
    auto flush_text = [&]() {
      std::string_view trimmed = Trim(pending_text);
      if (!trimmed.empty()) builder_.AppendValue(trimmed);
      pending_text.clear();
    };

    while (true) {
      if (pos_ >= text_.size()) return ErrS("unterminated element");
      if (AtString("</")) {
        flush_text();
        pos_ += 2;
        std::string_view close = ParseName();
        if (close != name) {
          return ErrS(StrFormat("mismatched close tag </%s> for <%s>",
                                std::string(close).c_str(),
                                std::string(name).c_str()));
        }
        SkipWhitespace();
        if (!AtChar('>')) return ErrS("expected '>' in close tag");
        ++pos_;
        builder_.EndElement();
        return Status::OK();
      }
      if (AtString("<!--")) {
        size_t end = text_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) return ErrS("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (AtString("<![CDATA[")) {
        size_t end = text_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) return ErrS("unterminated CDATA");
        pending_text.append(text_.substr(pos_ + 9, end - pos_ - 9));
        pos_ = end + 3;
        continue;
      }
      if (AtString("<?")) {
        size_t end = text_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) return ErrS("unterminated PI");
        pos_ = end + 2;
        continue;
      }
      if (AtChar('<')) {
        flush_text();
        SVX_RETURN_IF_ERROR(ParseElement());
        continue;
      }
      // Character data until the next markup.
      size_t end = text_.find('<', pos_);
      if (end == std::string_view::npos) end = text_.size();
      AppendDecoded(text_.substr(pos_, end - pos_), &pending_text);
      pos_ = end;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  DocumentBuilder builder_;
};

}  // namespace

Result<std::unique_ptr<Document>> ParseXml(std::string_view text) {
  return XmlParserImpl(text).Parse();
}

}  // namespace svx
