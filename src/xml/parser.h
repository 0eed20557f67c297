// Self-contained XML parser for the subset needed by the workloads:
// elements, attributes, character data, comments, processing instructions
// and the five predefined entities. Following the paper's data model (§2.1),
// attributes become child nodes labeled "@name" carrying the attribute value,
// and an element's direct character data becomes its atomic value.
#ifndef SVX_XML_PARSER_H_
#define SVX_XML_PARSER_H_

#include <memory>
#include <string_view>

#include "src/util/status.h"
#include "src/xml/document.h"

namespace svx {

/// Parses an XML document from `text`.
Result<std::unique_ptr<Document>> ParseXml(std::string_view text);

}  // namespace svx

#endif  // SVX_XML_PARSER_H_
