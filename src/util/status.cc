#include "src/util/status.h"

#include <ostream>

namespace svx {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::ostream& operator<<(std::ostream& os, StatusCode code) {
  return os << StatusCodeName(code);
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace svx
