// Lightweight Status / Result<T> error propagation, in the style of
// arrow::Status / rocksdb::Status. Parsers and other fallible public entry
// points return these; no exceptions cross the public API.
#ifndef SVX_UTIL_STATUS_H_
#define SVX_UTIL_STATUS_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace svx {

/// Error codes used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kUnsupported,
  kResourceExhausted,
  kInternal,
};

/// Returns a short human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// Writes StatusCodeName(code), so that test failures print codes by name.
std::ostream& operator<<(std::ostream& os, StatusCode code);

/// A success-or-error result without a payload. [[nodiscard]] on the class
/// makes silently dropping any Status-returning call a compile error
/// (-Werror=unused-result): every swallowed error found this way was a
/// latent bug — persistence failures vanishing, maintenance passes
/// half-applied. Consume deliberately with SVX_RETURN_IF_ERROR (check.h) or
/// an explicit ok() test.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error result. The value is only accessible when ok().
/// [[nodiscard]] for the same reason as Status: an ignored Result is an
/// ignored error.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {                  // NOLINT
    SVX_CHECK_MSG(!status_.ok(), "Result built from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    SVX_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T& value() & {
    SVX_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T&& value() && {
    SVX_CHECK_MSG(ok(), status_.ToString().c_str());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace svx

#endif  // SVX_UTIL_STATUS_H_
