// Minimal Status / Result<T> pair used for recoverable errors.
//
// The library forbids exceptions; constructors that can fail are replaced by
// factory functions returning Result<T>.
#ifndef P2PAQP_UTIL_STATUS_H_
#define P2PAQP_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/logging.h"

namespace p2paqp::util {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kUnavailable,
  kInternal,
};

// Returns a short human-readable name ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeToString(StatusCode code);

// Value-semantic error descriptor. A default-constructed Status is OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  // A status whose message lives elsewhere for the whole run (a
  // namespace-scope constant): the status and every copy of it only point
  // at `message`, so making or returning one never allocates. For paths
  // that fail as a matter of course, such as a message lost in transit.
  static Status Static(StatusCode code, const std::string& message) {
    Status status(code, std::string());
    status.static_message_ = &message;
    return status;
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const {
    return static_message_ != nullptr ? *static_message_ : message_;
  }

  // "OK" or "INVALID_ARGUMENT: jump size must be positive".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
  const std::string* static_message_ = nullptr;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

// Holds either a value or an error Status.
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    P2PAQP_CHECK(!status_.ok()) << "Result constructed from OK status";
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  // Requires ok(); aborts otherwise.
  const T& value() const& {
    P2PAQP_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    P2PAQP_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    P2PAQP_CHECK(ok()) << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace p2paqp::util

#endif  // P2PAQP_UTIL_STATUS_H_
