// Lightweight error-handling vocabulary (Status / StatusOr) used across the
// runtime instead of exceptions on hot paths. Modeled after absl::Status but
// self-contained.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace corec {

/// Coarse error taxonomy for staging operations.
enum class StatusCode {
  kOk = 0,
  kNotFound,          // object/metadata missing
  kUnavailable,       // server failed / unreachable
  kInvalidArgument,   // caller error
  kResourceExhausted, // memory budget / storage constraint hit
  kFailedPrecondition,// operation not legal in current state
  kDataLoss,          // unrecoverable: too many failures in a group
  kInternal,          // bug / broken invariant
};

/// Human-readable name of a StatusCode.
inline const char* to_string(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// Result of an operation that produces no value. Cheap to copy when OK.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a non-OK status with a message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m) {
    return {StatusCode::kNotFound, std::move(m)};
  }
  static Status Unavailable(std::string m) {
    return {StatusCode::kUnavailable, std::move(m)};
  }
  static Status InvalidArgument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  static Status ResourceExhausted(std::string m) {
    return {StatusCode::kResourceExhausted, std::move(m)};
  }
  static Status FailedPrecondition(std::string m) {
    return {StatusCode::kFailedPrecondition, std::move(m)};
  }
  static Status DataLoss(std::string m) {
    return {StatusCode::kDataLoss, std::move(m)};
  }
  static Status Internal(std::string m) {
    return {StatusCode::kInternal, std::move(m)};
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "CODE: message" rendering for logs.
  std::string to_string() const {
    if (ok()) return "OK";
    return std::string(corec::to_string(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Result of an operation that produces a T on success.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from value: success.
  StatusOr(T value) : value_(std::move(value)) {}
  /// Implicit from non-OK status: failure. Asserts the status is not OK.
  StatusOr(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }
  StatusCode code() const {
    return ok() ? StatusCode::kOk : status_.code();
  }

  /// Access the value. Precondition: ok().
  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_ = Status::Internal("empty StatusOr");
};

/// Propagates a non-OK Status out of the enclosing function.
#define COREC_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::corec::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (0)

/// Assigns the value of a StatusOr expression or propagates its error.
#define COREC_CONCAT_INNER_(a, b) a##b
#define COREC_CONCAT_(a, b) COREC_CONCAT_INNER_(a, b)
#define COREC_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()
#define COREC_ASSIGN_OR_RETURN(lhs, expr) \
  COREC_ASSIGN_OR_RETURN_IMPL_(COREC_CONCAT_(_sor_, __LINE__), lhs, expr)

}  // namespace corec
