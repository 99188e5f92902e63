// Lightweight Status / Result<T> error handling, in the style of
// absl::Status. Used for expected, recoverable failures (bad packages,
// permission faults, patch rejections); programmer errors use KSHOT_CHECK.
// Both types are [[nodiscard]]: a dropped failure is a compile error.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace kshot {

enum class Errc {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kPermissionDenied,   // page-attribute / SMRAM / EPC violations
  kIntegrityFailure,   // hash or MAC mismatch
  kOutOfRange,
  kFailedPrecondition,
  kUnsupported,
  kResourceExhausted,
  kAborted,            // operation rejected mid-flight (e.g. DoS detected)
  kInternal,
};

/// Human-readable name of an error code.
const char* errc_name(Errc c);

class [[nodiscard]] Status {
 public:
  Status() : code_(Errc::kOk) {}
  Status(Errc code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status ok() { return Status(); }

  [[nodiscard]] bool is_ok() const { return code_ == Errc::kOk; }
  [[nodiscard]] Errc code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return msg_; }

  /// "OK" or "<code>: <message>".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  Errc code_;
  std::string msg_;
};

/// Reports a value() access on a failed Result (with its status text) and
/// aborts. Always on: the shipped build defines NDEBUG.
[[noreturn]] void result_value_on_error(const Status& status);

/// A value or a failure Status. Dereferencing a failed Result aborts.
template <class T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    KSHOT_CHECK(!status_.is_ok(), "Result(Status) requires an error status");
  }
  Result(Errc code, std::string msg) : status_(code, std::move(msg)) {}

  [[nodiscard]] bool is_ok() const { return value_.has_value(); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] const Status& status() const { return status_; }

  T& value() {
    if (!is_ok()) result_value_on_error(status_);
    return *value_;
  }
  const T& value() const {
    if (!is_ok()) result_value_on_error(status_);
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T value_or(T fallback) const { return is_ok() ? *value_ : fallback; }

 private:
  std::optional<T> value_;
  Status status_;
};

#define KSHOT_RETURN_IF_ERROR(expr)              \
  do {                                           \
    ::kshot::Status _st = (expr);                \
    if (!_st.is_ok()) return _st;                \
  } while (0)

}  // namespace kshot
