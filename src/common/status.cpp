#include "common/status.hpp"

#include <cstdio>
#include <cstdlib>

namespace kshot {

const char* errc_name(Errc c) {
  switch (c) {
    case Errc::kOk: return "OK";
    case Errc::kInvalidArgument: return "INVALID_ARGUMENT";
    case Errc::kNotFound: return "NOT_FOUND";
    case Errc::kPermissionDenied: return "PERMISSION_DENIED";
    case Errc::kIntegrityFailure: return "INTEGRITY_FAILURE";
    case Errc::kOutOfRange: return "OUT_OF_RANGE";
    case Errc::kFailedPrecondition: return "FAILED_PRECONDITION";
    case Errc::kUnsupported: return "UNSUPPORTED";
    case Errc::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case Errc::kAborted: return "ABORTED";
    case Errc::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (is_ok()) return "OK";
  std::string s = errc_name(code_);
  if (!msg_.empty()) {
    s += ": ";
    s += msg_;
  }
  return s;
}

void check_failed(const char* file, int line, const char* cond,
                  std::string_view msg) {
  std::fprintf(stderr, "%s:%d: check failed: %s: %.*s\n", file, line, cond,
               static_cast<int>(msg.size()), msg.data());
  std::abort();
}

void result_value_on_error(const Status& status) {
  std::fprintf(stderr, "Result::value() on error: %s\n",
               status.to_string().c_str());
  std::abort();
}

}  // namespace kshot
