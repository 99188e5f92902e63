// KSHOT_CHECK: the one always-on invariant check. Unlike assert it stays in
// the shipped (NDEBUG) build: a broken invariant prints where and why, then
// aborts. Recoverable failures use Status instead.
#pragma once

#include <string_view>

namespace kshot {

/// Reports a failed KSHOT_CHECK and aborts.
[[noreturn]] void check_failed(const char* file, int line, const char* cond,
                               std::string_view msg);

}  // namespace kshot

/// Aborts with `msg` unless `cond` holds. `msg` is evaluated only on
/// failure, so it may build a std::string from the failing state.
#define KSHOT_CHECK(cond, msg)                                      \
  do {                                                              \
    if (!(cond)) ::kshot::check_failed(__FILE__, __LINE__, #cond, (msg)); \
  } while (0)
