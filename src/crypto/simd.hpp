// The process-wide runtime toggle for every accelerated crypto path:
// SHA-256 on SHA-NI (sha256.cpp), ChaCha20 on AVX2 (chacha20.cpp) and CRC-32
// on PCLMULQDQ (simple_hash.cpp). Each primitive has one scalar path, which
// is also its reference, and one x86-64 kernel that runs only when this
// toggle is on and CPUID reports what the kernel executes. Tests flip the
// toggle to prove both paths agree on every vector and length.
#pragma once

#include <atomic>

namespace kshot::crypto {

inline std::atomic<bool>& simd_toggle() {
  static std::atomic<bool> enabled{true};
  return enabled;
}
inline bool simd_enabled() {
  return simd_toggle().load(std::memory_order_relaxed);
}
inline void set_simd_enabled(bool on) {
  simd_toggle().store(on, std::memory_order_relaxed);
}

}  // namespace kshot::crypto
