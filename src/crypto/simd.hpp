// Portable 4-lane 32-bit SIMD abstraction backing the ChaCha20 4-block
// keystream, plus the process-wide runtime toggle for every accelerated
// crypto path (ChaCha20 4-lane, SHA-256 SHA-NI). Uses GNU vector extensions
// where the compiler provides them and a plain scalar array otherwise; both
// produce bit-identical results, and the toggle lets tests and CI exercise
// the scalar references explicitly.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace kshot::crypto {

#if defined(__GNUC__) || defined(__clang__)
#define KSHOT_SIMD_NATIVE 1
#endif

/// Four u32 lanes with element-wise arithmetic. Wraparound (mod 2^32) adds
/// and logical shifts, exactly like scalar u32 — so vectorized kernels are
/// identical-by-construction to their scalar references.
struct u32x4 {
#ifdef KSHOT_SIMD_NATIVE
  using Lanes = u32 __attribute__((vector_size(16)));
#else
  struct Lanes {
    u32 l[4];
  };
#endif
  Lanes v;

  static u32x4 splat(u32 x) {
#ifdef KSHOT_SIMD_NATIVE
    return {Lanes{x, x, x, x}};
#else
    return {Lanes{{x, x, x, x}}};
#endif
  }
  static u32x4 make(u32 a, u32 b, u32 c, u32 d) {
#ifdef KSHOT_SIMD_NATIVE
    return {Lanes{a, b, c, d}};
#else
    return {Lanes{{a, b, c, d}}};
#endif
  }
  [[nodiscard]] u32 lane(int i) const {
#ifdef KSHOT_SIMD_NATIVE
    return v[i];
#else
    return v.l[i];
#endif
  }
};

#ifdef KSHOT_SIMD_NATIVE

inline u32x4 operator+(u32x4 a, u32x4 b) { return {a.v + b.v}; }
inline u32x4 operator^(u32x4 a, u32x4 b) { return {a.v ^ b.v}; }
inline u32x4 operator|(u32x4 a, u32x4 b) { return {a.v | b.v}; }
inline u32x4 vshl(u32x4 x, int n) { return {x.v << n}; }
inline u32x4 vshr(u32x4 x, int n) { return {x.v >> n}; }

#else

inline u32x4 operator+(u32x4 a, u32x4 b) {
  u32x4 r;
  for (int i = 0; i < 4; ++i) r.v.l[i] = a.v.l[i] + b.v.l[i];
  return r;
}
inline u32x4 operator^(u32x4 a, u32x4 b) {
  u32x4 r;
  for (int i = 0; i < 4; ++i) r.v.l[i] = a.v.l[i] ^ b.v.l[i];
  return r;
}
inline u32x4 operator|(u32x4 a, u32x4 b) {
  u32x4 r;
  for (int i = 0; i < 4; ++i) r.v.l[i] = a.v.l[i] | b.v.l[i];
  return r;
}
inline u32x4 vshl(u32x4 x, int n) {
  u32x4 r;
  for (int i = 0; i < 4; ++i) r.v.l[i] = x.v.l[i] << n;
  return r;
}
inline u32x4 vshr(u32x4 x, int n) {
  u32x4 r;
  for (int i = 0; i < 4; ++i) r.v.l[i] = x.v.l[i] >> n;
  return r;
}

#endif  // KSHOT_SIMD_NATIVE

inline u32x4 vrotl(u32x4 x, int n) { return vshl(x, n) | vshr(x, 32 - n); }

// ---- Runtime toggle ----------------------------------------------------------
//
// Default on. The scalar reference stays compiled in as the fallback; tests
// flip this to prove both paths agree on every vector and length.

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
