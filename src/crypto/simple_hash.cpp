#include "crypto/simple_hash.hpp"

#include <array>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/simd.hpp"

namespace kshot::crypto {

u64 sdbm(ByteSpan data) {
  u64 h = 0;
  for (u8 c : data) h = c + (h << 6) + (h << 16) - h;
  return h;
}

u64 fnv1a(ByteSpan data) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u8 c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// Slice-by-8 tables: t[0] is the classic bytewise table; t[k][i] is the CRC
// of byte i followed by k zero bytes, so eight table lookups fold eight
// input bytes at once.
using CrcTables = std::array<std::array<u32, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

inline u32 load_le32(const u8* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

#if defined(__x86_64__)

// CPUID leaf 1 ECX bits 1 (PCLMULQDQ) and 19 (SSE4.1): everything
// crc32_pclmul executes. Probed once per process.
bool cpu_has_pclmul() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    return ((c >> 1) & 1) && ((c >> 19) & 1);
  }();
  return has;
}

#define KSHOT_PCLMUL __attribute__((target("pclmul,sse4.1")))

KSHOT_PCLMUL inline __m128i load128(const u8* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries the 128-bit remainder x forward by the distance k encodes:
// x.lo * k.lo ^ x.hi * k.hi, then the 16 bytes at `next` join it.
KSHOT_PCLMUL inline __m128i fold128(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Advances the running (pre-inverted) CRC state `crc` over n bytes, n a
/// multiple of 16 and at least 64. Four 128-bit lanes fold 64 bytes per
/// step, collapse into one lane, fold the remaining 16-byte blocks, and a
/// Barrett reduction brings the 128-bit remainder back to 32 bits. The
/// constants are powers of x modulo the bit-reflected IEEE polynomial, as
/// in Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Intel, 2009): k1/k2 carry a lane 512 bits
/// forward, k3/k4 carry it 128 bits, k5 folds 96 bits to 64, and P' and mu
/// drive the reduction.
KSHOT_PCLMUL u32 crc32_pclmul(u32 crc, const u8* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold128(x0, k1k2, load128(p));
    x1 = fold128(x1, k1k2, load128(p + 16));
    x2 = fold128(x2, k1k2, load128(p + 32));
    x3 = fold128(x3, k1k2, load128(p + 48));
  }
  __m128i x = fold128(x0, k3k4, x1);
  x = fold128(x, k3k4, x2);
  x = fold128(x, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = fold128(x, k3k4, load128(p));

  // 128 -> 96 -> 64 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett: q = (x mod x^32) * mu, then x ^= (q mod x^32) * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

#undef KSHOT_PCLMUL

#endif  // __x86_64__

}  // namespace

const char* crc32_path() {
#if defined(__x86_64__)
  if (simd_enabled() && cpu_has_pclmul()) return "pclmul";
#endif
  return "scalar";
}

u32 crc32(ByteSpan data) {
  static const CrcTables t = make_crc_tables();
  const u8* p = data.data();
  size_t n = data.size();
  u32 c = 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (n >= 64 && simd_enabled() && cpu_has_pclmul()) {
    size_t folded = n & ~size_t{15};
    c = crc32_pclmul(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  for (; n >= 8; n -= 8, p += 8) {
    u32 lo = load_le32(p) ^ c;
    u32 hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace kshot::crypto
