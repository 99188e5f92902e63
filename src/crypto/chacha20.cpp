#include "crypto/chacha20.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/byte_io.hpp"
#include "crypto/simd.hpp"

namespace kshot::crypto {

namespace {

inline u32 rotl(u32 x, int n) { return (x << n) | (x >> (32 - n)); }

inline void quarter_round(u32& a, u32& b, u32& c, u32& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

void init_state(const Key256& key, const Nonce96& nonce, u32 counter,
                u32 state[16]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_u32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_u32(nonce.data() + 4 * i);
}

#if defined(__x86_64__)

// CPUID leaf 7 EBX bit 5 (AVX2), plus leaf 1 ECX bits 27 (OSXSAVE) and 28
// (AVX) with XCR0 bits 1-2 set: the OS saves the YMM registers across
// context switches. Probed once per process.
bool cpu_has_avx2() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    if (!((c >> 27) & 1) || !((c >> 28) & 1)) return false;
    unsigned xcr0 = 0, xcr0_hi = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
    if ((xcr0 & 6) != 6) return false;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    return ((b >> 5) & 1) != 0;
  }();
  return has;
}

#define KSHOT_AVX2 __attribute__((target("avx2")))

template <int N>
KSHOT_AVX2 inline __m256i rotl8x(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N), _mm256_srli_epi32(x, 32 - N));
}

// One quarter round on eight blocks at once: lane j of every vector belongs
// to block j. The 16- and 8-bit rotates are byte shuffles.
KSHOT_AVX2 inline void quarter_round8(__m256i& a, __m256i& b, __m256i& c,
                                      __m256i& d, __m256i rot16,
                                      __m256i rot8) {
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = rotl8x<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = rotl8x<7>(_mm256_xor_si256(b, c));
}

KSHOT_AVX2 inline void xor32(u8* p, __m256i ks) {
  __m256i* q = reinterpret_cast<__m256i*>(p);
  _mm256_storeu_si256(q, _mm256_xor_si256(_mm256_loadu_si256(q), ks));
}

// Transposes eight state words w[0..7] (lane j = block j) into eight runs
// of 32 keystream bytes and XORs run j into out + 64 * j.
KSHOT_AVX2 inline void xor_words8(const __m256i w[8], u8* out) {
  // t: pairs of words per block, u: quads of words; in each u the low
  // 128 bits belong to block k and the high 128 bits to block k + 4.
  __m256i t0 = _mm256_unpacklo_epi32(w[0], w[1]);
  __m256i t1 = _mm256_unpackhi_epi32(w[0], w[1]);
  __m256i t2 = _mm256_unpacklo_epi32(w[2], w[3]);
  __m256i t3 = _mm256_unpackhi_epi32(w[2], w[3]);
  __m256i t4 = _mm256_unpacklo_epi32(w[4], w[5]);
  __m256i t5 = _mm256_unpackhi_epi32(w[4], w[5]);
  __m256i t6 = _mm256_unpacklo_epi32(w[6], w[7]);
  __m256i t7 = _mm256_unpackhi_epi32(w[6], w[7]);
  const __m256i lo[4] = {
      _mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
      _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3)};
  const __m256i hi[4] = {
      _mm256_unpacklo_epi64(t4, t6), _mm256_unpackhi_epi64(t4, t6),
      _mm256_unpacklo_epi64(t5, t7), _mm256_unpackhi_epi64(t5, t7)};
  for (int k = 0; k < 4; ++k) {
    xor32(out + 64 * k, _mm256_permute2x128_si256(lo[k], hi[k], 0x20));
    xor32(out + 64 * (k + 4), _mm256_permute2x128_si256(lo[k], hi[k], 0x31));
  }
}

/// XORs `groups` runs of eight consecutive blocks (512 bytes each) into
/// `data`, starting at block `counter`. The keystream is bit-identical to
/// scalar chacha20_block calls, the 32-bit counter wrapping the same way.
KSHOT_AVX2 void chacha20_xor8(const u32 state[16], u32 counter, u8* data,
                              size_t groups) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i s[16];
  for (int i = 0; i < 16; ++i) {
    s[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
  }

  for (; groups > 0; --groups, data += 512, counter += 8) {
    s[12] = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(counter)),
                             lanes);
    __m256i x[16];
    for (int i = 0; i < 16; ++i) x[i] = s[i];
    for (int round = 0; round < 10; ++round) {
      quarter_round8(x[0], x[4], x[8], x[12], rot16, rot8);
      quarter_round8(x[1], x[5], x[9], x[13], rot16, rot8);
      quarter_round8(x[2], x[6], x[10], x[14], rot16, rot8);
      quarter_round8(x[3], x[7], x[11], x[15], rot16, rot8);
      quarter_round8(x[0], x[5], x[10], x[15], rot16, rot8);
      quarter_round8(x[1], x[6], x[11], x[12], rot16, rot8);
      quarter_round8(x[2], x[7], x[8], x[13], rot16, rot8);
      quarter_round8(x[3], x[4], x[9], x[14], rot16, rot8);
    }
    for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], s[i]);
    xor_words8(x, data);
    xor_words8(x + 8, data + 32);
  }
}

#undef KSHOT_AVX2

#endif  // __x86_64__

}  // namespace

const char* chacha20_path() {
#if defined(__x86_64__)
  if (simd_enabled() && cpu_has_avx2()) return "avx2";
#endif
  return "scalar";
}

void chacha20_block(const Key256& key, const Nonce96& nonce, u32 counter,
                    u8 out[64]) {
  u32 state[16];
  init_state(key, nonce, counter, state);

  u32 x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) store_u32(out + 4 * i, x[i] + state[i]);
}

void chacha20_xor(const Key256& key, const Nonce96& nonce, u32 counter,
                  MutByteSpan data) noexcept {
  size_t off = 0;
#if defined(__x86_64__)
  if (data.size() >= 512 && simd_enabled() && cpu_has_avx2()) {
    u32 state[16];
    init_state(key, nonce, counter, state);
    size_t groups = data.size() / 512;
    chacha20_xor8(state, counter, data.data(), groups);
    counter += static_cast<u32>(8 * groups);
    off = 512 * groups;
  }
#endif
  u8 block[64];
  while (off < data.size()) {
    chacha20_block(key, nonce, counter++, block);
    size_t n = std::min(data.size() - off, size_t{64});
    for (size_t i = 0; i < n; ++i) data[off + i] ^= block[i];
    off += n;
  }
}

Bytes chacha20(const Key256& key, const Nonce96& nonce, u32 counter,
               ByteSpan data) {
  Bytes out(data.begin(), data.end());
  chacha20_xor(key, nonce, counter, MutByteSpan(out));
  return out;
}

}  // namespace kshot::crypto
