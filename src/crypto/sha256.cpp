#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/simd.hpp"

namespace kshot::crypto {

namespace {

constexpr u32 kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline u32 rotr(u32 x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1):
// everything sha_ni_compress executes. Probed once per process.
bool cpu_has_sha_ni() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    bool ssse3 = (c >> 9) & 1;
    bool sse41 = (c >> 19) & 1;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    bool sha = (b >> 29) & 1;
    return sha && ssse3 && sse41;
  }();
  return has;
}

// Compresses `blocks` consecutive 64-byte blocks with the SHA extensions.
// The state is kept as the ABEF/CDGH register pair sha256rnds2 works on;
// each group of four rounds adds K to four schedule words and runs two
// rnds2 steps, while msg1/msg2 extend the schedule four words at a time.
// The shuffle/blend framing follows Intel's "New Instructions Supporting
// the Secure Hash Algorithm on Intel Architecture Processors" (2013).
__attribute__((target("sha,ssse3,sse4.1"))) void sha_ni_compress(
    u32 state[8], const u8* data, size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                 // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);           // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = m[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g >= 3 && g < 15) {
        // W[4g+4 .. 4g+7] from the msg1 partial sums computed two groups
        // earlier, W[4g-3 .. 4g] (via alignr) and W[4g .. 4g+3].
        __m128i& next = m[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      state0 = _mm_sha256rnds2_epu32(state0, state1,
                                     _mm_shuffle_epi32(wk, 0x0E));
      if (g >= 1 && g < 13) {
        __m128i& prev = m[(g + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);              // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);           // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);        // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#endif  // __x86_64__

}  // namespace

const char* sha256_path() {
#if defined(__x86_64__)
  if (simd_enabled() && cpu_has_sha_ni()) return "sha-ni";
#endif
  return "scalar";
}

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::compress(const u8 block[64]) {
  u32 w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<u32>(block[4 * i]) << 24) |
           (static_cast<u32>(block[4 * i + 1]) << 16) |
           (static_cast<u32>(block[4 * i + 2]) << 8) |
           static_cast<u32>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    u32 s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    u32 s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  u32 a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  u32 e = h_[4], f = h_[5], g = h_[6], h = h_[7];

  for (int i = 0; i < 64; ++i) {
    u32 s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    u32 ch = (e & f) ^ (~e & g);
    u32 t1 = h + s1 + ch + kK[i] + w[i];
    u32 s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    u32 maj = (a & b) ^ (a & c) ^ (b & c);
    u32 t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::compress_blocks(const u8* data, size_t blocks) {
#if defined(__x86_64__)
  if (simd_enabled() && cpu_has_sha_ni()) {
    sha_ni_compress(h_.data(), data, blocks);
    return;
  }
#endif
  for (size_t i = 0; i < blocks; ++i) compress(data + 64 * i);
}

void Sha256::update(ByteSpan data) {
  total_len_ += data.size();
  size_t off = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), size_t{64} - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      compress_blocks(buf_, 1);
      buf_len_ = 0;
    }
  }
  size_t blocks = (data.size() - off) / 64;
  if (blocks > 0) {
    compress_blocks(data.data() + off, blocks);
    off += 64 * blocks;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest256 Sha256::finish() {
  u64 bit_len = total_len_ * 8;
  u8 pad[72];
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  update(ByteSpan(pad, pad_len + 8));

  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<u8>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<u8>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<u8>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<u8>(h_[i]);
  }
  return out;
}

Digest256 sha256(ByteSpan data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace kshot::crypto
