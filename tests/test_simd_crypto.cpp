// Accelerated-vs-scalar crypto differential: SHA-256 on SHA-NI, the 8-block
// AVX2 ChaCha20 keystream and the PCLMULQDQ CRC-32 fold must be
// bit-identical to the scalar references on every input shape — standard
// NIST/RFC vectors, every short length at every unaligned source offset
// 0..15, sizes across the 512-byte ChaCha20 group, block counters that wrap
// past 2^32, and random update() chunkings of a 1 MiB+ message. Every case
// here flips the runtime toggle itself, so one run of this binary exercises
// both code paths — no separate CI matrix leg needed to keep the scalar
// fallback honest.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/simd.hpp"
#include "crypto/simple_hash.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace kshot::crypto {
namespace {

/// RAII toggle so a failing ASSERT can't leave the process-wide switch off.
class SimdMode {
 public:
  explicit SimdMode(bool on) : prev_(simd_enabled()) { set_simd_enabled(on); }
  ~SimdMode() { set_simd_enabled(prev_); }

 private:
  bool prev_;
};

std::string hex_digest(ByteSpan data) {
  Digest256 d = sha256(data);
  return to_hex(ByteSpan(d.data(), d.size()));
}

ByteSpan span_of(const std::string& s) {
  return ByteSpan(reinterpret_cast<const u8*>(s.data()), s.size());
}

TEST(SimdSha256, NistVectorsPassInBothModes) {
  const std::pair<std::string, std::string> vectors[] = {
      {"",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    for (const auto& [msg, want] : vectors) {
      EXPECT_EQ(hex_digest(span_of(msg)), want)
          << (simd ? "simd" : "scalar") << " mode, message \"" << msg << "\"";
    }
  }
}

TEST(SimdSha256, MillionAsPassesInBothModes) {
  std::string msg(1'000'000, 'a');
  const char* want =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    EXPECT_EQ(hex_digest(span_of(msg)), want);
  }
}

TEST(SimdSha256, EveryLengthAndOffsetMatchesScalar) {
  Rng rng(0x51D0);
  // One oversized backing buffer; each case hashes buf[off .. off+len).
  Bytes buf(16 + 257 + 64);
  rng.fill(MutByteSpan(buf.data(), buf.size()));
  for (size_t len = 0; len <= 257; ++len) {
    for (size_t off = 0; off < 16; ++off) {
      ByteSpan in(buf.data() + off, len);
      std::string scalar_d, simd_d;
      {
        SimdMode mode(false);
        scalar_d = hex_digest(in);
      }
      {
        SimdMode mode(true);
        simd_d = hex_digest(in);
      }
      ASSERT_EQ(scalar_d, simd_d) << "len=" << len << " off=" << off;
    }
  }
}

TEST(SimdSha256, RandomChunkingsMatchOneShotInBothModes) {
  // Seeded random update() splits of a message just over 1 MiB: pieces that
  // cut through the 64-byte buffer, runs of single-byte feeds and
  // multi-block pieces that go straight to the block compressor.
  Rng rng(0xC4A7);
  Bytes msg = rng.next_bytes((1u << 20) + 37);
  std::string want;
  {
    SimdMode mode(false);
    want = hex_digest(msg);
  }
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    ASSERT_EQ(hex_digest(msg), want) << (simd ? "simd" : "scalar");
    for (int trial = 0; trial < 6; ++trial) {
      Sha256 ctx;
      size_t off = 0;
      while (off < msg.size()) {
        size_t piece;
        switch (rng.next_below(4)) {
          case 0: piece = 1; break;
          case 1: piece = 1 + rng.next_below(64); break;
          case 2: piece = 1 + rng.next_below(300); break;
          default: piece = 1 + rng.next_below(64 * 1024); break;
        }
        piece = std::min(piece, msg.size() - off);
        ctx.update(ByteSpan(msg).subspan(off, piece));
        off += piece;
      }
      Digest256 d = ctx.finish();
      ASSERT_EQ(to_hex(ByteSpan(d.data(), d.size())), want)
          << (simd ? "simd" : "scalar") << " mode, trial " << trial;
    }
  }
}

/// CPUID leaf 7 EBX bit 29 plus SSSE3/SSE4.1, probed here independently of
/// the library's own check.
bool cpuid_reports_sha_ni() {
#if defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  bool ssse3_sse41 = (c & (1u << 9)) && (c & (1u << 19));
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return ssse3_sse41 && (b & (1u << 29));
#else
  return false;
#endif
}

/// CPUID leaf 7 EBX bit 5 (AVX2), with OSXSAVE/AVX (leaf 1 ECX bits 27-28)
/// and the YMM state enabled in XCR0, probed independently of the library.
bool cpuid_reports_avx2() {
#if defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  if (!(c & (1u << 27)) || !(c & (1u << 28))) return false;
  unsigned xcr0 = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0 & 6u) != 6u) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return b & (1u << 5);
#else
  return false;
#endif
}

/// CPUID leaf 1 ECX bits 1 (PCLMULQDQ) and 19 (SSE4.1).
bool cpuid_reports_pclmul() {
#if defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  return (c & (1u << 1)) && (c & (1u << 19));
#else
  return false;
#endif
}

TEST(SimdSha256, SelectedPathIsShaNiWhereCpuidReportsIt) {
  {
    SimdMode mode(false);
    EXPECT_STREQ(sha256_path(), "scalar");
  }
  SimdMode mode(true);
  if (!cpuid_reports_sha_ni()) {
    EXPECT_STREQ(sha256_path(), "scalar");
    GTEST_SKIP() << "CPUID reports no SHA-NI: only the scalar SHA-256 path "
                    "runs on this machine";
  }
  EXPECT_STREQ(sha256_path(), "sha-ni");
}

TEST(SimdHmac, Rfc4231VectorsPassInBothModes) {
  struct Vector {
    Bytes key;
    std::string msg;
    const char* want;
  };
  const Vector vectors[] = {
      {Bytes(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {Bytes{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Bytes(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    for (const auto& v : vectors) {
      Digest256 d = hmac_sha256(v.key, span_of(v.msg));
      EXPECT_EQ(to_hex(ByteSpan(d.data(), d.size())), v.want)
          << (simd ? "simd" : "scalar") << " mode";
    }
  }
}

TEST(SimdChaCha20, Rfc8439SunscreenVectorPassesInBothModes) {
  // RFC 8439 §2.4.2.
  Key256 key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<u8>(i);
  Nonce96 nonce{};
  nonce[7] = 0x4a;
  const std::string plain =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const char* want_hex =
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d";
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    Bytes data(plain.begin(), plain.end());
    chacha20_xor(key, nonce, 1, MutByteSpan(data.data(), data.size()));
    EXPECT_EQ(to_hex(ByteSpan(data.data(), data.size())), want_hex)
        << (simd ? "simd" : "scalar");
  }
}

/// `len` keystream bytes from the scalar block function, block counter
/// `counter` first; the counter wraps mod 2^32 as RFC 8439's u32 does.
Bytes reference_keystream(const Key256& key, const Nonce96& nonce,
                          u32 counter, size_t len) {
  Bytes ks((len + 63) / 64 * 64);
  for (size_t b = 0; b < ks.size() / 64; ++b) {
    chacha20_block(key, nonce, counter + static_cast<u32>(b),
                   ks.data() + 64 * b);
  }
  ks.resize(len);
  return ks;
}

Bytes xor_bytes(ByteSpan a, ByteSpan b) {
  Bytes out(a.begin(), a.end());
  for (size_t i = 0; i < out.size(); ++i) out[i] ^= b[i];
  return out;
}

TEST(SimdChaCha20, EveryLengthAndOffsetMatchesScalar) {
  // 0..1100 crosses the 512- and 1024-byte group boundaries of the 8-block
  // kernel, with every tail length after one and two whole groups.
  constexpr size_t kMaxLen = 1100;
  Rng rng(0xC8AC4A);
  Key256 key{};
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  Bytes buf(16 + kMaxLen);
  rng.fill(MutByteSpan(buf.data(), buf.size()));
  const Bytes ks = reference_keystream(key, nonce, 7, kMaxLen);
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    for (size_t len = 0; len <= kMaxLen; ++len) {
      for (size_t off = 0; off < 16; ++off) {
        ByteSpan src(buf.data() + off, len);
        // XOR in place at the unaligned source position.
        Bytes work = buf;
        chacha20_xor(key, nonce, 7, MutByteSpan(work.data() + off, len));
        ASSERT_EQ(Bytes(work.begin() + static_cast<std::ptrdiff_t>(off),
                        work.begin() + static_cast<std::ptrdiff_t>(off + len)),
                  xor_bytes(src, ByteSpan(ks.data(), len)))
            << (simd ? "simd" : "scalar") << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST(SimdChaCha20, BlockCounterWrapsLikeTheScalarPath) {
  // Starting counters 0xFFFFFFF0..0xFFFFFFFF with 1100 bytes (18 blocks):
  // every start wraps to block 0 inside the message, inside or after the
  // first 8-block group.
  Rng rng(0x3A9F);
  Key256 key{};
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  const Bytes plain = rng.next_bytes(1100);
  for (u32 counter = 0xFFFFFFF0u; counter != 0; ++counter) {
    const Bytes want = xor_bytes(
        plain, reference_keystream(key, nonce, counter, plain.size()));
    for (bool simd : {false, true}) {
      SimdMode mode(simd);
      Bytes got = plain;
      chacha20_xor(key, nonce, counter, MutByteSpan(got.data(), got.size()));
      ASSERT_EQ(got, want) << (simd ? "simd" : "scalar") << " counter=0x"
                           << std::hex << counter;
    }
  }
}

TEST(SimdChaCha20, MultiBlockSizesAcrossTheEightBlockThreshold) {
  // The 8-block kernel engages at >= 512 bytes; cover sizes around every
  // interesting boundary: below, at, odd tails past whole 8-block groups,
  // and a 1 MiB payload.
  Rng rng(0x4B10C5);
  Key256 key{};
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  for (size_t len : {511u, 512u, 513u, 575u, 576u, 1023u, 1024u, 1025u,
                     1535u, 1536u, 4096u, 4099u, (1u << 20) + 3}) {
    Bytes a = rng.next_bytes(len);
    Bytes b = a;
    {
      SimdMode mode(false);
      chacha20_xor(key, nonce, 1, MutByteSpan(a.data(), a.size()));
    }
    {
      SimdMode mode(true);
      chacha20_xor(key, nonce, 1, MutByteSpan(b.data(), b.size()));
    }
    ASSERT_EQ(a, b) << "len=" << len;
  }
}

TEST(SimdChaCha20, SelectedPathIsAvx2WhereCpuidReportsIt) {
  {
    SimdMode mode(false);
    EXPECT_STREQ(chacha20_path(), "scalar");
  }
  SimdMode mode(true);
  if (!cpuid_reports_avx2()) {
    EXPECT_STREQ(chacha20_path(), "scalar");
    GTEST_SKIP() << "CPUID reports no AVX2: only the scalar ChaCha20 path "
                    "runs on this machine";
  }
  EXPECT_STREQ(chacha20_path(), "avx2");
}

/// Table-driven bytewise CRC-32, independent of both library paths.
u32 crc32_bytewise(ByteSpan data) {
  static const std::array<u32, 256> table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  u32 c = 0xFFFFFFFFu;
  for (u8 b : data) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(SimdCrc32, CheckValueInBothModes) {
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    EXPECT_EQ(crc32(span_of("123456789")), 0xCBF43926u)
        << (simd ? "simd" : "scalar");
  }
}

TEST(SimdCrc32, EveryLengthAndOffsetMatchesBytewise) {
  // 0..1100 covers lengths below the 64-byte fold, every 0-15 byte tail
  // after the 16-byte folds, and several 64-byte four-lane steps.
  constexpr size_t kMaxLen = 1100;
  Rng rng(0xC4C32);
  Bytes buf(16 + kMaxLen);
  rng.fill(MutByteSpan(buf.data(), buf.size()));
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    for (size_t len = 0; len <= kMaxLen; ++len) {
      for (size_t off = 0; off < 16; ++off) {
        ByteSpan in(buf.data() + off, len);
        ASSERT_EQ(crc32(in), crc32_bytewise(in))
            << (simd ? "simd" : "scalar") << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST(SimdCrc32, OneMebibyteMatchesBytewiseInBothModes) {
  Rng rng(0x1B1B);
  Bytes big = rng.next_bytes((1u << 20) + 13);
  const u32 want = crc32_bytewise(big);
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    EXPECT_EQ(crc32(ByteSpan(big).first(1u << 20)),
              crc32_bytewise(ByteSpan(big).first(1u << 20)))
        << (simd ? "simd" : "scalar");
    EXPECT_EQ(crc32(big), want) << (simd ? "simd" : "scalar");
  }
}

TEST(SimdCrc32, SelectedPathIsPclmulWhereCpuidReportsIt) {
  {
    SimdMode mode(false);
    EXPECT_STREQ(crc32_path(), "scalar");
  }
  SimdMode mode(true);
  if (!cpuid_reports_pclmul()) {
    EXPECT_STREQ(crc32_path(), "scalar");
    GTEST_SKIP() << "CPUID reports no PCLMULQDQ/SSE4.1: only the scalar "
                    "CRC-32 path runs on this machine";
  }
  EXPECT_STREQ(crc32_path(), "pclmul");
}

}  // namespace
}  // namespace kshot::crypto
