// Crypto substrate tests against published vectors (FIPS 180-4, RFC 4231,
// RFC 8439, RFC 7748) plus property tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/simple_hash.hpp"
#include "crypto/x25519.hpp"

namespace kshot::crypto {
namespace {

std::string digest_hex(const Digest256& d) {
  return to_hex(ByteSpan(d.data(), d.size()));
}

// ---- SHA-256 ---------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  Bytes msg = to_bytes(std::string("abc"));
  EXPECT_EQ(digest_hex(sha256(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  Bytes msg = to_bytes(std::string(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  EXPECT_EQ(digest_hex(sha256(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(digest_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(42);
  Bytes msg = rng.next_bytes(10000);
  for (size_t split : {1ul, 63ul, 64ul, 65ul, 1000ul, 9999ul}) {
    Sha256 ctx;
    ctx.update(ByteSpan(msg).subspan(0, split));
    ctx.update(ByteSpan(msg).subspan(split));
    EXPECT_EQ(ctx.finish(), sha256(msg)) << "split at " << split;
  }
}

class Sha256LengthSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256LengthSweep, PaddingBoundariesDiffer) {
  // Messages of nearby lengths must not collide (exercises the padding
  // logic around block boundaries).
  size_t n = GetParam();
  Bytes a(n, 0x5a);
  Bytes b(n + 1, 0x5a);
  EXPECT_NE(sha256(a), sha256(b));
  if (n > 0) {
    Bytes c(a);
    c[n / 2] ^= 1;
    EXPECT_NE(sha256(a), sha256(c));
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256LengthSweep,
                         ::testing::Values(0, 1, 31, 54, 55, 56, 57, 63, 64,
                                           65, 119, 120, 127, 128, 129, 255));

// ---- HMAC-SHA256 (RFC 4231) -----------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes msg = to_bytes(std::string("Hi There"));
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Bytes key = to_bytes(std::string("Jefe"));
  Bytes msg = to_bytes(std::string("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes msg(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  Bytes msg = to_bytes(
      std::string("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, StreamedPiecesMatchOneShot) {
  Rng rng(4231);
  Bytes key = rng.next_bytes(32);
  Bytes msg = rng.next_bytes(1000);
  for (size_t split : {0ul, 1ul, 12ul, 63ul, 64ul, 65ul, 999ul, 1000ul}) {
    HmacSha256 mac(key);
    mac.update(ByteSpan(msg).subspan(0, split));
    mac.update(ByteSpan(msg).subspan(split));
    EXPECT_EQ(mac.finish(), hmac_sha256(key, msg)) << "split at " << split;
  }
}

TEST(Hmac, KeySensitivity) {
  Bytes msg = to_bytes(std::string("payload"));
  Bytes k1(32, 1), k2(32, 1);
  k2[31] = 2;
  EXPECT_FALSE(digest_equal(hmac_sha256(k1, msg), hmac_sha256(k2, msg)));
}

TEST(Hmac, DigestEqualConstantTimeSemantics) {
  Digest256 a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
  b[31] = 0;
  b[0] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// ---- ChaCha20 (RFC 8439) ----------------------------------------------------

TEST(ChaCha20, Rfc8439BlockFunction) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<u8>(i);
  Nonce96 nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  u8 block[64];
  chacha20_block(key, nonce, 1, block);
  EXPECT_EQ(to_hex(ByteSpan(block, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<u8>(i);
  Nonce96 nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  Bytes plaintext = to_bytes(std::string(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it."));
  Bytes ct = chacha20(key, nonce, 1, plaintext);
  EXPECT_EQ(to_hex(ByteSpan(ct).subspan(0, 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Decryption is the same operation.
  EXPECT_EQ(chacha20(key, nonce, 1, ct), plaintext);
}

class ChaChaRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(ChaChaRoundTrip, EncryptDecrypt) {
  Rng rng(GetParam() * 977 + 1);
  Key256 key;
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce;
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  Bytes msg = rng.next_bytes(GetParam());
  Bytes ct = chacha20(key, nonce, 1, msg);
  if (!msg.empty()) {
    EXPECT_NE(ct, msg);
  }
  EXPECT_EQ(chacha20(key, nonce, 1, ct), msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChaChaRoundTrip,
                         ::testing::Values(0, 1, 63, 64, 65, 128, 1000, 4096,
                                           65536));

// ---- X25519 (RFC 7748) -------------------------------------------------------

X25519Key key_from_hex(const std::string& hex) {
  auto bytes = from_hex(hex);
  X25519Key k{};
  std::copy(bytes->begin(), bytes->end(), k.begin());
  return k;
}

TEST(X25519, Rfc7748Vector1) {
  X25519Key out = x25519(
      key_from_hex(
          "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
      key_from_hex(
          "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"));
  EXPECT_EQ(to_hex(ByteSpan(out.data(), 32)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  X25519Key out = x25519(
      key_from_hex(
          "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"),
      key_from_hex(
          "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"));
  EXPECT_EQ(to_hex(ByteSpan(out.data(), 32)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  // Alice/Bob keys from RFC 7748 §6.1.
  const X25519Key a_priv = key_from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const X25519Key b_priv = key_from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  X25519Key a_pub = x25519_base(a_priv);
  X25519Key b_pub = x25519_base(b_priv);
  EXPECT_EQ(to_hex(ByteSpan(a_pub.data(), 32)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(ByteSpan(b_pub.data(), 32)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  X25519Key shared_a = dh_shared(a_priv, b_pub);
  X25519Key shared_b = dh_shared(b_priv, a_pub);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_EQ(to_hex(ByteSpan(shared_a.data(), 32)),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

// RFC 7748 §5.2: k = u = 9, then k, u = x25519(k, u), k. The 1,000,000
// iteration vector is left out for its run time.
TEST(X25519, Rfc7748Iterated) {
  X25519Key k = {9}, u = {9};
  for (int i = 1; i <= 1000; ++i) {
    X25519Key next = x25519(k, u);
    u = k;
    k = next;
    if (i == 1) {
      EXPECT_EQ(to_hex(ByteSpan(k.data(), 32)),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(to_hex(ByteSpan(k.data(), 32)),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// RFC 7748 §5: bit 255 of u is ignored, and a u in [p, 2^255) is taken
// mod p = 2^255 - 19.
TEST(X25519, NonCanonicalUMatchesReducedForm) {
  const X25519Key scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const X25519Key nine = {9};
  // p + 9, little-endian.
  const X25519Key p_plus_9 = key_from_hex(
      "f6ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  X25519Key nine_top = nine;
  nine_top[31] |= 0x80;
  EXPECT_EQ(x25519(scalar, p_plus_9), x25519(scalar, nine));
  EXPECT_EQ(x25519(scalar, nine_top), x25519(scalar, nine));

  Rng rng(41);
  for (int i = 0; i < 8; ++i) {
    X25519Key s{}, u{};
    rng.fill(MutByteSpan(s.data(), s.size()));
    rng.fill(MutByteSpan(u.data(), u.size()));
    u[31] &= 0x7f;
    X25519Key u_top = u;
    u_top[31] |= 0x80;
    EXPECT_EQ(x25519(s, u_top), x25519(s, u)) << "case " << i;
  }
}

// u = 0 and u = 1 (and their non-canonical forms p and p + 1) are points of
// small order: every clamped scalar is a multiple of 8 and maps them to the
// point at infinity, whose u-coordinate encodes as all zeros.
TEST(X25519, LowOrderPointsGiveZero) {
  const X25519Key zero{};
  const X25519Key one = {1};
  const X25519Key p = key_from_hex(
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  const X25519Key p_plus_1 = key_from_hex(
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  Rng rng(43);
  for (int i = 0; i < 4; ++i) {
    X25519Key s{};
    rng.fill(MutByteSpan(s.data(), s.size()));
    EXPECT_EQ(x25519(s, zero), zero) << "u = 0, case " << i;
    EXPECT_EQ(x25519(s, one), zero) << "u = 1, case " << i;
    EXPECT_EQ(x25519(s, p), zero) << "u = p, case " << i;
    EXPECT_EQ(x25519(s, p_plus_1), zero) << "u = p + 1, case " << i;
  }
}

TEST(X25519, GeneratedPairsAgree) {
  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    DhKeyPair a = dh_generate(rng);
    DhKeyPair b = dh_generate(rng);
    EXPECT_EQ(dh_shared(a.private_key, b.public_key),
              dh_shared(b.private_key, a.public_key));
    EXPECT_NE(a.public_key, b.public_key);
  }
}

// ---- AEAD envelope -----------------------------------------------------------

TEST(Aead, RoundTrip) {
  Rng rng(11);
  Key256 key;
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  Bytes msg = rng.next_bytes(777);
  SealedBox box = seal(key, nonce, msg);
  auto open_r = open(key, box);
  ASSERT_TRUE(open_r.is_ok());
  EXPECT_EQ(*open_r, msg);
}

TEST(Aead, SerializeRoundTrip) {
  Rng rng(12);
  Key256 key;
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  nonce[0] = 9;
  SealedBox box = seal(key, nonce, rng.next_bytes(100));
  Bytes wire = box.serialize();
  auto parsed = SealedBoxView::deserialize(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->nonce, box.nonce);
  EXPECT_EQ(Bytes(parsed->ciphertext.begin(), parsed->ciphertext.end()),
            box.ciphertext);
  EXPECT_EQ(parsed->ciphertext.data(), wire.data() + 12 + 4);
  EXPECT_EQ(parsed->mac, box.mac);
}

TEST(Aead, EveryProperPrefixOfSealedWireRejected) {
  Key256 key{};
  Nonce96 nonce{};
  Bytes wire = seal(key, nonce, Bytes(40, 0x5A)).serialize();
  for (size_t keep = 0; keep < wire.size(); ++keep) {
    Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(keep));
    auto parsed = SealedBoxView::deserialize(cut);
    ASSERT_FALSE(parsed.is_ok()) << "prefix of " << keep << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), Errc::kOutOfRange) << keep;
  }
}

TEST(Aead, TamperedCiphertextRejected) {
  Key256 key{};
  key[0] = 1;
  Nonce96 nonce{};
  Bytes msg = to_bytes(std::string("patch payload"));
  SealedBox box = seal(key, nonce, msg);
  box.ciphertext[3] ^= 0x80;
  auto r = open(key, box);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kIntegrityFailure);
}

TEST(Aead, TamperedMacRejected) {
  Key256 key{};
  Nonce96 nonce{};
  SealedBox box = seal(key, nonce, to_bytes(std::string("x")));
  box.mac[0] ^= 1;
  EXPECT_FALSE(open(key, box).is_ok());
}

TEST(Aead, WrongKeyRejected) {
  Key256 k1{}, k2{};
  k2[5] = 7;
  Nonce96 nonce{};
  SealedBox box = seal(k1, nonce, to_bytes(std::string("secret")));
  EXPECT_FALSE(open(k2, box).is_ok());
}

TEST(Aead, SealedWireMatchesGolden) {
  // Wire bytes of seal(...).serialize() for a fixed key, nonce and 1 KiB
  // message: nonce(12) || len(4) || ciphertext || mac(32). Any change to
  // ChaCha20, the MAC construction or the framing moves them.
  Key256 key;
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<u8>(i);
  Nonce96 nonce;
  for (size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<u8>(0xA0 + i);
  }
  Bytes msg(1024);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<u8>(i * 37 + 11);
  }
  const char* want =
      "a0a1a2a3a4a5a6a7a8a9aaab00040000079b2d25d2222ba393578eb63b16eccd"
      "c6de7675ac7e59fd37701643665ea28ac750e39091ad76241534e8ff7addc990"
      "b1e40f5286b8b27f041c66d2fbf6a4eefa8bf2f4e7edbbbe51686f6b0a9cf808"
      "9b59eae933e8ef3eb8c047b2d9b0017d775752faf0ffa41bbc783de0330ceae3"
      "73a236ff9aa4f39bcb640d81458cf158f49d290496e3924db66d221f3dd986af"
      "42d224a319bcb38ffd5fca9b2e390702b3ea6bc8e7793445fec311827fbd5c1b"
      "8c1e27b70babe8ad975535712e1684bfe972ed3e4f5fa3988f08f352e68320c4"
      "9b6822640d4790f33e58125b5dfde9dcc16b7195799d3c3d2a2ba1721a1eac05"
      "678b05af88f1dd2826a5ae8fe41fee2360c461d1bdcf3f18293f56799859ca66"
      "b10121d3cb68bb947bb623f5cc3157ba1a57a701179e7ecd3c739f113ce6505c"
      "e7c74e826550fb32fbd26c33fb230c768ec956176564e52f3e8f6c10718a8294"
      "c57edc04e00b8094b770e7ad506b7c551e9a7652d8d2757b848521c49887a928"
      "5e9e86c0562151b6d63839dae324ac772bb9afdb5d21e175ded286b89964948f"
      "f9cb322ba89e7cbad6aa9ea62197c28f46d1c6515d27cf5bc310ae0bbdacd0fd"
      "9faab45dff17233fa1f5ec4b5cca5a0f02758c5cdf2c81b2556ed85df0f7913e"
      "9f840f66efee24347c82c9339011055544e59bec3d49ca9216b67c296ae5af7f"
      "69d1f5d86a76d04a11af85ded8b3ffbb34cf3c2899bd29f38b82b8f891894f58"
      "6e24066db1ad42eaeee0c8d06ba981f9d8892297f3c5520b070f3d9a3205486f"
      "208ec31d44c6ad39792a59dc27fe3f617f5b7a1605c314bbd91a4e0ac3a9e25d"
      "1c3dece3d45023ef20804dab5cb870f8268863e0203b37e607fa50a58c651879"
      "b6653e6feb45cb33b3ca33862ca43a8d6978b7b14caf8f15370388118a6d82a5"
      "8c10414532513f1c352a951cb1e4563a1271e98615ca216fa46b01c15c6b4355"
      "517e98a192e2a011fc5998c48ac17e197811ecb7a19d3075684139f74cbe84fe"
      "ba788ccaa8efe49e6e57bb401a8abfe2ed8901cdf19a3d881098ecfe3338516a"
      "01a90877ca1e1ba29ad6e3a88c1f77ba9d37d3bdac98738c8b89d52f071c272a"
      "ce4b250d6b0d4b9e1100bc3d885d753d10abc3625d8b4f9f91847891b2e77ed5"
      "02b627ebea16d94cf2515c2564bebb77c3abc0cac2a98e2377870d2ceb00f7c0"
      "0efc5d851eeea5917fdaf1d4ae6ed7c41d5eaab2e3fbfa851506f464ec1caa95"
      "48eb35ae3a90bbb0bd7e90ca5598588e0fb64af4db1e1dda7d0b0cc3c0a18b14"
      "13ef9dfc27c46e8d0807d8921d294762cdf48e0da0b2634e2f4b02bd3a8db937"
      "307290e3714b25e94bbae55f34a0b84d1540b856b08edc0861f55bcca351a206"
      "1ffbb8efef3577bdc5988cc200b9217da306d7d6573e1993c15ddecff3a53d10"
      "5b932aa06ad12736f3c59b982eed744e3ff4840eda624b806ac23b026e133502"
      "be9a0586c2d10557185fc2365049f4bd";
  Bytes wire = seal(key, nonce, msg).serialize();
  EXPECT_EQ(to_hex(ByteSpan(wire.data(), wire.size())), want);

  Bytes in_place(wire.size());
  std::copy(msg.begin(), msg.end(), in_place.begin() + 16);
  ASSERT_TRUE(seal_in_place(key, nonce,
                            MutByteSpan(in_place.data(), in_place.size()),
                            msg.size())
                  .is_ok());
  EXPECT_EQ(in_place, wire);
}

TEST(Aead, DeriveKeyLabelsDiffer) {
  Bytes secret = to_bytes(std::string("shared"));
  EXPECT_NE(derive_key(secret, "a"), derive_key(secret, "b"));
  EXPECT_EQ(derive_key(secret, "a"), derive_key(secret, "a"));
}

// ---- Simple hashes -----------------------------------------------------------

TEST(SimpleHash, SdbmKnownBehaviour) {
  // sdbm("") == 0 and single characters hash to themselves.
  EXPECT_EQ(sdbm({}), 0u);
  Bytes a = {'a'};
  EXPECT_EQ(sdbm(a), static_cast<u64>('a'));
  Bytes ab = {'a', 'b'};
  u64 expect = 'b' + (sdbm(a) << 6) + (sdbm(a) << 16) - sdbm(a);
  EXPECT_EQ(sdbm(ab), expect);
}

TEST(SimpleHash, Crc32KnownValue) {
  Bytes msg = to_bytes(std::string("123456789"));
  EXPECT_EQ(crc32(msg), 0xCBF43926u);  // classic check value
}

/// Bytewise reference CRC-32, kept here so the slice-by-8 table loop is
/// checked against the textbook definition rather than against itself.
u32 crc32_bytewise(ByteSpan data) {
  u32 c = 0xFFFFFFFFu;
  for (u8 b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(SimpleHash, Crc32MatchesBytewiseReference) {
  Rng rng(0xC3C);
  Bytes buf = rng.next_bytes(16 + 257);
  for (size_t len = 0; len <= 257; ++len) {
    for (size_t off = 0; off < 16; ++off) {
      ByteSpan in(buf.data() + off, len);
      ASSERT_EQ(crc32(in), crc32_bytewise(in)) << "len=" << len
                                               << " off=" << off;
    }
  }
  Bytes big = rng.next_bytes(1 << 20);
  EXPECT_EQ(crc32(big), crc32_bytewise(big));
}

TEST(SimpleHash, Fnv1aKnownValue) {
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);
  Bytes a = {'a'};
  EXPECT_EQ(fnv1a(a), 0xaf63dc4c8601ec8cULL);
}

TEST(SimpleHash, SensitivityProperty) {
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    Bytes m = rng.next_bytes(64);
    Bytes m2 = m;
    m2[static_cast<size_t>(rng.next_below(64))] ^= 0x10;
    EXPECT_NE(crc32(m), crc32(m2));
    EXPECT_NE(fnv1a(m), fnv1a(m2));
  }
}

}  // namespace
}  // namespace kshot::crypto
