// Authenticated encryption envelope: ChaCha20 + HMAC-SHA256
// (encrypt-then-MAC). Wraps the patch package for the server->enclave channel
// and the enclave->SMM shared-memory handoff.
#pragma once

#include "common/status.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"

namespace kshot::crypto {

/// Wire layout: nonce(12) || ciphertext || mac(32).
struct SealedBox {
  Nonce96 nonce;
  Bytes ciphertext;
  Digest256 mac;

  Bytes serialize() const;
};

/// Seals plaintext under (enc = key, mac = HMAC(key || "mac")).
SealedBox seal(const Key256& key, const Nonce96& nonce, ByteSpan plaintext);

/// Opens a box; fails with kIntegrityFailure if the MAC does not verify.
Result<Bytes> open(const Key256& key, const SealedBox& box);

/// The parsed form of a SealedBox wire: the ciphertext stays a mutable
/// borrowed span over the serialized wire so open_in_place can decrypt
/// without a single allocation or copy.
struct SealedBoxView {
  Nonce96 nonce;
  MutByteSpan ciphertext;
  Digest256 mac;

  /// Parses the SealedBox wire layout over a mutable buffer (the one
  /// decoder of that layout); no bytes are copied except the fixed nonce
  /// and mac.
  static Result<SealedBoxView> deserialize(MutByteSpan wire);
};

/// MAC-checks and then decrypts the ciphertext in place (ChaCha20 is its own
/// inverse). On success the returned span is the plaintext — the same bytes
/// as view.ciphertext, now decrypted inside the caller's buffer. On MAC
/// failure the buffer is untouched.
Result<MutByteSpan> open_in_place(const Key256& key, SealedBoxView view);

/// Seals plaintext directly into a caller-provided buffer already holding
/// the plaintext at offset 12 + 4 (the SealedBox wire layout): encrypts in
/// place and writes nonce/length/mac around it. `wire` must be exactly
/// 12 + 4 + plain_len + 32 bytes. Produces bytes identical to
/// seal(...).serialize().
Status seal_in_place(const Key256& key, const Nonce96& nonce,
                     MutByteSpan wire, size_t plain_len);

/// Derives a 256-bit key from a DH shared secret and a context label.
Key256 derive_key(ByteSpan shared_secret, const std::string& label);

}  // namespace kshot::crypto
