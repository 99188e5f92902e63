// X25519 Diffie-Hellman (RFC 7748), implemented from the specification with
// 51-bit limbs. This is the DH key exchange the paper runs between the SGX
// enclave and the SMM handler (§V-B/§V-C); the key is regenerated before each
// patch to defeat replay.
#pragma once

#include <array>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace kshot::crypto {

using X25519Key = std::array<u8, 32>;

/// scalar * point on Curve25519 (u-coordinate form).
X25519Key x25519(const X25519Key& scalar, const X25519Key& point);

/// scalar * base point (u = 9).
X25519Key x25519_base(const X25519Key& scalar);

/// A DH key pair: clamped private scalar + public u-coordinate.
struct DhKeyPair {
  X25519Key private_key;
  X25519Key public_key;
};

/// Generates a fresh key pair from the given entropy source.
DhKeyPair dh_generate(Rng& rng);

/// Computes the shared secret (other party's public * own private).
X25519Key dh_shared(const X25519Key& private_key, const X25519Key& peer_public);

/// RFC 7748 §6.1: true when a shared secret is all zeros, which is what
/// every private key yields with a low-order peer point (u = 0, 1, p, ...).
/// Whoever supplied such a point knows the secret, so a party whose peer key
/// crosses a trust boundary must refuse it.
[[nodiscard]] bool dh_shared_is_zero(const X25519Key& shared);

}  // namespace kshot::crypto
