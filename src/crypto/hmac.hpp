// HMAC-SHA256 (RFC 2104). Authenticates patch-server messages and the
// enclave→SMM shared-memory packages.
#pragma once

#include "crypto/sha256.hpp"

namespace kshot::crypto {

/// Incremental HMAC-SHA256: a message fed through update() in any number of
/// pieces gives the same tag as hmac_sha256 over their concatenation.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteSpan key);

  void update(ByteSpan data) { inner_.update(data); }
  /// Finalizes and returns the tag; the object is spent afterwards.
  Digest256 finish();

 private:
  Sha256 inner_;
  u8 opad_[64];
};

Digest256 hmac_sha256(ByteSpan key, ByteSpan message);

/// Constant-time comparison of two digests (MAC checks must not leak
/// position-of-first-difference timing).
bool digest_equal(const Digest256& a, const Digest256& b);

}  // namespace kshot::crypto
