#include "crypto/hmac.hpp"

#include <cstring>

namespace kshot::crypto {

HmacSha256::HmacSha256(ByteSpan key) {
  u8 k[64] = {0};
  if (key.size() > 64) {
    Digest256 kh = sha256(key);
    std::memcpy(k, kh.data(), kh.size());
  } else {
    std::memcpy(k, key.data(), key.size());
  }

  u8 ipad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad_[i] = k[i] ^ 0x5c;
  }
  inner_.update(ByteSpan(ipad, 64));
}

Digest256 HmacSha256::finish() {
  Digest256 ih = inner_.finish();
  Sha256 outer;
  outer.update(ByteSpan(opad_, 64));
  outer.update(ByteSpan(ih.data(), ih.size()));
  return outer.finish();
}

Digest256 hmac_sha256(ByteSpan key, ByteSpan message) {
  HmacSha256 mac(key);
  mac.update(message);
  return mac.finish();
}

bool digest_equal(const Digest256& a, const Digest256& b) {
  u8 acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace kshot::crypto
