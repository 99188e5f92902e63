// SHA-256 (FIPS 180-4), implemented from the specification. Used as the
// patch package verification hash (paper §VI-C2: "the majority of the patch
// time comes from the patch verification process, which involves computing a
// SHA-2 hash").
#pragma once

#include <array>

#include "common/types.hpp"

namespace kshot::crypto {

using Digest256 = std::array<u8, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(ByteSpan data);
  /// Finalizes and returns the digest; the context must be reset() before
  /// further use.
  Digest256 finish();

 private:
  /// The scalar FIPS 180-4 reference compression of one block.
  void compress(const u8 block[64]);
  /// Compresses whole blocks on the selected path (see sha256_path()).
  void compress_blocks(const u8* data, size_t blocks);

  std::array<u32, 8> h_{};
  u8 buf_[64];
  size_t buf_len_ = 0;
  u64 total_len_ = 0;
};

/// One-shot convenience.
Digest256 sha256(ByteSpan data);

/// The compression path update() takes right now: "sha-ni" when the SIMD
/// toggle is on and CPUID reports SHA, SSSE3 and SSE4.1 (x86-64 only),
/// "scalar" otherwise. Both give bit-identical digests.
const char* sha256_path();

}  // namespace kshot::crypto
