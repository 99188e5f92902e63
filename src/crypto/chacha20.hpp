// ChaCha20 stream cipher (RFC 8439). Encrypts the binary patch in transit
// (patch server -> enclave) and at rest in mem_W (enclave -> SMM handler).
#pragma once

#include <array>

#include "common/types.hpp"

namespace kshot::crypto {

using Key256 = std::array<u8, 32>;
using Nonce96 = std::array<u8, 12>;

/// XORs the keystream into `data` in place (encrypt == decrypt). It
/// allocates nothing and cannot fail, so callers need no unwind path.
void chacha20_xor(const Key256& key, const Nonce96& nonce, u32 counter,
                  MutByteSpan data) noexcept;

/// Copying convenience.
Bytes chacha20(const Key256& key, const Nonce96& nonce, u32 counter,
               ByteSpan data);

/// Raw ChaCha20 block function — exposed for tests against RFC vectors.
/// It is also the scalar path and the reference for the AVX2 kernel.
void chacha20_block(const Key256& key, const Nonce96& nonce, u32 counter,
                    u8 out[64]);

/// The keystream path chacha20_xor() takes right now: "avx2" when the SIMD
/// toggle is on and CPUID reports AVX2 with OS-enabled YMM state (x86-64
/// only), "scalar" otherwise. Inputs of 512 bytes or more run whole 8-block
/// groups on "avx2" and the rest on the block function; both paths give
/// bit-identical output.
const char* chacha20_path();

}  // namespace kshot::crypto
