// Non-cryptographic hashes. The paper (§VI-C2) notes patch verification time
// is dominated by SHA-2 and "could be reduced by employing a simpler hashing
// algorithm such as SDBM" — these back the `a1-hash-*` rows of
// `kshot-sim bench` (host time only, so they land in BENCH_paper_wall.json).
#pragma once

#include "common/types.hpp"

namespace kshot::crypto {

/// SDBM string hash extended to byte spans.
u64 sdbm(ByteSpan data);

/// FNV-1a 64-bit.
u64 fnv1a(ByteSpan data);

/// CRC-32 (IEEE 802.3 polynomial, reflected).
u32 crc32(ByteSpan data);

/// The CRC-32 path crc32() takes right now: "pclmul" when the SIMD toggle is
/// on and CPUID reports PCLMULQDQ and SSE4.1 (x86-64 only), "scalar"
/// otherwise. On "pclmul", inputs of 64 bytes or more are folded with
/// carry-less multiplies down to their last 0-15 bytes, which the
/// slice-by-8 loop finishes; both paths give the same CRC.
const char* crc32_path();

}  // namespace kshot::crypto
