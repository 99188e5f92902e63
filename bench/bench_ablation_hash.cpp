// Ablation A1 (§VI-C2): "the majority of the patch time comes from the
// patch verification process, which involves computing a SHA-2 hash. We
// could reduce this time by employing a simpler hashing algorithm such as
// SDBM." This bench quantifies that claim with throughput sweeps over
// SHA-256, SDBM, FNV-1a and CRC-32 and projects the SMM verify-phase saving.
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/simple_hash.hpp"

using namespace kshot;

namespace {

// Every digest is folded into this sink so the hash calls are not
// optimized away.
volatile u64 g_sink = 0;

Bytes payload(size_t n) {
  Rng rng(n * 31 + 7);
  return rng.next_bytes(n);
}

u64 sha256_word(ByteSpan data) {
  auto d = crypto::sha256(data);
  u64 w = 0;
  for (size_t i = 0; i < sizeof(w); ++i) w = (w << 8) | d[i];
  return w;
}

u64 crc32_word(ByteSpan data) { return crypto::crc32(data); }

/// Median microseconds per hash of an n-byte payload.
double measure_us(size_t size, u64 (*h64)(ByteSpan)) {
  Bytes data = payload(size);
  const int n = size > (64 << 10) ? 20 : 200;
  return bench::time_us(n, [&] { g_sink = g_sink + h64(data); }).p50;
}

}  // namespace

int main() {
  struct Hash {
    const char* name;
    u64 (*h64)(ByteSpan);
  };
  const Hash hashes[] = {{"SHA-256", sha256_word},
                         {"SDBM", crypto::sdbm},
                         {"FNV-1a", crypto::fnv1a},
                         {"CRC-32", crc32_word}};
  const size_t sizes[] = {size_t{40}, size_t{400}, size_t{4} << 10,
                          size_t{40} << 10, size_t{400} << 10};

  bench::title("Ablation A1: hash throughput (MB/s, median of repeats)");
  std::printf("%-10s", "PatchSize");
  for (const Hash& h : hashes) std::printf(" %12s", h.name);
  std::printf("\n");
  for (size_t size : sizes) {
    std::printf("%-10zu", size);
    for (const Hash& h : hashes) {
      std::printf(" %12.1f", double(size) / measure_us(size, h.h64));
    }
    std::printf("\n");
  }

  std::printf(
      "\nProjected SMM verify phase, SHA-256 vs SDBM "
      "(paper suggests SDBM to cut verification time):\n");
  std::printf("%-10s %14s %14s %10s\n", "PatchSize", "SHA-256 (us)",
              "SDBM (us)", "speedup");
  for (size_t size : sizes) {
    double sha = measure_us(size, sha256_word);
    double sdbm = measure_us(size, crypto::sdbm);
    std::printf("%-10zu %14.3f %14.3f %9.1fx\n", size, sha, sdbm,
                sha / sdbm);
  }
  std::printf(
      "Tradeoff: SDBM is not collision-resistant — an attacker who can "
      "write mem_W could forge a\npackage, so the speedup costs the "
      "integrity guarantee (which is why KShot uses SHA-2).\n");
  return 0;
}
