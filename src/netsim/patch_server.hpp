// The remote, trusted patch server (paper §IV-A / §V-A "Binary Patch
// Preparation"). Holds pre- and post-patch kernel *sources*, rebuilds the
// target's exact binary image from the OsInfo the target sends (verifying
// the measurement so the diff is meaningful), runs the patch toolchain, and
// ships the resulting package sealed under an attested DH session key.
//
// Locking contract: a PatchServer may be shared by any number of threads
// (one fleet target per thread is the intended shape — see src/fleet/).
// Every public method is safe to call concurrently. Internally a single
// mutex `mu_` guards all mutable state: the patch table, the verifier list,
// the ephemeral DH/session RNG, the rejection counter, and the two
// single-flight build caches. The expensive compile/diff work itself runs
// *outside* the lock: the first caller for a cache key publishes a
// std::shared_future under the lock and computes the value lock-free;
// concurrent callers for the same key block on that future (counted as
// hits), so each distinct build happens exactly once per fleet regardless
// of how many targets race for it. No public method calls back into user
// code while holding `mu_`.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "kcc/compiler.hpp"
#include "netsim/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "patchtool/bindiff.hpp"

namespace kshot::netsim {

/// One patch known to the server.
struct PatchSource {
  std::string id;              // e.g. "CVE-2017-17806"
  std::string kernel_version;  // version the patch applies to
  std::string pre_source;      // vulnerable kernel source
  std::string post_source;     // fixed kernel source
};

/// Hit/miss counters for the two server-side build caches. A "hit" includes
/// a caller that arrived while the build was still in flight and waited for
/// it; a "miss" is the one caller that actually ran the compile pipeline.
struct BuildCacheStats {
  u64 patchset_hits = 0;
  u64 patchset_misses = 0;
  u64 image_hits = 0;
  u64 image_misses = 0;

  [[nodiscard]] double patchset_hit_rate() const {
    u64 total = patchset_hits + patchset_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(patchset_hits) /
                            static_cast<double>(total);
  }
};

class PatchServer {
 public:
  /// `attestation_verifier` models the provisioned SGX attestation
  /// infrastructure; `key_seed` seeds the server's ephemeral DH keys. Pass
  /// nullptr when every platform registers via add_verifier() instead.
  /// `metrics` backs the request/cache counters; null means a private
  /// registry.
  PatchServer(const sgx::SgxRuntime* attestation_verifier, u64 key_seed,
              obs::MetricsRegistry* metrics = nullptr);

  /// Emits request/compile spans and cache hit/miss instants into `trace`
  /// under the shared (non-per-target) pid. The server lives outside any
  /// simulated machine, so its events carry virtual timestamp 0 and order
  /// deterministically only after obs::canonicalize(). Set before the fleet
  /// starts; the recorder itself is thread-safe.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Registers an additional platform whose attestation reports this server
  /// accepts (the attestation service knows each provisioned platform key).
  /// Used by fleet deployments where many targets share one server.
  void add_verifier(const sgx::SgxRuntime* verifier);

  /// Idempotent: re-adding an id keeps the first registration, so fleet
  /// targets can all announce the same patch without invalidating caches.
  void add_patch(PatchSource src);
  [[nodiscard]] bool has_patch(const std::string& id) const;

  /// Full request handling: attestation check, compatibility check (rebuild
  /// pre image from OsInfo and compare measurements), patch-set
  /// construction, and sealing. Input/output are raw wire bytes, so a
  /// Channel (with its tamper hook) can sit in between.
  Result<Bytes> handle_request(ByteSpan request_wire);

  /// Builds the unsealed patch set for a patch id + target info (exposed for
  /// tests and for the baseline patchers, which consume plain patch sets).
  /// Cached under (patch id, kernel version, compile options, measurement);
  /// the compile/diff pipeline runs once per distinct key.
  Result<patchtool::PatchSet> build_patchset(const std::string& id,
                                             const kernel::OsInfo& os) const;

  /// Compiles the *pre* (vulnerable) kernel image for a patch id — the image
  /// a target machine boots in experiments. Cached under (patch id, side,
  /// compile options), so a fleet of identical targets compiles it once.
  Result<kcc::KernelImage> build_pre_image(const std::string& id,
                                           const kcc::CompileOptions& o) const;
  Result<kcc::KernelImage> build_post_image(const std::string& id,
                                            const kcc::CompileOptions& o) const;

  /// Number of requests that failed attestation or compatibility checks.
  [[nodiscard]] u64 rejected_requests() const;

  /// Snapshot of the build-cache counters (consistent, but immediately
  /// stale under concurrency — read it after the fleet quiesces).
  [[nodiscard]] BuildCacheStats cache_stats() const;

 private:
  [[nodiscard]] kcc::CompileOptions options_for(const kernel::OsInfo& os,
                                                const std::string& ver) const;
  /// Single-flight compile of one side of a patch's kernel source.
  Result<kcc::KernelImage> image_for(const std::string& id, bool post,
                                     const kcc::CompileOptions& o) const;
  /// patches_ lookup under the lock; copy out so callers hold no reference.
  Result<PatchSource> find_source(const std::string& id) const;

  mutable std::mutex mu_;
  std::vector<const sgx::SgxRuntime*> verifiers_;
  Rng rng_;
  std::map<std::string, PatchSource> patches_;
  /// Single-flight caches: the future is published under mu_, the build
  /// runs outside it, and late arrivals wait on the shared state.
  mutable std::map<std::string,
                   std::shared_future<Result<patchtool::PatchSet>>>
      patchset_cache_;
  mutable std::map<std::string, std::shared_future<Result<kcc::KernelImage>>>
      image_cache_;
  // Observability. Counters live in the registry ("server.*" namespace);
  // BuildCacheStats/rejected_requests() are derived views over them.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* c_patchset_hits_ = nullptr;
  obs::Counter* c_patchset_misses_ = nullptr;
  obs::Counter* c_image_hits_ = nullptr;
  obs::Counter* c_image_misses_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace kshot::netsim
