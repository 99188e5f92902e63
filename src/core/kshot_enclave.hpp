// The KShot SGX enclave (paper §V-B "SGX-based Patch Preparation").
//
// All patch plaintext and private keys live in the enclave's EPC slice; the
// untrusted helper application only ever relays opaque wire blobs:
//
//   ecall kBeginFetch   -> attested PatchRequest wire (app sends to server)
//   ecall kFinishFetch  <- PatchResponse wire (app got from server); the
//                          enclave unseals and integrity-checks the package
//   ecall kPreprocess   -> lays the patch functions out in mem_X, applies
//                          branch/relocation fixups, formats the package
//   ecall kSeal         <- SMM's session public key (app read the mailbox);
//                          returns the encrypted package + enclave pub key
//                          for the app to place in mem_W / mem_RW
#pragma once

#include <functional>
#include <map>

#include "obs/metrics.hpp"

#include "common/arena.hpp"
#include "core/mailbox.hpp"
#include "kernel/kernel.hpp"
#include "netsim/protocol.hpp"
#include "obs/trace.hpp"
#include "patchtool/package.hpp"
#include "sgx/sgx.hpp"

namespace kshot::core {

/// ECALL function numbers.
enum EnclaveCall : int {
  kEcallInitialize = 1,
  kEcallBeginFetch = 2,
  kEcallFinishFetch = 3,
  kEcallPreprocess = 4,
  kEcallSeal = 5,
  kEcallBeginSealChunked = 6,  // set up streaming; returns chunk count
  kEcallGetChunk = 7,          // one sealed chunk by index
  kEcallBatchReset = 8,        // drop any accumulated batch packages
  kEcallBatchAdd = 9,          // append the current processed package to the
                               // EPC-resident batch accumulator
  kEcallSealBatch = 10,        // seal the accumulated batch envelope for SMM
  kEcallSetLifecycle = 11,     // single-shot lifecycle directives (depends/
                               // supersedes lists, splice eligibility) the
                               // next preprocess stamps into the package
  kEcallSetMemXMap = 12,       // replace the mem_X free-extent map (slot
                               // reclamation): the allocator first-fits
                               // into the gaps revert and supersede left
                               // behind
};

/// Geometry of the reserved region, passed to the enclave at initialization.
struct ReservedGeometry {
  u64 mem_x_base = 0;
  u64 mem_x_size = 0;
  u64 mem_w_size = 0;

  Bytes serialize() const;
  static Result<ReservedGeometry> deserialize(ByteSpan wire);
};

/// Summary returned by kFinishFetch / kPreprocess.
struct PackageStats {
  u32 functions = 0;
  u32 code_bytes = 0;
  u32 package_bytes = 0;

  Bytes serialize() const;
  static Result<PackageStats> deserialize(ByteSpan wire);
};

class KshotEnclave final : public sgx::Enclave {
 public:
  KshotEnclave(kernel::OsInfo os, u64 entropy_seed);

  /// Typed wrappers over ecall() for the helper application.
  Status initialize(const ReservedGeometry& geom);
  Result<Bytes> begin_fetch(const std::string& patch_id,
                            netsim::PatchRequest::Op op);
  Result<PackageStats> finish_fetch(ByteSpan response_wire);
  Result<PackageStats> preprocess();
  /// Returns enclave_pub(32) || sealed package wire.
  Result<Bytes> seal_for_smm(const crypto::X25519Key& smm_pub);

  /// Streaming mode for packages larger than mem_W: sets up per-chunk
  /// sealing under the SMM session key. Returns enclave_pub(32) || u32
  /// chunk count. Each chunk's sealed plaintext carries an authenticated
  /// {index, total} header so the SMM side can enforce ordering.
  Result<Bytes> begin_seal_chunked(const crypto::X25519Key& smm_pub,
                                   u32 max_chunk_plain_bytes);
  /// One sealed chunk (SealedBox wire) by index.
  Result<Bytes> get_chunk(u32 index);

  /// Batched staging: accumulate several preprocessed packages, then seal
  /// them as one batch envelope (patchtool::serialize_batch) so the SMM
  /// side installs all of them under a single kApplyBatch SMI. batch_add()
  /// snapshots the current processed package; seal_batch_for_smm() does not
  /// clear the accumulator (retry-safe — a failed staging can re-seal).
  Status batch_reset();
  Status batch_add();
  /// Returns enclave_pub(32) || sealed batch envelope wire.
  Result<Bytes> seal_batch_for_smm(const crypto::X25519Key& smm_pub);
  [[nodiscard]] u32 batch_count() const {
    return static_cast<u32>(batch_pkgs_.size());
  }

  /// mem_X bytes not on the free-extent map: what preprocessing layout
  /// has consumed, alignment padding included.
  [[nodiscard]] u64 mem_x_cursor() const;
  /// Reinstalls the whole mem_X as one free extent (fresh reserved region).
  void reset_mem_x_cursor();

  /// One function's linked size, keyed by SDBM name hash — the splice
  /// eligibility input (a splice body must fit the old footprint).
  struct OldSizeEntry {
    u64 name_hash = 0;
    u32 old_size = 0;
  };
  /// Single-shot lifecycle directives: the next preprocess stamps `depends`/
  /// `supersedes` into the package and, when `allow_splice` is set, marks
  /// every function whose body fits its old footprint (per `old_sizes`) as
  /// an in-place splice — laid out at its kernel-text address, no mem_X
  /// slot. Cleared once consumed.
  Status set_lifecycle(const std::vector<std::string>& depends,
                       const std::vector<std::string>& supersedes,
                       bool allow_splice,
                       const std::vector<OldSizeEntry>& old_sizes);
  /// A free byte extent of mem_X (absolute addresses).
  struct FreeExtent {
    u64 base = 0;
    u64 len = 0;
  };
  /// Replaces the free-extent map that preprocessing first-fits (16-byte
  /// aligned) into, so slots freed by revert/supersede are reclaimed
  /// instead of leaking forever. Initialization installs the whole mem_X
  /// as one extent; mem_x_base is 16-aligned, so until a reclaim every
  /// package lands right after the previous one.
  Status set_mem_x_map(const std::vector<FreeExtent>& free_extents);

  /// Mirrors the preprocessing-cache counters into `metrics` as
  /// "enclave.prep_hits"/"enclave.prep_misses". Null disables mirroring.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Emits one "enclave" span per ecall into `trace` (null disables).
  /// `vclock` supplies the machine's modeled cycle counter — the enclave has
  /// no machine reference of its own — so enclave spans share the same
  /// virtual timeline as the SMM handler's.
  void set_trace(obs::TraceRecorder* trace, std::function<u64()> vclock,
                 u32 target = 0) {
    trace_ = trace;
    vclock_ = std::move(vclock);
    trace_target_ = target;
  }

 protected:
  Result<Bytes> handle_ecall(int fn, ByteSpan input) override;

 private:
  Result<Bytes> dispatch_ecall(int fn, ByteSpan input);
  Result<Bytes> do_begin_fetch(ByteSpan input);
  Result<Bytes> do_finish_fetch(ByteSpan input);
  Result<Bytes> do_preprocess();
  Result<Bytes> do_seal(ByteSpan input);
  Result<Bytes> do_begin_seal_chunked(ByteSpan input);
  Result<Bytes> do_get_chunk(ByteSpan input);
  Result<Bytes> do_batch_add();
  Result<Bytes> do_seal_batch(ByteSpan input);
  Result<Bytes> do_set_lifecycle(ByteSpan input);
  Result<Bytes> do_set_mem_x_map(ByteSpan input);
  /// Shared seal leg: fresh DH against `smm_pub`, "sgx-smm" key, random
  /// nonce; returns enclave_pub(32) || sealed wire.
  Result<Bytes> seal_blob_for(ByteSpan smm_pub_bytes, const Bytes& plain);

  // EPC-backed package storage.
  Status store_package(u64 region, ByteSpan data);
  Result<Bytes> load_package(u64 region) const;

  kernel::OsInfo os_;
  ReservedGeometry geom_{};
  Rng rng_;  // enclave-internal entropy (RDRAND analogue)
  bool initialized_ = false;

  // DH key for the server session; private part conceptually EPC-resident.
  crypto::DhKeyPair server_session_{};
  bool fetch_in_flight_ = false;

  u64 raw_size_ = 0;
  u64 processed_size_ = 0;

  // Backing store for the zero-copy fetch validation views (reset per fetch).
  Arena fetch_arena_;

  // Pending lifecycle directives (single-shot, consumed by the next
  // preprocess; conceptually EPC-resident).
  bool lifecycle_pending_ = false;
  std::vector<std::string> pending_depends_;
  std::vector<std::string> pending_supersedes_;
  bool pending_allow_splice_ = false;
  std::map<u64, u32> pending_old_sizes_;  // name hash -> linked size

  // mem_X free-extent map the layout first-fits into.
  std::vector<FreeExtent> memx_free_;

  // Batch accumulator (conceptually EPC-resident, like server_session_).
  std::vector<Bytes> batch_pkgs_;

  // Content-addressed cache of reloc-retargeted function bodies: keyed over
  // (original code, layout address, resolved targets), so a repeated
  // preprocessing of the same package at the same mem_X layout is a hit.
  std::map<u64, Bytes> prep_cache_;
  obs::Counter* c_prep_hits_ = nullptr;
  obs::Counter* c_prep_misses_ = nullptr;

  // Streaming-seal state.
  bool chunking_ = false;
  crypto::Key256 chunk_key_{};
  u32 chunk_plain_bytes_ = 0;
  u32 chunk_count_ = 0;

  // Observability.
  obs::TraceRecorder* trace_ = nullptr;
  std::function<u64()> vclock_;
  u32 trace_target_ = 0;
};

}  // namespace kshot::core
