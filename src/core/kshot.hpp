// KShot public API: the end-to-end live-patch pipeline of paper Fig. 2.
//
//   Kshot kshot(kernel, sgx, server, channel);
//   kshot.install();                        // firmware + enclave setup
//   auto report = kshot.live_patch("CVE-2017-17806");
//   kshot.rollback();                       // if the patch misbehaves
//   kshot.introspect();                     // detect/repair reversion
//
// The class also plays the role of the *untrusted helper application*: all
// its direct machine-memory accesses use normal (kernel-privilege) mode, so
// everything it relays can be tampered with by a rootkit — by construction
// the only consequences are detected integrity failures.
#pragma once

#include "core/kshot_enclave.hpp"
#include "core/retry.hpp"
#include "core/smm_handler.hpp"
#include "kernel/scheduler.hpp"
#include "netsim/channel.hpp"
#include "netsim/patch_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace kshot::core {

/// Table II columns (microseconds; real measured work + modeled link time).
struct SgxPhaseTimings {
  double fetch_us = 0;       // request/response crypto + modeled network
  double link_us = 0;        // the modeled-network share of fetch_us
  double preprocess_us = 0;  // integrity check, layout, branch replacement,
                             // sealing for SMM
  double passing_us = 0;     // writing mem_W + mailbox (untrusted app)
  [[nodiscard]] double total_us() const {
    return fetch_us + preprocess_us + passing_us;
  }
};

/// Table III columns (microseconds).
struct SmmPhaseTimings {
  double keygen_us = 0;
  double decrypt_us = 0;
  double verify_us = 0;
  double apply_us = 0;
  double switch_us = 0;       // modeled SMI entry + RSM, both SMIs
  double total_us = 0;        // sum of the above
  double modeled_total_us = 0;  // virtual-clock downtime incl. switches
};

/// Attempt/retry/abort accounting for one live_patch run (fault-injection
/// campaigns assert on these to see the pipeline actually retried).
struct ResilienceStats {
  u32 fetch_attempts = 0;   // round trips to the patch server
  u32 apply_attempts = 0;   // seal -> stage -> apply transactions
  u32 session_aborts = 0;   // kAbortSession commands issued to clean up
  double backoff_us = 0;    // modeled backoff, accrued on the OS clock
  bool retries_exhausted = false;  // failed with the budget spent
};

struct PatchReport {
  std::string id;
  bool success = false;
  SmmStatus smm_status = SmmStatus::kOk;
  PackageStats stats;
  SgxPhaseTimings sgx;
  SmmPhaseTimings smm;
  ResilienceStats resilience;
  /// Everything the pipeline detected and classified during this run —
  /// handler-side (inside SMIs) plus helper-side (SMI suppression).
  DetectionReport detections;
  /// Virtual cycles the OS was paused (both SMIs), from the machine clock.
  u64 downtime_cycles = 0;
  /// Per-CPU decomposition of the downtime (deltas of the machine's running
  /// totals over this run's SMIs): the multi-CPU rendezvous (SMI entry +
  /// IPIs + slowest-CPU jitter), the handler's own work, and the resume leg
  /// (RSM + per-AP wakeups not released early). Invariant, asserted by the
  /// obs tests: rendezvous_cycles + handler_cycles + resume_cycles ==
  /// downtime_cycles, exactly, at every CPU count.
  u64 rendezvous_cycles = 0;
  u64 handler_cycles = 0;
  u64 resume_cycles = 0;
};

/// Coarse pipeline phases of one live_patch run, reported through the phase
/// observer so orchestration layers (src/fleet/) can mirror the per-target
/// state machine off the real transitions instead of guessing.
enum class PatchPhase : u8 {
  kFetching = 0,  // first server round trip is about to start
  kStaged,        // full sealed package staged in mem_W, pre-apply SMI
  kApplied,       // transaction committed, trampolines live
  kFailed,        // pipeline finished without applying
};

const char* patch_phase_name(PatchPhase p);

/// Lifecycle directives for one live_patch run (the patch-stack features).
struct LifecycleOptions {
  /// Set ids that must already be applied on the target (enforced in SMM:
  /// kMissingDependency if not).
  std::vector<std::string> depends;
  /// Set ids this cumulative patch retires: their trampolines/splices are
  /// removed and their mem_X slots freed atomically, under the same SMI
  /// that installs this set. Ids not applied on the target are skipped.
  std::vector<std::string> supersedes;
  /// Let the enclave splice functions in place (body written over the old
  /// function, no mem_X copy, no trampoline) whenever the new body fits the
  /// old footprint per the kernel symbol table.
  bool allow_splice = false;

  [[nodiscard]] bool empty() const {
    return depends.empty() && supersedes.empty() && !allow_splice;
  }
};

/// Parsed kQueryApplied inventory ("KSHQ" blob): the applied patch stack and
/// mem_X occupancy as SMM sees them.
struct AppliedInfo {
  struct Unit {
    std::string id;
    std::string kernel_version;
    u64 seq = 0;      // apply order
    u64 id_hash = 0;  // SDBM of id (the kRevertTarget key)
    u32 functions = 0;
    u32 code_bytes = 0;
    u8 spliced = 0;   // members installed as in-place splices
  };
  std::vector<Unit> units;
  u64 memx_used = 0;
  u64 memx_free = 0;
  /// Occupied mem_X extents (base, len), sorted by base — the input to
  /// free-extent computation for slot reclamation.
  std::vector<std::pair<u64, u64>> extents;
};

struct DosCheckReport {
  bool smm_alive = false;         // heartbeat advanced when poked
  bool staging_attempted = false;  // helper app tried to stage a package
  bool staging_observed = false;   // SMM-side: a staging command arrived
  bool dos_suspected = false;
};

class Kshot {
 public:
  Kshot(kernel::Kernel& kernel, sgx::SgxRuntime& sgx,
        netsim::PatchServer& server, netsim::Channel& channel,
        u64 entropy_seed = 0xC0FFEE);

  /// One-time setup: registers the SMM handler and locks SMRAM (firmware
  /// step), loads the preprocessing enclave (boot-time step). Must run
  /// before any kernel code executes untrusted modules.
  /// `watchdog_interval_cycles`, when nonzero, arms a firmware periodic SMI
  /// on which the handler runs its introspection sweep automatically — the
  /// SMM-based kernel protection deployment of §V-D.
  Status install(u64 watchdog_interval_cycles = 0);

  /// Fetches, preprocesses, and applies `patch_id` end to end. The target
  /// OS keeps running except during the two SMIs. Lifecycle directives in
  /// `opts` (dependency declarations, supersede lists, splice eligibility)
  /// ride to the enclave (stamped into the wire-v2 package) and are
  /// enforced in SMM.
  Result<PatchReport> live_patch(const std::string& patch_id,
                                 const LifecycleOptions& opts = {});

  /// Batched end-to-end patching: fetches and preprocesses each id in
  /// order, accumulates the processed packages in the enclave, then runs
  /// ONE seal->stage->apply session whose single kApplyBatch SMI installs
  /// every package (all-or-nothing; one rollback unit per package, popped
  /// in reverse by successive rollback() calls). Pays one SMI round trip
  /// and one SMM keygen for the whole batch instead of one per patch.
  Result<PatchReport> live_patch_batch(
      const std::vector<std::string>& patch_ids);

  /// Streaming variant for packages larger than mem_W: the sealed package
  /// crosses the reserved region in `chunk_bytes`-sized pieces, one SMI per
  /// chunk, with per-chunk authenticated ordering. Downtime is spread over
  /// the chunk SMIs; the patch itself still applies atomically after the
  /// final chunk verifies.
  Result<PatchReport> live_patch_chunked(const std::string& patch_id,
                                         u32 chunk_bytes);

  /// Rolls back the most recent patch (remote rollback instruction, §V-C).
  Result<PatchReport> rollback();

  /// Out-of-order revert of the applied set `patch_id`, wherever it sits in
  /// the stack. SMM refuses (kRevertBlocked) while another applied unit
  /// depends on it; kNothingToRollback if it is not applied.
  Result<PatchReport> revert_patch(const std::string& patch_id);

  /// kQueryApplied SMI: the applied patch stack (ids, versions, apply order,
  /// splice counts) and mem_X occupancy, as SMM reports them through the
  /// mem_RW inventory blob.
  Result<AppliedInfo> query_applied();

  /// Slot reclamation: queries the applied set, computes the free extents
  /// of mem_X (everything outside the occupied extents), and hands the map
  /// to the enclave, whose layout allocator first-fits later packages into
  /// the gaps that revert/supersede left behind.
  Status reclaim_mem_x();

  /// SMM introspection sweep (§V-D): verifies and repairs trampolines,
  /// mem_X contents, and reserved-region page attributes.
  Result<IntrospectionReport> introspect();

  /// Arms the SMM kernel-text guard (§IV-A "kernel introspection module for
  /// kernel protection"): snapshots the just-booted kernel text into SMRAM
  /// state and builds the kernel-mutable window list from the symbol
  /// table's ftrace pads. Call at trusted-boot time, right after install().
  Status arm_kernel_guard();

  /// DoS detection handshake (§V-D): the remote server verifies with the
  /// SMM handler that patch staging actually happened. Suspicion requires
  /// *contradiction* — the helper app tried to stage but SMM never saw a
  /// staging command, or SMM stopped answering at all. A freshly installed
  /// deployment that has not patched anything yet is not a DoS.
  Result<DosCheckReport> dos_check();

  /// Retry policy for the fetch and sealed-passing phases. Defaults to a
  /// modest exponential-backoff budget; RetryPolicy::none() restores the
  /// original fail-fast behaviour.
  void set_retry_policy(const RetryPolicy& p) { retry_ = p; }
  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_; }

  /// Observer invoked at each phase transition of live_patch /
  /// live_patch_chunked (never from rollback or introspection). Runs on the
  /// calling thread; keep it cheap and non-reentrant.
  using PhaseObserver = std::function<void(PatchPhase)>;
  void set_phase_observer(PhaseObserver o) { phase_observer_ = std::move(o); }
  void clear_phase_observer() { phase_observer_ = nullptr; }

  /// Second phase hook, reserved for the async-adversary testbed: runs
  /// after the regular observer at every transition, so an attacker can
  /// interpose on the stage→apply window without stealing the fleet's
  /// observer slot. Same threading rules as the observer.
  void set_async_interposer(PhaseObserver i) {
    async_interposer_ = std::move(i);
  }
  void clear_async_interposer() { async_interposer_ = nullptr; }

  /// Harvests (and clears) all detections accumulated since the last take:
  /// handler-side (recorded inside SMIs) plus helper-side (stale-echo SMI
  /// suppression). The live_patch variants call this into
  /// PatchReport::detections; when a run fails with a transport error and
  /// no report, callers (fleet quarantine) take the evidence from here.
  [[nodiscard]] DetectionReport take_detections();

  /// Tamper hook over the *staging* leg (helper app -> mem_W): models a
  /// rootkit garbling sealed blobs/chunks after they leave the enclave.
  /// FaultInjector::as_tamperer() plugs in here.
  void set_stage_tamperer(netsim::Channel::Tamperer t) {
    stage_tamperer_ = std::move(t);
  }
  void clear_stage_tamperer() { stage_tamperer_ = nullptr; }

  /// Backs this pipeline's counters/histograms with an external registry
  /// (fleet aggregation). Must be called before install(); the handler and
  /// enclave resolve their counters against it at construction.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  /// The registry in effect (external or internally owned).
  [[nodiscard]] obs::MetricsRegistry& metrics();

  /// Routes span/instant emission from every layer of this pipeline —
  /// Kshot itself, the enclave, and the SMM handler — into `trace` (null
  /// disables), tagging events with fleet target index `target`. May be
  /// called before or after install().
  void set_trace(obs::TraceRecorder* trace, u32 target = 0);

  [[nodiscard]] SmmPatchHandler& handler() { return *handler_; }
  [[nodiscard]] KshotEnclave& enclave() { return *enclave_; }

  /// True if a trampoline for `function` is currently installed.
  [[nodiscard]] bool is_patched(const std::string& function) const;

  /// Trusted code base of the deployment pipeline in bytes (SMM handler
  /// state + enclave EPC footprint); used by the Table V comparison.
  [[nodiscard]] size_t tcb_bytes() const;

 private:
  /// Writes the command + a fresh sequence number, raises the SMI, and
  /// cross-checks the handler's echo: a stale echo proves the SMI was
  /// suppressed and the status word is leftover garbage (satellite of the
  /// §V-D DoS handshake), reported as kAborted rather than trusted.
  Result<SmmStatus> trigger_and_status(SmmCommand cmd);

  /// One fetch round trip (request out, response back, finish_fetch).
  /// Returns the modeled link time; errors are the attempt's failure.
  Result<double> fetch_once(const std::string& patch_id);
  /// Fetch with the retry policy applied; fills report.sgx.fetch_us and the
  /// resilience counters.
  Status fetch_with_retry(const std::string& patch_id, PatchReport& report);

  /// Runs `attempt_once` under the retry policy, issuing kAbortSession
  /// between failed attempts so each retry stages against a clean epoch.
  /// Ok when the report carries the outcome (success or a final SmmStatus
  /// failure); an error Status only for unrecoverable transport failures.
  /// A transport-level failure (no SmmStatus came back) is ambiguous — the
  /// SMI may have run and applied before the channel broke, and blindly
  /// re-applying would collide with the already-installed windows. So is
  /// kNoSession, which means another SMI consumed this attempt's session.
  /// When `applied_probe` is set it is consulted (via kQueryApplied) before
  /// any retry; a positive probe resolves the attempt as success.
  Status apply_with_retry(
      const std::function<Result<SmmStatus>()>& attempt_once,
      PatchReport& report,
      const std::function<bool()>& applied_probe = nullptr);
  /// True when the mailbox's staged-size field no longer holds what the
  /// helper last staged.
  bool staged_size_flipped();
  /// apply_with_retry plus the outcome notification (kApplied/kFailed).
  /// If an SMI ran while the outcome was being observed and the applied
  /// set is gone, records a kMailboxFlip detection and applies again, up
  /// to the retry policy's attempt count.
  Status apply_and_notify(
      Mailbox& mbox, const std::function<Result<SmmStatus>()>& attempt_once,
      PatchReport& report, const std::function<bool()>& applied_probe);

  /// The one staged-apply pipeline behind live_patch, live_patch_batch and
  /// live_patch_chunked: fetch and preprocess each id, then seal, stage and
  /// apply under the retry policy, and fill the report. `apply_cmd` picks
  /// the shape: kApplyPatch stages one sealed package, kApplyBatch a sealed
  /// batch envelope, and kStageChunk a train of `chunk_bytes` chunks.
  Result<PatchReport> staged_apply(const std::vector<std::string>& ids,
                                   const LifecycleOptions& opts,
                                   SmmCommand apply_cmd, u32 chunk_bytes = 0);
  /// One chunk-train attempt after kBeginSession: chunked sealing against
  /// `smm_pub`, then one kStageChunk SMI per chunk. Returns the last SMI's
  /// status (kOk once the final chunk applied) or the first non-accepting.
  Result<SmmStatus> stage_chunks(Mailbox& mbox,
                                 const crypto::X25519Key& smm_pub,
                                 u32 chunk_bytes, PatchReport& report);
  /// The helper app's write of staged bytes into mem_W and their size (plus
  /// `pub`, when set) into the mailbox; `what` names the bytes in the
  /// too-large error.
  Status write_staged(Mailbox& mbox, ByteSpan bytes,
                      const crypto::X25519Key* pub, const char* what);
  /// The driver's fetch -> preprocess loop over `ids` (each fetch under
  /// the retry policy), summing fetch/preprocess time and package stats
  /// into `report`; a batch adds each processed package to the enclave.
  Status fetch_and_preprocess(const std::vector<std::string>& ids,
                              const LifecycleOptions& opts, bool batch,
                              PatchReport& report);

  /// True when every id in `ids` shows up in the handler's applied set
  /// (one kQueryApplied SMI). Only consulted on ambiguous apply attempts
  /// (transport failure, kNoSession) or when an unexpected SMI ran during
  /// the outcome notification — a clean run never probes.
  bool ids_applied(const std::vector<std::string>& ids);

  void notify_phase(PatchPhase p) {
    if (phase_observer_) phase_observer_(p);
    if (async_interposer_) async_interposer_(p);
  }

  /// Pause between retries: modeled time on the *running-OS* clock.
  void charge_backoff(double us, PatchReport& report);
  /// Best-effort transactional cleanup between attempts.
  void abort_session(PatchReport& report);

  /// Emits one "kshot" span closing at the machine's current cycle.
  void emit_span(const char* name, u64 c0, double wall_us,
                 std::vector<obs::TraceArg> args = {});
  void emit_instant(const char* name, std::vector<obs::TraceArg> args = {});

  kernel::Kernel& kernel_;
  sgx::SgxRuntime& sgx_;
  netsim::PatchServer& server_;
  netsim::Channel& channel_;
  u64 entropy_seed_;

  std::unique_ptr<SmmPatchHandler> handler_;
  std::unique_ptr<KshotEnclave> enclave_;
  bool installed_ = false;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  u32 trace_target_ = 0;

  RetryPolicy retry_;
  Rng retry_rng_;  // jitter source, seeded from entropy_seed_
  netsim::Channel::Tamperer stage_tamperer_;
  PhaseObserver phase_observer_;
  PhaseObserver async_interposer_;
  DetectionReport helper_detections_;
  u64 cmd_seq_ = 0;           // helper-side SMI command sequence
  u64 staging_attempts_ = 0;  // helper-side: sealed packages we tried to pass
  u64 staged_size_ = 0;       // size the helper last wrote to kStagedSize
};

}  // namespace kshot::core
