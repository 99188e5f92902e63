// The SMM handler (paper §V-C "SMM-based Live Patching" and §V-D "Patching
// Protection"). In the real system this is firmware code resident in locked
// SMRAM; here it is a native object whose mutable state models SMRAM-resident
// data — the simulated kernel can only reach it by raising an SMI, and the
// handler touches machine memory exclusively in SMM access mode.
//
// Per SMI it dispatches on the mem_RW mailbox command:
//   kBeginSession  fresh DH key pair (5.2 us modeled), public key published
//   kApplyPatch    read mem_W -> authenticated decrypt -> package digest +
//                  per-function CRC verify -> global variable edits ->
//                  copy bodies into mem_X -> install 5-byte jmp trampolines
//   kApplyBatch    same decrypt leg, but the plaintext is a batch envelope
//                  of N packages; verify all, validate all, then apply all
//                  under this one SMI (all-or-nothing, one rollback unit
//                  per package)
//   kRollback      write back the newest rollback unit's revert records
//   kIntrospect    re-check trampolines, mem_X bodies and reserved-region page
//                  attributes; repair anything a rootkit reverted
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "common/arena.hpp"
#include "core/detection.hpp"
#include "core/mailbox.hpp"
#include "core/smm_txn.hpp"
#include "crypto/aead.hpp"
#include "kernel/layout.hpp"
#include "machine/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "patchtool/package.hpp"

namespace kshot::core {

/// Wall-clock nanoseconds of each SMM phase of the current session (cleared
/// by kBeginSession) plus the modeled charges (Table III columns). Each
/// *_ns field is the wall duration of the matching "smm" span(s): a chunk
/// train's decrypt_ns sums one decrypt span per chunk.
struct SmmPatchTimings {
  double keygen_ns = 0;       // measured in the last kBeginSession
  double decrypt_ns = 0;      // mem_W read + DH shared secret + ChaCha20/MAC
  double verify_ns = 0;       // package SHA-256 digest + per-function CRCs
  double apply_ns = 0;        // var edits + mem_X copies + trampolines
  u64 modeled_cycles = 0;     // phase charges (excl. SMI/RSM, detection)
  size_t package_bytes = 0;
  size_t code_bytes = 0;
  u32 functions = 0;
};

/// One installed trampoline (or in-place splice), remembered for rollback
/// and introspection.
struct InstalledPatch {
  std::string name;
  u64 taddr = 0;
  u64 paddr = 0;
  u16 ftrace_off = 0;
  u32 code_size = 0;
  std::array<u8, 5> trampoline{};      // the jmp we wrote
  /// SMRAM-kept authoritative body bytes (§V-D): introspection compares the
  /// mem_X body (or the spliced-in text) with them and repairs from them.
  /// `code_ref` borrows from `retain` — the decrypted session envelope (or
  /// completed chunk stream), shared by every record that envelope produced
  /// — so the record never dangles: the bytes live as long as it does.
  std::shared_ptr<const Bytes> retain;
  ByteSpan code_ref;
  [[nodiscard]] ByteSpan code() const { return code_ref; }
  /// In-place splice: the body was written directly over the old function at
  /// taddr; paddr is 0 and there is no trampoline.
  bool spliced = false;
  /// The kernel text the trampoline or splice write replaced, as that
  /// write's journal recorded it; rollback, revert and supersede write it
  /// back. Empty for a mem_X-only helper, which changed no text.
  SavedBytes revert;
};

/// One applied patch set: the unit of supersede/revert bookkeeping. Every
/// successful apply (each package of a batch individually) pushes one unit;
/// kRollback pops the newest, kRevertPatch removes any unit the dependency
/// DAG allows.
struct AppliedUnit {
  std::string id;
  std::string kernel_version;
  u64 id_hash = 0;  // SDBM hash of id (the kRevertTarget key)
  u64 seq = 0;      // monotonic apply order (survives out-of-order revert)
  std::vector<size_t> members;  // indices into installed_
  /// Set-id hashes this unit satisfies as a dependency: its own id plus
  /// everything inherited from the units it superseded (a cumulative patch
  /// keeps standing in for its retired predecessors).
  std::vector<u64> provides;
  /// Set-id hashes this unit requires to stay applied; reverting a unit
  /// another unit depends on is refused with kRevertBlocked.
  std::vector<u64> depends;
};

struct IntrospectionReport {
  u32 patches_checked = 0;
  u32 trampolines_reverted = 0;  // found tampered, repaired
  u32 memx_tampered = 0;         // mem_X body mismatches, repaired
  u32 attrs_restored = 0;        // reserved-region page attributes fixed
  u32 text_bytes_restored = 0;   // kernel-text guard repairs (see below)
  u32 unreadable = 0;            // reads that failed: repair skipped and the
                                 // condition surfaced as a detection — never
                                 // a blind repair write off zeroed bytes
  [[nodiscard]] bool clean() const {
    return trampolines_reverted == 0 && memx_tampered == 0 &&
           attrs_restored == 0 && text_bytes_restored == 0 && unreadable == 0;
  }
};

/// A byte range of kernel text the guard must treat as legitimately
/// kernel-mutable (e.g. the 5-byte ftrace pads the dynamic tracer rewrites).
struct MutableWindow {
  u64 addr = 0;
  u32 len = 0;
};

class SmmPatchHandler {
 public:
  /// `metrics` backs the handler's counters; pass null to let the handler
  /// own a private registry (standalone/test use).
  explicit SmmPatchHandler(kernel::MemoryLayout layout, u64 entropy_seed,
                           obs::MetricsRegistry* metrics = nullptr);

  /// The entry point registered with Machine::set_smm_handler.
  void on_smi(machine::Machine& m);

  /// Directs span/instant emission into `trace` (null disables), tagging
  /// events with fleet target index `target`.
  void set_trace(obs::TraceRecorder* trace, u32 target = 0) {
    trace_ = trace;
    trace_target_ = target;
  }

  /// Firmware configuration: run an introspection sweep on SMIs that carry
  /// no command (the periodic watchdog SMIs).
  void set_introspect_on_idle(bool v) { introspect_on_idle_ = v; }

  /// Fuzz-harness self-test seam: swaps bounds_ok back to the pre-fix
  /// `base + len > end` arithmetic that wraps for attacker-chosen addresses
  /// near UINT64_MAX. The harness (kshot-sim fuzz --selftest) enables this
  /// to prove its oracles catch that bug class; nothing else may call it.
  void enable_legacy_wrapping_bounds_for_selftest() {
    legacy_wrapping_bounds_ = true;
  }

  /// Fuzz-harness self-test seam: re-opens the pre-hardening double fetch —
  /// after validating the mailbox snapshot and fetching the staged bytes,
  /// the handler re-reads staged_size and mem_W from attacker-writable
  /// memory and uses *those* (the classic TOCTOU window). The
  /// attacker_schedule surface enables this to prove its prevented-or-
  /// detected oracle catches the bug class; nothing else may call it.
  void enable_legacy_double_fetch_for_selftest() {
    legacy_double_fetch_ = true;
  }

  /// Models a concurrent writer racing the SMI (another core or a DMA
  /// engine scribbling while this core is in SMM): invoked once per staged-
  /// bytes fetch, between the single fetch into SMRAM and its use. Under
  /// the hardened handler anything it writes is invisible (the SMRAM copy
  /// is authoritative); under the legacy seam it lands in the re-read.
  using ConcurrentWriter = std::function<void(machine::Machine&)>;
  void set_concurrent_writer(ConcurrentWriter w) {
    concurrent_writer_ = std::move(w);
  }

  /// Arms the kernel-text guard (the paper's §IV-A "kernel introspection
  /// module for kernel protection"): snapshots the pristine kernel text
  /// into SMRAM state; every introspection sweep thereafter detects and
  /// restores any modification outside (a) KShot's own trampolines and
  /// (b) the provided kernel-mutable windows (ftrace pads). Must be armed
  /// at trusted-boot time, before untrusted code runs.
  Status arm_kernel_guard(machine::Machine& m,
                          std::vector<MutableWindow> windows);
  [[nodiscard]] bool kernel_guard_armed() const { return guard_armed_; }

  // SMRAM-resident state inspection (harness/test access; simulated software
  // cannot reach any of this).
  [[nodiscard]] const SmmPatchTimings& last_timings() const {
    return timings_;
  }
  [[nodiscard]] const std::vector<InstalledPatch>& installed() const {
    return installed_;
  }
  [[nodiscard]] const std::vector<AppliedUnit>& applied_units() const {
    return applied_units_;
  }
  /// mem_X bytes currently occupied by installed (non-splice) bodies.
  [[nodiscard]] u64 memx_used() const {
    u64 n = 0;
    for (const auto& p : installed_) {
      if (!p.spliced) n += p.code_size;
    }
    return n;
  }
  [[nodiscard]] const IntrospectionReport& last_introspection() const {
    return last_introspection_;
  }
  // Counters are backed by the obs registry ("smm.*" namespace); these
  // accessors remain the SMM-side ground truth the DoS handshake reads.
  [[nodiscard]] u64 sessions_started() const { return c_sessions_->value(); }
  [[nodiscard]] u64 patches_applied() const { return c_applied_->value(); }
  [[nodiscard]] u64 rollbacks() const { return c_rollbacks_->value(); }
  /// Apply/stage-chunk commands the handler has seen, successful or not —
  /// SMM-side proof that the helper app's staging reached SMM at all (the
  /// DoS-detection handshake's ground truth).
  [[nodiscard]] u64 stagings_seen() const { return c_stagings_->value(); }
  [[nodiscard]] u64 sessions_aborted() const { return c_aborts_->value(); }
  /// Tamper detections recorded since construction ("smm.detections").
  [[nodiscard]] u64 detections_seen() const { return c_detections_->value(); }
  /// Introspection repairs performed ("smm.introspect_repairs").
  [[nodiscard]] u64 introspect_repairs() const {
    return c_introspect_repairs_->value();
  }
  /// Transaction id: bumped on every session begin and abort.
  [[nodiscard]] u64 session_epoch() const { return session_epoch_; }

  /// Total modeled cycles charged to TOCTOU hardening (mailbox snapshot +
  /// freshness checks, once per SMI) since construction. This is the honest
  /// price of detection: it is already inside every downtime number, and
  /// benchkit reports it separately as `detection_overhead` so the gate
  /// notices if it grows.
  [[nodiscard]] u64 detection_overhead_cycles() const {
    return detection_overhead_cycles_;
  }

  /// Hands over (and clears) the detections accumulated since the last
  /// take; Kshot harvests these into PatchReport::detections per run.
  [[nodiscard]] DetectionReport take_detections() {
    DetectionReport out = std::move(detections_);
    detections_.clear();
    return out;
  }
  [[nodiscard]] const DetectionReport& detections() const {
    return detections_;
  }

 private:
  void begin_session(machine::Machine& m, Mailbox& mbox);
  SmmStatus apply_batch(machine::Machine& m, Mailbox& mbox,
                        const MailboxSnapshot& snap);
  SmmStatus stage_chunk(machine::Machine& m, Mailbox& mbox,
                        const MailboxSnapshot& snap);
  SmmStatus rollback(machine::Machine& m);
  /// kRevertPatch: removes the applied unit whose id hash matches
  /// snap.revert_target, wherever it sits in the stack, unless another
  /// applied unit still depends on something it provides (kRevertBlocked).
  SmmStatus revert_patch(machine::Machine& m, const MailboxSnapshot& snap);
  /// kQueryApplied: writes the deterministic "KSHQ" inventory blob (unit
  /// ids/versions/seqs, mem_X occupancy + occupied extents) into mem_RW at
  /// MailboxLayout::kQueryBlob and its size at kQuerySize.
  SmmStatus query_applied(machine::Machine& m, Mailbox& mbox);
  void introspect(machine::Machine& m);

  /// The staged bytes of one SMI, fetched once into SMRAM.
  struct StagedBytes {
    std::shared_ptr<Bytes> bytes;  // the SMRAM copy, opened in place
    u64 size = 0;                  // bytes fetched (and decrypt-charged)
    std::optional<crypto::SealedBoxView> box;  // empty: does not decode
    u64 c0 = 0;                    // the decrypt span opens at the fetch
    std::chrono::steady_clock::time_point t0;
  };
  /// A staged-fetch caller's detection details.
  struct StagedText {
    const char* zero_size;
    const char* too_big;
  };
  /// The staged-fetch leg of every staging SMI: size checks on `snap`, one
  /// mem_W fetch into SMRAM, the concurrent-writer window and the envelope
  /// decode. Nothing is re-read from attacker-writable memory unless the
  /// legacy double-fetch seam is on.
  SmmStatus fetch_staged(machine::Machine& m, Mailbox& mbox,
                         const MailboxSnapshot& snap, const StagedText& text,
                         StagedBytes& out);
  /// Opens `s.box` in place under `key`, charges its decrypt cost and
  /// closes the decrypt span fetch_staged opened.
  Result<MutByteSpan> open_staged(machine::Machine& m,
                                  const crypto::Key256& key,
                                  const StagedBytes& s);
  /// Decrypt leg of kApplyPatch/kApplyBatch: fetch_staged, replay check,
  /// "sgx-smm" key, open, single-use key reset. On kOk `out_plain` borrows
  /// from `out_retain`, the SMRAM copy of the envelope decrypted in place.
  SmmStatus decrypt_staged(machine::Machine& m, Mailbox& mbox,
                           const MailboxSnapshot& snap,
                           std::shared_ptr<const Bytes>& out_retain,
                           ByteSpan& out_plain);

  /// Records one classified tamper detection (counter, report, trace).
  void record_detection(machine::Machine& m, DetectionClass cls,
                        SmmStatus status, std::string detail);
  /// Replay ring: the MACs of sealed envelopes recently staged here.
  [[nodiscard]] bool seen_recent_wire(const crypto::Digest256& mac) const;
  void remember_wire(const crypto::Digest256& mac);
  /// The `label` key shared with the enclave: this session's private key
  /// with snap.enclave_pub. That is a mem_RW field, so a low-order point
  /// there (an all-zero secret the OS knows, RFC 7748 §6.1) burns the
  /// session, records a mailbox flip and yields nullopt.
  std::optional<crypto::Key256> session_key(machine::Machine& m,
                                            const MailboxSnapshot& snap,
                                            const char* label);

  /// Discards the chunk-stream accumulation state.
  void reset_stream();
  /// Transactional reset: session keys + stream state gone, epoch bumped.
  /// Idempotent — aborting with nothing active is still a clean abort.
  void abort_session(Mailbox& mbox);

  /// Shared tail of kApplyPatch and the final kStageChunk: verify and apply
  /// the plaintext `package`, which borrows from `retain` (kept alive past
  /// the SMI by the installed records).
  SmmStatus verify_and_apply(machine::Machine& m,
                             const std::shared_ptr<const Bytes>& retain,
                             ByteSpan package);
  /// One package's verify step (Table III "Patch Verification": digest and
  /// per-function CRCs): the fixed + per-byte charge, then the parse.
  Result<patchtool::PatchSetView> verify_package(machine::Machine& m,
                                                 ByteSpan pkg);
  /// kDigestFailure or kBadPackage for a failed verify_package, with its
  /// instant; called once the verify span has closed.
  SmmStatus verify_failed(machine::Machine& m, const Status& parse_error);
  /// Charges `cycles` of phase work and counts them in modeled_cycles.
  void charge_phase(machine::Machine& m, u64 cycles);

  /// Applies one parsed set, journaling every memory write into `txn` for
  /// the caller to commit; the caller counts the apply ("smm.applied",
  /// "smm.staged_copies") only after that commit. `retain` is the buffer
  /// the set's code spans borrow from; every installed record keeps it
  /// alive.
  SmmStatus apply_parsed(machine::Machine& m,
                         const patchtool::PatchSetView& set,
                         const std::shared_ptr<const Bytes>& retain,
                         SmmTxn& txn);

  /// Per-byte work the rendezvoused CPUs share during the SMI window
  /// (package verify hashing): the byte cost divides across cpus plus a
  /// per-AP merge charge. At one CPU this is exactly bytes_cost() — the
  /// legacy model, untouched.
  [[nodiscard]] u64 parallel_bytes_cost(const machine::Machine& m,
                                        double per_byte, size_t bytes) const;

  /// A byte range an apply would write (mem_X body, trampoline window, or
  /// splice window) — the unit of overlap rejection.
  struct ByteWindow {
    u64 addr = 0;
    u64 len = 0;
  };
  /// Every byte range `p` writes outside SMRAM.
  static void collect_windows(const patchtool::FunctionPatchView& p,
                              std::vector<ByteWindow>& out);
  static void collect_windows(const InstalledPatch& p,
                              std::vector<ByteWindow>& out);

  /// Pre-apply validation of one set: bounds, preprocessing, var-edit
  /// targets, splice eligibility, and byte-precise overlap rejection — a
  /// set whose write windows intersect each other, an installed patch's
  /// windows (minus `retired_installed`, the records a supersede is about
  /// to free), or `extra_windows` (earlier sets of the same batch) is
  /// kBadPackage. apply_parsed re-runs it; apply_batch runs it over every
  /// set before applying any, making the whole batch all-or-nothing for
  /// validation failures.
  [[nodiscard]] SmmStatus validate_set(
      const patchtool::PatchSetView& set,
      const std::vector<bool>* retired_installed = nullptr,
      const std::vector<ByteWindow>* extra_windows = nullptr) const;

  /// Erases applied_units_[unit_idx] and its installed_ records (memory
  /// untouched), re-basing the other units' member indices.
  AppliedUnit erase_unit(size_t unit_idx);
  /// Writes back the unit's revert records in reverse, then erases it. No
  /// counters/spans — callers account for themselves.
  void remove_unit(machine::Machine& m, size_t unit_idx);

  /// Emits one "smm" span [c0, m.cycles()] named `name` and returns its
  /// wall-clock duration in ns — the value the SmmPatchTimings fields are
  /// derived from.
  double phase_span(machine::Machine& m, const char* name, u64 c0,
                    std::chrono::steady_clock::time_point t0);
  void emit_instant(machine::Machine& m, const char* name,
                    std::vector<obs::TraceArg> args = {});

  [[nodiscard]] bool bounds_ok(const patchtool::FunctionPatchView& p) const;

  kernel::MemoryLayout layout_;
  Rng rng_;  // hardware entropy for DH keys

  /// Per-session parse arena: the view parser's tables (function headers,
  /// reloc/var-edit arrays) live here; reset at the start of each parse.
  Arena arena_;

  // Session state (fresh per patch, defeating replay §V-C).
  std::optional<crypto::DhKeyPair> session_keys_;
  u64 session_id_ = 0;

  // Streaming-mode state (SMRAM-resident accumulation buffer).
  std::optional<crypto::Key256> stream_key_;
  Bytes stream_buffer_;
  u32 stream_expected_ = 0;
  u32 stream_total_ = 0;

  std::vector<InstalledPatch> installed_;
  /// Stack of applied units in apply order: each successful apply (every
  /// package of a batch individually) pushes one unit; kRollback pops the
  /// newest and kRevertPatch removes any unit the dependency DAG allows
  /// (remove_unit re-bases the surviving units' member indices, so the
  /// stack no longer relies on LIFO-only erasure).
  std::vector<AppliedUnit> applied_units_;
  u64 unit_seq_ = 0;  // monotonic AppliedUnit::seq source

  bool introspect_on_idle_ = false;
  bool legacy_wrapping_bounds_ = false;  // self-test seam, see above
  bool legacy_double_fetch_ = false;     // self-test seam, see above
  ConcurrentWriter concurrent_writer_;
  u64 detection_overhead_cycles_ = 0;  // hardening cycles, see accessor

  // Detection state (SMRAM-resident). The replay ring holds the MACs of the
  // last kRecentWires sealed envelopes staged here, so a MAC failure over a
  // previously-seen envelope classifies as kReplay instead of kMemWRewrite.
  static constexpr size_t kRecentWires = 8;
  std::vector<crypto::Digest256> recent_wires_;
  size_t recent_wires_next_ = 0;
  DetectionReport detections_;

  // Kernel-text guard state (SMRAM-resident).
  bool guard_armed_ = false;
  Bytes pristine_text_;
  std::vector<MutableWindow> guard_windows_;

  SmmPatchTimings timings_;
  IntrospectionReport last_introspection_;
  u64 session_epoch_ = 0;
  u64 last_cmd_seq_ = 0;  // SMRAM copy: detects seq-advance-with-idle flips

  // Observability. The registry hands out stable references, so the hot
  // counters are resolved once at construction.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* c_sessions_ = nullptr;
  obs::Counter* c_applied_ = nullptr;
  obs::Counter* c_rollbacks_ = nullptr;
  obs::Counter* c_stagings_ = nullptr;
  obs::Counter* c_aborts_ = nullptr;
  obs::Counter* c_batch_applies_ = nullptr;
  obs::Counter* c_detections_ = nullptr;
  obs::Counter* c_introspect_repairs_ = nullptr;
  /// Buffer copies of staged package payload: exactly one per applied
  /// package (the SMM write into machine memory). Every earlier step works
  /// on spans borrowed from the SMRAM copy of the envelope.
  obs::Counter* c_staged_copies_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  u32 trace_target_ = 0;
};

}  // namespace kshot::core
