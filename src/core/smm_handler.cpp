#include "core/smm_handler.hpp"

#include <cstring>

#include <algorithm>

#include "common/byte_io.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "crypto/simple_hash.hpp"
#include "crypto/x25519.hpp"

namespace kshot::core {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Builds the 5-byte jmp encoding for a trampoline at `jmp_addr` reaching
/// `target`: E9 rel32 with rel32 relative to the end of the instruction.
std::array<u8, 5> make_jmp(u64 jmp_addr, u64 target) {
  std::array<u8, 5> bytes{};
  bytes[0] = 0xE9;
  i64 rel = static_cast<i64>(target) - static_cast<i64>(jmp_addr + 5);
  store_u32(bytes.data() + 1, static_cast<u32>(static_cast<i32>(rel)));
  return bytes;
}

/// Checks an SMM-mode mailbox write. mem_RW lies inside memory and is never
/// an EPC page, and SMM ignores page attributes, so these cannot fail.
void mailbox_ok(const Status& st) {
  KSHOT_CHECK(st.is_ok(), "SMM mailbox write failed: " + st.to_string());
}

}  // namespace

SmmPatchHandler::SmmPatchHandler(kernel::MemoryLayout layout, u64 entropy_seed,
                                 obs::MetricsRegistry* metrics)
    : layout_(layout), rng_(entropy_seed), metrics_(metrics) {
  if (!metrics_) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  c_sessions_ = &metrics_->counter("smm.sessions");
  c_applied_ = &metrics_->counter("smm.applied");
  c_rollbacks_ = &metrics_->counter("smm.rollbacks");
  c_stagings_ = &metrics_->counter("smm.stagings_seen");
  c_aborts_ = &metrics_->counter("smm.aborts");
  c_batch_applies_ = &metrics_->counter("smm.batch_applies");
  c_detections_ = &metrics_->counter("smm.detections");
  c_introspect_repairs_ = &metrics_->counter("smm.introspect_repairs");
  c_staged_copies_ = &metrics_->counter("smm.staged_copies");
}

u64 SmmPatchHandler::parallel_bytes_cost(const machine::Machine& m,
                                         double per_byte,
                                         size_t bytes) const {
  const auto& cost = m.cost_model();
  u64 c = cost.bytes_cost(per_byte, bytes);
  const u32 n = m.cpus();
  if (n > 1) {
    // The rendezvoused APs are captive in SMM anyway; fan the byte work out
    // across them and pay a merge charge per AP to combine partial hashes.
    c = c / n + static_cast<u64>(n - 1) * cost.verify_merge_cycles_per_cpu;
  }
  return c;
}

void SmmPatchHandler::record_detection(machine::Machine& m, DetectionClass cls,
                                       SmmStatus status, std::string detail) {
  c_detections_->inc();
  emit_instant(m, "detection",
               {{"class", detection_class_name(cls)}, {"detail", detail}});
  detections_.add(cls, status, session_epoch_, std::move(detail));
}

bool SmmPatchHandler::seen_recent_wire(const crypto::Digest256& mac) const {
  for (const auto& w : recent_wires_) {
    if (crypto::digest_equal(w, mac)) return true;
  }
  return false;
}

void SmmPatchHandler::remember_wire(const crypto::Digest256& mac) {
  if (recent_wires_.size() < kRecentWires) {
    recent_wires_.push_back(mac);
    recent_wires_next_ = recent_wires_.size() % kRecentWires;
    return;
  }
  recent_wires_[recent_wires_next_] = mac;
  recent_wires_next_ = (recent_wires_next_ + 1) % kRecentWires;
}

std::optional<crypto::Key256> SmmPatchHandler::session_key(
    machine::Machine& m, const MailboxSnapshot& snap, const char* label) {
  crypto::X25519Key shared =
      crypto::dh_shared(session_keys_->private_key, snap.enclave_pub);
  if (crypto::dh_shared_is_zero(shared)) {
    session_keys_.reset();
    record_detection(m, DetectionClass::kMailboxFlip, SmmStatus::kMacFailure,
                     "enclave public key is a low-order point");
    return std::nullopt;
  }
  return crypto::derive_key(ByteSpan(shared.data(), shared.size()), label);
}

double SmmPatchHandler::phase_span(machine::Machine& m, const char* name,
                                   u64 c0, Clock::time_point t0) {
  double ns = ns_since(t0);
  if (trace_) {
    trace_->complete("smm", name, trace_target_, c0, m.cycles(), ns / 1000.0);
  }
  return ns;
}

void SmmPatchHandler::emit_instant(machine::Machine& m, const char* name,
                                   std::vector<obs::TraceArg> args) {
  if (trace_) {
    trace_->instant("smm", name, trace_target_, m.cycles(), std::move(args));
  }
}

void SmmPatchHandler::on_smi(machine::Machine& m) {
  // The machine charged the full rendezvous (SMI entry, IPIs, slowest-CPU
  // jitter) before dispatching here and will charge the resume on return, so
  // the full residency span is known now. At one CPU these are exactly the
  // legacy smi_entry/rsm constants.
  const u64 smi_begin = m.cycles() - m.current_rendezvous_cycles();
  const auto smi_t0 = Clock::now();

  Mailbox mbox(m.mem(), layout_.mem_rw_base(), machine::AccessMode::smm());
  mailbox_ok(mbox.bump_heartbeat());

  // Single-fetch snapshot of every mailbox field: all dispatch decisions and
  // every field use below work off this one coherent copy, so a concurrent
  // writer cannot change a field between its validation and its use. The
  // snapshot and the freshness/classification checks it feeds are charged
  // against downtime — hardening is not free.
  const auto& costm = m.cost_model();
  m.charge_cycles(costm.snapshot_cycles + costm.detect_fixed_cycles);
  detection_overhead_cycles_ += costm.snapshot_cycles + costm.detect_fixed_cycles;
  auto snap_r = mbox.snapshot();

  // Echo the helper app's command sequence number: after trigger_smi()
  // returns, a stale echo proves this handler never ran (an SMI suppressed
  // by a rootkit) and that the status word is left over from an earlier
  // command. A rootkit can forge the echo, but forging only ever makes the
  // *untrusted* side believe stale news — the SMM-side counters used by the
  // DoS handshake cannot be forged.
  if (snap_r) mailbox_ok(mbox.write_cmd_seq_echo(snap_r->cmd_seq));

  const char* cmd_name = "none";
  if (snap_r) {
    const MailboxSnapshot& snap = *snap_r;
    // The helper never advances cmd_seq without writing a command, so a
    // fresh sequence number alongside an idle command word means the
    // command was flipped to kIdle after the helper wrote it — without this
    // check the helper would read the *previous* command's leftover kOk.
    const bool fresh_command = snap.cmd_seq != last_cmd_seq_;
    last_cmd_seq_ = snap.cmd_seq;
    if (!snap.command_in_range()) {
      // Pre-hardening this was silently clamped to kIdle; an out-of-range
      // command word is mailbox tampering and must say so.
      cmd_name = "bad_command";
      record_detection(m, DetectionClass::kMailboxFlip, SmmStatus::kBadCommand,
                       "command word out of range");
      mailbox_ok(mbox.write_status(SmmStatus::kBadCommand));
      mailbox_ok(mbox.write_command(SmmCommand::kIdle));
    } else {
      // A watchdog SMI answers nothing; every other command gets a status.
      std::optional<SmmStatus> status = SmmStatus::kOk;
      switch (snap.command) {
        case SmmCommand::kIdle:
          if (fresh_command) {
            cmd_name = "flipped_idle";
            record_detection(m, DetectionClass::kMailboxFlip,
                             SmmStatus::kBadCommand,
                             "command sequence advanced with an idle "
                             "command word");
            status = SmmStatus::kBadCommand;
            break;
          }
          // Watchdog SMI: nothing requested, so guard the installed patches.
          cmd_name = "idle";
          status.reset();
          if (introspect_on_idle_) introspect(m);
          break;
        case SmmCommand::kBeginSession:
          cmd_name = "begin_session";
          begin_session(m, mbox);
          break;
        case SmmCommand::kApplyPatch: {
          cmd_name = "apply_patch";
          std::shared_ptr<const Bytes> retain;
          ByteSpan package;
          status = decrypt_staged(m, mbox, snap, retain, package);
          if (status == SmmStatus::kOk) {
            status = verify_and_apply(m, retain, package);
          }
          break;
        }
        case SmmCommand::kApplyBatch:
          cmd_name = "apply_batch";
          status = apply_batch(m, mbox, snap);
          break;
        case SmmCommand::kStageChunk:
          cmd_name = "stage_chunk";
          status = stage_chunk(m, mbox, snap);
          break;
        case SmmCommand::kRollback:
          cmd_name = "rollback";
          status = rollback(m);
          break;
        case SmmCommand::kRevertPatch:
          cmd_name = "revert_patch";
          status = revert_patch(m, snap);
          break;
        case SmmCommand::kQueryApplied:
          cmd_name = "query_applied";
          status = query_applied(m, mbox);
          break;
        case SmmCommand::kIntrospect:
          cmd_name = "introspect";
          introspect(m);
          break;
        case SmmCommand::kAbortSession:
          cmd_name = "abort_session";
          abort_session(mbox);
          break;
      }
      if (status) mailbox_ok(mbox.write_status(*status));
      if (snap.command != SmmCommand::kIdle) {
        mailbox_ok(mbox.write_command(SmmCommand::kIdle));
      }
    }
    // Bind the status word to the command it answers: the helper checks
    // this against the command it issued, so flipping the command word
    // mid-handoff (e.g. to kBeginSession, whose status is also kOk) can no
    // longer make a stale or wrong-command status pass for success.
    mailbox_ok(mbox.write_status_cmd(snap.raw_command));
  }

  if (trace_) {
    // The span closes at the cycle the resume leg will complete (RSM plus
    // any APs not already released early), so the sum of "smi" spans equals
    // the machine's total SMM residency exactly at any CPU count.
    trace_->complete("smm", "smi", trace_target_, smi_begin,
                     m.cycles() + m.projected_resume_cycles(),
                     ns_since(smi_t0) / 1000.0, {{"cmd", cmd_name}});
  }
}

void SmmPatchHandler::reset_stream() {
  stream_key_.reset();
  stream_buffer_.clear();
  stream_expected_ = 0;
  stream_total_ = 0;
}

void SmmPatchHandler::abort_session(Mailbox& mbox) {
  session_keys_.reset();
  reset_stream();
  c_aborts_->inc();
  mailbox_ok(mbox.write_session_epoch(++session_epoch_));
}

void SmmPatchHandler::begin_session(machine::Machine& m, Mailbox& mbox) {
  timings_ = {};
  auto t0 = Clock::now();
  u64 c0 = m.cycles();
  session_keys_ = crypto::dh_generate(rng_);
  charge_phase(m, m.cost_model().keygen_cycles);
  timings_.keygen_ns = phase_span(m, "keygen", c0, t0);

  // A new session implicitly supersedes any partial chunk stream: the old
  // stream's key is gone, so it could never complete anyway.
  reset_stream();

  c_sessions_->inc();
  ++session_id_;
  mailbox_ok(mbox.write_smm_pub(session_keys_->public_key));
  mailbox_ok(mbox.write_session_id(session_id_));
  mailbox_ok(mbox.write_session_epoch(++session_epoch_));
}

bool SmmPatchHandler::bounds_ok(const patchtool::FunctionPatchView& p) const {
  // All comparisons are in `offset/size <= remaining` form: the natural
  // `base + size > end` wraps for an attacker-chosen base near UINT64_MAX
  // and sails past the end check.
  u64 memx_base = layout_.mem_x_base();
  u64 memx_size = layout_.mem_x_size;
  if (legacy_wrapping_bounds_) {
    // The pre-fix arithmetic, kept verbatim for the fuzz-harness self-test.
    if (p.paddr < memx_base ||
        p.paddr + p.code.size() > memx_base + memx_size) {
      return false;
    }
    if (p.taddr != 0 &&
        (p.taddr < layout_.text_base ||
         p.taddr + p.ftrace_off + 5 > layout_.text_base + layout_.text_max)) {
      return false;
    }
    return true;
  }
  if (p.paddr < memx_base) return false;
  u64 memx_off = p.paddr - memx_base;
  if (memx_off > memx_size || p.code.size() > memx_size - memx_off) {
    return false;
  }
  if (p.taddr != 0) {
    if (p.taddr < layout_.text_base) return false;
    u64 text_off = p.taddr - layout_.text_base;
    if (text_off > layout_.text_max) return false;
    u64 entry_span = static_cast<u64>(p.ftrace_off) + 5;  // u16 + 5: no wrap
    if (entry_span > layout_.text_max - text_off) return false;
  }
  return true;
}

void SmmPatchHandler::charge_phase(machine::Machine& m, u64 cycles) {
  m.charge_cycles(cycles);
  timings_.modeled_cycles += cycles;
}

SmmStatus SmmPatchHandler::fetch_staged(machine::Machine& m, Mailbox& mbox,
                                        const MailboxSnapshot& snap,
                                        const StagedText& text,
                                        StagedBytes& out) {
  const auto mode = machine::AccessMode::smm();
  u64 staged = snap.staged_size;
  if (staged == 0) {
    // The helper never issues a staging command without staging first, so
    // a zero size here is a flipped field.
    record_detection(m, DetectionClass::kStagedSizeFlip,
                     SmmStatus::kNothingStaged, text.zero_size);
    return SmmStatus::kNothingStaged;
  }
  if (staged > layout_.mem_w_size) {
    record_detection(m, DetectionClass::kStagedSizeFlip, SmmStatus::kBadPackage,
                     text.too_big);
    return SmmStatus::kBadPackage;
  }

  // ---- Data fetching (Table III "Data Decryption" opens here) -------------
  // The staged bytes are fetched exactly once into SMRAM; everything
  // downstream (freshness classification, decrypt) operates on this copy.
  // A concurrent writer racing the SMI can no longer swap bytes between
  // validation and use.
  out.t0 = Clock::now();
  out.c0 = m.cycles();
  auto fetched = m.mem().read_bytes(layout_.mem_w_base(), staged, mode);
  if (!fetched) return SmmStatus::kBadPackage;
  out.bytes = std::make_shared<Bytes>(std::move(*fetched));

  // The mid-SMI race window: a second core / DMA engine writing while this
  // core is in SMM.
  if (concurrent_writer_) concurrent_writer_(m);

  if (legacy_double_fetch_) {
    // Self-test seam: the pre-hardening double fetch, re-reading size and
    // bytes from attacker-writable memory after validation.
    auto staged2 = mbox.read_staged_size();
    if (staged2 && *staged2 != 0 && *staged2 <= layout_.mem_w_size) {
      staged = *staged2;
      auto again = m.mem().read_bytes(layout_.mem_w_base(), staged, mode);
      if (again) *out.bytes = std::move(*again);
    }
  }
  out.size = staged;
  if (auto box = crypto::SealedBoxView::deserialize(
          MutByteSpan(out.bytes->data(), out.bytes->size()))) {
    out.box = *box;
  }
  return SmmStatus::kOk;
}

Result<MutByteSpan> SmmPatchHandler::open_staged(machine::Machine& m,
                                                 const crypto::Key256& key,
                                                 const StagedBytes& s) {
  const auto& cost = m.cost_model();
  auto plain = crypto::open_in_place(key, *s.box);
  charge_phase(m, cost.bytes_cost(cost.decrypt_cycles_per_byte, s.size));
  timings_.decrypt_ns += phase_span(m, "decrypt", s.c0, s.t0);
  return plain;
}

SmmStatus SmmPatchHandler::decrypt_staged(
    machine::Machine& m, Mailbox& mbox, const MailboxSnapshot& snap,
    std::shared_ptr<const Bytes>& out_retain, ByteSpan& out_plain) {
  c_stagings_->inc();
  if (!session_keys_.has_value()) return SmmStatus::kNoSession;
  StagedBytes staged;
  SmmStatus st = fetch_staged(
      m, mbox, snap,
      {"staged size is zero under a live session", "staged size exceeds mem_W"},
      staged);
  if (st != SmmStatus::kOk) return st;

  auto key = session_key(m, snap, "sgx-smm");
  if (!key) return SmmStatus::kMacFailure;
  if (!staged.box) {
    // Undecodable staging is indistinguishable from tampering; burn the
    // session either way. It has no MAC, so the replay ring never sees it.
    session_keys_.reset();
    record_detection(m, DetectionClass::kMemWRewrite, SmmStatus::kMacFailure,
                     "staged bytes do not decode as a sealed envelope");
    return SmmStatus::kMacFailure;
  }
  // Freshness: the MAC tags the whole envelope under a single-use session
  // key, so a MAC this handler has staged before can only reappear via an
  // attacker replaying a stale sealed envelope.
  bool replayed = seen_recent_wire(staged.box->mac);
  remember_wire(staged.box->mac);
  auto plain = open_staged(m, *key, staged);
  if (!plain) {
    // MAC failure: tampered mem_W or a replayed blob from an old session.
    session_keys_.reset();
    emit_instant(m, "mac_failure");
    record_detection(m, replayed ? DetectionClass::kReplay
                                 : DetectionClass::kMemWRewrite,
                     SmmStatus::kMacFailure,
                     replayed ? "replayed sealed envelope rejected"
                              : "staged bytes failed authentication");
    return SmmStatus::kMacFailure;
  }

  out_plain = ByteSpan(plain->data(), plain->size());
  out_retain = std::move(staged.bytes);
  // Session keys are single-use: replaying this exact ciphertext later
  // cannot succeed (paper §V-C).
  session_keys_.reset();
  return SmmStatus::kOk;
}

Result<patchtool::PatchSetView> SmmPatchHandler::verify_package(
    machine::Machine& m, ByteSpan pkg) {
  // The per-byte hashing fans out across the rendezvoused CPUs when there
  // is more than one.
  const auto& cost = m.cost_model();
  charge_phase(m, cost.verify_fixed_cycles +
                      parallel_bytes_cost(m, cost.verify_cycles_per_byte,
                                          pkg.size()));
  return patchtool::parse_patchset_view(pkg, arena_);
}

SmmStatus SmmPatchHandler::verify_failed(machine::Machine& m,
                                         const Status& parse_error) {
  const bool digest = parse_error.code() == Errc::kIntegrityFailure;
  emit_instant(m, digest ? "digest_failure" : "bad_package");
  return digest ? SmmStatus::kDigestFailure : SmmStatus::kBadPackage;
}

SmmStatus SmmPatchHandler::apply_batch(machine::Machine& m, Mailbox& mbox,
                                       const MailboxSnapshot& snap) {
  const auto& cost = m.cost_model();

  std::shared_ptr<const Bytes> retain;
  ByteSpan envelope;
  SmmStatus st = decrypt_staged(m, mbox, snap, retain, envelope);
  if (st != SmmStatus::kOk) return st;

  arena_.reset();
  auto pkg_wires = patchtool::parse_batch_view(envelope);
  if (!pkg_wires) {
    emit_instant(m, "bad_batch_envelope");
    return SmmStatus::kBadPackage;
  }

  // ---- Verification: every inner package is digest/CRC-checked and parsed
  //      before anything is applied, charged per package (Table III "Patch
  //      Verification" scales with bytes, so the batch pays the fixed
  //      verify cost N times but keygen/SMI entry only once). At >1 CPU the
  //      per-byte hashing fans out across the rendezvoused CPUs. ----------
  auto t0 = Clock::now();
  u64 c0 = m.cycles();
  std::vector<patchtool::PatchSetView> sets;
  sets.reserve(pkg_wires->size());
  Status parse_error;
  const char* fail_instant = nullptr;
  // A batch is an apply-only construct: rollback is a per-unit command on
  // the mailbox, never an inner package. Lifecycle operations (supersede/
  // depends/splice) are single-package: retiring units mid-batch while
  // later members still validate against them has no sane all-or-nothing
  // semantics, so an inner package carrying lifecycle data is rejected
  // outright.
  for (ByteSpan pkg : *pkg_wires) {
    auto set = verify_package(m, pkg);
    if (!set) {
      parse_error = set.status();
      break;
    }
    const bool has_rollback = std::any_of(
        set->patches.begin(), set->patches.end(),
        [](const auto& p) { return p.op == patchtool::PatchOp::kRollback; });
    if (has_rollback || set->has_lifecycle()) {
      fail_instant = has_rollback ? "rollback_in_batch" : "lifecycle_in_batch";
      break;
    }
    sets.push_back(*set);
  }
  timings_.verify_ns = phase_span(m, "verify", c0, t0);
  if (!parse_error.is_ok()) return verify_failed(m, parse_error);
  if (fail_instant) {
    emit_instant(m, fail_instant);
    return SmmStatus::kBadPackage;
  }

  // ---- Cross-batch validation: if any set would fail validation, reject
  //      the whole batch before a single byte of memory changes. Earlier
  //      members' write windows feed later members' overlap checks, so two
  //      inner packages cannot claim the same mem_X slot or entry point.
  std::vector<ByteWindow> prior_windows;
  for (const auto& set : sets) {
    SmmStatus v = validate_set(set, nullptr, &prior_windows);
    if (v != SmmStatus::kOk) {
      emit_instant(m, "batch_validation_failed");
      return v;
    }
    for (const auto& p : set.patches) collect_windows(p, prior_windows);
  }

  // ---- Application: one rollback unit per package, all under one txn. A
  //      mid-batch write failure replays every member's writes (var edits,
  //      bodies and text) and drops the records the earlier members pushed:
  //      lifecycle packages are refused in a batch, so members only append.
  //      Each applied package releases an even share of the rendezvoused
  //      APs: CPUs whose code later packages do not touch resume before the
  //      full batch completes (fine-grained commit). -----------
  t0 = Clock::now();
  c0 = m.cycles();
  SmmTxn txn(m.mem());
  const size_t installed_before = installed_.size();
  const size_t units_before = applied_units_.size();
  size_t applied_units = 0;
  size_t total_code = 0;
  u32 total_functions = 0;
  const u32 aps = m.cpus() > 1 ? m.cpus() - 1 : 0;
  for (const auto& set : sets) {
    SmmStatus s = apply_parsed(m, set, retain, txn);
    if (s != SmmStatus::kOk) {
      installed_.resize(installed_before);
      applied_units_.resize(units_before);
      emit_instant(m, "batch_unwound");
      phase_span(m, "apply", c0, t0);
      return s;
    }
    ++applied_units;
    if (aps > 0) {
      u32 share = aps / static_cast<u32>(sets.size());
      if (applied_units <= aps % sets.size()) ++share;
      m.release_aps(share);
    }
    total_code += set.total_code_bytes();
    total_functions += static_cast<u32>(set.patches.size());
  }
  txn.commit();
  // Counted only once the txn commits: an unwound batch applied nothing.
  c_staged_copies_->inc(sets.size());
  c_applied_->inc(sets.size());
  charge_phase(m, cost.bytes_cost(cost.apply_cycles_per_byte, total_code));
  timings_.apply_ns = phase_span(m, "apply", c0, t0);

  timings_.package_bytes = envelope.size();
  timings_.code_bytes = total_code;
  timings_.functions = total_functions;

  c_batch_applies_->inc();
  metrics_->histogram("smm.batch_size").observe(
      static_cast<double>(sets.size()));
  KSHOT_LOG(kInfo, "smm") << "applied batch of " << sets.size()
                          << " package(s), " << total_code << " code bytes";
  return SmmStatus::kOk;
}

SmmStatus SmmPatchHandler::verify_and_apply(
    machine::Machine& m, const std::shared_ptr<const Bytes>& retain,
    ByteSpan package) {
  const auto& cost = m.cost_model();

  // ---- Patch verification ------------------------------------------------
  auto t0 = Clock::now();
  u64 c0 = m.cycles();
  arena_.reset();
  auto parsed = verify_package(m, package);
  timings_.verify_ns = phase_span(m, "verify", c0, t0);
  if (!parsed) return verify_failed(m, parsed.status());
  const patchtool::PatchSetView& set = *parsed;

  timings_.package_bytes = package.size();
  timings_.code_bytes = set.total_code_bytes();
  timings_.functions = static_cast<u32>(set.patches.size());

  // A package is either all-apply or all-rollback. The old first-entry
  // sniff silently dropped the apply entries of a mixed package while
  // reporting kOk — reject the mix outright instead.
  bool any_rollback = false;
  bool any_apply = false;
  for (const auto& p : set.patches) {
    (p.op == patchtool::PatchOp::kRollback ? any_rollback : any_apply) = true;
  }
  if (any_rollback && any_apply) {
    emit_instant(m, "mixed_op_package");
    return SmmStatus::kBadPackage;
  }

  // ---- Patch application (Table III "Patch Application") ------------------
  // Spliced bytes skip the mem_X copy and trampoline, so they are charged at
  // the cheaper splice rate; everything else pays the full apply rate. A set
  // with no splice entries charges exactly what it always did.
  size_t splice_code = 0;
  for (const auto& p : set.patches) {
    if (p.splice) splice_code += p.code.size();
  }
  size_t tramp_code = set.total_code_bytes() - splice_code;
  t0 = Clock::now();
  c0 = m.cycles();
  SmmStatus st;
  if (any_rollback) {
    // A rollback package authorizes the operation; the state is local.
    st = rollback(m);
  } else {
    SmmTxn txn(m.mem());
    st = apply_parsed(m, set, retain, txn);
    if (st == SmmStatus::kOk) {
      txn.commit();
      // The one copy the zero-copy pipeline cannot eliminate: the bodies
      // were written into machine memory (the SMM write). Everything before
      // it was a borrowed span.
      c_staged_copies_->inc();
      c_applied_->inc();
      // Fine-grained commit: once the text writes land, the rendezvoused
      // APs have nothing left to wait for — they resume while the BSP
      // finishes the bookkeeping tail.
      m.release_aps(m.cpus());
    }
  }
  charge_phase(m,
               cost.bytes_cost(cost.apply_cycles_per_byte, tramp_code) +
                   cost.bytes_cost(cost.splice_cycles_per_byte, splice_code));
  timings_.apply_ns = phase_span(m, "apply", c0, t0);
  return st;
}

SmmStatus SmmPatchHandler::stage_chunk(machine::Machine& m, Mailbox& mbox,
                                       const MailboxSnapshot& snap) {
  constexpr u32 kMaxChunks = 4096;
  constexpr size_t kMaxStreamBytes = 256ull << 20;

  auto abort_stream = [&](SmmStatus st) {
    reset_stream();
    return st;
  };

  c_stagings_->inc();
  // First chunk: consume the session key and derive the stream key. The
  // stream state is already clear: only reset_stream() drops a stream key.
  if (!stream_key_.has_value()) {
    if (!session_keys_.has_value()) return SmmStatus::kNoSession;
    stream_key_ = session_key(m, snap, "sgx-smm-stream");
    if (!stream_key_) return SmmStatus::kMacFailure;
    session_keys_.reset();
  }

  StagedBytes chunk;
  SmmStatus st = fetch_staged(
      m, mbox, snap,
      {"chunk staged size is zero under a live stream",
       "chunk staged size exceeds mem_W"},
      chunk);
  if (st != SmmStatus::kOk) return abort_stream(st);
  if (!chunk.box) {
    record_detection(m, DetectionClass::kMemWRewrite, SmmStatus::kMacFailure,
                     "chunk does not decode as a sealed envelope");
    return abort_stream(SmmStatus::kMacFailure);
  }
  // Enforce the expected index through the nonce: a chunk sealed for a
  // different position cannot authenticate.
  crypto::Nonce96 want_nonce{};
  store_u32(want_nonce.data(), stream_expected_);
  want_nonce[11] = 0x5C;
  if (chunk.box->nonce != want_nonce) {
    record_detection(m, DetectionClass::kChunkReorder,
                     SmmStatus::kChunkOutOfOrder, "chunk nonce out of order");
    return abort_stream(SmmStatus::kChunkOutOfOrder);
  }
  auto plain = open_staged(m, *stream_key_, chunk);
  if (!plain) {
    record_detection(m, DetectionClass::kMemWRewrite, SmmStatus::kMacFailure,
                     "chunk failed authentication");
    return abort_stream(SmmStatus::kMacFailure);
  }

  ByteReader r(ByteSpan(plain->data(), plain->size()));
  auto index = r.get_u32();
  auto total = r.get_u32();
  if (!index || !total || *index != stream_expected_ || *total == 0 ||
      *total > kMaxChunks || (stream_total_ != 0 && *total != stream_total_)) {
    record_detection(m, DetectionClass::kChunkReorder,
                     SmmStatus::kChunkOutOfOrder,
                     "chunk header index/total inconsistent");
    return abort_stream(SmmStatus::kChunkOutOfOrder);
  }
  stream_total_ = *total;
  auto payload = r.get_span(r.remaining());
  if (stream_buffer_.size() + payload->size() > kMaxStreamBytes) {
    return abort_stream(SmmStatus::kBadPackage);
  }
  stream_buffer_.insert(stream_buffer_.end(), payload->begin(),
                        payload->end());
  ++stream_expected_;

  if (stream_expected_ < stream_total_) return SmmStatus::kChunkAccepted;

  // Final chunk: the accumulated plaintext is the full package. The stream
  // buffer itself becomes the retained envelope — no copy.
  auto package = std::make_shared<Bytes>(std::move(stream_buffer_));
  reset_stream();
  ByteSpan span(package->data(), package->size());
  return verify_and_apply(m, std::move(package), span);
}

void SmmPatchHandler::collect_windows(const patchtool::FunctionPatchView& p,
                                      std::vector<ByteWindow>& out) {
  if (p.splice) {
    if (!p.code.empty()) out.push_back({p.taddr, p.code.size()});
    return;
  }
  if (!p.code.empty()) out.push_back({p.paddr, p.code.size()});
  if (p.taddr != 0) out.push_back({p.taddr + p.ftrace_off, 5});
}

void SmmPatchHandler::collect_windows(const InstalledPatch& p,
                                      std::vector<ByteWindow>& out) {
  if (p.spliced) {
    if (p.code_size != 0) out.push_back({p.taddr, p.code_size});
    return;
  }
  if (p.code_size != 0) out.push_back({p.paddr, p.code_size});
  if (p.taddr != 0) out.push_back({p.taddr + p.ftrace_off, 5});
}

SmmStatus SmmPatchHandler::validate_set(
    const patchtool::PatchSetView& set,
    const std::vector<bool>* retired_installed,
    const std::vector<ByteWindow>* extra_windows) const {
  // Validate everything — bounds, preprocessing, variable-edit targets —
  // before touching memory: the whole set applies or nothing does. Nothing
  // in apply_parsed past this check may fail for a reason validation could
  // have caught.
  std::vector<ByteWindow> mine;
  for (const auto& p : set.patches) {
    if (p.splice) {
      // In-place splice: the body lands straight over the old function, so
      // it must fit the old footprint and sit entirely inside kernel text.
      // paddr is 0 by construction (the wire parser enforces it), so the
      // mem_X bounds check does not apply.
      if (p.taddr == 0 || p.paddr != 0) return SmmStatus::kBadPackage;
      if (p.old_size == 0 || p.code.size() > p.old_size) {
        return SmmStatus::kBadPackage;
      }
      if (p.taddr < layout_.text_base) return SmmStatus::kBadPackage;
      u64 text_off = p.taddr - layout_.text_base;
      if (text_off > layout_.text_max ||
          p.code.size() > layout_.text_max - text_off) {
        return SmmStatus::kBadPackage;
      }
    } else if (!bounds_ok(p)) {
      return SmmStatus::kBadPackage;
    }
    if (!p.relocs.empty()) return SmmStatus::kBadPackage;  // not preprocessed
    for (const auto& v : p.var_edits) {
      // Overflow-safe, like bounds_ok: `v.addr + 8` wraps for addresses near
      // UINT64_MAX and would slip past a `> end` comparison.
      if (v.addr < layout_.data_base ||
          v.addr - layout_.data_base > layout_.data_max - 8) {
        return SmmStatus::kBadPackage;
      }
    }
    collect_windows(p, mine);
  }

  // Byte-precise overlap rejection. A set whose write windows intersect each
  // other or an installed patch's body/trampoline would corrupt the earlier
  // write and leave introspection repairing the two back and forth forever —
  // reject it before anything touches memory. Records a supersede is about
  // to retire (`retired_installed`) are exempt: the cumulative set legally
  // re-patches the same entry points.
  auto overlaps = [](const ByteWindow& a, const ByteWindow& b) {
    return a.addr < b.addr + b.len && b.addr < a.addr + a.len;
  };
  for (size_t i = 0; i < mine.size(); ++i) {
    for (size_t j = i + 1; j < mine.size(); ++j) {
      if (overlaps(mine[i], mine[j])) return SmmStatus::kBadPackage;
    }
  }
  std::vector<ByteWindow> others;
  for (size_t k = 0; k < installed_.size(); ++k) {
    if (retired_installed && k < retired_installed->size() &&
        (*retired_installed)[k]) {
      continue;
    }
    collect_windows(installed_[k], others);
  }
  if (extra_windows) {
    others.insert(others.end(), extra_windows->begin(), extra_windows->end());
  }
  for (const auto& a : mine) {
    for (const auto& b : others) {
      if (overlaps(a, b)) return SmmStatus::kBadPackage;
    }
  }
  return SmmStatus::kOk;
}

SmmStatus SmmPatchHandler::apply_parsed(
    machine::Machine& m, const patchtool::PatchSetView& set,
    const std::shared_ptr<const Bytes>& retain, SmmTxn& txn) {
  auto sv_bytes = [](std::string_view s) {
    return ByteSpan(reinterpret_cast<const u8*>(s.data()), s.size());
  };

  // 0. Resolve the supersede list against the applied stack. Predecessors a
  //    cumulative patch names but that are not applied here (already
  //    reverted, or never rolled out to this target) are skipped: the point
  //    of a cumulative patch is that it carries their fixes regardless.
  std::vector<size_t> superseded;
  for (const auto& sid : set.supersedes) {
    for (size_t u = 0; u < applied_units_.size(); ++u) {
      if (applied_units_[u].id == sid) {
        superseded.push_back(u);
        break;
      }
    }
  }
  std::sort(superseded.begin(), superseded.end());
  superseded.erase(std::unique(superseded.begin(), superseded.end()),
                   superseded.end());

  // Dependency fence: every declared dependency must be provided by some
  // applied unit. Units being superseded still count — the new set inherits
  // their provides, so depending on a set you supersede is legal (and the
  // common cumulative-patch shape).
  auto provided = [&](u64 h) {
    for (const auto& u : applied_units_) {
      for (u64 pv : u.provides) {
        if (pv == h) return true;
      }
    }
    return false;
  };
  for (const auto& dep : set.depends) {
    if (!provided(crypto::sdbm(sv_bytes(dep)))) {
      emit_instant(m, "missing_dependency");
      return SmmStatus::kMissingDependency;
    }
  }

  std::vector<bool> retired(installed_.size(), false);
  for (size_t u : superseded) {
    for (size_t idx : applied_units_[u].members) retired[idx] = true;
  }
  SmmStatus valid = validate_set(set, &retired, nullptr);
  if (valid != SmmStatus::kOk) return valid;

  // Retire the superseded units' kernel-text effects up front (reverse apply
  // order), so the cumulative set may legally re-patch the same entry
  // points. Their installed_ records stay until commit; every write from
  // here on is journaled in `txn`, so a failed apply replays them all and
  // the kernel ends byte-identical to its pre-SMI state.
  for (auto it = superseded.rbegin(); it != superseded.rend(); ++it) {
    const AppliedUnit& u = applied_units_[*it];
    for (auto mi = u.members.rbegin(); mi != u.members.rend(); ++mi) {
      txn.restore(installed_[*mi].revert);
    }
  }

  // 1. Global/shared variable edits (paper: before redirection).
  for (const auto& p : set.patches) {
    for (const auto& v : p.var_edits) {
      if (!txn.write_u64(v.addr, v.value).is_ok()) {
        return SmmStatus::kBadPackage;
      }
    }
  }

  // 2. Place the patched bodies in mem_X (splice entries have no mem_X
  //    footprint; their body lands in step 3). mem_X is KShot-owned, but a
  //    failed apply must leave it byte-identical too, or every aborted
  //    transaction leaks its partial bodies into slots the allocator
  //    believes are free.
  std::vector<InstalledPatch> batch;
  for (const auto& p : set.patches) {
    InstalledPatch inst;
    inst.name = std::string(p.name);
    inst.taddr = p.taddr;
    inst.paddr = p.paddr;
    inst.ftrace_off = p.ftrace_off;
    inst.code_size = static_cast<u32>(p.code.size());
    // SMRAM-kept authoritative body (§V-D): borrowed from the shared
    // decrypted envelope, which the record keeps alive.
    inst.retain = retain;
    inst.code_ref = p.code;
    inst.spliced = p.splice;
    if (!p.splice && !txn.write(p.paddr, p.code).is_ok()) {
      return SmmStatus::kBadPackage;
    }
    batch.push_back(std::move(inst));
  }

  // 3. Rewrite kernel text: 5-byte jmp trampolines (preserving the kernel-
  //    tracing pad — the jmp lands *after* it and targets the patched body
  //    past its own pad), or the spliced body written straight over the old
  //    function. The bytes each write replaced become the record's revert
  //    record. A write whose capture read fails records nothing: committing
  //    it would make rollback write zeros over live instructions.
  for (auto& inst : batch) {
    if (!inst.spliced && inst.taddr == 0) continue;  // mem_X-only helper
    u64 at = inst.taddr;
    ByteSpan text = inst.code();
    if (!inst.spliced) {
      at += inst.ftrace_off;
      inst.trampoline = make_jmp(at, inst.paddr + inst.ftrace_off);
      text = inst.trampoline;
    }
    if (!txn.write(at, text).is_ok()) return SmmStatus::kBadPackage;
    inst.revert = txn.last();
  }

  // Commit. First erase the superseded units for real — records and units,
  // highest first, re-basing surviving units' member indices — collecting
  // the provides the new unit inherits. Then push this set as one applied
  // unit. An empty, non-superseding set installs nothing and must not leave
  // a phantom unit for a later kRollback to pop.
  std::vector<u64> inherited;
  for (auto it = superseded.rbegin(); it != superseded.rend(); ++it) {
    AppliedUnit gone = erase_unit(*it);
    inherited.insert(inherited.end(), gone.provides.begin(),
                     gone.provides.end());
  }
  AppliedUnit unit;
  unit.id = std::string(set.id);
  unit.kernel_version = std::string(set.kernel_version);
  unit.id_hash = crypto::sdbm(sv_bytes(set.id));
  unit.members.reserve(batch.size());
  for (auto& inst : batch) {
    unit.members.push_back(installed_.size());
    installed_.push_back(std::move(inst));
  }
  unit.provides.push_back(unit.id_hash);
  unit.provides.insert(unit.provides.end(), inherited.begin(),
                       inherited.end());
  std::sort(unit.provides.begin(), unit.provides.end());
  unit.provides.erase(std::unique(unit.provides.begin(), unit.provides.end()),
                      unit.provides.end());
  unit.depends.reserve(set.depends.size());
  for (const auto& dep : set.depends) {
    unit.depends.push_back(crypto::sdbm(sv_bytes(dep)));
  }
  if (!unit.members.empty() || !superseded.empty()) {
    unit.seq = ++unit_seq_;
    applied_units_.push_back(std::move(unit));
  }
  metrics_->histogram("smm.code_bytes").observe(
      static_cast<double>(set.total_code_bytes()));
  KSHOT_LOG(kInfo, "smm") << "applied " << set.id << ": "
                          << set.patches.size() << " function(s)"
                          << (superseded.empty()
                                  ? ""
                                  : ", superseding " +
                                        std::to_string(superseded.size()) +
                                        " unit(s)");
  return SmmStatus::kOk;
}

AppliedUnit SmmPatchHandler::erase_unit(size_t unit_idx) {
  AppliedUnit unit = std::move(applied_units_[unit_idx]);
  applied_units_.erase(applied_units_.begin() +
                       static_cast<std::ptrdiff_t>(unit_idx));
  // Drop the records highest index first, re-basing the surviving units'
  // member indices — this is what frees the unit's mem_X slots for the
  // enclave's allocator to reclaim (the bytes themselves are left behind;
  // nothing points at them).
  std::sort(unit.members.begin(), unit.members.end());
  for (auto it = unit.members.rbegin(); it != unit.members.rend(); ++it) {
    installed_.erase(installed_.begin() + static_cast<std::ptrdiff_t>(*it));
    for (auto& u : applied_units_) {
      for (auto& idx : u.members) {
        if (idx > *it) --idx;
      }
    }
  }
  return unit;
}

void SmmPatchHandler::remove_unit(machine::Machine& m, size_t unit_idx) {
  // Restore kernel text in reverse apply order. A failed restore aborts, so
  // the txn only ever commits.
  const auto& members = applied_units_[unit_idx].members;
  SmmTxn txn(m.mem());
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    txn.restore(installed_[*it].revert);
  }
  txn.commit();
  erase_unit(unit_idx);
}

SmmStatus SmmPatchHandler::rollback(machine::Machine& m) {
  auto t0 = Clock::now();
  u64 c0 = m.cycles();
  if (applied_units_.empty()) return SmmStatus::kNothingToRollback;
  remove_unit(m, applied_units_.size() - 1);
  c_rollbacks_->inc();
  phase_span(m, "rollback", c0, t0);
  KSHOT_LOG(kInfo, "smm") << "rolled back last patch unit";
  return SmmStatus::kOk;
}

SmmStatus SmmPatchHandler::revert_patch(machine::Machine& m,
                                        const MailboxSnapshot& snap) {
  auto t0 = Clock::now();
  u64 c0 = m.cycles();
  size_t idx = applied_units_.size();
  for (size_t u = 0; u < applied_units_.size(); ++u) {
    if (applied_units_[u].id_hash == snap.revert_target) {
      idx = u;
      break;
    }
  }
  if (idx == applied_units_.size()) return SmmStatus::kNothingToRollback;
  // Dependency fence: a unit another applied unit depends on must stay until
  // the dependent is reverted (or superseded) first.
  for (size_t u = 0; u < applied_units_.size(); ++u) {
    if (u == idx) continue;
    for (u64 dep : applied_units_[u].depends) {
      for (u64 pv : applied_units_[idx].provides) {
        if (dep == pv) {
          emit_instant(m, "revert_blocked");
          return SmmStatus::kRevertBlocked;
        }
      }
    }
  }
  remove_unit(m, idx);
  c_rollbacks_->inc();
  phase_span(m, "revert", c0, t0);
  KSHOT_LOG(kInfo, "smm") << "reverted patch unit out of order";
  return SmmStatus::kOk;
}

SmmStatus SmmPatchHandler::query_applied(machine::Machine& m, Mailbox& mbox) {
  const auto mode = machine::AccessMode::smm();
  ByteWriter w;
  w.put_u32(kQueryMagic);
  w.put_u32(static_cast<u32>(applied_units_.size()));
  for (const auto& u : applied_units_) {
    w.put_string8(u.id);
    w.put_string8(u.kernel_version);
    w.put_u64(u.seq);
    w.put_u64(u.id_hash);
    w.put_u32(static_cast<u32>(u.members.size()));
    u32 code_bytes = 0;
    u8 spliced = 0;
    for (size_t idx : u.members) {
      code_bytes += installed_[idx].code_size;
      if (installed_[idx].spliced) ++spliced;
    }
    w.put_u32(code_bytes);
    w.put_u8(spliced);
  }
  // mem_X occupancy: the occupied extents (sorted by base) are exactly what
  // the enclave-side allocator needs to place the next set into the gaps.
  std::vector<ByteWindow> extents;
  for (const auto& p : installed_) {
    if (!p.spliced && p.code_size != 0) {
      extents.push_back({p.paddr, p.code_size});
    }
  }
  std::sort(extents.begin(), extents.end(),
            [](const ByteWindow& a, const ByteWindow& b) {
              return a.addr < b.addr;
            });
  u64 used = memx_used();
  w.put_u64(used);
  w.put_u64(layout_.mem_x_size - used);
  w.put_u32(static_cast<u32>(extents.size()));
  for (const auto& e : extents) {
    w.put_u64(e.addr);
    w.put_u64(e.len);
  }
  Bytes blob = w.take();
  if (MailboxLayout::kQueryBlob + blob.size() > layout_.mem_rw_size) {
    return SmmStatus::kBadPackage;
  }
  if (!m.mem()
           .write(layout_.mem_rw_base() + MailboxLayout::kQueryBlob, blob,
                  mode)
           .is_ok()) {
    return SmmStatus::kBadPackage;
  }
  mailbox_ok(mbox.write_query_size(blob.size()));
  return SmmStatus::kOk;
}

Status SmmPatchHandler::arm_kernel_guard(machine::Machine& m,
                                         std::vector<MutableWindow> windows) {
  auto text = m.mem().read_bytes(layout_.text_base, layout_.text_max,
                                 machine::AccessMode::smm());
  if (!text) return text.status();
  pristine_text_ = std::move(*text);
  guard_windows_ = std::move(windows);
  guard_armed_ = true;
  return Status::ok();
}

void SmmPatchHandler::introspect(machine::Machine& m) {
  const auto mode = machine::AccessMode::smm();
  auto t0 = Clock::now();
  u64 c0 = m.cycles();
  IntrospectionReport rep;
  rep.patches_checked = static_cast<u32>(installed_.size());
  // Every repair rewrites a range this sweep has just read in SMM mode, and
  // SMM reads and writes pass the same checks, so the write cannot fail.
  auto repair = [&](u64 addr, ByteSpan bytes) {
    Status st = m.mem().write(addr, bytes, mode);
    KSHOT_CHECK(st.is_ok(), "introspection repair failed: " + st.to_string());
  };

  for (const auto& p : installed_) {
    if (p.spliced) {
      // Spliced body lives in kernel text: no trampoline or mem_X footprint
      // to check, just the body itself against the SMRAM copy.
      auto cur = m.mem().read_bytes(p.taddr, p.code_size, mode);
      if (!cur) {
        ++rep.unreadable;
      } else if (!std::ranges::equal(*cur, p.code())) {
        ++rep.trampolines_reverted;
        repair(p.taddr, p.code());
      }
      continue;
    }
    // Trampoline still present? (Malicious patch reversion, §V-D.)
    if (p.taddr != 0) {
      std::array<u8, 5> cur{};
      Status rd = m.mem().read(p.taddr + p.ftrace_off,
                               MutByteSpan(cur.data(), 5), mode);
      if (!rd.is_ok()) {
        // A failed read leaves `cur` zeroed; comparing those zeros anyway
        // would "detect" a mismatch and blind-write a repair jmp into a
        // range that could not even be read. Skip the repair and surface
        // the unreadable range as a detection instead.
        ++rep.unreadable;
      } else if (cur != p.trampoline) {
        ++rep.trampolines_reverted;
        repair(p.taddr + p.ftrace_off, p.trampoline);
      }
    }
    // mem_X body intact?
    auto body = m.mem().read_bytes(p.paddr, p.code_size, mode);
    if (!body) {
      ++rep.unreadable;
    } else if (!std::ranges::equal(*body, p.code())) {
      ++rep.memx_tampered;
      // Repair from the authoritative copy kept in SMRAM, so the patched
      // version persists (§V-D "Malicious Patch Reversion").
      repair(p.paddr, p.code());
    }
  }

  // Reserved-region page attributes (a rootkit with page-table control could
  // have re-opened mem_X for writing).
  auto check_attrs = [&](PhysAddr base, size_t len, machine::PageAttr want) {
    for (PhysAddr a = base; a < base + len; a += machine::kPageSize) {
      machine::PageAttr got = m.mem().attrs_at(a);
      if (got.read != want.read || got.write != want.write ||
          got.exec != want.exec) {
        ++rep.attrs_restored;
        m.mem().set_attrs(a, machine::kPageSize, want);
      }
    }
  };
  check_attrs(layout_.mem_rw_base(), layout_.mem_rw_size,
              {true, true, false, 0});
  check_attrs(layout_.mem_w_base(), layout_.mem_w_size,
              {false, true, false, 0});
  check_attrs(layout_.mem_x_base(), layout_.mem_x_size,
              {false, false, true, 0});

  // Kernel-text guard: any byte differing from the trusted-boot snapshot —
  // outside KShot's own trampolines and the kernel-mutable windows — is an
  // unauthorized kernel modification; restore it.
  if (guard_armed_) {
    auto current = m.mem().read_bytes(layout_.text_base, pristine_text_.size(),
                                      mode);
    if (current) {
      auto in_window = [&](u64 addr) {
        for (const auto& w : guard_windows_) {
          if (addr >= w.addr && addr < w.addr + w.len) return true;
        }
        for (const auto& p : installed_) {
          if (p.spliced) {
            if (addr >= p.taddr && addr < p.taddr + p.code_size) return true;
            continue;
          }
          if (p.taddr != 0 && addr >= p.taddr + p.ftrace_off &&
              addr < p.taddr + p.ftrace_off + 5) {
            return true;
          }
        }
        return false;
      };
      for (size_t i = 0; i < current->size(); ++i) {
        if ((*current)[i] == pristine_text_[i]) continue;
        u64 addr = layout_.text_base + i;
        if (in_window(addr)) continue;
        repair(addr, ByteSpan(&pristine_text_[i], 1));
        ++rep.text_bytes_restored;
      }
    }
  }

  last_introspection_ = rep;
  phase_span(m, "introspect", c0, t0);
  if (!rep.clean()) {
    // Repairs are a first-class detection, not just a warn log: the count
    // lands in the metric and the run's DetectionReport so callers (fleet
    // quarantine, campaign oracles) can see the tampering happened.
    u64 repairs = static_cast<u64>(rep.trampolines_reverted) +
                  rep.memx_tampered + rep.attrs_restored +
                  rep.text_bytes_restored;
    c_introspect_repairs_->inc(repairs);
    record_detection(
        m, DetectionClass::kIntrospectionRepair, SmmStatus::kOk,
        "repaired " + std::to_string(rep.trampolines_reverted) +
            " trampoline(s), " + std::to_string(rep.memx_tampered) +
            " body(ies), " + std::to_string(rep.attrs_restored) +
            " page(s), " + std::to_string(rep.text_bytes_restored) +
            " text byte(s); " + std::to_string(rep.unreadable) +
            " unreadable range(s) skipped");
    emit_instant(m, "tampering_repaired",
                 {{"trampolines", std::to_string(rep.trampolines_reverted)},
                  {"bodies", std::to_string(rep.memx_tampered)},
                  {"pages", std::to_string(rep.attrs_restored)},
                  {"text_bytes", std::to_string(rep.text_bytes_restored)},
                  {"unreadable", std::to_string(rep.unreadable)}});
    KSHOT_LOG(kWarn, "smm") << "introspection repaired tampering: "
                            << rep.trampolines_reverted << " trampolines, "
                            << rep.memx_tampered << " bodies, "
                            << rep.attrs_restored << " pages";
  }
}

}  // namespace kshot::core
