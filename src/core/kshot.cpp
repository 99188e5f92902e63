#include "core/kshot.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/byte_io.hpp"
#include "common/log.hpp"
#include "crypto/simple_hash.hpp"

namespace kshot::core {

namespace {
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Baseline of the machine's downtime decomposition totals, taken before a
/// run's SMIs; the deltas land in PatchReport and must sum to the run's
/// downtime exactly.
struct DowntimeMark {
  u64 smm = 0;
  u64 rdv = 0;
  u64 hnd = 0;
  u64 res = 0;
};

DowntimeMark mark_downtime(const machine::Machine& m) {
  return {m.smm_cycles(), m.rendezvous_cycles_total(),
          m.handler_cycles_total(), m.resume_cycles_total()};
}

void fill_downtime(const machine::Machine& m, const DowntimeMark& before,
                   PatchReport& report) {
  report.downtime_cycles = m.smm_cycles() - before.smm;
  report.rendezvous_cycles = m.rendezvous_cycles_total() - before.rdv;
  report.handler_cycles = m.handler_cycles_total() - before.hnd;
  report.resume_cycles = m.resume_cycles_total() - before.res;
}
}  // namespace

const char* patch_phase_name(PatchPhase p) {
  switch (p) {
    case PatchPhase::kFetching: return "FETCHING";
    case PatchPhase::kStaged: return "STAGED";
    case PatchPhase::kApplied: return "APPLIED";
    case PatchPhase::kFailed: return "FAILED";
  }
  return "?";
}

Kshot::Kshot(kernel::Kernel& kernel, sgx::SgxRuntime& sgx,
             netsim::PatchServer& server, netsim::Channel& channel,
             u64 entropy_seed)
    : kernel_(kernel),
      sgx_(sgx),
      server_(server),
      channel_(channel),
      entropy_seed_(entropy_seed),
      retry_rng_(entropy_seed ^ 0xB0FF) {}

DetectionReport Kshot::take_detections() {
  DetectionReport out;
  if (handler_) out = handler_->take_detections();
  out.merge(std::move(helper_detections_));
  helper_detections_ = {};
  return out;
}

obs::MetricsRegistry& Kshot::metrics() {
  if (!metrics_) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  return *metrics_;
}

void Kshot::set_trace(obs::TraceRecorder* trace, u32 target) {
  trace_ = trace;
  trace_target_ = target;
  if (handler_) handler_->set_trace(trace_, trace_target_);
  if (enclave_) {
    auto* m = &kernel_.machine();
    enclave_->set_trace(trace_, [m] { return m->cycles(); }, trace_target_);
  }
}

void Kshot::emit_span(const char* name, u64 c0, double wall_us,
                      std::vector<obs::TraceArg> args) {
  if (trace_) {
    trace_->complete("kshot", name, trace_target_, c0,
                     kernel_.machine().cycles(), wall_us, std::move(args));
  }
}

void Kshot::emit_instant(const char* name, std::vector<obs::TraceArg> args) {
  if (trace_) {
    trace_->instant("kshot", name, trace_target_, kernel_.machine().cycles(),
                    std::move(args));
  }
}

Status Kshot::install(u64 watchdog_interval_cycles) {
  if (installed_) return {Errc::kFailedPrecondition, "already installed"};
  auto& m = kernel_.machine();
  const auto& lay = kernel_.layout();

  // Firmware step: SMM handler into SMRAM, optional watchdog timer, then
  // lock (D_LCK). After this, nothing — including a fully compromised
  // kernel — can replace either.
  handler_ = std::make_unique<SmmPatchHandler>(lay, entropy_seed_ ^ 0x5A5A,
                                               &metrics());
  SmmPatchHandler* h = handler_.get();
  KSHOT_RETURN_IF_ERROR(
      m.set_smm_handler([h](machine::Machine& mm) { h->on_smi(mm); }));
  if (watchdog_interval_cycles != 0) {
    KSHOT_RETURN_IF_ERROR(m.set_periodic_smi(watchdog_interval_cycles));
    handler_->set_introspect_on_idle(true);
  }
  m.lock_smram();

  // Boot step: load the preprocessing enclave. Its EPC slice must hold two
  // copies of the largest deliverable package — bounded by mem_X, since
  // chunked staging lets packages exceed mem_W — capped by available EPC.
  enclave_ = std::make_unique<KshotEnclave>(kernel_.os_info(),
                                            entropy_seed_ ^ 0xE9C1);
  size_t epc_bytes =
      std::min<size_t>(lay.epc_size, 2 * lay.mem_x_size + (1ull << 20));
  KSHOT_RETURN_IF_ERROR(sgx_.load_enclave(*enclave_, epc_bytes));

  ReservedGeometry geom;
  geom.mem_x_base = lay.mem_x_base();
  geom.mem_x_size = lay.mem_x_size;
  geom.mem_w_size = lay.mem_w_size;
  KSHOT_RETURN_IF_ERROR(enclave_->initialize(geom));

  installed_ = true;
  // Re-apply any trace routing configured before install so the freshly
  // built handler/enclave emit too.
  if (trace_) set_trace(trace_, trace_target_);
  return Status::ok();
}

Result<SmmStatus> Kshot::trigger_and_status(SmmCommand cmd) {
  auto& m = kernel_.machine();
  Mailbox mbox(m.mem(), kernel_.layout().mem_rw_base(),
               machine::AccessMode::normal());
  u64 seq = ++cmd_seq_;
  KSHOT_RETURN_IF_ERROR(mbox.write_cmd_seq(seq));
  KSHOT_RETURN_IF_ERROR(mbox.write_command(cmd));
  emit_instant("smi_raised",
               {{"cmd", std::to_string(static_cast<int>(cmd))},
                {"seq", std::to_string(seq)}});
  m.trigger_smi();
  // The handler echoes the sequence number on entry. A stale echo means the
  // SMI never ran — whatever sits in the status word is from an *earlier*
  // command, and trusting it would let a rootkit that gates SMIs spoof
  // success forever. (A rootkit can forge the echo, but that only fools the
  // untrusted side into proceeding — every later integrity check still
  // happens inside SMM, so forgery buys it nothing.)
  auto echo = mbox.read_cmd_seq_echo();
  if (!echo) return echo.status();
  if (*echo != seq) {
    helper_detections_.add(
        DetectionClass::kSmiSuppression, SmmStatus::kOk,
        handler_ ? handler_->session_epoch() : 0,
        "commanded SMI never ran (stale cmd_seq echo)");
    metrics().counter("kshot.smi_suppressions").inc();
    emit_instant("smi_suppressed", {{"seq", std::to_string(seq)}});
    return Status{Errc::kAborted, "SMI suppressed: mailbox status is stale"};
  }
  // The status word must answer the command we issued: the handler records
  // the command it actually executed next to the status, so a command word
  // flipped between our write and SMI delivery (to kIdle, kBeginSession, or
  // anything else whose status could read as success) is caught here.
  auto status_cmd = mbox.read_status_cmd();
  if (!status_cmd) return status_cmd.status();
  if (*status_cmd != static_cast<u64>(cmd)) {
    helper_detections_.add(
        DetectionClass::kMailboxFlip, SmmStatus::kBadCommand,
        handler_ ? handler_->session_epoch() : 0,
        "handler executed a different command than issued");
    metrics().counter("kshot.command_flips").inc();
    emit_instant("command_flipped", {{"seq", std::to_string(seq)}});
    return Status{Errc::kAborted, "command word tampered in flight"};
  }
  auto st = mbox.read_status();
  if (!st) return st.status();
  return *st;
}

Result<double> Kshot::fetch_once(const std::string& patch_id) {
  auto request = enclave_->begin_fetch(patch_id,
                                       netsim::PatchRequest::Op::kFetchPatch);
  if (!request) return request.status();
  Bytes req_wire = channel_.transfer(std::move(*request));
  double link_us = channel_.last_latency_us();
  auto response = server_.handle_request(req_wire);
  if (!response) return response.status();
  Bytes resp_wire = channel_.transfer(std::move(*response));
  link_us += channel_.last_latency_us();
  auto fetch_stats = enclave_->finish_fetch(resp_wire);
  if (!fetch_stats) return fetch_stats.status();
  return link_us;
}

Status Kshot::fetch_with_retry(const std::string& patch_id,
                               PatchReport& report) {
  auto t0 = Clock::now();
  u64 c0 = kernel_.machine().cycles();
  Backoff backoff(retry_, retry_rng_);
  Status last = Status::ok();
  double link_us = 0;
  for (u32 attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    ++report.resilience.fetch_attempts;
    metrics().counter("kshot.fetch_attempts").inc();
    auto res = fetch_once(patch_id);
    if (res) {
      link_us = *res;
      last = Status::ok();
      break;
    }
    last = res.status();
    emit_instant("fetch_retry", {{"attempt", std::to_string(attempt)}});
    metrics().counter("kshot.fetch_retries").inc();
    if (!RetryPolicy::retryable(last.code())) break;
    if (attempt == retry_.max_attempts) {
      report.resilience.retries_exhausted = true;
      break;
    }
    charge_backoff(backoff.next_us(), report);
  }
  // The span is host time only; the modeled link time is no part of it, but
  // Table II's fetch column (fetch_us) counts both.
  const double wall_us = us_since(t0);
  report.sgx.link_us = link_us;
  report.sgx.fetch_us = wall_us + link_us;
  emit_span("fetch", c0, wall_us,
            {{"id", patch_id},
             {"attempts", std::to_string(report.resilience.fetch_attempts)},
             {"link_us", std::to_string(link_us)}});
  metrics().histogram("kshot.fetch_us").observe(report.sgx.fetch_us);
  return last;
}

void Kshot::charge_backoff(double us, PatchReport& report) {
  auto& m = kernel_.machine();
  u64 c0 = m.cycles();
  // Backoff is OS run time, never SMM downtime: charge plain cycles.
  m.charge_cycles(static_cast<u64>(us * m.cost_model().ghz * 1000.0));
  report.resilience.backoff_us += us;
  // wall_us 0: a backoff takes no real time, only modeled (virtual) time.
  emit_span("backoff", c0, 0.0);
  metrics().counter("kshot.backoffs").inc();
}

void Kshot::abort_session(PatchReport& report) {
  // Best-effort: if the SMI itself is suppressed there is nothing to clean
  // up on the SMM side anyway.
  auto st = trigger_and_status(SmmCommand::kAbortSession);
  (void)st;
  ++report.resilience.session_aborts;
  metrics().counter("kshot.session_aborts").inc();
}

bool Kshot::staged_size_flipped() {
  Mailbox mbox(kernel_.machine().mem(), kernel_.layout().mem_rw_base(),
               machine::AccessMode::normal());
  auto size = mbox.read_staged_size();
  return size.is_ok() && *size != staged_size_;
}

Status Kshot::apply_with_retry(
    const std::function<Result<SmmStatus>()>& attempt_once,
    PatchReport& report,
    const std::function<bool()>& applied_probe) {
  Backoff backoff(retry_, retry_rng_);
  bool outcome_unknown = false;
  for (u32 attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    ++report.resilience.apply_attempts;
    metrics().counter("kshot.apply_attempts").inc();
    auto res = attempt_once();
    if (res && *res == SmmStatus::kOk) {
      report.smm_status = SmmStatus::kOk;
      report.success = true;
      return Status::ok();
    }

    // A transport failure leaves the attempt's outcome unknown: an
    // interposer that garbled the echo (or swallowed the reply) may have
    // let the apply SMI run to completion first. Ask the handler what is
    // actually installed before deciding — re-staging an already-applied
    // set would (correctly) be rejected for overlapping its own windows.
    // The probe itself rides an SMI the interposer can also garble, so once
    // any outcome in this call has been unknown, keep asking: a later
    // attempt's *rejection* is exactly what re-staging an already-applied
    // set looks like, and trusting it would report failure with the patch
    // live in kernel text.
    // kNoSession is unknown too: this attempt began its own session, so an
    // unsolicited SMI consumed it between our begin and our apply — and an
    // attacker who flipped that SMI's command word to an apply installed
    // our staged package on our behalf.
    const bool session_consumed = res && *res == SmmStatus::kNoSession;
    const bool ask_probe = !res || session_consumed || outcome_unknown;
    if (!res || session_consumed) outcome_unknown = true;
    if (ask_probe && applied_probe && applied_probe()) {
      emit_instant("apply_confirmed_by_query",
                   {{"attempt", std::to_string(attempt)}});
      report.smm_status = SmmStatus::kOk;
      report.success = true;
      return Status::ok();
    }

    // Discard the failed attempt's session + partial stream so the next
    // attempt (or the next live_patch call) stages against a fresh epoch.
    abort_session(report);

    Status transport_err = Status::ok();
    bool retryable;
    if (res) {
      report.smm_status = *res;
      // An envelope we sealed is refused as a bad package when its size
      // field was flipped after staging: a transport fault like a MAC
      // failure, so restage rather than give up.
      retryable = RetryPolicy::retryable(*res) || staged_size_flipped();
    } else {
      transport_err = res.status();
      retryable = RetryPolicy::retryable(transport_err.code());
    }
    if (!retryable || attempt == retry_.max_attempts) {
      report.resilience.retries_exhausted =
          retryable && attempt == retry_.max_attempts;
      report.success = false;
      return transport_err;  // ok() for an SmmStatus failure: report carries it
    }
    charge_backoff(backoff.next_us(), report);
  }
  report.success = false;
  return Status::ok();
}

Status Kshot::apply_and_notify(
    Mailbox& mbox, const std::function<Result<SmmStatus>()>& attempt_once,
    PatchReport& report, const std::function<bool()>& applied_probe) {
  for (u32 round = 1;; ++round) {
    if (Status st = apply_with_retry(attempt_once, report, applied_probe);
        !st.is_ok()) {
      notify_phase(PatchPhase::kFailed);
      return st;
    }
    auto hb = mbox.read_heartbeat();
    notify_phase(report.success ? PatchPhase::kApplied : PatchPhase::kFailed);
    // Code observing the outcome runs before we return, and an SMI it
    // raises executes whatever command word sits in the mailbox — flipped
    // to kRollback, it silently undoes the patch we are about to report.
    // Any SMI here moves the heartbeat; only then ask SMM what is applied.
    if (!report.success || !hb) return Status::ok();
    auto hb_after = mbox.read_heartbeat();
    if (hb_after && *hb_after == *hb) return Status::ok();
    if (applied_probe()) return Status::ok();
    helper_detections_.add(
        DetectionClass::kMailboxFlip, SmmStatus::kOk,
        handler_ ? handler_->session_epoch() : 0,
        "applied set rolled back by an unsolicited SMI; applying again");
    metrics().counter("kshot.command_flips").inc();
    if (round == retry_.max_attempts) {
      report.success = false;
      return Status::ok();
    }
  }
}

Result<PatchReport> Kshot::live_patch(const std::string& patch_id,
                                      const LifecycleOptions& opts) {
  return staged_apply({patch_id}, opts, SmmCommand::kApplyPatch);
}

Result<PatchReport> Kshot::live_patch_batch(
    const std::vector<std::string>& patch_ids) {
  return staged_apply(patch_ids, {}, SmmCommand::kApplyBatch);
}

Result<PatchReport> Kshot::live_patch_chunked(const std::string& patch_id,
                                              u32 chunk_bytes) {
  return staged_apply({patch_id}, {}, SmmCommand::kStageChunk, chunk_bytes);
}

Status Kshot::write_staged(Mailbox& mbox, ByteSpan bytes,
                           const crypto::X25519Key* pub, const char* what) {
  auto& m = kernel_.machine();
  const auto& lay = kernel_.layout();
  if (bytes.size() > lay.mem_w_size) {
    return Status{Errc::kResourceExhausted,
                  std::string(what) + " exceeds mem_W"};
  }
  ++staging_attempts_;
  KSHOT_RETURN_IF_ERROR(
      m.mem().write(lay.mem_w_base(), bytes, machine::AccessMode::normal()));
  if (pub) KSHOT_RETURN_IF_ERROR(mbox.write_enclave_pub(*pub));
  KSHOT_RETURN_IF_ERROR(mbox.write_staged_size(bytes.size()));
  staged_size_ = bytes.size();
  return Status::ok();
}

Result<SmmStatus> Kshot::stage_chunks(Mailbox& mbox,
                                      const crypto::X25519Key& smm_pub,
                                      u32 chunk_bytes, PatchReport& report) {
  auto t1 = Clock::now();
  auto setup = enclave_->begin_seal_chunked(smm_pub, chunk_bytes);
  if (!setup) return setup.status();
  if (setup->size() != 36) {
    return Status{Errc::kInternal, "malformed chunk setup"};
  }
  crypto::X25519Key enclave_pub;
  std::memcpy(enclave_pub.data(), setup->data(), 32);
  u32 chunks = load_u32(setup->data() + 32);
  report.sgx.preprocess_us += us_since(t1);
  KSHOT_RETURN_IF_ERROR(mbox.write_enclave_pub(enclave_pub));

  // Stream the chunks, one SMI each.
  for (u32 i = 0; i < chunks; ++i) {
    t1 = Clock::now();
    auto chunk = enclave_->get_chunk(i);
    if (!chunk) return chunk.status();
    Bytes blob = std::move(*chunk);
    if (stage_tamperer_) stage_tamperer_(blob);
    KSHOT_RETURN_IF_ERROR(write_staged(mbox, blob, nullptr, "chunk"));
    report.sgx.passing_us += us_since(t1);

    bool last = i + 1 == chunks;
    if (last) notify_phase(PatchPhase::kStaged);  // whole train is in
    auto status = trigger_and_status(SmmCommand::kStageChunk);
    if (!status) return status.status();
    if (last) return *status;  // kOk applies; anything else is the failure
    if (*status != SmmStatus::kChunkAccepted) return *status;
  }
  return Status{Errc::kInternal, "package sealed to zero chunks"};
}

Status Kshot::fetch_and_preprocess(const std::vector<std::string>& ids,
                                   const LifecycleOptions& opts, bool batch,
                                   PatchReport& report) {
  // Each fetch attempt is a whole fresh round trip: requests carry a fresh
  // nonce, so a retried fetch can never be satisfied by a replayed response.
  // fetch_with_retry writes per-call fetch_us and link_us; sum them across
  // the ids.
  double fetch_us = 0;
  double link_us = 0;
  for (const std::string& id : ids) {
    KSHOT_RETURN_IF_ERROR(fetch_with_retry(id, report));
    fetch_us += report.sgx.fetch_us;
    link_us += report.sgx.link_us;
    // Lifecycle directives go to the enclave first (single-shot; the next
    // preprocess consumes them). Splice eligibility needs the old
    // footprints, which only the helper side has — the kernel symbol table.
    if (!opts.empty()) {
      std::vector<KshotEnclave::OldSizeEntry> old_sizes;
      if (opts.allow_splice) {
        old_sizes.reserve(kernel_.image().symbols.size());
        for (const auto& sym : kernel_.image().symbols) {
          old_sizes.push_back({crypto::sdbm(to_bytes(sym.name)), sym.size});
        }
      }
      KSHOT_RETURN_IF_ERROR(enclave_->set_lifecycle(
          opts.depends, opts.supersedes, opts.allow_splice, old_sizes));
    }
    // Preprocess once: deterministic, and it consumes mem_X budget.
    auto t0 = Clock::now();
    auto prep_stats = enclave_->preprocess();
    if (!prep_stats) return prep_stats.status();
    report.sgx.preprocess_us += us_since(t0);
    report.stats.functions += prep_stats->functions;
    report.stats.code_bytes += prep_stats->code_bytes;
    report.stats.package_bytes += prep_stats->package_bytes;
    if (batch) KSHOT_RETURN_IF_ERROR(enclave_->batch_add());
  }
  report.sgx.fetch_us = fetch_us;
  report.sgx.link_us = link_us;
  return Status::ok();
}

Result<PatchReport> Kshot::staged_apply(const std::vector<std::string>& ids,
                                        const LifecycleOptions& opts,
                                        SmmCommand apply_cmd,
                                        u32 chunk_bytes) {
  if (!installed_) {
    return Status{Errc::kFailedPrecondition, "install() first"};
  }
  auto& m = kernel_.machine();
  const auto& lay = kernel_.layout();
  const bool batch = apply_cmd == SmmCommand::kApplyBatch;
  const bool chunked = apply_cmd == SmmCommand::kStageChunk;
  if (ids.empty()) return Status{Errc::kInvalidArgument, "empty batch"};
  // In u64: `chunk_bytes + 64` wraps in u32 for sizes near UINT32_MAX.
  if (chunked &&
      (chunk_bytes < 512 || u64{chunk_bytes} + 64 > lay.mem_w_size)) {
    return Status{Errc::kInvalidArgument, "bad chunk size"};
  }
  Mailbox mbox(m.mem(), lay.mem_rw_base(), machine::AccessMode::normal());

  PatchReport report;
  report.id = batch ? "BATCH(" : "";
  for (size_t i = 0; i < ids.size(); ++i) {
    report.id += (i != 0 ? "," : "") + ids[i];
  }
  if (batch) report.id += ")";
  const DowntimeMark dt0 = mark_downtime(m);
  u64 run_c0 = m.cycles();
  auto run_t0 = Clock::now();
  metrics().counter("kshot.live_patches").inc();
  if (batch) KSHOT_RETURN_IF_ERROR(enclave_->batch_reset());

  notify_phase(PatchPhase::kFetching);
  if (Status st = fetch_and_preprocess(ids, opts, batch, report);
      !st.is_ok()) {
    notify_phase(PatchPhase::kFailed);
    return st;
  }

  // ---- Seal + stage + apply: one transaction per attempt ------------------
  // Session keys are single-use, so every attempt begins a fresh session
  // and re-seals against the fresh SMM public key; a failed attempt is
  // aborted (epoch bump) before the next one stages. A batch still takes
  // exactly two SMIs per attempt however many packages ride along; a chunk
  // train takes one more per chunk, and any mid-stream failure voids the
  // partial SMRAM accumulation via kAbortSession.
  auto attempt_once = [&]() -> Result<SmmStatus> {
    // SMI #1: fresh SMM session key.
    auto begin = trigger_and_status(SmmCommand::kBeginSession);
    if (!begin) return begin.status();
    auto smm_pub = mbox.read_smm_pub();
    if (!smm_pub) return smm_pub.status();
    if (chunked) return stage_chunks(mbox, *smm_pub, chunk_bytes, report);

    auto t1 = Clock::now();
    auto sealed = batch ? enclave_->seal_batch_for_smm(*smm_pub)
                        : enclave_->seal_for_smm(*smm_pub);
    if (!sealed) return sealed.status();
    if (sealed->size() < 32) {
      return Status{Errc::kInternal, "malformed seal output"};
    }
    report.sgx.preprocess_us += us_since(t1);

    // Passing: the untrusted app writes mem_W + mailbox. This is the leg a
    // resident rootkit can garble (modeled by the stage tamperer).
    t1 = Clock::now();
    u64 stage_c0 = m.cycles();
    Bytes blob = std::move(*sealed);
    if (stage_tamperer_) stage_tamperer_(blob);
    if (blob.size() < 32) {
      return Status{Errc::kIntegrityFailure, "staged blob mangled"};
    }
    crypto::X25519Key enclave_pub;
    std::memcpy(enclave_pub.data(), blob.data(), 32);
    ByteSpan package(blob.data() + 32, blob.size() - 32);
    KSHOT_RETURN_IF_ERROR(
        write_staged(mbox, package, &enclave_pub, "package"));
    report.sgx.passing_us += us_since(t1);
    std::vector<obs::TraceArg> args = {
        {"bytes", std::to_string(package.size())}};
    if (batch) args.push_back({"batch", std::to_string(ids.size())});
    emit_span("stage", stage_c0, us_since(t1), std::move(args));
    notify_phase(PatchPhase::kStaged);

    // SMI #2: decrypt, verify, apply.
    return trigger_and_status(apply_cmd);
  };
  auto applied_probe = [&] { return ids_applied(ids); };
  KSHOT_RETURN_IF_ERROR(
      apply_and_notify(mbox, attempt_once, report, applied_probe));

  const SmmPatchTimings& t = handler_->last_timings();
  const auto& cost = m.cost_model();
  report.smm.keygen_us = t.keygen_ns / 1000.0;
  report.smm.decrypt_us = t.decrypt_ns / 1000.0;
  report.smm.verify_us = t.verify_ns / 1000.0;
  report.smm.apply_us = t.apply_ns / 1000.0;
  fill_downtime(m, dt0, report);
  // World-switch time straight from the decomposition: rendezvous + resume
  // across every SMI (at one CPU, exactly SMI-count * (smi_entry + rsm)).
  report.smm.switch_us =
      cost.to_us(report.rendezvous_cycles + report.resume_cycles);
  report.smm.total_us = report.smm.keygen_us + report.smm.decrypt_us +
                        report.smm.verify_us + report.smm.apply_us +
                        report.smm.switch_us;
  report.smm.modeled_total_us = cost.to_us(report.downtime_cycles);
  report.detections = take_detections();
  emit_span(batch     ? "live_patch_batch"
            : chunked ? "live_patch_chunked"
                      : "live_patch",
            run_c0, us_since(run_t0),
            {{"id", report.id}, {"success", report.success ? "1" : "0"}});
  metrics().counter(report.success ? "kshot.patch_success"
                                   : "kshot.patch_failure").inc();
  metrics().histogram("kshot.downtime_us").observe(
      report.smm.modeled_total_us);
  return report;
}

Result<PatchReport> Kshot::rollback() {
  if (!installed_) {
    return Status{Errc::kFailedPrecondition, "install() first"};
  }
  auto& m = kernel_.machine();
  const DowntimeMark dt0 = mark_downtime(m);
  auto status = trigger_and_status(SmmCommand::kRollback);
  if (!status) return status.status();

  PatchReport report;
  report.id = "(rollback)";
  report.smm_status = *status;
  report.success = *status == SmmStatus::kOk;
  fill_downtime(m, dt0, report);
  report.smm.modeled_total_us =
      m.cost_model().to_us(report.downtime_cycles);
  return report;
}

Result<PatchReport> Kshot::revert_patch(const std::string& patch_id) {
  if (!installed_) {
    return Status{Errc::kFailedPrecondition, "install() first"};
  }
  auto& m = kernel_.machine();
  Mailbox mbox(m.mem(), kernel_.layout().mem_rw_base(),
               machine::AccessMode::normal());
  KSHOT_RETURN_IF_ERROR(
      mbox.write_revert_target(crypto::sdbm(to_bytes(patch_id))));
  const DowntimeMark dt0 = mark_downtime(m);
  auto status = trigger_and_status(SmmCommand::kRevertPatch);
  if (!status) return status.status();

  PatchReport report;
  report.id = "(revert " + patch_id + ")";
  report.smm_status = *status;
  report.success = *status == SmmStatus::kOk;
  fill_downtime(m, dt0, report);
  report.smm.modeled_total_us =
      m.cost_model().to_us(report.downtime_cycles);
  return report;
}

Result<AppliedInfo> Kshot::query_applied() {
  if (!installed_) {
    return Status{Errc::kFailedPrecondition, "install() first"};
  }
  auto& m = kernel_.machine();
  const auto& lay = kernel_.layout();
  Mailbox mbox(m.mem(), lay.mem_rw_base(), machine::AccessMode::normal());
  auto status = trigger_and_status(SmmCommand::kQueryApplied);
  if (!status) return status.status();
  if (*status != SmmStatus::kOk) {
    return Status{Errc::kInternal,
                  std::string("kQueryApplied failed: ") +
                      smm_status_name(*status)};
  }
  auto size = mbox.read_query_size();
  if (!size) return size.status();
  if (*size < 8 || MailboxLayout::kQueryBlob + *size > lay.mem_rw_size) {
    return Status{Errc::kOutOfRange, "bad query blob size"};
  }
  auto blob = m.mem().read_bytes(lay.mem_rw_base() + MailboxLayout::kQueryBlob,
                                 *size, machine::AccessMode::normal());
  if (!blob) return blob.status();

  ByteReader r(*blob);
  auto magic = r.get_u32();
  auto nunits = r.get_u32();
  if (!magic || !nunits || *magic != kQueryMagic) {
    return Status{Errc::kIntegrityFailure, "bad query blob magic"};
  }
  AppliedInfo info;
  info.units.reserve(*nunits);
  for (u32 i = 0; i < *nunits; ++i) {
    AppliedInfo::Unit u;
    auto id = r.get_string8();
    if (!id) return id.status();
    u.id = *id;
    auto kv = r.get_string8();
    if (!kv) return kv.status();
    u.kernel_version = *kv;
    auto seq = r.get_u64();
    auto hash = r.get_u64();
    auto funcs = r.get_u32();
    auto code = r.get_u32();
    auto spl = r.get_u8();
    if (!seq || !hash || !funcs || !code || !spl) {
      return Status{Errc::kOutOfRange, "truncated query blob"};
    }
    u.seq = *seq;
    u.id_hash = *hash;
    u.functions = *funcs;
    u.code_bytes = *code;
    u.spliced = *spl;
    info.units.push_back(std::move(u));
  }
  auto used = r.get_u64();
  auto free = r.get_u64();
  auto next = r.get_u32();
  if (!used || !free || !next) {
    return Status{Errc::kOutOfRange, "truncated query blob"};
  }
  info.memx_used = *used;
  info.memx_free = *free;
  info.extents.reserve(*next);
  for (u32 i = 0; i < *next; ++i) {
    auto base = r.get_u64();
    auto len = r.get_u64();
    if (!base || !len) {
      return Status{Errc::kOutOfRange, "truncated query blob"};
    }
    info.extents.emplace_back(*base, *len);
  }
  return info;
}

bool Kshot::ids_applied(const std::vector<std::string>& ids) {
  auto info = query_applied();
  if (!info) return false;
  for (const std::string& id : ids) {
    bool found = false;
    for (const auto& u : info->units) {
      if (u.id == id) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

Status Kshot::reclaim_mem_x() {
  if (!installed_) return {Errc::kFailedPrecondition, "install() first"};
  auto info = query_applied();
  if (!info) return info.status();
  const auto& lay = kernel_.layout();
  // Free extents = mem_X minus the occupied extents (already sorted by base;
  // clamp defensively since the blob crossed untrusted mem_RW).
  std::vector<KshotEnclave::FreeExtent> free;
  u64 cursor = lay.mem_x_base();
  const u64 end = lay.mem_x_base() + lay.mem_x_size;
  for (const auto& [base, len] : info->extents) {
    u64 b = std::max(base, lay.mem_x_base());
    u64 e = std::min(base + len, end);
    if (b >= e) continue;
    if (b > cursor) free.push_back({cursor, b - cursor});
    cursor = std::max(cursor, e);
  }
  if (cursor < end) free.push_back({cursor, end - cursor});
  return enclave_->set_mem_x_map(free);
}

Status Kshot::arm_kernel_guard() {
  if (!installed_) return {Errc::kFailedPrecondition, "install() first"};
  // The dynamic tracer legitimately rewrites the 5-byte pad of every traced
  // function; everything else in kernel text is guarded.
  std::vector<MutableWindow> windows;
  for (const auto& sym : kernel_.image().symbols) {
    if (sym.traced) windows.push_back({sym.addr, 5});
  }
  return handler_->arm_kernel_guard(kernel_.machine(), std::move(windows));
}

Result<IntrospectionReport> Kshot::introspect() {
  if (!installed_) {
    return Status{Errc::kFailedPrecondition, "install() first"};
  }
  auto status = trigger_and_status(SmmCommand::kIntrospect);
  if (!status) return status.status();
  return handler_->last_introspection();
}

Result<DosCheckReport> Kshot::dos_check() {
  if (!installed_) {
    return Status{Errc::kFailedPrecondition, "install() first"};
  }
  auto& m = kernel_.machine();
  Mailbox mbox(m.mem(), kernel_.layout().mem_rw_base(),
               machine::AccessMode::normal());
  DosCheckReport rep;
  // Poke SMM by hand rather than through trigger_and_status: a suppressed
  // SMI must surface as !smm_alive in the report, not as an error.
  auto hb_before = mbox.read_heartbeat();
  u64 seq = ++cmd_seq_;
  (void)mbox.write_cmd_seq(seq);
  (void)mbox.write_command(SmmCommand::kIntrospect);
  m.trigger_smi();
  auto hb_after = mbox.read_heartbeat();
  auto echo = mbox.read_cmd_seq_echo();
  rep.smm_alive = hb_before.is_ok() && hb_after.is_ok() &&
                  *hb_after > *hb_before && echo.is_ok() && *echo == seq;
  // Suspicion requires contradiction, not mere absence of activity: the
  // helper side claims it staged (staging_attempts_) but the SMM side —
  // unforgeable ground truth, SMRAM-resident — never saw a staging command.
  // A fresh install that has not patched anything is NOT a DoS.
  rep.staging_attempted = staging_attempts_ > 0;
  rep.staging_observed = handler_->stagings_seen() > 0;
  rep.dos_suspected =
      !rep.smm_alive || (rep.staging_attempted && !rep.staging_observed);
  return rep;
}

bool Kshot::is_patched(const std::string& function) const {
  if (!handler_) return false;
  for (const auto& p : handler_->installed()) {
    if (p.name == function && p.taddr != 0) return true;
  }
  return false;
}

size_t Kshot::tcb_bytes() const {
  // SMM handler state (SMRAM-resident) + a fixed estimate of the handler and
  // enclave code footprints. Contrast with baselines whose TCB is the whole
  // kernel text.
  size_t smm_state = sizeof(SmmPatchHandler);
  if (handler_) {
    for (const auto& p : handler_->installed()) {
      smm_state += sizeof(InstalledPatch) + p.code().size();
    }
  }
  constexpr size_t kHandlerCodeEstimate = 24 * 1024;
  constexpr size_t kEnclaveCodeEstimate = 48 * 1024;
  return smm_state + kHandlerCodeEstimate + kEnclaveCodeEstimate;
}

}  // namespace kshot::core
