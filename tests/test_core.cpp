// Core KShot unit tests: the mem_RW mailbox, enclave ECALL sequencing, SMM
// handler status codes and bounds checks, introspection, and the
// orchestrator's error paths.
#include <gtest/gtest.h>

#include "core/smm_txn.hpp"
#include "testbed/testbed.hpp"

namespace kshot::core {
namespace {

std::unique_ptr<testbed::Testbed> boot(const char* id = "CVE-2014-0196",
                                       testbed::TestbedOptions opts = {}) {
  auto tb = testbed::Testbed::boot(cve::find_case(id), opts);
  EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
  return std::move(*tb);
}

// ---- Mailbox -----------------------------------------------------------------

TEST(Mailbox, RoundTripsFields) {
  auto t = boot();
  Mailbox mbox(t->machine().mem(), t->kernel().layout().mem_rw_base(),
               machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kBeginSession).is_ok());
  EXPECT_EQ(*mbox.read_command(), SmmCommand::kBeginSession);
  ASSERT_TRUE(mbox.write_staged_size(12345).is_ok());
  EXPECT_EQ(*mbox.read_staged_size(), 12345u);
  crypto::X25519Key k{};
  k[0] = 0xAA;
  ASSERT_TRUE(mbox.write_enclave_pub(k).is_ok());
  EXPECT_EQ(*mbox.read_enclave_pub(), k);
  ASSERT_TRUE(mbox.bump_heartbeat().is_ok());
  ASSERT_TRUE(mbox.bump_heartbeat().is_ok());
  EXPECT_EQ(*mbox.read_heartbeat(), 2u);
}

TEST(Mailbox, GarbageCommandReadsAsIdle) {
  auto t = boot();
  auto& mem = t->machine().mem();
  u64 base = t->kernel().layout().mem_rw_base();
  ASSERT_TRUE(
      mem.write_u64(base + MailboxLayout::kCommand, 0xFFFF,
                    machine::AccessMode::normal())
          .is_ok());
  Mailbox mbox(mem, base, machine::AccessMode::normal());
  EXPECT_EQ(*mbox.read_command(), SmmCommand::kIdle);
}

// ---- Enclave sequencing ------------------------------------------------------

TEST(Enclave, PreprocessWithoutFetchFails) {
  auto t = boot();
  auto r = t->kshot().enclave().preprocess();
  EXPECT_EQ(r.status().code(), Errc::kFailedPrecondition);
}

TEST(Enclave, SealWithoutPreprocessFails) {
  auto t = boot();
  crypto::X25519Key k{};
  auto r = t->kshot().enclave().seal_for_smm(k);
  EXPECT_EQ(r.status().code(), Errc::kFailedPrecondition);
}

TEST(Enclave, FinishFetchWithoutBeginFails) {
  auto t = boot();
  auto r = t->kshot().enclave().finish_fetch(Bytes{1, 2, 3});
  EXPECT_EQ(r.status().code(), Errc::kFailedPrecondition);
}

TEST(Enclave, UnknownEcallRejected) {
  auto t = boot();
  auto r = t->kshot().enclave().ecall(999, {});
  EXPECT_EQ(r.status().code(), Errc::kInvalidArgument);
}

TEST(Enclave, TamperedResponseRejected) {
  auto t = boot();
  const auto& c = t->cve_case();
  auto req = t->kshot().enclave().begin_fetch(
      c.id, netsim::PatchRequest::Op::kFetchPatch);
  ASSERT_TRUE(req.is_ok());
  auto resp = t->server().handle_request(*req);
  ASSERT_TRUE(resp.is_ok());
  (*resp)[resp->size() / 2] ^= 0x20;
  auto stats = t->kshot().enclave().finish_fetch(*resp);
  EXPECT_FALSE(stats.is_ok());
}

TEST(Enclave, MemXCursorAdvancesAndResets) {
  auto t = boot();
  EXPECT_EQ(t->kshot().enclave().mem_x_cursor(), 0u);
  ASSERT_TRUE(t->kshot().live_patch(t->cve_case().id).is_ok());
  u64 after_one = t->kshot().enclave().mem_x_cursor();
  EXPECT_GT(after_one, 0u);
  t->kshot().enclave().reset_mem_x_cursor();
  EXPECT_EQ(t->kshot().enclave().mem_x_cursor(), 0u);
}

// ---- SMM handler -------------------------------------------------------------

TEST(SmmHandler, ApplyWithoutSessionFails) {
  auto t = boot();
  Mailbox mbox(t->machine().mem(), t->kernel().layout().mem_rw_base(),
               machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_staged_size(64).is_ok());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kApplyPatch).is_ok());
  t->machine().trigger_smi();
  EXPECT_EQ(*mbox.read_status(), SmmStatus::kNoSession);
}

TEST(SmmHandler, ApplyWithNothingStagedFails) {
  auto t = boot();
  Mailbox mbox(t->machine().mem(), t->kernel().layout().mem_rw_base(),
               machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kBeginSession).is_ok());
  t->machine().trigger_smi();
  ASSERT_TRUE(mbox.write_staged_size(0).is_ok());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kApplyPatch).is_ok());
  t->machine().trigger_smi();
  EXPECT_EQ(*mbox.read_status(), SmmStatus::kNothingStaged);
}

TEST(SmmHandler, GarbageInMemWFailsMac) {
  auto t = boot();
  const auto& lay = t->kernel().layout();
  Mailbox mbox(t->machine().mem(), lay.mem_rw_base(),
               machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kBeginSession).is_ok());
  t->machine().trigger_smi();

  Bytes junk(256, 0x5A);
  ASSERT_TRUE(t->machine()
                  .mem()
                  .write(lay.mem_w_base(), junk, machine::AccessMode::normal())
                  .is_ok());
  ASSERT_TRUE(mbox.write_staged_size(junk.size()).is_ok());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kApplyPatch).is_ok());
  t->machine().trigger_smi();
  EXPECT_EQ(*mbox.read_status(), SmmStatus::kMacFailure);
  EXPECT_EQ(t->kshot().handler().patches_applied(), 0u);
}

TEST(SmmHandler, StagedSizeBeyondMemWRejected) {
  auto t = boot();
  Mailbox mbox(t->machine().mem(), t->kernel().layout().mem_rw_base(),
               machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kBeginSession).is_ok());
  t->machine().trigger_smi();
  ASSERT_TRUE(
      mbox.write_staged_size(t->kernel().layout().mem_w_size + 1).is_ok());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kApplyPatch).is_ok());
  t->machine().trigger_smi();
  EXPECT_EQ(*mbox.read_status(), SmmStatus::kBadPackage);
}

TEST(SmmHandler, RollbackWithNothingAppliedFails) {
  auto t = boot();
  auto rb = t->kshot().rollback();
  ASSERT_TRUE(rb.is_ok());
  EXPECT_FALSE(rb->success);
  EXPECT_EQ(rb->smm_status, SmmStatus::kNothingToRollback);
}

TEST(SmmHandler, HeartbeatAdvancesPerSmi) {
  auto t = boot();
  Mailbox mbox(t->machine().mem(), t->kernel().layout().mem_rw_base(),
               machine::AccessMode::normal());
  u64 before = mbox.read_heartbeat().value_or(0);
  ASSERT_TRUE(t->kshot().introspect().is_ok());
  EXPECT_EQ(*mbox.read_heartbeat(), before + 1);
}

TEST(SmmHandler, SessionKeysAreSingleUse) {
  // After a successful patch the same staged bytes must not apply again.
  auto t = boot();
  const auto& c = t->cve_case();
  ASSERT_TRUE(t->kshot().live_patch(c.id).is_ok());

  Mailbox mbox(t->machine().mem(), t->kernel().layout().mem_rw_base(),
               machine::AccessMode::normal());
  // mem_W still holds the last ciphertext; re-trigger apply.
  ASSERT_TRUE(mbox.write_command(SmmCommand::kApplyPatch).is_ok());
  t->machine().trigger_smi();
  EXPECT_EQ(*mbox.read_status(), SmmStatus::kNoSession);
}

TEST(SmmHandler, TimingsPopulatedAfterApply) {
  auto t = boot();
  ASSERT_TRUE(t->kshot().live_patch(t->cve_case().id).is_ok());
  const SmmPatchTimings& tm = t->kshot().handler().last_timings();
  EXPECT_GT(tm.keygen_ns, 0.0);
  EXPECT_GT(tm.decrypt_ns, 0.0);
  EXPECT_GT(tm.verify_ns, 0.0);
  EXPECT_GT(tm.apply_ns, 0.0);
  EXPECT_GT(tm.package_bytes, 0u);
  EXPECT_GT(tm.functions, 0u);
  EXPECT_GT(tm.modeled_cycles, 0u);
}

TEST(SmmHandler, FailedRunReportsNoStalePhaseTimes) {
  // kBeginSession clears the phase timings: a run that dies at the MAC
  // check reports no verify or apply time, not the previous run's.
  auto t = boot();
  const std::string id = t->cve_case().id;
  auto ok = t->kshot().live_patch(id);
  ASSERT_TRUE(ok.is_ok() && ok->success);
  ASSERT_GT(ok->smm.verify_us, 0.0);
  ASSERT_GT(ok->smm.apply_us, 0.0);
  auto rb = t->kshot().rollback();
  ASSERT_TRUE(rb.is_ok() && rb->success);

  t->kshot().set_retry_policy(RetryPolicy::none());
  t->kshot().set_stage_tamperer([](Bytes& b) { b.back() ^= 0x01; });
  auto bad = t->kshot().live_patch(id);
  ASSERT_TRUE(bad.is_ok()) << bad.status().to_string();
  EXPECT_FALSE(bad->success);
  EXPECT_EQ(bad->smm_status, SmmStatus::kMacFailure);
  EXPECT_EQ(bad->smm.verify_us, 0.0);
  EXPECT_EQ(bad->smm.apply_us, 0.0);
}

// ---- SMM undo journal ------------------------------------------------------------

Bytes read_smm(const machine::PhysMem& mem, u64 addr, size_t n) {
  auto r = mem.read_bytes(addr, n, machine::AccessMode::smm());
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? *r : Bytes{};
}

TEST(SmmTxn, OverlappingWritesReplayInReverseToTheOldestValue) {
  machine::PhysMem mem(4 * machine::kPageSize);
  const Bytes pre = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  ASSERT_TRUE(mem.write(0x1000, pre, machine::AccessMode::smm()).is_ok());
  {
    SmmTxn txn(mem);
    ASSERT_TRUE(txn.write(0x1000, Bytes(8, 0xAA)).is_ok());
    ASSERT_TRUE(txn.write_u64(0x1004, 0xBBBBBBBBBBBBBBBBull).is_ok());
    EXPECT_EQ(txn.last().addr, 0x1004u);
    EXPECT_EQ(txn.last().bytes, (Bytes{0xAA, 0xAA, 0xAA, 0xAA, 9, 10, 11, 12}));
    ASSERT_TRUE(txn.write(0x1002, Bytes(4, 0xCC)).is_ok());
    EXPECT_NE(read_smm(mem, 0x1000, pre.size()), pre);
  }
  // Forward replay would end on the intermediate 0xAA/0xBB bytes; reverse
  // replay ends on the bytes the txn first replaced.
  EXPECT_EQ(read_smm(mem, 0x1000, pre.size()), pre);
}

TEST(SmmTxn, CommittedWritesSurviveScopeExit) {
  machine::PhysMem mem(4 * machine::kPageSize);
  {
    SmmTxn txn(mem);
    ASSERT_TRUE(txn.write(0x2000, Bytes(4, 0x5A)).is_ok());
    txn.commit();
  }
  EXPECT_EQ(read_smm(mem, 0x2000, 4), Bytes(4, 0x5A));
}

TEST(SmmTxn, FailedWriteRecordsNothing) {
  machine::PhysMem mem(4 * machine::kPageSize);
  SmmTxn txn(mem);
  ASSERT_TRUE(txn.write(0x1000, Bytes(4, 0x11)).is_ok());
  // Straddles the end of memory: refused as a whole, nothing written.
  EXPECT_EQ(txn.write(4 * machine::kPageSize - 2, Bytes(4, 0x22)).code(),
            Errc::kOutOfRange);
  EXPECT_EQ(txn.last().addr, 0x1000u);
  EXPECT_EQ(read_smm(mem, 4 * machine::kPageSize - 2, 2), Bytes(2, 0));
}

TEST(SmmTxnDeathTest, FailedReplayWriteAborts) {
  // A replay write can only fail if a page this txn wrote became an EPC
  // page meanwhile; nothing in the simulator does that, so it is a broken
  // invariant and must stop the run rather than leave memory half-unwound.
  machine::PhysMem mem(4 * machine::kPageSize);
  auto abort_over_epc = [&mem] {
    SmmTxn txn(mem);
    if (!txn.write(0x1000, Bytes(4, 0x11)).is_ok()) return;
    mem.set_attrs(0x1000, machine::kPageSize, {true, true, true, 7});
  };
  EXPECT_DEATH(abort_over_epc(),
               "SMM undo journal replay failed: PERMISSION_DENIED");
}

// ---- Introspection ---------------------------------------------------------------

TEST(Introspection, CleanAfterPatch) {
  auto t = boot();
  ASSERT_TRUE(t->kshot().live_patch(t->cve_case().id).is_ok());
  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->clean());
  EXPECT_EQ(rep->patches_checked, t->kshot().handler().installed().size());
}

TEST(Introspection, DetectsAndRepairsTrampolineReversion) {
  auto t = boot();
  const auto& c = t->cve_case();
  ASSERT_TRUE(t->kshot().live_patch(c.id).is_ok());
  ASSERT_FALSE(t->kshot().handler().installed().empty());
  const InstalledPatch& p = t->kshot().handler().installed()[0];

  // Kernel-privileged revert of the trampoline.
  ASSERT_TRUE(t->machine()
                  .mem()
                  .write(p.revert.addr, p.revert.bytes,
                         machine::AccessMode::normal())
                  .is_ok());
  // The exploit works again...
  auto exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_TRUE(exploit->oops);

  // ...until introspection repairs the trampoline.
  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_EQ(rep->trampolines_reverted, 1u);
  exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_FALSE(exploit->oops);
}

TEST(Introspection, RestoresReservedPageAttributes) {
  auto t = boot();
  const auto& lay = t->kernel().layout();
  ASSERT_TRUE(t->kshot().live_patch(t->cve_case().id).is_ok());
  // Rootkit re-opens mem_X via "page tables".
  t->machine().mem().set_attrs(lay.mem_x_base(), machine::kPageSize,
                               {true, true, true, 0});
  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_GE(rep->attrs_restored, 1u);
  auto attrs = t->machine().mem().attrs_at(lay.mem_x_base());
  EXPECT_TRUE(!attrs.read && !attrs.write && attrs.exec);
}

// ---- Orchestrator error paths -----------------------------------------------

TEST(Orchestrator, UnknownPatchIdPropagates) {
  auto t = boot();
  auto r = t->kshot().live_patch("CVE-0000-0000");
  ASSERT_FALSE(r.is_ok());
}

TEST(Orchestrator, SecondInstallFails) {
  auto t = boot();
  EXPECT_EQ(t->kshot().install().code(), Errc::kFailedPrecondition);
}

TEST(Orchestrator, UninstalledKshotRefusesEverything) {
  auto t = boot("CVE-2014-0196", {.layout = {}, .seed = 0x7777,
                                  .install_kshot = false,
                                  .workload_threads = 0});
  EXPECT_FALSE(t->kshot().live_patch("CVE-2014-0196").is_ok());
  EXPECT_FALSE(t->kshot().rollback().is_ok());
  EXPECT_FALSE(t->kshot().introspect().is_ok());
}

TEST(Orchestrator, IsPatchedReflectsState) {
  auto t = boot();
  const auto& c = t->cve_case();
  EXPECT_FALSE(t->kshot().is_patched(c.entry_function));
  ASSERT_TRUE(t->kshot().live_patch(c.id).is_ok());
  EXPECT_TRUE(t->kshot().is_patched(c.entry_function));
  ASSERT_TRUE(t->kshot().rollback().is_ok());
  EXPECT_FALSE(t->kshot().is_patched(c.entry_function));
}

TEST(Orchestrator, TcbIsSmallComparedToKernel) {
  auto t = boot();
  EXPECT_LT(t->kshot().tcb_bytes(),
            t->kernel().image().text.size() + 512 * 1024);
  EXPECT_GT(t->kshot().tcb_bytes(), 0u);
}

TEST(Orchestrator, DosCheckHealthyAfterPatch) {
  auto t = boot();
  ASSERT_TRUE(t->kshot().live_patch(t->cve_case().id).is_ok());
  auto rep = t->kshot().dos_check();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->smm_alive);
  EXPECT_TRUE(rep->staging_observed);
  EXPECT_FALSE(rep->dos_suspected);
}

TEST(Orchestrator, DosCheckFreshInstallIsNotSuspicious) {
  // A deployment that never attempted a patch has nothing contradictory to
  // report: absence of staging is only a DoS once staging was *attempted*.
  auto t = boot();
  auto rep = t->kshot().dos_check();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->smm_alive);
  EXPECT_FALSE(rep->staging_attempted);
  EXPECT_FALSE(rep->staging_observed);
  EXPECT_FALSE(rep->dos_suspected);
}

TEST(Orchestrator, DosCheckDetectsBlockedStaging) {
  // A rootkit gates SMI delivery just as the helper app stages the sealed
  // package: the helper tried, SMM never saw a staging command, and the
  // stale-echo check stops the pipeline from trusting the old status word.
  auto t = boot();
  t->kshot().set_stage_tamperer(
      [&](Bytes&) { t->machine().set_smi_blocked(true); });
  auto r = t->kshot().live_patch(t->cve_case().id);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kAborted);
  t->kshot().clear_stage_tamperer();

  // While SMIs stay gated, SMM is simply unreachable.
  auto rep = t->kshot().dos_check();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_FALSE(rep->smm_alive);
  EXPECT_TRUE(rep->staging_attempted);
  EXPECT_FALSE(rep->staging_observed);
  EXPECT_TRUE(rep->dos_suspected);

  // Even after the rootkit re-enables SMIs to hide, the attempted-vs-
  // observed contradiction persists: SMM-side counters are ground truth.
  t->machine().set_smi_blocked(false);
  auto rep2 = t->kshot().dos_check();
  ASSERT_TRUE(rep2.is_ok());
  EXPECT_TRUE(rep2->smm_alive);
  EXPECT_TRUE(rep2->dos_suspected);
}

TEST(Orchestrator, ReportTimingsPopulated) {
  auto t = boot();
  auto r = t->kshot().live_patch(t->cve_case().id);
  ASSERT_TRUE(r.is_ok());
  EXPECT_GT(r->sgx.fetch_us, 0.0);
  EXPECT_GT(r->sgx.preprocess_us, 0.0);
  EXPECT_GT(r->sgx.passing_us, 0.0);
  EXPECT_GT(r->smm.keygen_us, 0.0);
  EXPECT_GT(r->smm.switch_us, 0.0);
  // Modeled downtime includes 2 SMI round trips (~69.2us each at 3 GHz).
  EXPECT_GT(r->smm.modeled_total_us, 2 * 34.6 - 1);
}

}  // namespace
}  // namespace kshot::core
