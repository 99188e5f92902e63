// Security experiments (threat model §III, protections §V-D, comparison
// §VI-D): rootkit patch reversion, hijacked in-kernel patching, MITM,
// replay, mem_X corruption, kexec hijack, and DoS detection.
#include <gtest/gtest.h>

#include "attacks/network_attacks.hpp"
#include "attacks/rootkits.hpp"
#include "baselines/kpatch_sim.hpp"
#include "baselines/kup_sim.hpp"
#include "core/mailbox.hpp"
#include "core/smm_handler.hpp"
#include "crypto/aead.hpp"
#include "crypto/x25519.hpp"
#include "patchtool/package.hpp"
#include "smm_rig.hpp"
#include "testbed/testbed.hpp"

namespace kshot::attacks {
namespace {

using testbed::Testbed;
using testbed::TestbedOptions;

std::unique_ptr<Testbed> boot(const char* id = "CVE-2014-0196",
                              TestbedOptions opts = {}) {
  auto tb = Testbed::boot(cve::find_case(id), opts);
  EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
  return std::move(*tb);
}

// ---- Malicious patch reversion -----------------------------------------------

TEST(Reversion, RootkitUndoesKpatch) {
  // kpatch runs in the kernel's trust domain; a resident rootkit silently
  // reverts its trampoline and the kernel is vulnerable again — kpatch has
  // no way to even notice.
  auto t = boot();
  const auto& c = t->cve_case();
  auto rootkit = std::make_shared<ReversionRootkit>(t->pre_image());
  t->kernel().insmod(rootkit);

  baselines::KpatchSim kpatch(t->kernel(), t->scheduler());
  auto set = t->server().build_patchset(c.id, t->kernel().os_info());
  ASSERT_TRUE(set.is_ok());
  auto rep = kpatch.apply(*set);
  ASSERT_TRUE(rep.is_ok());
  ASSERT_TRUE(rep->success);

  // Patch works right now...
  auto exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_FALSE(exploit->oops);

  // ...but one scheduler tick later the rootkit has reverted it.
  t->scheduler().run(1);
  EXPECT_GE(rootkit->reversions(), 1u);
  exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_TRUE(exploit->oops) << "rootkit failed to revert kpatch";
}

TEST(Reversion, KshotIntrospectionRepairs) {
  // The same rootkit against KShot: the trampoline is reverted, but SMM
  // introspection detects and repairs it (§V-D), and the rootkit cannot
  // interfere with the repair.
  auto t = boot();
  const auto& c = t->cve_case();
  auto rootkit = std::make_shared<ReversionRootkit>(t->pre_image());
  t->kernel().insmod(rootkit);

  ASSERT_TRUE(t->kshot().live_patch(c.id).is_ok());
  t->scheduler().run(1);
  ASSERT_GE(rootkit->reversions(), 1u);
  auto exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_TRUE(exploit->oops) << "expected the reversion to land first";

  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_GE(rep->trampolines_reverted, 1u);
  exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_FALSE(exploit->oops) << "introspection did not repair the patch";
}

// ---- Hijacked in-kernel patching path ----------------------------------------

TEST(Hijack, CorruptedKpatchDeploysBrokenCode) {
  auto t = boot();
  const auto& c = t->cve_case();
  baselines::KpatchSim kpatch(t->kernel(), t->scheduler());
  u64 corruptions = 0;
  kpatch.set_pre_write_hook(make_patch_corruptor(&corruptions));

  auto set = t->server().build_patchset(c.id, t->kernel().os_info());
  ASSERT_TRUE(set.is_ok());
  auto rep = kpatch.apply(*set);
  ASSERT_TRUE(rep.is_ok());
  // kpatch believes it succeeded — it cannot detect the tampering.
  EXPECT_TRUE(rep->success);
  EXPECT_GE(corruptions, 1u);

  // The "patched" kernel now oopses on benign input.
  auto benign = t->run_benign();
  ASSERT_TRUE(benign.is_ok());
  EXPECT_TRUE(benign->oops) << "corrupted patch should break the function";
}

TEST(Hijack, KshotRejectsTamperedStaging) {
  // The equivalent attack against KShot: corrupt the encrypted package in
  // mem_W between staging and SMI. The SMM handler's authenticated
  // decryption refuses it and the kernel keeps running the original code.
  auto t = boot();
  const auto& c = t->cve_case();
  const auto& lay = t->kernel().layout();

  // Run the normal pipeline but corrupt mem_W just before the apply SMI by
  // hooking a kernel module that stomps staged bytes every tick.
  class Stomper final : public kernel::KernelModule {
   public:
    explicit Stomper(kernel::MemoryLayout lay) : lay_(lay) {}
    std::string name() const override { return "memw_stomper"; }
    void on_tick(machine::Machine& m, kernel::Kernel&) override {
      Bytes junk(64, 0xFF);
      ASSERT_TRUE(m.mem()
                      .write(lay_.mem_w_base() + 16, junk,
                             machine::AccessMode::normal())
                      .is_ok());
    }
    kernel::MemoryLayout lay_;
  };

  // Manually drive the pipeline so the stomp lands between stage and SMI.
  auto& enclave = t->kshot().enclave();
  auto req = enclave.begin_fetch(c.id, netsim::PatchRequest::Op::kFetchPatch);
  ASSERT_TRUE(req.is_ok());
  auto resp = t->server().handle_request(*req);
  ASSERT_TRUE(resp.is_ok());
  ASSERT_TRUE(enclave.finish_fetch(*resp).is_ok());

  core::Mailbox mbox(t->machine().mem(), lay.mem_rw_base(),
                     machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_command(core::SmmCommand::kBeginSession).is_ok());
  t->machine().trigger_smi();
  auto smm_pub = mbox.read_smm_pub();
  ASSERT_TRUE(smm_pub.is_ok());
  ASSERT_TRUE(enclave.preprocess().is_ok());
  auto sealed = enclave.seal_for_smm(*smm_pub);
  ASSERT_TRUE(sealed.is_ok());

  crypto::X25519Key pub;
  std::copy(sealed->begin(), sealed->begin() + 32, pub.begin());
  Bytes package(sealed->begin() + 32, sealed->end());
  ASSERT_TRUE(t->machine()
                  .mem()
                  .write(lay.mem_w_base(), package,
                         machine::AccessMode::normal())
                  .is_ok());
  ASSERT_TRUE(mbox.write_enclave_pub(pub).is_ok());
  ASSERT_TRUE(mbox.write_staged_size(package.size()).is_ok());

  // The attack: kernel-privileged corruption of the staged ciphertext.
  Stomper(lay).on_tick(t->machine(), t->kernel());

  ASSERT_TRUE(mbox.write_command(core::SmmCommand::kApplyPatch).is_ok());
  t->machine().trigger_smi();
  EXPECT_EQ(*mbox.read_status(), core::SmmStatus::kMacFailure);

  // Nothing was applied; the kernel still runs the (original) code and
  // benign traffic is unaffected.
  EXPECT_EQ(t->kshot().handler().patches_applied(), 0u);
  auto benign = t->run_benign();
  ASSERT_TRUE(benign.is_ok());
  EXPECT_FALSE(benign->oops);
}

// ---- MITM on the server channel ----------------------------------------------

TEST(Mitm, TamperedResponseDetectedInEnclave) {
  auto t = boot();
  u64 tampers = 0;
  t->channel().set_tamperer(make_bitflip_mitm(512, &tampers));
  auto report = t->kshot().live_patch(t->cve_case().id);
  EXPECT_FALSE(report.is_ok());
  EXPECT_GE(tampers, 1u);
  // Original code untouched.
  auto exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_TRUE(exploit->oops);
}

TEST(Mitm, CleanChannelAfterAttackRecovers) {
  auto t = boot();
  u64 tampers = 0;
  t->channel().set_tamperer(make_bitflip_mitm(512, &tampers));
  EXPECT_FALSE(t->kshot().live_patch(t->cve_case().id).is_ok());
  t->channel().clear_tamperer();
  auto report = t->kshot().live_patch(t->cve_case().id);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report->success);
}

// ---- Replay -------------------------------------------------------------------

TEST(Replay, StaleCiphertextRejected) {
  // Capture the encrypted package of a successful patch, roll back, then
  // replay the old ciphertext: the per-patch DH session key is gone, so the
  // replay cannot authenticate (§V-C).
  auto t = boot();
  const auto& c = t->cve_case();
  ReplayAttacker attacker(t->kernel().layout());

  ASSERT_TRUE(t->kshot().live_patch(c.id).is_ok());
  ASSERT_TRUE(attacker.capture(t->machine()).is_ok());
  ASSERT_TRUE(t->kshot().rollback().is_ok());

  auto st = attacker.replay(t->machine());
  ASSERT_TRUE(st.is_ok());
  EXPECT_NE(*st, core::SmmStatus::kOk);
  // Kernel remains in the rolled-back (vulnerable) state — the attacker
  // could not force the stale patch in, and equally could not forge one.
  auto exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_TRUE(exploit->oops);
}

TEST(Replay, ReplayIntoFreshSessionStillRejected) {
  // Even if the attacker provokes a new SMM session first, the old
  // ciphertext was sealed under a different key pair.
  auto t = boot();
  const auto& c = t->cve_case();
  ReplayAttacker attacker(t->kernel().layout());
  ASSERT_TRUE(t->kshot().live_patch(c.id).is_ok());
  ASSERT_TRUE(attacker.capture(t->machine()).is_ok());
  ASSERT_TRUE(t->kshot().rollback().is_ok());

  core::Mailbox mbox(t->machine().mem(),
                     t->kernel().layout().mem_rw_base(),
                     machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_command(core::SmmCommand::kBeginSession).is_ok());
  t->machine().trigger_smi();

  auto st = attacker.replay(t->machine());
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(*st, core::SmmStatus::kMacFailure);
}

// ---- mem_X corruption -----------------------------------------------------------

TEST(MemXCorruption, IntrospectionRepairsBodyAndAttributes) {
  auto t = boot();
  const auto& c = t->cve_case();
  ASSERT_TRUE(t->kshot().live_patch(c.id).is_ok());

  auto rootkit =
      std::make_shared<MemXCorruptorRootkit>(t->kernel().layout());
  t->kernel().insmod(rootkit);
  t->scheduler().run(1);
  ASSERT_GE(rootkit->corruptions(), 1u);
  ASSERT_TRUE(t->kernel().rmmod("memx_corruptor").is_ok());

  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_GE(rep->memx_tampered, 1u);
  EXPECT_GE(rep->attrs_restored, 1u);

  // The patched function body was repaired from the SMRAM copy: the patch
  // still works.
  auto exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_FALSE(exploit->oops);
  auto benign = t->run_benign();
  ASSERT_TRUE(benign.is_ok());
  EXPECT_FALSE(benign->oops);
}

// ---- kexec hijack vs KUP ---------------------------------------------------------

TEST(KexecHijack, KupBootsAttackerImage) {
  // CVE-2015-7837 analogue: KUP trusts kexec; a hijacked kexec path swaps
  // in a backdoored kernel and KUP cannot tell.
  auto t = boot();
  const auto& c = t->cve_case();
  baselines::KupSim kup(t->kernel(), t->scheduler());

  // The "malicious image" is just the vulnerable kernel again (a downgrade
  // attack), rebuilt byte-for-byte.
  auto malicious = t->server().build_pre_image(c.id, t->compile_options());
  ASSERT_TRUE(malicious.is_ok());
  u64 hijacks = 0;
  kup.set_kexec_hook(make_kexec_hijacker(*malicious, &hijacks));

  auto post = t->server().build_post_image(c.id, t->compile_options());
  ASSERT_TRUE(post.is_ok());
  auto rep = kup.apply(c.id, *post);
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->success);  // KUP thinks the update landed
  EXPECT_EQ(hijacks, 1u);

  // But the machine still runs the vulnerable kernel.
  auto exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_TRUE(exploit->oops);
}

// ---- DoS detection -----------------------------------------------------------------

TEST(Dos, BlockedHelperAppDetected) {
  // The helper app stages but the attacker suppresses the staging SMI, then
  // re-enables SMIs to cover its tracks. The remote server's verification
  // handshake with the SMM handler still flags the run: the helper claims
  // it staged, the (unforgeable) SMM-side counter says nothing arrived.
  auto t = boot();
  t->kshot().set_stage_tamperer(
      [&](Bytes&) { t->machine().set_smi_blocked(true); });
  auto r = t->kshot().live_patch(t->cve_case().id);
  ASSERT_FALSE(r.is_ok());
  t->kshot().clear_stage_tamperer();
  t->machine().set_smi_blocked(false);

  auto rep = t->kshot().dos_check();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->dos_suspected);
  EXPECT_TRUE(rep->smm_alive);  // SMM itself is fine — only staging was lost
  EXPECT_TRUE(rep->staging_attempted);
  EXPECT_FALSE(rep->staging_observed);
}

TEST(Dos, SuppressedSmiYieldsStaleEchoNotFakeSuccess) {
  // Without the sequence-number echo, a gated SMI would leave the previous
  // command's kOk in the status word and the helper would report success.
  // With it, the pipeline sees kAborted instead.
  auto t = boot();
  t->machine().set_smi_blocked(true);
  auto r = t->kshot().live_patch(t->cve_case().id);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kAborted);
  EXPECT_GT(t->machine().suppressed_smis(), 0u);
  EXPECT_EQ(t->kshot().handler().patches_applied(), 0u);
}

TEST(Dos, HealthySystemNotFlagged) {
  auto t = boot();
  ASSERT_TRUE(t->kshot().live_patch(t->cve_case().id).is_ok());
  auto rep = t->kshot().dos_check();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_FALSE(rep->dos_suspected);
}

// ---- Malicious package injection (SMM apply-path hardening) ------------------

using test::make_entry;
using test::SmmRig;

TEST(MaliciousPackage, WrappingTaddrRejected) {
  // taddr near UINT64_MAX: the pre-fix bounds check computed
  // `taddr + ftrace_off + 5`, which wraps to a tiny value and passes the
  // upper-bound comparison — and the trampoline address `taddr + ftrace_off`
  // wraps to a *valid low physical address*, so the 5-byte jmp would land in
  // memory the package never named (here: address 5). The overflow-safe
  // check must reject the entry before anything is written.
  SmmRig rig({});
  patchtool::PatchSet set;
  set.id = "EVIL";
  set.kernel_version = "sim-4.4";
  auto evil = make_entry("evil", ~0ull - 4, rig.lay.mem_x_base());
  evil.ftrace_off = 10;  // wraps: jmp_addr = taddr + 10 == 5
  evil.var_edits.push_back(
      {rig.lay.data_base, 0xDEAD, patchtool::VarEdit::Kind::kSet});
  set.patches.push_back(std::move(evil));

  const auto mode = machine::AccessMode::normal();
  ASSERT_TRUE(
      rig.m.mem().write_u64(rig.lay.data_base, 0x1111, mode).is_ok());
  Bytes low_mem{0x01, 0x02, 0x03, 0x04, 0x05};
  ASSERT_TRUE(rig.m.mem().write(5, low_mem, mode).is_ok());

  auto st = rig.deliver(
      patchtool::serialize_patchset(set, patchtool::PatchOp::kPatch));
  EXPECT_EQ(st, core::SmmStatus::kBadPackage);
  EXPECT_EQ(rig.handler.patches_applied(), 0u);
  // Validation rejects before any write: neither the var edit nor the
  // wrapped trampoline landed.
  EXPECT_EQ(*rig.m.mem().read_u64(rig.lay.data_base, mode), 0x1111u);
  auto low = rig.m.mem().read_bytes(5, low_mem.size(), mode);
  ASSERT_TRUE(low.is_ok());
  EXPECT_EQ(*low, low_mem);
}

TEST(MaliciousPackage, WrappingPaddrRejected) {
  // Same wrap on the mem_X side: `paddr + code.size()` overflowing past zero
  // used to sail under the region end.
  SmmRig rig({});
  patchtool::PatchSet set;
  set.id = "EVIL";
  set.kernel_version = "sim-4.4";
  set.patches.push_back(
      make_entry("evil", rig.lay.text_base, ~0ull - 8, /*code_bytes=*/64));

  auto st = rig.deliver(
      patchtool::serialize_patchset(set, patchtool::PatchOp::kPatch));
  EXPECT_EQ(st, core::SmmStatus::kBadPackage);
  EXPECT_EQ(rig.handler.patches_applied(), 0u);
}

TEST(MaliciousPackage, FailedEntryCaptureAbortsAtomically) {
  // A layout whose text window extends past physical memory: an in-window
  // taddr can still make the trampoline-entry capture read fail. The read's
  // Status used to be dropped — a commit would then record five zero bytes
  // as the "original" entry, and a later rollback would write them over
  // live kernel text. The fix aborts the whole transaction: earlier
  // trampolines and variable edits must be unwound.
  kernel::MemoryLayout lay;
  lay.text_max = lay.mem_bytes;  // window reaches past the 64 MB of RAM
  SmmRig rig(lay);
  const auto mode = machine::AccessMode::normal();

  // Known kernel-text and data bytes to verify the unwind against.
  Bytes entry_bytes{0xAA, 0xBB, 0xCC, 0xDD, 0xEE};
  ASSERT_TRUE(rig.m.mem().write(lay.text_base, entry_bytes, mode).is_ok());
  ASSERT_TRUE(rig.m.mem().write_u64(lay.data_base, 0x2222, mode).is_ok());

  patchtool::PatchSet set;
  set.id = "EVIL";
  set.kernel_version = "sim-4.4";
  auto good = make_entry("good", lay.text_base, lay.mem_x_base());
  good.var_edits.push_back(
      {lay.data_base, 0xDEAD, patchtool::VarEdit::Kind::kSet});
  set.patches.push_back(std::move(good));
  // In-window (bounds_ok passes) but beyond physical memory: the entry
  // capture read fails after entry 0 was fully installed.
  set.patches.push_back(
      make_entry("trap", lay.mem_bytes, lay.mem_x_base() + 0x1000));

  auto st = rig.deliver(
      patchtool::serialize_patchset(set, patchtool::PatchOp::kPatch));
  EXPECT_EQ(st, core::SmmStatus::kBadPackage);
  EXPECT_EQ(rig.handler.patches_applied(), 0u);
  // Entry 0's trampoline and var edit were unwound: kernel state is
  // byte-identical to its pre-SMI snapshot.
  auto text = rig.m.mem().read_bytes(lay.text_base, entry_bytes.size(), mode);
  ASSERT_TRUE(text.is_ok());
  EXPECT_EQ(*text, entry_bytes);
  EXPECT_EQ(*rig.m.mem().read_u64(lay.data_base, mode), 0x2222u);
}

TEST(MaliciousPackage, MixedOpPackageRejected) {
  // The op dispatch used to sniff entry 0 only: a package whose first entry
  // says rollback routed everything to the rollback path, silently dropping
  // the apply entries while reporting success. Mixed packages must be
  // rejected outright.
  SmmRig rig({});
  const auto mode = machine::AccessMode::normal();
  Bytes entry_bytes{0x11, 0x22, 0x33, 0x44, 0x55};
  ASSERT_TRUE(
      rig.m.mem().write(rig.lay.text_base, entry_bytes, mode).is_ok());

  patchtool::PatchSet set;
  set.id = "EVIL";
  set.kernel_version = "sim-4.4";
  auto first = make_entry("decoy", rig.lay.text_base, rig.lay.mem_x_base());
  first.op = patchtool::PatchOp::kRollback;
  set.patches.push_back(std::move(first));
  auto second = make_entry("payload", rig.lay.text_base + 0x100,
                           rig.lay.mem_x_base() + 0x1000);
  second.op = patchtool::PatchOp::kPatch;
  set.patches.push_back(std::move(second));

  auto st = rig.deliver(patchtool::serialize_patchset_raw(set));
  EXPECT_EQ(st, core::SmmStatus::kBadPackage);
  EXPECT_EQ(rig.handler.patches_applied(), 0u);
  auto text =
      rig.m.mem().read_bytes(rig.lay.text_base, entry_bytes.size(), mode);
  ASSERT_TRUE(text.is_ok());
  EXPECT_EQ(*text, entry_bytes);
}

/// Every kernel-owned byte: [0, SMRAM) and (SMRAM, reserved region). SMRAM
/// holds handler scratch and the reserved region holds the staged package +
/// mem_X bodies, which legitimately change during a session; everything
/// else must be transactional.
Bytes kernel_state(SmmRig& rig) {
  const auto mode = machine::AccessMode::smm();
  auto low = rig.m.mem().read_bytes(0, rig.lay.smram_base, mode);
  auto high = rig.m.mem().read_bytes(
      rig.lay.smram_base + rig.lay.smram_size,
      rig.lay.reserved_base - (rig.lay.smram_base + rig.lay.smram_size),
      mode);
  EXPECT_TRUE(low.is_ok() && high.is_ok());
  Bytes out = std::move(*low);
  out.insert(out.end(), high->begin(), high->end());
  return out;
}

TEST(MaliciousPackage, VarEditUnwindRestoresOldestValueFirstWritten) {
  // Two entries edit the SAME variable before a later entry fails. The undo
  // log then holds two records for one address: (addr, 0x1111) from entry 0
  // and (addr, 0xAAAA) from entry 1. Unwinding in forward order would
  // restore 0x1111 and then clobber it with the intermediate 0xAAAA;
  // only reverse-order unwind ends at the pre-session value.
  kernel::MemoryLayout lay;
  lay.text_max = lay.mem_bytes;  // lets an in-window taddr fail its capture
  SmmRig rig(lay);
  const auto mode = machine::AccessMode::normal();
  const u64 var = lay.data_base + 0x20;
  ASSERT_TRUE(rig.m.mem().write_u64(var, 0x1111, mode).is_ok());
  Bytes pre = kernel_state(rig);

  patchtool::PatchSet set;
  set.id = "EVIL";
  set.kernel_version = "sim-4.4";
  auto first = make_entry("first", lay.text_base, lay.mem_x_base());
  first.var_edits.push_back({var, 0xAAAA, patchtool::VarEdit::Kind::kSet});
  set.patches.push_back(std::move(first));
  auto second =
      make_entry("second", lay.text_base + 0x100, lay.mem_x_base() + 0x1000);
  second.var_edits.push_back({var, 0xBBBB, patchtool::VarEdit::Kind::kSet});
  set.patches.push_back(std::move(second));
  // In-window but past physical memory: trampoline capture fails after both
  // var edits and both mem_X bodies landed.
  set.patches.push_back(
      make_entry("trap", lay.mem_bytes, lay.mem_x_base() + 0x2000));

  auto st = rig.deliver(
      patchtool::serialize_patchset(set, patchtool::PatchOp::kPatch));
  EXPECT_EQ(st, core::SmmStatus::kBadPackage);
  EXPECT_EQ(rig.handler.patches_applied(), 0u);
  EXPECT_EQ(*rig.m.mem().read_u64(var, mode), 0x1111u);
  EXPECT_EQ(kernel_state(rig), pre)
      << "failed apply left kernel-owned bytes modified";
}

TEST(MaliciousPackage, RollbackAfterPartialTrampolineFailure) {
  // An apply that fails between trampoline installations must leave nothing
  // for a follow-up rollback to act on: the partial trampolines were
  // unwound, so rollback reports kNothingToRollback and writes nothing.
  kernel::MemoryLayout lay;
  lay.text_max = lay.mem_bytes;
  SmmRig rig(lay);
  const auto mode = machine::AccessMode::normal();
  Bytes entry_bytes{0xAA, 0xBB, 0xCC, 0xDD, 0xEE};
  ASSERT_TRUE(rig.m.mem().write(lay.text_base, entry_bytes, mode).is_ok());
  Bytes pre = kernel_state(rig);

  patchtool::PatchSet set;
  set.id = "EVIL";
  set.kernel_version = "sim-4.4";
  set.patches.push_back(make_entry("good", lay.text_base, lay.mem_x_base()));
  set.patches.push_back(
      make_entry("trap", lay.mem_bytes, lay.mem_x_base() + 0x1000));
  auto st = rig.deliver(
      patchtool::serialize_patchset(set, patchtool::PatchOp::kPatch));
  EXPECT_EQ(st, core::SmmStatus::kBadPackage);

  core::Mailbox mbox(rig.m.mem(), lay.mem_rw_base(),
                     machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_command(core::SmmCommand::kRollback).is_ok());
  rig.m.trigger_smi();
  auto rb = mbox.read_status();
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(*rb, core::SmmStatus::kNothingToRollback);
  EXPECT_EQ(kernel_state(rig), pre)
      << "rollback after a failed apply modified kernel-owned bytes";
}

TEST(MaliciousPackage, FailedApplyDoesNotDisturbPriorRollbackUnit) {
  // A successful apply followed by a partially-failing apply: the failure
  // must not corrupt the rollback bookkeeping of the committed batch, and
  // rolling back must restore the original pre-ANY-apply kernel text.
  kernel::MemoryLayout lay;
  lay.text_max = lay.mem_bytes;
  SmmRig rig(lay);
  const auto mode = machine::AccessMode::normal();
  Bytes entry_bytes{0x10, 0x20, 0x30, 0x40, 0x50};
  ASSERT_TRUE(rig.m.mem().write(lay.text_base, entry_bytes, mode).is_ok());
  Bytes pre = kernel_state(rig);

  patchtool::PatchSet good;
  good.id = "GOOD";
  good.kernel_version = "sim-4.4";
  good.patches.push_back(make_entry("fn", lay.text_base, lay.mem_x_base()));
  ASSERT_EQ(rig.deliver(patchtool::serialize_patchset(
                good, patchtool::PatchOp::kPatch)),
            core::SmmStatus::kOk);
  ASSERT_EQ(rig.handler.patches_applied(), 1u);

  patchtool::PatchSet bad;
  bad.id = "EVIL";
  bad.kernel_version = "sim-4.4";
  bad.patches.push_back(
      make_entry("fn2", lay.text_base + 0x200, lay.mem_x_base() + 0x1000));
  bad.patches.push_back(
      make_entry("trap", lay.mem_bytes, lay.mem_x_base() + 0x2000));
  EXPECT_EQ(rig.deliver(patchtool::serialize_patchset(
                bad, patchtool::PatchOp::kPatch)),
            core::SmmStatus::kBadPackage);
  EXPECT_EQ(rig.handler.patches_applied(), 1u);

  core::Mailbox mbox(rig.m.mem(), lay.mem_rw_base(),
                     machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_command(core::SmmCommand::kRollback).is_ok());
  rig.m.trigger_smi();
  auto rb = mbox.read_status();
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(*rb, core::SmmStatus::kOk);
  auto text = rig.m.mem().read_bytes(lay.text_base, entry_bytes.size(), mode);
  ASSERT_TRUE(text.is_ok());
  EXPECT_EQ(*text, entry_bytes);
  EXPECT_EQ(kernel_state(rig), pre)
      << "rollback did not restore the pre-apply snapshot";
}

// ---- Replay ring keyed on the envelope's MAC ---------------------------------

// The class of the one detection recorded since the last take.
core::DetectionClass only_detection(SmmRig& rig) {
  auto det = rig.handler.take_detections();
  EXPECT_EQ(det.events.size(), 1u) << det.to_string();
  return det.events.size() == 1 ? det.events[0].cls
                                : core::DetectionClass::kNone;
}

Bytes valid_package(const kernel::MemoryLayout& lay) {
  patchtool::PatchSet set;
  set.id = "RING";
  set.kernel_version = "sim-4.4";
  set.patches.push_back(make_entry("fn", lay.text_base, lay.mem_x_base()));
  return patchtool::serialize_patchset(set, patchtool::PatchOp::kPatch);
}

TEST(ReplayRing, VerbatimRestageOfConsumedEnvelopeIsReplay) {
  SmmRig rig({});
  const SmmRig::Staging s = rig.seal(valid_package(rig.lay));
  ASSERT_EQ(rig.stage(s), core::SmmStatus::kOk);
  ASSERT_FALSE(rig.handler.take_detections().any());

  rig.begin_session();
  EXPECT_EQ(rig.stage(s), core::SmmStatus::kMacFailure);
  EXPECT_EQ(only_detection(rig), core::DetectionClass::kReplay);
  EXPECT_EQ(rig.handler.patches_applied(), 1u);
}

TEST(ReplayRing, FreshEnvelopeWithFlippedCiphertextIsMemWRewrite) {
  SmmRig rig({});
  SmmRig::Staging s = rig.seal(valid_package(rig.lay));
  // First ciphertext byte (past nonce and length); the MAC is left intact.
  s.sealed[sizeof(crypto::Nonce96) + 4] ^= 0x01;
  EXPECT_EQ(rig.stage(s), core::SmmStatus::kMacFailure);
  EXPECT_EQ(only_detection(rig), core::DetectionClass::kMemWRewrite);
  EXPECT_EQ(rig.handler.patches_applied(), 0u);
}

TEST(ReplayRing, UndecodableStagingIsMemWRewrite) {
  SmmRig rig({});
  SmmRig::Staging s = rig.seal(valid_package(rig.lay));
  s.sealed.resize(8);  // shorter than a nonce, a length and a MAC
  EXPECT_EQ(rig.stage(s), core::SmmStatus::kMacFailure);
  EXPECT_EQ(only_detection(rig), core::DetectionClass::kMemWRewrite);
  EXPECT_EQ(rig.handler.patches_applied(), 0u);
}

// ---- Low-order DH keys (RFC 7748 §6.1) ---------------------------------------

TEST(LowOrderKey, ZeroEnclavePubIsRefusedKernelUnchanged) {
  // enclave_pub is a mem_RW field. With u = 0 there, X25519 gives the SMM an
  // all-zero secret whatever its private key, so the OS knows the "sgx-smm"
  // key and can seal a package of its own choosing. The handler must refuse
  // the session before it decrypts anything.
  auto t = boot();
  const auto& lay = t->kernel().layout();
  const auto mode = machine::AccessMode::normal();
  core::Mailbox mbox(t->machine().mem(), lay.mem_rw_base(), mode);
  ASSERT_TRUE(mbox.write_command(core::SmmCommand::kBeginSession).is_ok());
  t->machine().trigger_smi();

  // The OS-chosen package: a trampoline from the start of kernel text into
  // a body of its own in mem_X.
  patchtool::PatchSet set;
  set.id = "EVIL";
  set.kernel_version = t->kernel().os_info().version;
  set.patches.push_back(make_entry("evil", lay.text_base, lay.mem_x_base()));
  const crypto::X25519Key zeros{};
  const crypto::Key256 key = crypto::derive_key(
      ByteSpan(zeros.data(), zeros.size()), "sgx-smm");
  const Bytes wire =
      patchtool::serialize_patchset(set, patchtool::PatchOp::kPatch);
  const Bytes sealed = crypto::seal(key, crypto::Nonce96{}, wire).serialize();

  auto region = [&](u64 base, size_t len) {
    auto b = t->machine().mem().read_bytes(base, len,
                                           machine::AccessMode::smm());
    EXPECT_TRUE(b.is_ok());
    return b.is_ok() ? *b : Bytes{};
  };
  const size_t text_len = t->kernel().image().text.size();
  const Bytes text_before = region(lay.text_base, text_len);
  const Bytes memx_before = region(lay.mem_x_base(), lay.mem_x_size);

  ASSERT_TRUE(t->machine().mem().write(lay.mem_w_base(), sealed, mode).is_ok());
  ASSERT_TRUE(mbox.write_enclave_pub(zeros).is_ok());
  ASSERT_TRUE(mbox.write_staged_size(sealed.size()).is_ok());
  ASSERT_TRUE(mbox.write_command(core::SmmCommand::kApplyPatch).is_ok());
  t->machine().trigger_smi();

  EXPECT_EQ(*mbox.read_status(), core::SmmStatus::kMacFailure);
  EXPECT_EQ(t->kshot().handler().patches_applied(), 0u);
  EXPECT_TRUE(t->kshot().handler().detections().has(
      core::DetectionClass::kMailboxFlip))
      << t->kshot().handler().detections().to_string();
  EXPECT_EQ(region(lay.text_base, text_len), text_before);
  EXPECT_EQ(region(lay.mem_x_base(), lay.mem_x_size), memx_before);
}

// ---- SMRAM lock ----------------------------------------------------------------

TEST(SmramLock, KernelCannotReplaceHandler) {
  auto t = boot();
  // After install(), SMRAM is locked: even kernel-privileged code cannot
  // register a different handler.
  auto st = t->machine().set_smm_handler([](machine::Machine&) {});
  EXPECT_EQ(st.code(), Errc::kPermissionDenied);
  // And it cannot read or write SMRAM either.
  const auto base = t->kernel().layout().smram_base;
  EXPECT_FALSE(t->machine()
                   .mem()
                   .read_bytes(base, 64, machine::AccessMode::normal())
                   .is_ok());
}

}  // namespace
}  // namespace kshot::attacks
