// Patch-stack lifecycle in SMM: supersede semantics (retirement + provides
// inheritance), the dependency fence on apply and out-of-order revert,
// mem_X slot reclamation and reuse, in-place splicing, and the fleet's
// applied-inventory health probe. Structural invariants (kernel text and
// mem_X byte-compared through SMM mode) back every status-level assertion.
#include <gtest/gtest.h>

#include "cve/suite.hpp"
#include "fleet/fleet.hpp"
#include "smm_rig.hpp"
#include "testbed/testbed.hpp"

namespace kshot {
namespace {

const char* const kA = "CVE-2016-2543";
const char* const kB = "CVE-2016-4578";
const char* const kC = "CVE-2016-4580";

// Reads through SMM mode so page attributes (mem_X is normally unreadable)
// cannot hide a partial write from the comparison.
Bytes read_region(testbed::Testbed& t, u64 base, size_t len) {
  Bytes b(len);
  EXPECT_TRUE(t.machine()
                  .mem()
                  .read(base, MutByteSpan(b.data(), b.size()),
                        machine::AccessMode::smm())
                  .is_ok());
  return b;
}

Bytes text_bytes(testbed::Testbed& t) {
  return read_region(t, t.kernel().layout().text_base,
                     t.kernel().image().text.size());
}

Bytes memx_bytes(testbed::Testbed& t) {
  const auto& lay = t.kernel().layout();
  return read_region(t, lay.mem_x_base(), lay.mem_x_size);
}

// Canonical rendering of the kQueryApplied inventory, for cross-rig
// byte-comparisons.
std::string render(const core::AppliedInfo& inv) {
  std::string s;
  for (const auto& u : inv.units) {
    s += u.id + "/" + u.kernel_version + " seq=" + std::to_string(u.seq) +
         " fn=" + std::to_string(u.functions) +
         " code=" + std::to_string(u.code_bytes) +
         " spliced=" + std::to_string(u.spliced) + "\n";
  }
  s += "used=" + std::to_string(inv.memx_used) +
       " free=" + std::to_string(inv.memx_free) + "\n";
  for (const auto& [base, len] : inv.extents) {
    s += "extent " + std::to_string(base) + "+" + std::to_string(len) + "\n";
  }
  return s;
}

void expect_status(const Result<core::PatchReport>& r, core::SmmStatus want) {
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->smm_status, want) << core::smm_status_name(r->smm_status);
}

bool exploit_fires(testbed::Testbed& t, const cve::CveCase& c) {
  auto e = t.run_syscall(c.syscall_nr, c.exploit_args);
  EXPECT_TRUE(e.is_ok()) << e.status().to_string();
  return e.is_ok() && e->oops;
}

// One merged deployment whose server knows every part's patch and whose
// kernel answers every part's syscall — the stack-of-independent-sets rig.
struct Rig {
  std::vector<cve::CveCase> parts;
  std::unique_ptr<testbed::Testbed> tb;
  testbed::Testbed& t() { return *tb; }
  core::Kshot& kshot() { return tb->kshot(); }
};

Rig boot_stack(const std::vector<std::string>& ids, u64 seed,
               int workload_threads = 0) {
  Rig r;
  auto batch = cve::combine_cases(ids);
  auto parts = cve::batch_part_cases(ids);
  EXPECT_TRUE(batch.is_ok() && parts.is_ok());
  if (!batch.is_ok() || !parts.is_ok()) return r;
  testbed::TestbedOptions o;
  o.seed = seed;
  o.workload_threads = workload_threads;
  auto tb = testbed::Testbed::boot(batch->merged, o);
  EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
  if (!tb.is_ok()) return r;
  r.tb = std::move(*tb);
  for (const auto& p : *parts) {
    r.tb->server().add_patch({p.id, p.kernel, p.pre_source, p.post_source});
    EXPECT_TRUE(
        r.tb->kernel().register_syscall(p.syscall_nr, p.entry_function)
            .is_ok());
  }
  r.parts = std::move(*parts);
  return r;
}

// ---- Supersede -----------------------------------------------------------

TEST(Lifecycle, SupersedeRetiresBaseAndInheritsProvides) {
  Rig r = boot_stack({kA, kB, kC}, 0x11FE);
  ASSERT_NE(r.tb, nullptr);
  EXPECT_TRUE(exploit_fires(r.t(), r.parts[0]));

  expect_status(r.kshot().live_patch(kA), core::SmmStatus::kOk);
  EXPECT_FALSE(exploit_fires(r.t(), r.parts[0]));
  core::LifecycleOptions dep;
  dep.depends = {kA};
  expect_status(r.kshot().live_patch(kB, dep), core::SmmStatus::kOk);
  core::LifecycleOptions sup;
  sup.supersedes = {kA};
  expect_status(r.kshot().live_patch(kC, sup), core::SmmStatus::kOk);

  // A's unit is gone and its text effects are retired: the exploit fires
  // again (C is an unrelated set, not a cumulative fix for A).
  auto inv = r.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  ASSERT_EQ(inv->units.size(), 2u);
  EXPECT_EQ(inv->units[0].id, kB);
  EXPECT_EQ(inv->units[1].id, kC);
  EXPECT_TRUE(exploit_fires(r.t(), r.parts[0]));

  // B's dependency on A is now satisfied by C's inherited provides, so C is
  // revert-blocked until B goes; then everything drains, and A's own revert
  // finds nothing (it was superseded away, not left behind).
  expect_status(r.kshot().revert_patch(kC), core::SmmStatus::kRevertBlocked);
  expect_status(r.kshot().revert_patch(kB), core::SmmStatus::kOk);
  expect_status(r.kshot().revert_patch(kC), core::SmmStatus::kOk);
  expect_status(r.kshot().revert_patch(kA),
                core::SmmStatus::kNothingToRollback);
  inv = r.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  EXPECT_TRUE(inv->units.empty());
  EXPECT_EQ(inv->memx_used, 0u);
}

TEST(Lifecycle, AppliedStateIndependentOfWorkloadThreads) {
  // The acceptance bar for supersede: applied set, mem_X, and kernel text
  // byte-identical across --jobs levels (workload threads here).
  auto run = [](int workload) {
    Rig r = boot_stack({kA, kB, kC}, 0x90B5, workload);
    EXPECT_NE(r.tb, nullptr);
    core::LifecycleOptions dep;
    dep.depends = {kA};
    core::LifecycleOptions sup;
    sup.supersedes = {kA};
    expect_status(r.kshot().live_patch(kA), core::SmmStatus::kOk);
    expect_status(r.kshot().live_patch(kB, dep), core::SmmStatus::kOk);
    expect_status(r.kshot().live_patch(kC, sup), core::SmmStatus::kOk);
    auto inv = r.kshot().query_applied();
    EXPECT_TRUE(inv.is_ok());
    return std::make_tuple(render(*inv), text_bytes(r.t()), memx_bytes(r.t()));
  };
  auto serial = run(0);
  auto threaded = run(3);
  EXPECT_EQ(std::get<0>(serial), std::get<0>(threaded));
  EXPECT_EQ(std::get<1>(serial), std::get<1>(threaded));
  EXPECT_EQ(std::get<2>(serial), std::get<2>(threaded));
}

// ---- Dependency fence ----------------------------------------------------

TEST(Lifecycle, MissingDependencyRefusedAndUnwound) {
  Rig r = boot_stack({kA, kB}, 0x5E1F);
  ASSERT_NE(r.tb, nullptr);
  Bytes text0 = text_bytes(r.t());
  Bytes memx0 = memx_bytes(r.t());

  core::LifecycleOptions dep;
  dep.depends = {"CVE-0000-0000"};
  auto rep = r.kshot().live_patch(kA, dep);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_FALSE(rep->success);
  EXPECT_EQ(rep->smm_status, core::SmmStatus::kMissingDependency);

  // The refused apply must leave no trace: no stack entry, no mem_X write,
  // no text write (the fence fires before any installation step).
  auto inv = r.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  EXPECT_TRUE(inv->units.empty());
  EXPECT_EQ(text_bytes(r.t()), text0);
  EXPECT_EQ(memx_bytes(r.t()), memx0);

  // The same rig still accepts the set once its prerequisite is real.
  expect_status(r.kshot().live_patch(kB), core::SmmStatus::kOk);
  dep.depends = {kB};
  expect_status(r.kshot().live_patch(kA, dep), core::SmmStatus::kOk);
}

TEST(Lifecycle, FailedSupersedeReinstallsBaseUnit) {
  // The supersede retires the base unit's trampoline, installs the new
  // set's re-patch of the same entry, and then fails on a second entry
  // whose text lies past physical memory. The abort must put the base
  // trampoline back: the base unit stays installed and live, and memory
  // ends byte-identical to its pre-SMI state.
  kernel::MemoryLayout lay;
  lay.text_max = lay.mem_bytes;  // text window reaches past the RAM
  test::SmmRig rig(lay);
  const auto mode = machine::AccessMode::normal();
  const u64 entry = lay.text_base + 0x40;
  ASSERT_TRUE(
      rig.m.mem().write(entry, Bytes{0xAA, 0xBB, 0xCC, 0xDD, 0xEE}, mode)
          .is_ok());

  patchtool::PatchSet base;
  base.id = "BASE";
  base.kernel_version = "sim-4.4";
  base.patches.push_back(test::make_entry("fn", entry, lay.mem_x_base()));
  ASSERT_EQ(rig.deliver(patchtool::serialize_patchset(
                base, patchtool::PatchOp::kPatch)),
            core::SmmStatus::kOk);
  ASSERT_EQ(rig.handler.installed().size(), 1u);
  const std::array<u8, 5> base_jmp = rig.handler.installed()[0].trampoline;

  patchtool::PatchSet next;
  next.id = "NEXT";
  next.kernel_version = "sim-4.4";
  next.supersedes = {"BASE"};
  next.patches.push_back(
      test::make_entry("fn", entry, lay.mem_x_base() + 0x1000));
  next.patches.push_back(
      test::make_entry("trap", lay.mem_bytes, lay.mem_x_base() + 0x2000));
  const machine::PhysMem snapshot = rig.m.mem().fork();
  EXPECT_EQ(rig.deliver(patchtool::serialize_patchset(
                next, patchtool::PatchOp::kPatch)),
            core::SmmStatus::kBadPackage);

  ASSERT_EQ(rig.handler.applied_units().size(), 1u);
  EXPECT_EQ(rig.handler.applied_units()[0].id, "BASE");
  ASSERT_EQ(rig.handler.installed().size(), 1u);
  auto live = rig.m.mem().read_bytes(entry, 5, machine::AccessMode::smm());
  ASSERT_TRUE(live.is_ok());
  EXPECT_EQ(*live, Bytes(base_jmp.begin(), base_jmp.end()));

  const machine::AddrRange excluded[] = {
      {lay.smram_base, lay.smram_size},
      {lay.mem_rw_base(), lay.mem_rw_size},
      {lay.mem_w_base(), lay.mem_w_size},
  };
  auto diff =
      machine::first_difference(snapshot, rig.m.mem(), lay.mem_bytes, excluded);
  EXPECT_FALSE(diff) << "memory differs at 0x" << std::hex << diff->addr;
}

TEST(Lifecycle, BlockedRevertLeavesStateUntouched) {
  Rig r = boot_stack({kA, kB}, 0xB10C);
  ASSERT_NE(r.tb, nullptr);
  Bytes text_vuln = text_bytes(r.t());

  core::LifecycleOptions dep;
  dep.depends = {kA};
  expect_status(r.kshot().live_patch(kA), core::SmmStatus::kOk);
  expect_status(r.kshot().live_patch(kB, dep), core::SmmStatus::kOk);
  Bytes text1 = text_bytes(r.t());
  Bytes memx1 = memx_bytes(r.t());
  auto inv1 = r.kshot().query_applied();
  ASSERT_TRUE(inv1.is_ok());

  expect_status(r.kshot().revert_patch(kA), core::SmmStatus::kRevertBlocked);
  EXPECT_EQ(text_bytes(r.t()), text1);
  EXPECT_EQ(memx_bytes(r.t()), memx1);
  auto inv2 = r.kshot().query_applied();
  ASSERT_TRUE(inv2.is_ok());
  EXPECT_EQ(render(*inv1), render(*inv2));

  // Draining dependents-first unblocks the revert and restores the
  // vulnerable text exactly.
  expect_status(r.kshot().revert_patch(kB), core::SmmStatus::kOk);
  expect_status(r.kshot().revert_patch(kA), core::SmmStatus::kOk);
  EXPECT_EQ(text_bytes(r.t()), text_vuln);
}

TEST(Lifecycle, DrainOrderIndependence) {
  // Three independent sets reverted in two different out-of-order
  // sequences: both drains end on the same (pre-patch) kernel text and an
  // empty inventory.
  auto run = [](const std::vector<const char*>& order) {
    Rig r = boot_stack({kA, kB, kC}, 0xD7A1);
    EXPECT_NE(r.tb, nullptr);
    Bytes text_vuln = text_bytes(r.t());
    for (const char* id : {kA, kB, kC}) {
      expect_status(r.kshot().live_patch(id), core::SmmStatus::kOk);
    }
    for (const char* id : order) {
      expect_status(r.kshot().revert_patch(id), core::SmmStatus::kOk);
    }
    auto inv = r.kshot().query_applied();
    EXPECT_TRUE(inv.is_ok());
    EXPECT_TRUE(inv->units.empty());
    EXPECT_EQ(inv->memx_used, 0u);
    EXPECT_EQ(text_bytes(r.t()), text_vuln);
    return text_bytes(r.t());
  };
  Bytes first_to_last = run({kA, kB, kC});
  Bytes middle_out = run({kB, kC, kA});
  EXPECT_EQ(first_to_last, middle_out);
}

// ---- mem_X reclamation ---------------------------------------------------

TEST(Lifecycle, RevertedSlotIsReclaimedAndReused) {
  // C (the largest set) takes the first slot; after its revert +
  // reclaim_mem_x(), the enclave's allocator first-fits the next package
  // into the freed gap instead of bumping past A.
  Rig r = boot_stack({kA, kB, kC}, 0x5107);
  ASSERT_NE(r.tb, nullptr);
  const u64 memx_base = r.t().kernel().layout().mem_x_base();

  expect_status(r.kshot().live_patch(kC), core::SmmStatus::kOk);
  auto inv = r.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  ASSERT_EQ(inv->extents.size(), 1u);
  const auto [c_base, c_len] = inv->extents[0];
  EXPECT_EQ(c_base, memx_base);

  expect_status(r.kshot().live_patch(kA), core::SmmStatus::kOk);
  inv = r.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  ASSERT_EQ(inv->extents.size(), 2u);
  const auto [a_base, a_len] = inv->extents[1];
  EXPECT_GE(a_base, c_base + c_len);

  expect_status(r.kshot().revert_patch(kC), core::SmmStatus::kOk);
  inv = r.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  ASSERT_EQ(inv->extents.size(), 1u);
  EXPECT_EQ(inv->extents[0].first, a_base);

  ASSERT_TRUE(r.kshot().reclaim_mem_x().is_ok());
  expect_status(r.kshot().live_patch(kB), core::SmmStatus::kOk);
  inv = r.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  ASSERT_EQ(inv->extents.size(), 2u);
  // B's slot landed in C's old gap, below A.
  EXPECT_EQ(inv->extents[0].first, c_base);
  EXPECT_LT(inv->extents[0].first + inv->extents[0].second, a_base + 1);
  EXPECT_EQ(inv->extents[1].first, a_base);
}

// ---- In-place splicing ---------------------------------------------------

TEST(Lifecycle, SpliceAppliesInPlaceAndRevertsExactly) {
  auto c = testbed::make_splice_sweep_case(256);
  auto tb = testbed::Testbed::boot(c, {.seed = 0x59CE});
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  testbed::Testbed& t = **tb;
  Bytes text_vuln = text_bytes(t);
  Bytes memx_vuln = memx_bytes(t);
  EXPECT_TRUE(exploit_fires(t, c));

  core::LifecycleOptions lo;
  lo.allow_splice = true;
  auto rep = t.kshot().live_patch(c.id, lo);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_TRUE(rep->success);

  // The body went over the old function: one spliced member, zero mem_X
  // occupancy, and mem_X itself untouched (no staging residue).
  auto inv = t.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  ASSERT_EQ(inv->units.size(), 1u);
  EXPECT_EQ(inv->units[0].spliced, 1u);
  EXPECT_EQ(inv->memx_used, 0u);
  EXPECT_TRUE(inv->extents.empty());
  EXPECT_EQ(memx_bytes(t), memx_vuln);
  EXPECT_FALSE(exploit_fires(t, c));
  auto benign = t.run_syscall(c.syscall_nr, c.benign_args);
  ASSERT_TRUE(benign.is_ok());
  EXPECT_FALSE(benign->oops);

  // Revert restores the saved old body byte-for-byte.
  expect_status(t.kshot().revert_patch(c.id), core::SmmStatus::kOk);
  EXPECT_EQ(text_bytes(t), text_vuln);
  EXPECT_TRUE(exploit_fires(t, c));
}

TEST(Lifecycle, TamperedSpliceIsRepairedFromSmramCopy) {
  // A spliced body lives in kernel text, where a rootkit can rewrite it.
  // Introspection compares it with the SMRAM copy its record keeps, writes
  // that copy back, and counts and reports the repair.
  auto c = testbed::make_splice_sweep_case(256);
  auto tb = testbed::Testbed::boot(c, {.seed = 0x59CE});
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  testbed::Testbed& t = **tb;
  core::LifecycleOptions lo;
  lo.allow_splice = true;
  auto rep = t.kshot().live_patch(c.id, lo);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);

  const auto& installed = t.kshot().handler().installed();
  ASSERT_EQ(installed.size(), 1u);
  const core::InstalledPatch& p = installed[0];
  ASSERT_TRUE(p.spliced);
  const Bytes body(p.code().begin(), p.code().end());
  ASSERT_EQ(read_region(t, p.taddr, p.code_size), body);

  // Kernel-privileged tamper: flip one byte in the middle of the body.
  const u64 victim = p.taddr + p.code_size / 2;
  const auto mode = machine::AccessMode::normal();
  auto flipped = t.machine().mem().read_bytes(victim, 1, mode);
  ASSERT_TRUE(flipped.is_ok());
  (*flipped)[0] ^= 0xFF;
  ASSERT_TRUE(t.machine().mem().write(victim, *flipped, mode).is_ok());
  ASSERT_NE(read_region(t, p.taddr, p.code_size), body);
  (void)t.kshot().take_detections();
  const u64 repairs_before = t.kshot().handler().introspect_repairs();

  auto ir = t.kshot().introspect();
  ASSERT_TRUE(ir.is_ok()) << ir.status().to_string();
  EXPECT_EQ(ir->trampolines_reverted, 1u);
  EXPECT_EQ(read_region(t, p.taddr, p.code_size), body);
  EXPECT_EQ(t.kshot().handler().introspect_repairs(), repairs_before + 1);
  EXPECT_TRUE(t.kshot().take_detections().has(
      core::DetectionClass::kIntrospectionRepair));
  EXPECT_FALSE(exploit_fires(t, c));
}

TEST(Lifecycle, GrowingFixNeverSplices) {
  // The usual fix shape (bug() -> return -ERR) always grows the body past
  // the old footprint, so allow_splice must fall back to the trampoline
  // path — applied, not spliced, mem_X occupied.
  auto c = testbed::make_size_sweep_case(256);
  auto tb = testbed::Testbed::boot(c, {.seed = 0x6F00});
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  testbed::Testbed& t = **tb;

  core::LifecycleOptions lo;
  lo.allow_splice = true;
  auto rep = t.kshot().live_patch(c.id, lo);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_TRUE(rep->success);
  auto inv = t.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  ASSERT_EQ(inv->units.size(), 1u);
  EXPECT_EQ(inv->units[0].spliced, 0u);
  EXPECT_GT(inv->memx_used, 0u);
  EXPECT_FALSE(exploit_fires(t, c));
}

// ---- Fleet inventory probe -----------------------------------------------

TEST(FleetLifecycle, InventoryProbePassesOnHealthyFleet) {
  fleet::FleetOptions o;
  o.cve_id = kA;
  o.targets = 3;
  o.base_seed = 0x1A7E;
  o.verify_applied_inventory = true;
  fleet::FleetController fc(o);
  auto rep = fc.run_campaign();
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_EQ(rep->applied, 3u);
  EXPECT_EQ(rep->failed, 0u);
  EXPECT_EQ(rep->rolled_back, 0u);
}

TEST(FleetLifecycle, InventoryProbeCoversEveryBatchPart) {
  fleet::FleetOptions o;
  o.batch_cve_ids = {kA, kB};
  o.targets = 2;
  o.base_seed = 0xBA7C;
  o.verify_applied_inventory = true;
  fleet::FleetController fc(o);
  auto rep = fc.run_campaign();
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_EQ(rep->applied, 2u);
  EXPECT_EQ(rep->failed, 0u);
}

}  // namespace
}  // namespace kshot
