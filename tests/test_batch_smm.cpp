// Batched SMM sessions (one seal->stage->apply SMI pair installing N
// packages as N rollback units) and repeatable patch preparation, plus the
// bench-regression goldens that gate both: the modeled
// numbers in every gated BENCH_*.json must be byte-identical across worker
// counts and must not regress against the checked-in baseline.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "benchkit/benchkit.hpp"
#include "core/kshot.hpp"
#include "core/mailbox.hpp"
#include "core/smm_handler.hpp"
#include "crypto/aead.hpp"
#include "cve/suite.hpp"
#include "kcc/compiler.hpp"
#include "patchtool/package.hpp"
#include "smm_rig.hpp"
#include "testbed/testbed.hpp"

namespace kshot {
namespace {

using core::SmmCommand;
using core::SmmStatus;

/// sim-4.4 cases with pairwise-distinct functions — safe to merge into one
/// kernel and ship as one batched session (same set the bench uses).
const std::vector<std::string> kBatchIds = {
    "CVE-2016-2543", "CVE-2016-4578", "CVE-2016-4580", "CVE-2016-5829",
    "CVE-2016-7916"};

std::vector<std::string> first_ids(size_t k) {
  return {kBatchIds.begin(), kBatchIds.begin() + static_cast<long>(k)};
}

/// Boots the merged all-vulnerable kernel for the first `k` batchable CVEs,
/// announces each part's patch to the server, and wires each part's
/// syscall, so per-CVE exploits can be fired before/after the batch.
struct BatchDeployment {
  std::vector<cve::CveCase> parts;
  std::unique_ptr<testbed::Testbed> tb;

  static BatchDeployment boot(size_t k, testbed::TestbedOptions topts = {}) {
    BatchDeployment d;
    auto ids = first_ids(k);
    auto batch = cve::combine_cases(ids);
    EXPECT_TRUE(batch.is_ok()) << batch.status().to_string();
    auto parts = cve::batch_part_cases(ids);
    EXPECT_TRUE(parts.is_ok()) << parts.status().to_string();
    if (!batch.is_ok() || !parts.is_ok()) return d;
    d.parts = std::move(*parts);
    auto tb = testbed::Testbed::boot(batch->merged, std::move(topts));
    EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
    if (!tb.is_ok()) return d;
    d.tb = std::move(*tb);
    for (const auto& p : d.parts) {
      d.tb->server().add_patch({p.id, p.kernel, p.pre_source, p.post_source});
      EXPECT_TRUE(d.tb->kernel()
                      .register_syscall(p.syscall_nr, p.entry_function)
                      .is_ok());
    }
    return d;
  }

  /// True iff the part's exploit still oopses the kernel.
  bool exploit_fires(const cve::CveCase& p) {
    auto e = tb->run_syscall(p.syscall_nr, p.exploit_args);
    EXPECT_TRUE(e.is_ok()) << p.id;
    return e.is_ok() && e->oops;
  }
};

// ---- Batched sessions --------------------------------------------------------

TEST(BatchSession, FivePackagesOneSessionBeatsSequential) {
  auto batched = BatchDeployment::boot(5);
  ASSERT_TRUE(batched.tb);
  for (const auto& p : batched.parts) {
    EXPECT_TRUE(batched.exploit_fires(p)) << p.id << " not vulnerable pre";
  }

  auto rep = batched.tb->kshot().live_patch_batch(first_ids(5));
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success) << core::smm_status_name(rep->smm_status);
  u64 batch_smis = batched.tb->machine().smi_count();
  EXPECT_EQ(batch_smis, 2u);  // one session: begin + apply
  EXPECT_EQ(batched.tb->kshot().handler().installed().size() >= 5, true);
  for (const auto& p : batched.parts) {
    EXPECT_FALSE(batched.exploit_fires(p)) << p.id << " survived batch";
    auto b = batched.tb->run_syscall(p.syscall_nr, p.benign_args);
    ASSERT_TRUE(b.is_ok());
    EXPECT_FALSE(b->oops) << p.id << " benign path broken";
  }

  // Sequential leg on an identical deployment: five full sessions.
  auto seq = BatchDeployment::boot(5);
  ASSERT_TRUE(seq.tb);
  u64 seq_downtime = 0;
  for (const auto& id : first_ids(5)) {
    auto r = seq.tb->kshot().live_patch(id);
    ASSERT_TRUE(r.is_ok()) << id;
    ASSERT_TRUE(r->success) << id;
    seq_downtime += r->downtime_cycles;
  }
  EXPECT_EQ(seq.tb->machine().smi_count(), 10u);
  // The acceptance bar: the batch pays one SMI entry/exit and one keygen,
  // so its modeled downtime must be *strictly* lower.
  EXPECT_LT(rep->downtime_cycles, seq_downtime);
}

TEST(BatchSession, MidBatchFailureLeavesMemoryByteIdentical) {
  // Handler-level rig (the MaliciousPackage protocol): stage a batch whose
  // third package fails digest verification. The two valid packages in
  // front must not leave a single byte behind.
  kernel::MemoryLayout lay;
  lay.mem_bytes = 0x20'0000;
  lay.smram_base = 0xA0000;
  lay.smram_size = 0x20000;
  lay.text_base = 0x10'0000;
  lay.text_max = 0x2'0000;
  lay.data_base = 0x14'0000;
  lay.data_max = 0x8000;
  lay.stacks_base = 0x14'8000;
  lay.stack_size = 0x1000;
  lay.max_threads = 4;
  lay.module_base = 0x15'0000;
  lay.module_size = 0x8000;
  lay.reserved_base = 0x16'0000;
  lay.mem_rw_size = 0x1000;
  lay.mem_w_size = 0x1'0000;
  lay.mem_x_size = 0x2'0000;
  lay.epc_base = 0x1A'0000;
  lay.epc_size = 0x1'0000;

  machine::Machine m(lay.mem_bytes, lay.smram_base, lay.smram_size, 0x7E57);
  core::SmmPatchHandler handler(lay, 0x7E57);
  ASSERT_TRUE(m.set_smm_handler([&handler](machine::Machine& mm) {
                 handler.on_smi(mm);
               }).is_ok());

  auto make_pkg = [&](u64 taddr, u64 paddr) {
    patchtool::PatchSet s;
    s.id = "B";
    s.kernel_version = "sim-4.4";
    patchtool::FunctionPatch p;
    p.name = "fn";
    p.taddr = taddr;
    p.paddr = paddr;
    p.ftrace_off = 5;
    p.code = Bytes(32, 0x90);
    s.patches.push_back(std::move(p));
    return patchtool::serialize_patchset_raw(s);
  };
  Bytes bad = make_pkg(lay.text_base + 0x180, lay.mem_x_base() + 0x800);
  bad[12] ^= 0xFF;  // corrupt the set digest
  Bytes wire = patchtool::serialize_batch(
      {make_pkg(lay.text_base + 0x40, lay.mem_x_base()),
       make_pkg(lay.text_base + 0x100, lay.mem_x_base() + 0x400),
       std::move(bad)});

  const auto mode = machine::AccessMode::normal();
  core::Mailbox mbox(m.mem(), lay.mem_rw_base(), mode);
  ASSERT_TRUE(mbox.write_command(SmmCommand::kBeginSession).is_ok());
  m.trigger_smi();
  auto smm_pub = mbox.read_smm_pub();
  ASSERT_TRUE(smm_pub.is_ok());
  Rng rng(0xBAD5EED);
  auto keys = crypto::dh_generate(rng);
  auto shared = crypto::dh_shared(keys.private_key, *smm_pub);
  auto key =
      crypto::derive_key(ByteSpan(shared.data(), shared.size()), "sgx-smm");
  crypto::Nonce96 nonce{};
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  Bytes sealed = crypto::seal(key, nonce, wire).serialize();
  ASSERT_TRUE(m.mem().write(lay.mem_w_base(), sealed, mode).is_ok());
  ASSERT_TRUE(mbox.write_enclave_pub(keys.public_key).is_ok());
  ASSERT_TRUE(mbox.write_staged_size(sealed.size()).is_ok());

  const machine::PhysMem snapshot = m.mem().fork();

  ASSERT_TRUE(mbox.write_command(SmmCommand::kApplyBatch).is_ok());
  m.trigger_smi();
  auto st = mbox.read_status();
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(*st, SmmStatus::kDigestFailure);
  EXPECT_TRUE(handler.installed().empty());

  const machine::AddrRange excluded[] = {
      {lay.smram_base, lay.smram_size},
      {lay.mem_rw_base(), lay.mem_rw_size},
  };
  auto diff = machine::first_difference(snapshot, m.mem(), lay.mem_bytes,
                                        excluded);
  EXPECT_FALSE(diff) << "memory differs at 0x" << std::hex << diff->addr;
}

/// One inner package of a handler-level batch.
Bytes batch_member(const char* id,
                   std::vector<patchtool::FunctionPatch> patches) {
  patchtool::PatchSet s;
  s.id = id;
  s.kernel_version = "sim-4.4";
  s.patches = std::move(patches);
  return patchtool::serialize_patchset_raw(s);
}

/// Every byte outside SMRAM, the mailbox and the staged envelope.
std::optional<machine::MemDifference> outside_reserved_diff(
    const test::SmmRig& rig, const machine::PhysMem& before) {
  const machine::AddrRange excluded[] = {
      {rig.lay.smram_base, rig.lay.smram_size},
      {rig.lay.mem_rw_base(), rig.lay.mem_rw_size},
      {rig.lay.mem_w_base(), rig.lay.mem_w_size},
  };
  return machine::first_difference(before, rig.m.mem(), rig.lay.mem_bytes,
                                   excluded);
}

TEST(BatchSession, MemberWriteFailureUnwindsEarlierMembers) {
  // Member A applies in full (var edit, mem_X body, trampoline); member B
  // passes validation but its entry lies past physical memory, so its text
  // write fails. The batch must then undo A's writes too — all of them, not
  // only its trampoline.
  kernel::MemoryLayout lay;
  lay.text_max = lay.mem_bytes;  // text window reaches past the RAM
  test::SmmRig rig(lay);
  const auto mode = machine::AccessMode::normal();
  const u64 var = lay.data_base + 0x20;
  ASSERT_TRUE(rig.m.mem().write_u64(var, 0x11, mode).is_ok());

  auto a = test::make_entry("a", lay.text_base + 0x40, lay.mem_x_base());
  a.var_edits.push_back({var, 0xAA, patchtool::VarEdit::Kind::kSet});
  auto b = test::make_entry("b", lay.mem_bytes, lay.mem_x_base() + 0x1000);
  Bytes wire = patchtool::serialize_batch(
      {batch_member("A", {std::move(a)}), batch_member("B", {std::move(b)})});

  // deliver() stages the envelope and fires the apply SMI in one call, so
  // the baseline is taken just before it; mem_W (the staged envelope) is
  // excluded along with SMRAM and the mailbox.
  const machine::PhysMem snapshot = rig.m.mem().fork();
  EXPECT_EQ(rig.deliver(wire, SmmCommand::kApplyBatch),
            SmmStatus::kBadPackage);
  EXPECT_TRUE(rig.handler.installed().empty());
  EXPECT_TRUE(rig.handler.applied_units().empty());
  // An unwound batch applied nothing, so it counts nothing either.
  EXPECT_EQ(rig.handler.patches_applied(), 0u);
  EXPECT_EQ(rig.metrics.counter("smm.staged_copies").value(), 0u);
  auto diff = outside_reserved_diff(rig, snapshot);
  EXPECT_FALSE(diff) << "memory differs at 0x" << std::hex << diff->addr
                     << " expected 0x" << +diff->a << " got 0x" << +diff->b;
}

TEST(BatchSession, UnwindKeepsUnitsAppliedBeforeTheBatch) {
  // An empty member installs nothing and pushes no unit. An unwind that
  // pops one unit per member applied so far would, after an empty member,
  // pop a unit committed before the batch and revert its trampoline.
  kernel::MemoryLayout lay;
  lay.text_max = lay.mem_bytes;  // text window reaches past the RAM
  test::SmmRig rig(lay);
  const u64 entry = lay.text_base + 0x40;
  ASSERT_EQ(rig.deliver(batch_member(
                "GOOD", {test::make_entry("fn", entry, lay.mem_x_base())})),
            SmmStatus::kOk);
  ASSERT_EQ(rig.handler.installed().size(), 1u);
  const std::array<u8, 5> jmp = rig.handler.installed()[0].trampoline;

  Bytes wire = patchtool::serialize_batch(
      {batch_member("EMPTY", {}),
       batch_member("B", {test::make_entry("b", lay.mem_bytes,
                                           lay.mem_x_base() + 0x1000)})});
  const machine::PhysMem snapshot = rig.m.mem().fork();
  EXPECT_EQ(rig.deliver(wire, SmmCommand::kApplyBatch),
            SmmStatus::kBadPackage);

  ASSERT_EQ(rig.handler.applied_units().size(), 1u);
  EXPECT_EQ(rig.handler.applied_units()[0].id, "GOOD");
  EXPECT_EQ(rig.handler.installed().size(), 1u);
  auto live = rig.m.mem().read_bytes(entry, 5, machine::AccessMode::smm());
  ASSERT_TRUE(live.is_ok());
  EXPECT_EQ(*live, Bytes(jmp.begin(), jmp.end()));
  auto diff = outside_reserved_diff(rig, snapshot);
  EXPECT_FALSE(diff) << "memory differs at 0x" << std::hex << diff->addr;
}

TEST(BatchSession, RollbackPeelsUnitsInReverseOrder) {
  auto d = BatchDeployment::boot(3);
  ASSERT_TRUE(d.tb);
  auto rep = d.tb->kshot().live_patch_batch(first_ids(3));
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);
  for (const auto& p : d.parts) EXPECT_FALSE(d.exploit_fires(p)) << p.id;

  // Units pop in reverse batch order: each rollback resurrects exactly the
  // most recently installed part's vulnerability.
  for (size_t step = 0; step < d.parts.size(); ++step) {
    auto rb = d.tb->kshot().rollback();
    ASSERT_TRUE(rb.is_ok()) << rb.status().to_string();
    EXPECT_EQ(rb->smm_status, SmmStatus::kOk) << "step " << step;
    size_t alive_from = d.parts.size() - 1 - step;
    for (size_t i = 0; i < d.parts.size(); ++i) {
      bool fires = d.exploit_fires(d.parts[i]);
      EXPECT_EQ(fires, i >= alive_from)
          << d.parts[i].id << " after rollback step " << step;
    }
  }
  EXPECT_TRUE(d.tb->kshot().handler().installed().empty());
  auto rb = d.tb->kshot().rollback();
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(rb->smm_status, SmmStatus::kNothingToRollback);
}

TEST(BatchSession, IntrospectionSweepCoversEveryTrampoline) {
  auto d = BatchDeployment::boot(3);
  ASSERT_TRUE(d.tb);
  auto rep = d.tb->kshot().live_patch_batch(first_ids(3));
  ASSERT_TRUE(rep.is_ok());
  ASSERT_TRUE(rep->success);
  size_t installed = d.tb->kshot().handler().installed().size();
  EXPECT_GE(installed, 3u);

  auto sweep = d.tb->kshot().introspect();
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  EXPECT_EQ(sweep->patches_checked, installed);
  EXPECT_TRUE(sweep->clean());
}

// ---- Patch preparation ------------------------------------------------------

TEST(PatchPrep, WarmBuildByteIdenticalToCold) {
  // Server A builds part[1] cold; server B builds part[0] first (the two
  // parts share the entire merged pre-image), then part[1]. Same bytes.
  auto d = BatchDeployment::boot(2);
  ASSERT_TRUE(d.tb);
  kernel::OsInfo os = d.tb->kernel().os_info();

  auto build = [&](netsim::PatchServer& srv, const std::string& id) {
    auto set = srv.build_patchset(id, os);
    EXPECT_TRUE(set.is_ok()) << set.status().to_string();
    return set.is_ok() ? patchtool::serialize_patchset_raw(*set) : Bytes{};
  };

  netsim::PatchServer cold(nullptr, 0xA11CE);
  netsim::PatchServer warm(nullptr, 0xB0B);
  for (const auto& p : d.parts) {
    cold.add_patch({p.id, p.kernel, p.pre_source, p.post_source});
    warm.add_patch({p.id, p.kernel, p.pre_source, p.post_source});
  }

  Bytes from_cold = build(cold, d.parts[1].id);
  Bytes warmup = build(warm, d.parts[0].id);
  Bytes from_warm = build(warm, d.parts[1].id);

  ASSERT_FALSE(from_cold.empty());
  EXPECT_EQ(from_cold, from_warm);
}

TEST(PatchSetCache, SingleFlightUnderConcurrentFetches) {
  auto d = BatchDeployment::boot(1);
  ASSERT_TRUE(d.tb);
  kernel::OsInfo os = d.tb->kernel().os_info();
  netsim::PatchServer server(nullptr, 0x5EED);
  const auto& p = d.parts[0];
  server.add_patch({p.id, p.kernel, p.pre_source, p.post_source});

  constexpr int kThreads = 8;
  std::vector<Bytes> wires(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] {
      auto set = server.build_patchset(p.id, os);
      if (set.is_ok()) wires[static_cast<size_t>(i)] =
          patchtool::serialize_patchset_raw(*set);
    });
  }
  for (auto& t : pool) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_FALSE(wires[static_cast<size_t>(i)].empty()) << "thread " << i;
    EXPECT_EQ(wires[static_cast<size_t>(i)], wires[0]);
  }
  auto stats = server.cache_stats();
  EXPECT_EQ(stats.patchset_misses, 1u);
  EXPECT_EQ(stats.patchset_hits, static_cast<u64>(kThreads - 1));
}

/// The enclave's current processed package: sealed to a test-held SMM key
/// and opened again.
Bytes processed_package(core::KshotEnclave& enclave) {
  Rng rng(0x5EA1);
  crypto::DhKeyPair smm = crypto::dh_generate(rng);
  auto sealed = enclave.seal_for_smm(smm.public_key);
  EXPECT_TRUE(sealed.is_ok()) << sealed.status().to_string();
  if (!sealed.is_ok()) return {};
  crypto::X25519Key enclave_pub;
  std::copy(sealed->begin(), sealed->begin() + 32, enclave_pub.begin());
  crypto::X25519Key shared = crypto::dh_shared(smm.private_key, enclave_pub);
  crypto::Key256 key =
      crypto::derive_key(ByteSpan(shared.data(), shared.size()), "sgx-smm");
  auto box =
      crypto::SealedBoxView::deserialize(MutByteSpan(*sealed).subspan(32));
  EXPECT_TRUE(box.is_ok()) << box.status().to_string();
  if (!box.is_ok()) return {};
  auto plain = crypto::open_in_place(key, *box);
  EXPECT_TRUE(plain.is_ok()) << plain.status().to_string();
  return plain.is_ok() ? Bytes(plain->begin(), plain->end()) : Bytes{};
}

/// The installed bodies as the kernel sees them (mem_X, or the text a
/// splice overwrote), in install order.
std::vector<Bytes> installed_bodies(testbed::Testbed& tb) {
  std::vector<Bytes> out;
  for (const auto& inst : tb.kshot().handler().installed()) {
    auto body = tb.machine().mem().read_bytes(
        inst.spliced ? inst.taddr : inst.paddr, inst.code_size,
        machine::AccessMode::smm());
    EXPECT_TRUE(body.is_ok()) << body.status().to_string();
    out.push_back(body.is_ok() ? std::move(*body) : Bytes{});
  }
  return out;
}

TEST(PatchPrep, EnclaveRetargetIsDeterministicOnRepatch) {
  // Re-patching the same id at the same mem_X placement retargets the same
  // relocations again: the processed package and the installed bodies come
  // out byte-identical.
  auto d = BatchDeployment::boot(1);
  ASSERT_TRUE(d.tb);
  const std::string id = d.parts[0].id;

  auto rep = d.tb->kshot().live_patch(id);
  ASSERT_TRUE(rep.is_ok());
  ASSERT_TRUE(rep->success);
  std::vector<Bytes> bodies = installed_bodies(*d.tb);
  Bytes package = processed_package(d.tb->kshot().enclave());
  ASSERT_FALSE(bodies.empty());
  ASSERT_FALSE(package.empty());

  auto rb = d.tb->kshot().rollback();
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(rb->smm_status, SmmStatus::kOk);

  d.tb->kshot().enclave().reset_mem_x_cursor();
  auto rep2 = d.tb->kshot().live_patch(id);
  ASSERT_TRUE(rep2.is_ok());
  ASSERT_TRUE(rep2->success);
  EXPECT_EQ(installed_bodies(*d.tb), bodies);
  EXPECT_EQ(processed_package(d.tb->kshot().enclave()), package);
}

// ---- Bench goldens + gate ----------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string golden(const std::string& file) {
  return read_file(std::string(KSHOT_CORPUS_DIR) + "/bench/" + file);
}

TEST(BenchGolden, ModeledTablesByteIdenticalAcrossJobs) {
  benchkit::BenchOptions o1;
  o1.quick = true;
  o1.jobs = 1;
  benchkit::BenchOptions o8 = o1;
  o8.jobs = 8;
  auto r1 = benchkit::run_bench(o1);
  auto r8 = benchkit::run_bench(o8);
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  ASSERT_TRUE(r8.is_ok()) << r8.status().to_string();
  ASSERT_EQ(r1->size(), r8->size());

  size_t gated = 0;
  for (size_t i = 0; i < r1->size(); ++i) {
    const benchkit::BenchDoc& d = (*r1)[i];
    EXPECT_EQ(d.file, (*r8)[i].file);
    if (!d.gated) continue;
    ++gated;
    // Worker count must never leak into the modeled documents...
    EXPECT_EQ(d.body, (*r8)[i].body) << d.file;
    // ...and the checked-in goldens are exactly this seed's output.
    EXPECT_EQ(d.body, golden(d.file)) << d.file;
  }
  EXPECT_EQ(gated, 3u);  // table3, batch, paper
}

TEST(BenchGate, PassesOnBaselineAndFailsOnInflatedCosts) {
  // A 10% modeled-cost inflation must trip the 2% gate on every document,
  // while each baseline passes against itself.
  benchkit::BenchOptions inflated;
  inflated.quick = true;
  inflated.jobs = 8;
  inflated.cost_scale = 1.10;
  auto res = benchkit::run_bench(inflated);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  for (const benchkit::BenchDoc& d : *res) {
    if (!d.gated) continue;
    const std::string base = golden(d.file);
    ASSERT_FALSE(base.empty()) << d.file;
    auto self = benchkit::gate_compare(base, base, 0.02);
    ASSERT_TRUE(self.is_ok()) << self.status().to_string();
    EXPECT_TRUE(self->ok()) << d.file << ": " << self->to_string();
    auto gate = benchkit::gate_compare(base, d.body, 0.02);
    ASSERT_TRUE(gate.is_ok()) << gate.status().to_string();
    EXPECT_FALSE(gate->ok()) << d.file;
    EXPECT_FALSE(gate->regressions.empty()) << d.file;
  }

  // Missing keys are failures too, not silent passes.
  auto missing =
      benchkit::gate_compare(golden("BENCH_table3.json"), "{}", 0.02);
  ASSERT_TRUE(missing.is_ok());
  EXPECT_FALSE(missing->ok());
  EXPECT_FALSE(missing->missing_keys.empty());
}

/// Leaf `key` of the row named `name` in the bench document `doc`, whose
/// flattened form is `flat`. Every row carries exactly one "name", in row
/// order, so the k-th name belongs to rows[k].
double leaf(const std::string& doc, const std::map<std::string, double>& flat,
            const std::string& name, const std::string& key) {
  const std::string tag = "\"name\": ";
  const size_t at = doc.find(tag + "\"" + name + "\"");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no row " << name;
    return -1;
  }
  size_t k = 0;
  for (size_t p = doc.find(tag); p < at; p = doc.find(tag, p + 1)) ++k;
  auto it = flat.find("rows[" + std::to_string(k) + "]." + key);
  if (it == flat.end()) {
    ADD_FAILURE() << "no leaf " << name << "." << key;
    return -1;
  }
  return it->second;
}

TEST(BenchGolden, PaperDocumentPinsTheEvaluationChecks) {
  // The checks the paper's evaluation rests on, read back from the quick
  // paper document (the test above pins it to this seed's output).
  const std::string doc = golden("BENCH_paper.json");
  auto flat = benchkit::flatten_json(doc);
  ASSERT_TRUE(flat.is_ok()) << flat.status().to_string();

  // Table I: 31 rows, every exploit dead and benign behaviour unchanged.
  size_t t1_rows = 0;
  for (size_t p = doc.find("\"t1-"); p != std::string::npos;
       p = doc.find("\"t1-", p + 1)) {
    ++t1_rows;
  }
  EXPECT_EQ(t1_rows, 31u);
  ASSERT_EQ(cve::all_cases().size(), 31u);
  for (const auto& c : cve::all_cases()) {
    EXPECT_EQ(leaf(doc, *flat, "t1-" + c.id, "exploit_fired"), 1) << c.id;
    EXPECT_EQ(leaf(doc, *flat, "t1-" + c.id, "exploit_dead"), 1) << c.id;
    EXPECT_EQ(leaf(doc, *flat, "t1-" + c.id, "benign_same"), 1) << c.id;
  }

  // Table IV: the reversion rootkit reverts kpatch and not KShot.
  EXPECT_EQ(leaf(doc, *flat, "t4-rootkit-kshot", "exploit_dead"), 1);
  EXPECT_EQ(leaf(doc, *flat, "t4-rootkit-kpatch", "exploit_dead"), 0);

  // §VI-C3: live patching under the Sysbench workload never oopses it.
  EXPECT_GT(leaf(doc, *flat, "sysbench", "patches"), 0);
  EXPECT_EQ(leaf(doc, *flat, "sysbench", "oopses"), 0);

  // A3: a package larger than mem_W crosses it only in chunks.
  EXPECT_GT(leaf(doc, *flat, "a3-over-mem-w", "package_bytes"),
            leaf(doc, *flat, "a3-over-mem-w", "staging_window_bytes"));
  EXPECT_EQ(leaf(doc, *flat, "a3-over-mem-w", "single_delivered"), 0);
  EXPECT_EQ(leaf(doc, *flat, "a3-over-mem-w", "chunked_delivered"), 1);
}

TEST(BenchGate, WallSidecarsWarnSoftlyAndNeverFail) {
  // Wall time is real and noisy, so the sidecar gate is soft: a >10%
  // regression lands in warnings with a distinct message, but ok() — and
  // therefore the build — is untouched.
  const std::string baseline = R"({"rows": [{"name": "a", "wall_us": 100.0},
                                            {"name": "b", "wall_us": 50.0}]})";
  const std::string slower = R"({"rows": [{"name": "a", "wall_us": 150.0},
                                          {"name": "b", "wall_us": 51.0}]})";
  auto gate = benchkit::wall_compare(baseline, slower, 0.10);
  ASSERT_TRUE(gate.is_ok()) << gate.status().to_string();
  ASSERT_EQ(gate->warnings.size(), 1u);  // only the 50% jump, not the 2%
  EXPECT_TRUE(gate->regressions.empty());
  EXPECT_TRUE(gate->ok()) << "wall warnings must not fail the gate";
  EXPECT_NE(gate->to_string().find("WALL WARNING"), std::string::npos);

  // Within tolerance (and improvements): silent pass.
  auto clean = benchkit::wall_compare(baseline, baseline, 0.10);
  ASSERT_TRUE(clean.is_ok());
  EXPECT_TRUE(clean->warnings.empty());

  // A key that vanished from the sidecar warns instead of failing.
  const std::string partial = R"({"rows": [{"name": "a", "wall_us": 100.0}]})";
  auto sparse = benchkit::wall_compare(baseline, partial, 0.10);
  ASSERT_TRUE(sparse.is_ok());
  EXPECT_FALSE(sparse->warnings.empty());
  EXPECT_TRUE(sparse->ok());
  EXPECT_TRUE(sparse->missing_keys.empty());

  // And the modeled-cost hard gate is unchanged by all of this: the same
  // 50% jump through gate_compare is a real regression.
  auto hard = benchkit::gate_compare(baseline, slower, 0.10);
  ASSERT_TRUE(hard.is_ok());
  EXPECT_FALSE(hard->ok());
  EXPECT_FALSE(hard->regressions.empty());
}

TEST(BenchGate, WallCompareWarnsOnMissingKeyAndElevenPercent) {
  // One leaf gone and one leaf 11% over its baseline: both warn, neither
  // fails.
  const std::string baseline =
      R"({"rows": [{"name": "a", "prep_us": 10.0, "wall_us": 100.0}]})";
  const std::string current =
      R"({"rows": [{"name": "a", "wall_us": 111.0}]})";
  auto gate = benchkit::wall_compare(baseline, current, 0.10);
  ASSERT_TRUE(gate.is_ok()) << gate.status().to_string();
  ASSERT_EQ(gate->warnings.size(), 2u);
  EXPECT_EQ(gate->warnings[0].key, "rows[0].prep_us");  // missing
  EXPECT_EQ(gate->warnings[0].current, 0.0);
  EXPECT_EQ(gate->warnings[1].key, "rows[0].wall_us");  // +11%
  EXPECT_EQ(gate->warnings[1].current, 111.0);
  EXPECT_TRUE(gate->missing_keys.empty());
  EXPECT_TRUE(gate->regressions.empty());
  EXPECT_TRUE(gate->ok());
}

}  // namespace
}  // namespace kshot
