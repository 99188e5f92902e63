#include "baselines/kpatch_sim.hpp"

#include "common/byte_io.hpp"
#include "isa/reloc.hpp"

namespace kshot::baselines {

namespace {
// Modeled stop_machine cost: every online CPU spins until the patch is in
// place; we charge a quantum's worth of cycles per live thread.
constexpr u64 kStopMachineCyclesPerThread = 64 * 4;
}  // namespace

KpatchSim::KpatchSim(kernel::Kernel& k, kernel::Scheduler& sched)
    : kernel_(k), sched_(sched) {}

Result<BaselineReport> KpatchSim::apply(const patchtool::PatchSet& set) {
  auto& m = kernel_.machine();
  const auto& lay = kernel_.layout();
  const auto mode = machine::AccessMode::normal();  // kernel privilege

  BaselineReport rep;
  rep.id = set.id;
  rep.tcb_bytes = kernel_.image().text.size() + 32 * 1024;  // kernel + kpatch
  u64 cycles_before = m.cycles();

  // stop_machine: pause everything, then the activeness check — no thread
  // may be suspended inside a function we are about to redirect.
  m.charge_cycles(kStopMachineCyclesPerThread * sched_.thread_count());
  for (const auto& p : set.patches) {
    if (p.taddr == 0) continue;
    const kcc::Symbol* sym = kernel_.image().symbol_at(p.taddr);
    u64 hi = sym ? sym->addr + sym->size : p.taddr + p.ftrace_off + 5;
    if (sched_.any_thread_in_range(p.taddr, hi)) {
      rep.detail = "activeness check failed: thread inside " + p.name;
      rep.downtime_cycles = m.cycles() - cycles_before;
      return rep;
    }
  }

  // Lay the replacement functions out in the module area and fix up their
  // external branches (kpatch links its patch module in-kernel).
  struct Placed {
    const patchtool::FunctionPatch* p;
    u64 addr;
    Bytes code;
  };
  std::vector<Placed> placed;
  u64 base = lay.module_base;
  u64 cursor = module_cursor_;
  for (const auto& p : set.patches) {
    u64 aligned = (cursor + 15) & ~u64{15};
    if (aligned + p.code.size() > lay.module_size) {
      rep.detail = "module area exhausted";
      return rep;
    }
    placed.push_back({&p, base + aligned, p.code});
    cursor = aligned + p.code.size();
  }
  for (auto& pl : placed) {
    for (const auto& rel : pl.p->relocs) {
      u64 target;
      if (rel.patch_index >= 0) {
        const auto& callee = placed[static_cast<size_t>(rel.patch_index)];
        target = callee.addr + callee.p->ftrace_off;
      } else {
        target = rel.target;
      }
      isa::retarget_rel32(MutByteSpan(pl.code), rel.offset, pl.addr, target);
    }
  }

  // Global edits, then code writes (all with plain kernel privilege).
  for (const auto& p : set.patches) {
    for (const auto& v : p.var_edits) {
      Status st = m.mem().write_u64(v.addr, v.value, mode);
      if (!st.is_ok()) {
        rep.detail = "var edit failed: " + st.message();
        return rep;
      }
    }
  }

  last_applied_.clear();
  for (auto& pl : placed) {
    // The hijackable write path: a rootkit hook sees (and may corrupt) the
    // patch bytes before they reach memory — kpatch has no way to notice.
    Bytes code = pl.code;
    if (hook_) hook_(code);
    Status st = m.mem().write(pl.addr, code, mode);
    if (!st.is_ok()) {
      rep.detail = "module write failed: " + st.message();
      return rep;
    }

    if (pl.p->taddr != 0) {
      Applied a;
      a.taddr = pl.p->taddr;
      a.ftrace_off = pl.p->ftrace_off;
      u64 jmp_addr = a.taddr + a.ftrace_off;
      st = m.mem().read(jmp_addr, MutByteSpan(a.original.data(), 5), mode);
      if (!st.is_ok()) {
        rep.detail = "entry capture failed: " + st.message();
        return rep;
      }

      Bytes jmp(5);
      jmp[0] = 0xE9;
      i64 disp = static_cast<i64>(pl.addr + pl.p->ftrace_off) -
                 static_cast<i64>(jmp_addr + 5);
      store_u32(jmp.data() + 1, static_cast<u32>(static_cast<i32>(disp)));
      if (hook_) hook_(jmp);  // the trampoline write is hijackable too
      st = m.mem().write(jmp_addr, jmp, mode);
      if (!st.is_ok()) {
        rep.detail = "trampoline write failed: " + st.message();
        return rep;
      }
      last_applied_.push_back(a);
    }
    m.charge_cycles(code.size() * 2);  // in-kernel memcpy cost
  }

  rep.memory_overhead_bytes = cursor - module_cursor_;
  module_cursor_ = cursor;
  rep.success = true;
  rep.downtime_cycles = m.cycles() - cycles_before;
  return rep;
}

Status KpatchSim::revert_last() {
  const auto mode = machine::AccessMode::normal();
  if (last_applied_.empty()) {
    return {Errc::kFailedPrecondition, "nothing to revert"};
  }
  for (auto it = last_applied_.rbegin(); it != last_applied_.rend(); ++it) {
    KSHOT_RETURN_IF_ERROR(kernel_.machine().mem().write(
        it->taddr + it->ftrace_off, ByteSpan(it->original.data(), 5), mode));
  }
  last_applied_.clear();
  return Status::ok();
}

}  // namespace kshot::baselines
