#include "baselines/karma_sim.hpp"

#include "isa/reloc.hpp"

namespace kshot::baselines {

KarmaSim::KarmaSim(kernel::Kernel& k, kernel::Scheduler& sched)
    : kernel_(k), sched_(sched) {}

Result<BaselineReport> KarmaSim::apply(const patchtool::PatchSet& set) {
  auto& m = kernel_.machine();
  const auto mode = machine::AccessMode::normal();

  BaselineReport rep;
  rep.id = set.id;
  rep.tcb_bytes = kernel_.image().text.size() + 16 * 1024;
  u64 cycles_before = m.cycles();

  // Feasibility: in-place only.
  for (const auto& p : set.patches) {
    if (p.taddr == 0) {
      rep.detail = "patch adds a new function (not in-place patchable)";
      return rep;
    }
    if (!p.var_edits.empty()) {
      rep.detail = "patch changes data structures / globals";
      return rep;
    }
    const kcc::Symbol* sym = kernel_.image().symbol_at(p.taddr);
    if (sym == nullptr || p.code.size() > sym->size) {
      rep.detail = "replacement larger than original function: " + p.name;
      return rep;
    }
  }

  for (const auto& p : set.patches) {
    const kcc::Symbol* sym = kernel_.image().symbol_at(p.taddr);
    if (sched_.any_thread_in_range(sym->addr, sym->addr + sym->size)) {
      rep.detail = "activeness check failed: thread inside " + p.name;
      rep.downtime_cycles = m.cycles() - cycles_before;
      return rep;
    }
  }

  for (const auto& p : set.patches) {
    // Fix up external branches for execution at taddr instead of mem_X.
    Bytes code = p.code;
    for (const auto& rel : p.relocs) {
      if (rel.patch_index >= 0) {
        // Intra-set call: the callee is also patched in place, so the call
        // target is simply the callee's original entry.
        const auto& callee = set.patches[static_cast<size_t>(rel.patch_index)];
        if (callee.taddr == 0) {
          rep.detail = "intra-set call to added function";
          return rep;
        }
        isa::retarget_rel32(MutByteSpan(code), rel.offset, p.taddr,
                            callee.taddr + callee.ftrace_off);
      } else {
        isa::retarget_rel32(MutByteSpan(code), rel.offset, p.taddr,
                            rel.target);
      }
    }
    Status st = m.mem().write(p.taddr, code, mode);
    if (!st.is_ok()) {
      rep.detail = "in-place write failed: " + st.message();
      return rep;
    }
    // Pad any leftover original bytes with nops so stale tail instructions
    // cannot be reached.
    const kcc::Symbol* sym = kernel_.image().symbol_at(p.taddr);
    if (code.size() < sym->size) {
      Bytes nops(sym->size - code.size(), 0x90);
      st = m.mem().write(p.taddr + code.size(), nops, mode);
      if (!st.is_ok()) {
        rep.detail = "nop padding write failed: " + st.message();
        return rep;
      }
    }
    m.charge_cycles(code.size() * 2);
  }

  rep.success = true;
  rep.downtime_cycles = m.cycles() - cycles_before;
  rep.memory_overhead_bytes = 0;  // in place
  return rep;
}

}  // namespace kshot::baselines
