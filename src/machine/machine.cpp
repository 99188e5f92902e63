#include "machine/machine.hpp"

#include <sstream>
#include <string_view>

#include "common/byte_io.hpp"
#include "common/check.hpp"
#include "common/log.hpp"

namespace kshot::machine {

namespace {

/// Bytes of the SMM save-state area: 16 registers, rip, flags, and one
/// spare word.
constexpr size_t kSaveStateBytes = 16 * 8 + 3 * 8;

/// The save-state area lies inside SMRAM, which SMM-mode access always
/// reaches; failing here means the machine was built with SMRAM outside
/// its memory.
void save_state_or_die(const Status& st) {
  KSHOT_CHECK(st.is_ok(), "SMM save-state access failed: " + st.to_string());
}

/// Writes a stop into `stop` and returns false (nothing more retires).
bool stop_with(StepResult& stop, StepKind kind, u64 info = 0,
               std::string_view detail = {}) {
  stop.kind = kind;
  stop.info = info;
  stop.detail.assign(detail);
  return false;
}

bool mem_fault(StepResult& stop, u64 addr, const AccessFault& f) {
  return stop_with(stop, StepKind::kMemFault, addr, f.message);
}

/// Lowercase name of a stop kind, e.g. "halt" or "memory fault".
const char* step_kind_name(StepKind kind) {
  switch (kind) {
    case StepKind::kOk: return "ok";
    case StepKind::kHalt: return "halt";
    case StepKind::kBreak: return "break";
    case StepKind::kOops: return "oops";
    case StepKind::kMemFault: return "memory fault";
    case StepKind::kBadInstr: return "bad instruction";
    case StepKind::kRetTop: return "return to sentinel";
  }
  return "?";
}

}  // namespace

std::string describe_stop(const StepResult& stop, u64 max_instrs, u64 rip) {
  std::ostringstream os;
  if (stop.kind == StepKind::kOk) {
    os << "instruction budget of " << max_instrs << " exhausted";
  } else {
    os << step_kind_name(stop.kind);
  }
  os << " at rip 0x" << std::hex << rip;
  if (!stop.detail.empty()) os << ": " << stop.detail;
  return os.str();
}

Machine::Machine(size_t mem_bytes, PhysAddr smram_base, size_t smram_size,
                 u64 entropy_seed)
    : mem_(mem_bytes),
      rng_(entropy_seed),
      jitter_rng_(entropy_seed ^ 0x9E3779B97F4A7C15ULL) {
  mem_.set_smram(smram_base, smram_size);
}

Status Machine::set_cpus(u32 n) {
  if (n == 0) return {Errc::kInvalidArgument, "cpu count must be >= 1"};
  if (in_smi_) return {Errc::kFailedPrecondition, "cannot hotplug inside SMM"};
  slots_.assign(n, CpuSlot{});
  return Status::ok();
}

void Machine::release_aps(u32 k) {
  if (!in_smi_ || serial_rendezvous_) return;
  const u32 aps = cpus() - 1;
  released_aps_ = released_aps_ + k < aps ? released_aps_ + k : aps;
}

u64 Machine::projected_resume_cycles() const {
  const u32 n = cpus();
  if (n == 1) return cost_.rsm_cycles;
  if (serial_rendezvous_) {
    // Naive model: every CPU pays a full RSM back to back.
    return static_cast<u64>(n) * cost_.rsm_cycles;
  }
  // Parallel: one RSM plus a per-AP wakeup for every AP still parked in SMM.
  // Early-released APs resumed under the handler's remaining work for free.
  return cost_.rsm_cycles +
         static_cast<u64>(n - 1 - released_aps_) * cost_.resume_cycles_per_cpu;
}

u64 Machine::rendezvous_cost() {
  const u32 n = cpus();
  if (n == 1) return cost_.smi_entry_cycles;  // legacy model, no RNG draw
  u64 jitter_max = 0;
  u64 jitter_sum = 0;
  for (u32 i = 1; i < n; ++i) {
    u64 j = jitter_rng_.next_below(cost_.rendezvous_jitter_max_cycles + 1);
    slots_[i].entry_latency_cycles = j;
    if (j > jitter_max) jitter_max = j;
    jitter_sum += j;
  }
  slots_[0].entry_latency_cycles = 0;
  const u64 ipi = static_cast<u64>(n - 1) * cost_.ipi_cycles_per_cpu;
  if (serial_rendezvous_) {
    // Every CPU pays a full SMI entry, one after another.
    return static_cast<u64>(n) * cost_.smi_entry_cycles + ipi + jitter_sum;
  }
  // All APs enter concurrently: the BSP waits for the slowest arrival.
  return cost_.smi_entry_cycles + ipi + jitter_max;
}

Status Machine::set_smm_handler(std::function<void(Machine&)> handler) {
  if (smram_locked_) {
    return {Errc::kPermissionDenied, "SMRAM is locked (D_LCK)"};
  }
  smm_handler_ = std::move(handler);
  return Status::ok();
}

void Machine::save_state_to_smram() {
  PhysAddr base = mem_.smram_base() + kSaveStateOffset;
  u8 p[kSaveStateBytes] = {};
  for (int i = 0; i < isa::kNumRegs; ++i) store_u64(p + 8 * i, cpu_.regs[i]);
  store_u64(p + 128, cpu_.rip);
  // regs already include the stack pointer (r15).
  store_u64(p + 144, (cpu_.zf ? 1u : 0u) | (cpu_.sf ? 2u : 0u));
  save_state_or_die(
      mem_.write(base, ByteSpan(p, sizeof(p)), AccessMode::smm()));
}

void Machine::restore_state_from_smram() {
  PhysAddr base = mem_.smram_base() + kSaveStateOffset;
  u8 p[kSaveStateBytes];
  save_state_or_die(
      mem_.read(base, MutByteSpan(p, sizeof(p)), AccessMode::smm()));
  for (int i = 0; i < isa::kNumRegs; ++i) cpu_.regs[i] = load_u64(p + 8 * i);
  cpu_.rip = load_u64(p + 128);

  u64 flags = load_u64(p + 144);
  cpu_.zf = flags & 1;
  cpu_.sf = flags & 2;
}

void Machine::trigger_smi() {
  if (pre_smi_hook_ && !in_pre_smi_hook_ && !in_smi_) {
    in_pre_smi_hook_ = true;
    pre_smi_hook_(*this);
    in_pre_smi_hook_ = false;
  }
  if (smi_blocked_) {
    ++suppressed_smis_;
    return;
  }
  if (smi_suppress_budget_ > 0) {
    --smi_suppress_budget_;
    ++suppressed_smis_;
    return;
  }
  KSHOT_CHECK(!in_smi_, "nested SMI not modeled");
  in_smi_ = true;
  ++smi_count_;
  released_aps_ = 0;
  for (auto& s : slots_) ++s.smi_count;

  u64 entered = cycles_;
  current_rendezvous_cycles_ = rendezvous_cost();
  charge_cycles(current_rendezvous_cycles_);
  save_state_to_smram();
  mode_ = CpuMode::kSmm;

  if (smm_handler_) {
    smm_handler_(*this);
  } else {
    KSHOT_LOG(kWarn, "machine") << "SMI with no handler installed";
  }

  // RSM: restore the architectural state the hardware saved.
  restore_state_from_smram();
  mode_ = CpuMode::kProtected;
  const u64 resume = projected_resume_cycles();
  charge_cycles(resume);

  smm_cycles_ += cycles_ - entered;
  rendezvous_cycles_total_ += current_rendezvous_cycles_;
  resume_cycles_total_ += resume;
  handler_cycles_total_ +=
      cycles_ - entered - current_rendezvous_cycles_ - resume;
  in_smi_ = false;
}

[[gnu::always_inline]] inline bool Machine::exec(const isa::Instr& in,
                                                 size_t len,
                                                 StepResult& stop) {
  using isa::Op;
  u64 next = cpu_.rip + len;
  auto& r = cpu_.regs;

  auto set_flags_cmp = [&](u64 a, u64 b) {
    cpu_.zf = a == b;
    cpu_.sf = static_cast<i64>(a) < static_cast<i64>(b);
  };

  switch (in.op) {
    case Op::kNop:
    case Op::kNop5:
      break;
    case Op::kHlt:
      cpu_.rip = next;
      return stop_with(stop, StepKind::kHalt);
    case Op::kInt3:
      cpu_.rip = next;
      return stop_with(stop, StepKind::kBreak);
    case Op::kUd2:
      return stop_with(stop, StepKind::kOops, 0, "ud2 (kernel BUG)");
    case Op::kTrap:
      return stop_with(stop, StepKind::kOops, static_cast<u64>(in.imm),
                       "software trap");

    case Op::kMov:
      r[in.a] = r[in.b];
      break;
    case Op::kMovi:
      r[in.a] = static_cast<u64>(in.imm);
      break;

    case Op::kAdd: r[in.a] += r[in.b]; break;
    case Op::kSub: r[in.a] -= r[in.b]; break;
    case Op::kMul: r[in.a] *= r[in.b]; break;
    case Op::kDiv:
      if (r[in.b] == 0) {
        return stop_with(stop, StepKind::kOops, 0, "divide by zero");
      }
      r[in.a] /= r[in.b];
      break;
    case Op::kMod:
      if (r[in.b] == 0) {
        return stop_with(stop, StepKind::kOops, 0, "mod by zero");
      }
      r[in.a] %= r[in.b];
      break;
    case Op::kXor: r[in.a] ^= r[in.b]; break;
    case Op::kAnd: r[in.a] &= r[in.b]; break;
    case Op::kOr: r[in.a] |= r[in.b]; break;
    case Op::kShl: r[in.a] <<= (r[in.b] & 63); break;
    case Op::kShr: r[in.a] >>= (r[in.b] & 63); break;

    case Op::kAddi: r[in.a] += static_cast<u64>(in.imm); break;
    case Op::kSubi: r[in.a] -= static_cast<u64>(in.imm); break;
    case Op::kMuli: r[in.a] *= static_cast<u64>(in.imm); break;
    case Op::kDivi:
      if (in.imm == 0) {
        return stop_with(stop, StepKind::kOops, 0, "divide by zero");
      }
      r[in.a] /= static_cast<u64>(in.imm);
      break;
    case Op::kModi:
      if (in.imm == 0) {
        return stop_with(stop, StepKind::kOops, 0, "mod by zero");
      }
      r[in.a] %= static_cast<u64>(in.imm);
      break;
    case Op::kXori: r[in.a] ^= static_cast<u64>(in.imm); break;
    case Op::kAndi: r[in.a] &= static_cast<u64>(in.imm); break;
    case Op::kOri: r[in.a] |= static_cast<u64>(in.imm); break;
    case Op::kShli: r[in.a] <<= (in.imm & 63); break;
    case Op::kShri: r[in.a] >>= (in.imm & 63); break;

    case Op::kLoadG: {
      const u64 addr = static_cast<u64>(in.imm);
      u64 v = 0;
      if (const AccessFault* f = mem_.load_word(addr, access_mode(), v)) {
        return mem_fault(stop, addr, *f);
      }
      r[in.a] = v;
      break;
    }
    case Op::kStoreG: {
      const u64 addr = static_cast<u64>(in.imm);
      if (const AccessFault* f =
              mem_.store_word(addr, r[in.a], access_mode())) {
        return mem_fault(stop, addr, *f);
      }
      break;
    }
    case Op::kLoadR: {
      const u64 addr = r[in.b] + static_cast<u64>(in.imm);
      u64 v = 0;
      if (const AccessFault* f = mem_.load_word(addr, access_mode(), v)) {
        return mem_fault(stop, addr, *f);
      }
      r[in.a] = v;
      break;
    }
    case Op::kStoreR: {
      const u64 addr = r[in.b] + static_cast<u64>(in.imm);
      if (const AccessFault* f =
              mem_.store_word(addr, r[in.a], access_mode())) {
        return mem_fault(stop, addr, *f);
      }
      break;
    }

    case Op::kCmp:
      set_flags_cmp(r[in.a], r[in.b]);
      break;
    case Op::kCmpi:
      set_flags_cmp(r[in.a], static_cast<u64>(in.imm));
      break;

    case Op::kJmp:
      next = next + static_cast<i64>(in.imm);
      break;
    case Op::kJe:
      if (cpu_.zf) next = next + static_cast<i64>(in.imm);
      break;
    case Op::kJne:
      if (!cpu_.zf) next = next + static_cast<i64>(in.imm);
      break;
    case Op::kJl:
      if (cpu_.sf) next = next + static_cast<i64>(in.imm);
      break;
    case Op::kJge:
      if (!cpu_.sf) next = next + static_cast<i64>(in.imm);
      break;
    case Op::kJg:
      if (!cpu_.sf && !cpu_.zf) next = next + static_cast<i64>(in.imm);
      break;
    case Op::kJle:
      if (cpu_.sf || cpu_.zf) next = next + static_cast<i64>(in.imm);
      break;

    case Op::kCall: {
      // sp is lowered before the store, so a faulting call leaves it lowered.
      cpu_.sp() -= 8;
      if (const AccessFault* f =
              mem_.store_word(cpu_.sp(), next, access_mode())) {
        return mem_fault(stop, cpu_.sp(), *f);
      }
      next = next + static_cast<i64>(in.imm);
      break;
    }
    case Op::kRet: {
      u64 ra = 0;
      if (const AccessFault* f =
              mem_.load_word(cpu_.sp(), access_mode(), ra)) {
        return mem_fault(stop, cpu_.sp(), *f);
      }
      cpu_.sp() += 8;
      if (ra == kReturnSentinel) {
        cpu_.rip = ra;
        return stop_with(stop, StepKind::kRetTop);
      }
      next = ra;
      break;
    }

    case Op::kPush: {
      cpu_.sp() -= 8;
      if (const AccessFault* f =
              mem_.store_word(cpu_.sp(), r[in.a], access_mode())) {
        return mem_fault(stop, cpu_.sp(), *f);
      }
      break;
    }
    case Op::kPop: {
      u64 v = 0;
      if (const AccessFault* f =
              mem_.load_word(cpu_.sp(), access_mode(), v)) {
        return mem_fault(stop, cpu_.sp(), *f);
      }
      // sp moves before the register is written: `pop r15` sets sp to the
      // loaded word.
      cpu_.sp() += 8;
      r[in.a] = v;
      break;
    }
  }

  cpu_.rip = next;
  return true;
}

[[gnu::always_inline]] inline bool Machine::step_core(StepResult& stop) {
  const AccessMode mode = access_mode();
  // While the memo covers rip (its page was checked for this mode and
  // nothing check() reads has changed since), decode straight from the
  // live frame; otherwise take the checked fetch, which refreshes it.
  const u8* code =
      mem_.exec_window(cpu_.rip, isa::kMaxInstrLen, mode, fetch_memo_);
  size_t n = isa::kMaxInstrLen;
  u8 buf[isa::kMaxInstrLen];
  if (code == nullptr) {
    n = fetch_checked(mode, buf, stop);
    if (n == 0) return false;
    code = buf;
  }
  isa::Decoded dec;
  if (const isa::DecodeFault* bad = isa::decode_into(code, n, dec)) {
    return stop_with(stop, StepKind::kBadInstr, cpu_.rip, bad->message);
  }
  charge_cycles(cost_.cycles_per_instr);
  ++instret_;
  const bool retired = exec(dec.instr, dec.len, stop);

  // Firmware periodic SMI timer: fires between instructions.
  if (periodic_smi_interval_ != 0 && cycles_ >= next_periodic_smi_ &&
      !in_smi_) {
    trigger_smi();
    next_periodic_smi_ = cycles_ + periodic_smi_interval_;
  }
  return retired;
}

StepResult Machine::step() {
  StepResult stop;
  (void)step_core(stop);
  return stop;
}

size_t Machine::fetch_checked(AccessMode mode, u8 (&buf)[isa::kMaxInstrLen],
                              StepResult& stop) {
  size_t want = isa::kMaxInstrLen;
  if (cpu_.rip + want > mem_.size()) {
    if (cpu_.rip >= mem_.size()) {
      stop_with(stop, StepKind::kMemFault, cpu_.rip, "rip out of range");
      return 0;
    }
    want = mem_.size() - cpu_.rip;
  }
  Status st = mem_.fetch(cpu_.rip, want, MutByteSpan(buf, sizeof(buf)), mode,
                         &fetch_memo_);
  if (!st.is_ok()) {
    stop_with(stop, StepKind::kMemFault, cpu_.rip, "fetch: " + st.message());
    return 0;
  }
  return want;
}

Status Machine::set_periodic_smi(u64 interval_cycles) {
  if (smram_locked_) {
    return {Errc::kPermissionDenied, "SMRAM is locked (D_LCK)"};
  }
  periodic_smi_interval_ = interval_cycles;
  next_periodic_smi_ = cycles_ + interval_cycles;
  return Status::ok();
}

// Aligned so the loop's place in the instruction cache does not depend on
// the size of whatever the linker puts before it.
__attribute__((aligned(64))) u64 Machine::run_into(u64 max_instrs,
                                                   StepResult& stop) {
  u64 i = 0;
  while (i < max_instrs) {
    ++i;
    if (!step_core(stop)) break;
  }
  return i;
}

StepResult Machine::run(u64 max_instrs) {
  StepResult stop;
  (void)run_into(max_instrs, stop);
  return stop;
}

}  // namespace kshot::machine
