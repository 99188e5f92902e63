// The simulated target machine: CPU state, instruction interpreter, System
// Management Mode with its SMRAM save-state area, and the virtual cycle
// clock. The SMM handler is a native callback registered by "firmware"
// before SMRAM is locked — after locking, nothing (in particular not the
// simulated kernel or a rootkit) can replace it, which models D_LCK.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "isa/isa.hpp"
#include "machine/cost_model.hpp"
#include "machine/phys_mem.hpp"

namespace kshot::machine {

/// Register used as the stack pointer by push/pop/call/ret (like x86 rsp,
/// it is an ordinary GPR).
inline constexpr int kSpReg = 15;
/// Register used as the frame pointer by compiled code (convention only).
inline constexpr int kFpReg = 14;

/// Architectural register state of the single simulated core.
struct CpuState {
  std::array<u64, isa::kNumRegs> regs{};
  u64 rip = 0;
  // Flags produced by cmp: zero and signed-less.
  bool zf = false;
  bool sf = false;

  u64& sp() { return regs[kSpReg]; }
  [[nodiscard]] u64 sp() const { return regs[kSpReg]; }
};

enum class CpuMode { kProtected, kSmm };

/// Why a step() stopped (other than normal completion).
enum class StepKind {
  kOk,         // instruction retired
  kHalt,       // hlt
  kBreak,      // int3
  kOops,       // ud2 / trap / divide-by-zero: a kernel oops
  kMemFault,   // page-attribute or range violation
  kBadInstr,   // undecodable bytes at rip
  kRetTop,     // returned to the call-stack sentinel (function finished)
};

struct StepResult {
  StepKind kind = StepKind::kOk;
  u64 info = 0;          // trap code / faulting address
  std::string detail;    // diagnostic text for faults
};

/// Names why run(max_instrs) ended at `rip` with `stop`: "instruction
/// budget of N exhausted at rip 0x…" for a run that used its whole budget
/// (kOk), else the stop's kind and rip, then its detail if it has one.
std::string describe_stop(const StepResult& stop, u64 max_instrs, u64 rip);

/// Return address sentinel pushed by the kernel runtime before dispatching
/// into a function; `ret` to it reports kRetTop.
inline constexpr u64 kReturnSentinel = 0xFFFF'FFFF'FFFF'F000ULL;

/// Offset of the save-state area inside SMRAM (mirrors real hardware's
/// SMBASE + 0xFC00 layout).
inline constexpr u64 kSaveStateOffset = 0xFC00;

class Machine {
 public:
  /// Creates a machine with `mem_bytes` of physical memory and SMRAM at
  /// [smram_base, smram_base + smram_size).
  Machine(size_t mem_bytes, PhysAddr smram_base, size_t smram_size,
          u64 entropy_seed = 0x5eed);

  PhysMem& mem() { return mem_; }
  const PhysMem& mem() const { return mem_; }
  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }
  [[nodiscard]] CpuMode mode() const { return mode_; }

  CostModel& cost_model() { return cost_; }
  const CostModel& cost_model() const { return cost_; }

  /// "Hardware" entropy source (used by the SMM handler's DH keygen).
  Rng& hw_rng() { return rng_; }

  // Firmware configuration ------------------------------------------------
  /// Registers the SMM handler. Fails once SMRAM is locked.
  Status set_smm_handler(std::function<void(Machine&)> handler);
  /// Locks SMRAM (models the D_LCK bit); irreversible.
  void lock_smram() { smram_locked_ = true; }
  [[nodiscard]] bool smram_locked() const { return smram_locked_; }

  // Execution ---------------------------------------------------------------
  /// Interprets the instruction at cpu().rip in the current mode.
  StepResult step();

  /// The interpreter loop: steps until one instruction stops the run or
  /// `max_instrs` steps have been taken, and returns the steps taken, the
  /// stopping one included. Writes `stop` only when a step stops (kind,
  /// info and detail), so a caller that passes a default StepResult reads
  /// kOk after a run that used its whole budget. The ok path builds no
  /// StepResult, Status or string.
  u64 run_into(u64 max_instrs, StepResult& stop);

  /// Runs up to `max_instrs` instructions; stops early on any non-kOk
  /// result. A run that used its whole budget returns kOk with an empty
  /// detail; describe_stop() names it.
  StepResult run(u64 max_instrs);

  /// Arms a firmware periodic SMI timer: an SMI fires automatically every
  /// `interval_cycles` of virtual time while instructions execute (the
  /// HyperCheck-style heartbeat KShot's introspection can ride on). Pass 0
  /// to disarm. Fails once SMRAM is locked, like handler registration.
  Status set_periodic_smi(u64 interval_cycles);
  [[nodiscard]] u64 periodic_smi_interval() const {
    return periodic_smi_interval_;
  }

  /// Raises a System Management Interrupt: saves the architectural state into
  /// the SMRAM save-state area, switches to SMM, runs the handler, and
  /// resumes (RSM) by restoring the saved state. Charges modeled entry/exit
  /// cycles and accounts the SMM residency as downtime. With more than one
  /// CPU the entry charge becomes a full rendezvous (IPI every AP, wait for
  /// the slowest jittered arrival) and the RSM charge a per-AP wakeup.
  void trigger_smi();

  // Multi-CPU topology -------------------------------------------------------
  /// Bookkeeping for one simulated CPU. Index 0 is the BSP.
  struct CpuSlot {
    u64 entry_latency_cycles = 0;  // jitter drawn for the last rendezvous
    u64 smi_count = 0;             // SMIs this CPU rendezvoused into
  };

  /// Sets the simulated CPU count (>= 1). A 1-CPU machine is byte-for-byte
  /// the pre-multi-CPU model: fixed entry/RSM charges, no RNG draws.
  Status set_cpus(u32 n);
  [[nodiscard]] u32 cpus() const { return static_cast<u32>(slots_.size()); }
  [[nodiscard]] const std::vector<CpuSlot>& cpu_slots() const {
    return slots_;
  }
  /// Naive serial rendezvous (every CPU pays full SMI entry + RSM back to
  /// back) — the contrast model for the bench gate; default is parallel.
  void set_serial_rendezvous(bool serial) { serial_rendezvous_ = serial; }
  [[nodiscard]] bool serial_rendezvous() const { return serial_rendezvous_; }

  /// Handler-side early resume: releases `k` more application processors
  /// before RSM (clamped to cpus()-1 total). A released AP's resume overlaps
  /// the handler's remaining work and drops out of the RSM charge. Reset at
  /// every SMI entry; no-op outside SMM or in serial mode.
  void release_aps(u32 k);
  [[nodiscard]] u32 released_aps() const { return released_aps_; }

  /// Entry (rendezvous) charge of the in-flight SMI — valid inside the
  /// handler; retains the last SMI's value afterwards.
  [[nodiscard]] u64 current_rendezvous_cycles() const {
    return current_rendezvous_cycles_;
  }
  /// What RSM will charge given the current early-release state. trigger_smi
  /// charges exactly this value at RSM, so handler span math is exact.
  [[nodiscard]] u64 projected_resume_cycles() const;

  // Downtime decomposition: rendezvous + handler + resume == smm_cycles(),
  // exactly, by construction.
  [[nodiscard]] u64 rendezvous_cycles_total() const {
    return rendezvous_cycles_total_;
  }
  [[nodiscard]] u64 handler_cycles_total() const {
    return handler_cycles_total_;
  }
  [[nodiscard]] u64 resume_cycles_total() const {
    return resume_cycles_total_;
  }

  // Attack modeling ---------------------------------------------------------
  /// Models a rootkit gating SMI delivery (the DoS the paper's §VI-C
  /// handshake detects): while blocked, trigger_smi() silently does nothing —
  /// no handler run, no heartbeat, no status update. Untrusted code cannot
  /// observe the suppression directly; only the staleness of SMM-written
  /// mailbox fields reveals it.
  void set_smi_blocked(bool blocked) { smi_blocked_ = blocked; }
  [[nodiscard]] bool smi_blocked() const { return smi_blocked_; }
  /// Invoked at every trigger_smi() entry, before suppression checks and
  /// handler dispatch — the instant between the helper app's mailbox writes
  /// and SMI delivery, where an asynchronous adversary can race. Not
  /// re-entered for SMIs the hook itself raises. Pass nullptr to clear.
  void set_pre_smi_hook(std::function<void(Machine&)> hook) {
    pre_smi_hook_ = std::move(hook);
  }
  /// Models a transient SMI-gating attack: the next `n` trigger_smi() calls
  /// are swallowed, then delivery recovers on its own (unlike the sticky
  /// set_smi_blocked). Budgets add to any remaining budget.
  void add_smi_suppress_budget(u64 n) { smi_suppress_budget_ += n; }
  [[nodiscard]] u64 smi_suppress_budget() const { return smi_suppress_budget_; }
  /// SMIs swallowed while blocked (harness-side ground truth).
  [[nodiscard]] u64 suppressed_smis() const { return suppressed_smis_; }

  // Virtual time ------------------------------------------------------------
  [[nodiscard]] u64 cycles() const { return cycles_; }
  void charge_cycles(u64 c) { cycles_ += c; }
  /// Cycles spent inside SMM since construction (the paper's "downtime").
  [[nodiscard]] u64 smm_cycles() const { return smm_cycles_; }
  /// Number of SMIs taken.
  [[nodiscard]] u64 smi_count() const { return smi_count_; }
  /// Instructions retired in protected mode.
  [[nodiscard]] u64 instret() const { return instret_; }

  /// Current access mode for memory operations performed by executing code.
  [[nodiscard]] AccessMode access_mode() const {
    return mode_ == CpuMode::kSmm ? AccessMode::smm() : AccessMode::normal();
  }

  // Save-state serialization (exposed for tests and for the SMM handler,
  // which may legitimately inspect/modify the saved context).
  void save_state_to_smram();
  void restore_state_from_smram();

 private:
  /// The one step: fetch (through the memo or a checked fetch), decode,
  /// charge, exec, then the periodic-SMI test. Returns true when the
  /// instruction retired and execution may go on, leaving `stop` untouched;
  /// otherwise writes the stop into `stop` and returns false. Inlined into
  /// step() and run_into().
  [[nodiscard]] bool step_core(StepResult& stop);
  /// The checked fetch step_core() falls back to when the memo does not
  /// cover rip: fills `buf` and returns the bytes fetched (and refreshes
  /// the memo), or writes a kMemFault into `stop` and returns 0.
  size_t fetch_checked(AccessMode mode, u8 (&buf)[isa::kMaxInstrLen],
                       StepResult& stop);
  /// Executes one decoded instruction; the same contract as step_core().
  [[nodiscard]] bool exec(const isa::Instr& in, size_t len, StepResult& stop);
  /// Entry charge for the next SMI; draws one jitter per AP (never touches
  /// hw_rng, and draws nothing at all on a 1-CPU machine).
  u64 rendezvous_cost();

  PhysMem mem_;
  /// The code page the step core last fetched through a checked fetch.
  FetchMemo fetch_memo_;
  CpuState cpu_;
  CpuMode mode_ = CpuMode::kProtected;
  CostModel cost_;
  Rng rng_;
  /// Dedicated stream for rendezvous jitter so multi-CPU never perturbs the
  /// hw_rng draws existing goldens depend on.
  Rng jitter_rng_;

  std::function<void(Machine&)> smm_handler_;
  std::function<void(Machine&)> pre_smi_hook_;
  bool smram_locked_ = false;
  bool in_smi_ = false;
  bool in_pre_smi_hook_ = false;
  bool smi_blocked_ = false;
  u64 smi_suppress_budget_ = 0;
  u64 suppressed_smis_ = 0;
  u64 periodic_smi_interval_ = 0;
  u64 next_periodic_smi_ = 0;

  u64 cycles_ = 0;
  u64 smm_cycles_ = 0;
  u64 smi_count_ = 0;
  u64 instret_ = 0;

  std::vector<CpuSlot> slots_{1};
  bool serial_rendezvous_ = false;
  u32 released_aps_ = 0;
  u64 current_rendezvous_cycles_ = 0;
  u64 rendezvous_cycles_total_ = 0;
  u64 handler_cycles_total_ = 0;
  u64 resume_cycles_total_ = 0;
};

}  // namespace kshot::machine
