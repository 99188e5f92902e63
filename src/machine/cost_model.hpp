// Virtual-time cost model. The simulator cannot reproduce the authors'
// i7/Coreboot wall-clock numbers, so the machine keeps a cycle counter and
// charges costs calibrated to the paper's reported fixed costs (§VI-C2:
// SMM entry 12.9us, RSM 21.7us, SMM key generation 5.2us, at an assumed
// 3 GHz). Per-byte charges are calibrated to Table III's slopes. Benches
// report both real wall time of the real work and modeled microseconds.
#pragma once

#include "common/types.hpp"

namespace kshot::machine {

struct CostModel {
  double ghz = 3.0;  // modeled core frequency

  // Interpreter charge per executed instruction.
  u64 cycles_per_instr = 4;

  // Fixed-cost SMM operations (paper: 12.9us entry, 21.7us resume, 5.2us
  // key generation).
  u64 smi_entry_cycles = 38'700;
  u64 rsm_cycles = 65'100;
  u64 keygen_cycles = 15'600;

  // Per-byte charges for SMM handler phases, fitted to Table III:
  //   decrypt ~ 0.34 ns/B, verify ~ 0.80 ns/B + 2.9us fixed,
  //   apply ~ 0.45 ns/B.
  double decrypt_cycles_per_byte = 1.02;
  double verify_cycles_per_byte = 2.40;
  u64 verify_fixed_cycles = 8'700;
  double apply_cycles_per_byte = 1.35;
  // In-place splice writes the body straight over the old function: no
  // mem_X copy and no trampoline, so the per-byte charge is the bare text
  // write (roughly the copy half of the trampoline path's apply charge).
  double splice_cycles_per_byte = 0.45;

  // TOCTOU hardening charged against downtime, once per SMI: the mailbox
  // snapshot and the freshness / classification checks that turn
  // tampering into a DetectionReport.
  u64 snapshot_cycles = 900;
  u64 detect_fixed_cycles = 1'200;

  // Multi-CPU SMM rendezvous (SmmPack-style honest accounting): the BSP
  // IPIs every AP into SMM and waits for the slowest arrival; each AP's
  // entry latency jitters uniformly in [0, rendezvous_jitter_max_cycles].
  // On RSM the BSP pays a small per-AP wakeup unless the handler released
  // that AP early (release_aps), in which case its resume overlaps handler
  // work and costs nothing on the critical path.
  u64 ipi_cycles_per_cpu = 400;
  u64 rendezvous_jitter_max_cycles = 12'000;
  u64 resume_cycles_per_cpu = 300;
  // Combining per-CPU partial verify/hash results inside the handler.
  u64 verify_merge_cycles_per_cpu = 250;

  [[nodiscard]] double to_us(u64 cycles) const {
    return static_cast<double>(cycles) / (ghz * 1000.0);
  }
  [[nodiscard]] u64 bytes_cost(double per_byte, size_t n) const {
    return static_cast<u64>(per_byte * static_cast<double>(n));
  }
};

}  // namespace kshot::machine
