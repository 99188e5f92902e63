// Experiment harness: boots a complete simulated deployment — target
// machine, vulnerable kernel, SGX runtime, remote patch server, network
// channel, and an installed KShot — for one CVE case. Shared by the test
// suite, the benchmark binaries, and the examples.
#pragma once

#include <memory>
#include <optional>

#include "core/kshot.hpp"
#include "cve/suite.hpp"
#include "kernel/scheduler.hpp"
#include "netsim/faults.hpp"
#include "netsim/patch_server.hpp"

namespace kshot::testbed {

/// Outcome of driving one syscall to completion on the target.
struct SyscallOutcome {
  bool oops = false;
  u64 trap_code = 0;   // meaningful when oops
  u64 value = 0;       // r0 when !oops
  std::string detail;
};

struct TestbedOptions {
  kernel::MemoryLayout layout{};
  u64 seed = 0x1234;
  bool install_kshot = true;
  /// Number of simulated CPUs on the target (1 = classic single-CPU model;
  /// >1 engages the SMI rendezvous cost model). Must be >= 1.
  u32 cpus = 1;
  /// Serial (pessimistic, one-SMI-entry-per-CPU) rendezvous instead of the
  /// default broadcast-parallel model. Only meaningful when cpus > 1.
  bool serial_rendezvous = false;
  /// Spawn this many looping background workload threads (sys_busy).
  int workload_threads = 0;
  /// Nonzero arms the firmware periodic-SMI introspection watchdog.
  u64 watchdog_interval_cycles = 0;
  /// When set, the enclave<->server channel is a FaultInjector built from
  /// this plan (seeded with `fault_seed`) instead of a clean Channel.
  std::optional<netsim::FaultPlan> fault_plan{};
  u64 fault_seed = 0xFA017;
  /// Retry policy installed on the booted Kshot (default: Kshot's default).
  std::optional<core::RetryPolicy> retry_policy{};
  /// When non-null, this testbed joins an existing fleet-wide patch server
  /// instead of booting its own: the target's SGX platform is registered as
  /// an accepted verifier, the CVE's patch sources are announced (idempotent
  /// across the fleet), and the pre-image build goes through the server's
  /// shared cache. The server must outlive the testbed.
  netsim::PatchServer* shared_server = nullptr;
  /// When non-null, the booted Kshot pipeline (handler, enclave, fetch/retry
  /// path) emits spans into this recorder, tagged with `trace_target`.
  obs::TraceRecorder* trace = nullptr;
  u32 trace_target = 0;
  /// When non-null, pipeline counters/histograms land in this registry
  /// instead of a per-pipeline private one (fleet aggregation).
  obs::MetricsRegistry* metrics = nullptr;
};

class Testbed {
 public:
  /// Boots the full deployment for `c`. The machine runs the *pre* (still
  /// vulnerable) kernel; the server knows the patch.
  static Result<std::unique_ptr<Testbed>> boot(const cve::CveCase& c,
                                               TestbedOptions opts = {});

  machine::Machine& machine() { return *machine_; }
  kernel::Kernel& kernel() { return *kernel_; }
  kernel::Scheduler& scheduler() { return *sched_; }
  sgx::SgxRuntime& sgx() { return *sgx_; }
  netsim::Channel& channel() { return *channel_; }
  /// Non-null iff the testbed was booted with a fault plan.
  netsim::FaultInjector* fault_injector() { return fault_injector_; }
  /// The patch server this deployment talks to (owned, or the fleet-shared
  /// one from TestbedOptions::shared_server).
  netsim::PatchServer& server() { return *server_; }
  core::Kshot& kshot() { return *kshot_; }
  /// The memory layout this deployment was booted with (adversaries need
  /// the reserved-region addresses to aim their interpositions).
  [[nodiscard]] const kernel::MemoryLayout& layout() const { return layout_; }
  const cve::CveCase& cve_case() const { return case_; }
  const kcc::KernelImage& pre_image() const { return pre_image_; }

  /// Runs one syscall synchronously on a dedicated context (not a scheduler
  /// thread), up to `max_instrs` instructions.
  Result<SyscallOutcome> run_syscall(int nr, std::array<u64, 5> args,
                                     u64 max_instrs = 2'000'000);

  /// Convenience: fires the case's exploit / benign input.
  Result<SyscallOutcome> run_exploit();
  Result<SyscallOutcome> run_benign();

  /// The OsInfo + compile options matching this deployment.
  [[nodiscard]] kcc::CompileOptions compile_options() const;

 private:
  Testbed(cve::CveCase c) : case_(std::move(c)) {}

  cve::CveCase case_;
  kernel::MemoryLayout layout_{};
  std::unique_ptr<machine::Machine> machine_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<kernel::Scheduler> sched_;
  std::unique_ptr<sgx::SgxRuntime> sgx_;
  std::unique_ptr<netsim::Channel> channel_;
  netsim::FaultInjector* fault_injector_ = nullptr;  // view into channel_
  std::unique_ptr<netsim::PatchServer> owned_server_;
  netsim::PatchServer* server_ = nullptr;  // owned_server_ or the shared one
  std::unique_ptr<core::Kshot> kshot_;
  kcc::KernelImage pre_image_;
};

/// Compile options for a memory layout + kernel version.
kcc::CompileOptions options_for_layout(const kernel::MemoryLayout& lay,
                                       const std::string& version);

/// Adapts a booted testbed to the backend-free cve::ProbeFn signature, so
/// cve::probe_case() (fleet health checks, the CVE tests) can drive this
/// deployment. The testbed must outlive the returned callable.
cve::ProbeFn prober(Testbed& tb);

/// Synthesizes a case whose post-patch binary payload is approximately
/// `target_bytes`, for the Table II/III patch-size sweeps (40 B .. 10 MB).
/// The exact payload size is whatever the compiler emits; benches report it.
cve::CveCase make_size_sweep_case(size_t target_bytes);

/// Synthesizes a splice-eligible case of approximately `target_bytes`: the
/// fix only widens a guard constant, so the patched body compiles to
/// exactly the old function's footprint and the enclave (under
/// LifecycleOptions::allow_splice) lays it out as an in-place splice — no
/// mem_X slot, no trampoline. The usual fix shape (bug() → return -ERR)
/// always grows the body past the old footprint, so the sweep cases above
/// never qualify.
cve::CveCase make_splice_sweep_case(size_t target_bytes);

/// A layout that can stage and place a patch of `target_bytes`.
kernel::MemoryLayout layout_for_patch_bytes(size_t target_bytes);

}  // namespace kshot::testbed
