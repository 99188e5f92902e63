// Regenerates §VI-C3's whole-system overhead experiment: Sysbench-style
// CPU-bound syscall workload + 1,000 live patches. The paper spread 1,000
// patches of each of the 6 Figure-4/5 CVEs over a long Sysbench run and
// reported < 3% end-user-visible overhead from the combined SGX preparation
// and SMM deployment times. We (1) measure baseline workload throughput,
// (2) really perform 1,000 live patches measuring per-patch SGX time (the
// OS keeps running but loses CPU) and SMM downtime (the OS is paused), and
// (3) report overhead at the paper's effective duty cycle of one patch per
// 300 ms of workload.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/testbed.hpp"

using namespace kshot;

int main() {
  bench::title(
      "Sysbench-style whole-system overhead, 1,000 live patches "
      "(paper §VI-C3: < 3%)");

  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {.seed = 0x5B, .workload_threads = 8});
  if (!tb.is_ok()) {
    std::printf("boot failed: %s\n", tb.status().to_string().c_str());
    return 1;
  }
  testbed::Testbed& t = **tb;
  const double ghz = t.machine().cost_model().ghz;

  // Phase 1: baseline throughput sample.
  u64 cyc0 = t.machine().cycles();
  t.scheduler().run(20'000, 64);
  u64 base_cycles = t.machine().cycles() - cyc0;
  u64 base_syscalls = t.scheduler().stats().syscalls_completed;
  double tp = static_cast<double>(base_syscalls) /
              static_cast<double>(base_cycles);

  // Phase 2: 1,000 real live patches, workload interleaved.
  std::vector<double> prep_us, pause_us;
  u64 patches = 0;
  for (int i = 0; i < 1000; ++i) {
    t.scheduler().run(20, 64);  // workload keeps running between patches
    auto rep = t.kshot().live_patch(c.id);
    if (!rep.is_ok() || !rep->success) {
      std::printf("patch %d failed\n", i);
      return 1;
    }
    ++patches;
    prep_us.push_back(rep->sgx.total_us());
    pause_us.push_back(rep->smm.modeled_total_us);
    if (!t.kshot().rollback().is_ok()) {
      std::printf("rollback %d failed\n", i);
      return 1;
    }
    t.kshot().enclave().reset_mem_x_cursor();
  }
  auto prep = bench::stats_of(prep_us);
  auto pause = bench::stats_of(pause_us);

  // Phase 3: overhead at the paper-scale duty cycle.
  const double window_ms = 300.0;  // one patch per 300 ms of Sysbench
  double per_patch_cost_us = prep.mean + pause.mean;
  double overhead =
      per_patch_cost_us / (window_ms * 1000.0 + per_patch_cost_us) * 100.0;
  // Pause-only overhead (pure end-user-visible stall share).
  double pause_overhead =
      pause.mean / (window_ms * 1000.0 + pause.mean) * 100.0;

  std::printf("%-44s %14.4f syscalls/Mcycle\n", "baseline throughput",
              tp * 1e6);
  std::printf("%-44s %14llu\n", "live patches applied (real)",
              static_cast<unsigned long long>(patches));
  std::printf("%-44s %14.1f us (runs concurrently with workload)\n",
              "mean SGX preparation per patch", prep.mean);
  std::printf("%-44s %14.1f us (OS paused; paper ~47.6-56.5us)\n",
              "mean SMM downtime per patch (modeled)", pause.mean);
  std::printf("%-44s %14.2f s\n", "modeled Sysbench run length",
              patches * window_ms / 1000.0);
  bench::rule('-', 80);
  std::printf(
      "Combined SGX+SMM overhead at 1 patch / %.0f ms:   %.3f%%   (paper: "
      "< 3%%)\n",
      window_ms, overhead);
  std::printf("Pause-only (end-user stall) share:            %.4f%%\n",
              pause_overhead);
  std::printf(
      "Workload health: %llu syscalls completed, %llu oopses during 1,000 "
      "patches.\n",
      static_cast<unsigned long long>(
          t.scheduler().stats().syscalls_completed),
      static_cast<unsigned long long>(t.scheduler().stats().oopses));

  bool pass = overhead < 3.0 && t.scheduler().stats().oopses == 0;
  std::printf("Result: %s\n", pass ? "within the paper's bound" : "OUT OF BOUND");
  (void)ghz;
  return pass ? 0 : 1;
}
