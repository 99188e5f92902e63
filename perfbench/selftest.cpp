// perfbench_selftest — proves the benchmark's failure counting and span
// rollup work. Each seam re-opens a bug class the program's own harness is
// built to catch, so the workload must count failed ops under it:
//
//   adversary-campaign + AttackerSurfaceOptions::legacy_double_fetch
//   synth-campaign     + SynthOptions::misplant_off_by_one
//
// and the same workloads without a seam must count none. Exits 0 when every
// check holds.
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace {

using namespace kshot::perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

Outcome run(const char* workload, double seconds, bool double_fetch,
            bool misplant) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = seconds;
  o.legacy_double_fetch = double_fetch;
  o.misplant_off_by_one = misplant;
  return run_workload(o);
}

/// A hand-built span log: op -> call -> program span tree.
void check_rollup() {
  kshot::obs::TraceRecorder rec;
  SpanLog log(&rec);
  size_t op = log.begin("op");
  size_t call = log.begin("kshot.live_patch");
  rec.complete("smm", "decrypt", 0, 10, 20, 30.0);
  rec.complete("smm", "smi", 0, 0, 40, 50.0);
  rec.complete("kshot", "fetch", 0, 0, 0, 15.0);
  rec.complete("kshot", "live_patch", 0, 0, 40, 80.0);
  log.end(call);
  log.end(op);
  Rollup r = roll_up(log, rec.snapshot(), "op", 1.0);
  check(std::abs(r.spans["smm.smi"].self_wall_us - 20.0) < 1e-9,
        "rollup: smm.smi self = smi - decrypt");
  check(std::abs(r.spans["kshot.live_patch"].self_wall_us - 15.0) < 1e-9,
        "rollup: live_patch self = live_patch - smi - fetch");
  check(std::abs(r.spans["smm.decrypt"].virt_us - 10.0) < 1e-9,
        "rollup: virtual duration from cycles");
  const double call_wall = log.spans()[call].wall_us();
  check(std::abs(r.spans["bench.kshot.live_patch"].self_wall_us -
                 (call_wall - 80.0)) < 1e-9,
        "rollup: call self = call - top-level program spans");
  check(r.ops == 1 && std::abs(r.unattributed_us[0] -
                               (log.spans()[op].wall_us() - call_wall)) < 1e-9,
        "rollup: op remainder = op - its calls");
}

}  // namespace

int main() {
  check_rollup();

  Outcome clean_synth = run("synth-campaign", 0.5, false, false);
  check(clean_synth.attempted >= 100 && clean_synth.failed == 0,
        "synth-campaign: no failures without a seam");
  Outcome misplant = run("synth-campaign", 0.5, false, true);
  check(misplant.attempted >= 100 && misplant.failed > 0,
        "synth-campaign: misplant seam counts failed ops");

  // The surface generates a pure mid-SMI schedule — the class the reopened
  // double fetch exposes — for about one case in four; the seed is fixed,
  // so six seconds (a dozen cases) always include some.
  Outcome clean_adv = run("adversary-campaign", 0.1, false, false);
  check(clean_adv.attempted >= 8 && clean_adv.failed == 0,
        "adversary-campaign: no failures without a seam");
  Outcome double_fetch = run("adversary-campaign", 6.0, true, false);
  check(double_fetch.attempted >= 8 && double_fetch.failed > 0,
        "adversary-campaign: legacy double fetch counts failed ops");

  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
