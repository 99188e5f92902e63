// Deterministic bench-regression harness behind `kshot-sim bench`.
//
// Three documents are produced per run, each with a wall-clock sidecar:
//
//   BENCH_table3.json  patch-size sweep (Tables II/III): modeled SMM
//                      downtime by payload size, splice, multi-CPU and
//                      copy-accounting legs.
//   BENCH_batch.json   batched-session matrix: K-CVE sequential vs one
//                      batched SMM session, plus batched-fleet, adversary,
//                      planet-scale and auto-CVE synthesis campaign rows.
//   BENCH_paper.json   the paper's evaluation (§VI): Table I, Figures 4/5,
//                      Table IV's rootkit probes, Table V, the Sysbench
//                      overhead, ablations A1–A3 and the fault campaign.
//
// Everything in those documents is *modeled* (virtual-clock cycles, modeled
// microseconds, counters): for a fixed seed the bytes are identical at any
// --jobs level, so the files can be checked in as goldens and diffed by CI.
// Wall-clock timings are real and therefore noisy; they are emitted into
// separate *_wall.json sidecars that are never golden-compared or gated.
// A row whose check fails (an exploit that survives its patch, a workload
// oops, a patch the model says must apply and did not) fails run_bench.
//
// gate_compare() is the regression gate: every numeric leaf of the current
// document must stay within `tolerance` (relative) of the checked-in
// baseline, and no baseline key may disappear. BenchOptions::cost_scale
// exists so tests can inflate the emitted modeled numbers and prove the
// gate actually trips.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace kshot::benchkit {

struct BenchOptions {
  u64 seed = 0x5EED;
  u32 jobs = 1;       // row-level worker pool (never changes the bytes)
  bool quick = false;  // CI profile: smaller sweeps, fleets and campaigns
  /// Multiplier applied to every modeled number at emission time. 1.0 in
  /// real runs; tests raise it to demonstrate the gate failing.
  double cost_scale = 1.0;
};

struct BenchDoc {
  std::string file;  // "BENCH_<bench>.json" or "BENCH_<bench>_wall.json"
  std::string body;
  bool gated = true;  // false: a wall-clock sidecar, soft-compared only
};

/// Every document of a run: each gated document followed by its sidecar.
using BenchResults = std::vector<BenchDoc>;

/// Runs the full harness. Every document's row tasks (each boots what it
/// needs) share one pool of `jobs` workers and merge in task order. The
/// first failed row check, in that order, is the run's error.
Result<BenchResults> run_bench(const BenchOptions& opts);

/// Flattens a canonical bench JSON document into "path.to[2].leaf" -> value
/// for every numeric leaf (booleans and strings are skipped).
Result<std::map<std::string, double>> flatten_json(const std::string& json);

struct GateFinding {
  std::string key;
  double baseline = 0;
  double current = 0;
};

struct GateReport {
  std::vector<GateFinding> regressions;   // current > baseline * (1 + tol)
  std::vector<std::string> missing_keys;  // in baseline, absent in current
  /// Soft findings from the *_wall.json sidecars (wall_compare): printed as
  /// warnings, never fail the gate. Deliberately excluded from ok().
  std::vector<GateFinding> warnings;
  [[nodiscard]] bool ok() const {
    return regressions.empty() && missing_keys.empty();
  }
  [[nodiscard]] std::string to_string() const;
};

/// Compares every numeric leaf of `current` against `baseline`. Only cost
/// *increases* beyond the relative tolerance are regressions; improvements
/// pass (the baseline is refreshed by re-generating the goldens).
Result<GateReport> gate_compare(const std::string& baseline_json,
                                const std::string& current_json,
                                double tolerance);

/// Soft gate over the wall-clock sidecars: every numeric leaf of `current`
/// that exceeds its baseline by more than `tolerance` (relative) lands in
/// GateReport::warnings. Wall time is real and noisy, so these never fail
/// the gate (ok() stays true); they are surfaced with a distinct
/// "WALL WARNING" message so a >10% slowdown is visible in CI logs. Missing
/// sidecar keys are also warnings, not failures.
Result<GateReport> wall_compare(const std::string& baseline_json,
                                const std::string& current_json,
                                double tolerance = 0.10);

}  // namespace kshot::benchkit
