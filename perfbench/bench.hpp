// Repository benchmark: four closed-loop, single-client workloads driven
// through the public APIs of testbed, core (Kshot), netsim, crypto,
// fuzz/attacks, cve and kcc. Every layer is timed from outside, around the
// calls the benchmark makes; a traced run additionally turns on the
// program's own obs::TraceRecorder and rolls its spans up per layer.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace kshot::perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// SplitMix64 finalizer: derives independent per-use seeds from --seed.
inline u64 mix_seed(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  /// Second timed phase with tracing on; reports the per-layer metrics.
  bool trace = false;
  /// Directory for the trace export ("" = no export).
  std::string out_dir;
  /// Failure-counting seams: each must drive fail_ratio above 0.
  bool legacy_double_fetch = false;  // adversary-campaign
  bool misplant_off_by_one = false;  // synth-campaign
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failure_details;  // first few, for the log
  std::map<std::string, Metric> metrics;
};

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

/// Runs one workload end to end: several set-ups from scratch, each followed
/// by its share of the untraced timed phase, then — with Options::trace — the
/// in-process crypto rooflines and the traced phases. Never throws; unknown
/// workloads come back with attempted == 0.
Outcome run_workload(const Options& o);

// ---- Span recording and rollup (rollup.cpp) ---------------------------------

/// Benchmark-side spans around each call into a layer. Each span remembers
/// the window of program trace events appended while it was open, so the
/// program's own spans can be attributed to the call that caused them.
class SpanLog {
 public:
  explicit SpanLog(const obs::TraceRecorder* program) : program_(program) {}

  /// Opens a span under the innermost open one; returns its index.
  size_t begin(std::string name);
  /// Closes span `id` (must be the innermost open one).
  void end(size_t id);

  struct Span {
    std::string name;
    long parent = -1;
    double t0_us = 0, t1_us = 0;  // since the log was created
    size_t ev0 = 0, ev1 = 0;      // program events appended while open
    [[nodiscard]] double wall_us() const { return t1_us - t0_us; }
  };
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  const obs::TraceRecorder* program_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Per-(component, name) totals over the program's spans.
struct SpanTotals {
  u64 count = 0;
  double wall_us = 0;
  double self_wall_us = 0;
  double virt_us = 0;
};

struct Rollup {
  /// Keyed "component.name"; program spans and benchmark spans ("bench.*").
  std::map<std::string, SpanTotals> spans;
  /// Per traced op: op wall minus the benchmark call spans inside it.
  std::vector<double> unattributed_us;
  u64 ops = 0;
};

/// Builds the span tree (benchmark spans -> program spans appended in their
/// window -> program spans nested by the pipeline's call structure) and
/// sums self time = span minus its children. `op_name` marks the op spans.
Rollup roll_up(const SpanLog& log, const std::vector<obs::TraceEvent>& events,
               const std::string& op_name, double us_per_cycle);

/// Adds span.<c>.<n>.{count,wall_us,self_wall_us,virt_us,model_wall_ratio}
/// and op.unattributed_us_p50 for every span in the rollup.
void add_rollup_metrics(const Rollup& r, std::map<std::string, Metric>& out);

/// Human-readable rollup table (one line per span, then the unattributed
/// remainder of the traced ops).
std::string format_rollup(const Rollup& r);

/// Writes the benchmark spans and the program spans as Chrome trace JSON
/// (`<prefix>.bench.json`, `<prefix>.program.json`) and the rollup table
/// (`<prefix>.rollup.txt`). Returns false if a file cannot be written.
bool export_trace(const std::string& prefix, const SpanLog& log,
                  const std::vector<obs::TraceEvent>& events,
                  const Rollup& r, double us_per_cycle);

}  // namespace kshot::perfbench
