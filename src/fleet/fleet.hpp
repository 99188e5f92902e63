// Fleet orchestration: concurrent live-patch campaigns across N simulated
// targets sharing one PatchServer.
//
// The paper patches one machine; this layer turns the reproduction into a
// distribution system. A FleetController boots N independent Testbeds (one
// deployment per target, each deterministically seeded) against a single
// thread-safe PatchServer whose build cache compiles each patch set once
// per fleet, then drives a staged rollout through a bounded worker pool:
//
//   canary wave (k targets) -> health check -> full waves -> ... -> report
//
// Each target walks the state machine
//
//   PENDING -> FETCHING -> STAGED -> APPLIED | FAILED | ROLLED_BACK
//                                  | QUARANTINED (detections, recovery
//                                    rounds exhausted)
//
// mirrored off the core pipeline's real phase transitions (Kshot's phase
// observer). A target whose run reports classified detections without
// proof of health enters quarantine recovery: escalating modeled backoff,
// session abort, and a fresh fetch per round; exhausting the rounds fences
// the target as QUARANTINED and (in degraded mode) halves later waves. A wave whose failure fraction reaches RolloutPlan::
// abort_failure_rate aborts the rollout: the wave's applied targets are
// rolled back and every remaining target stays PENDING — by the pipeline's
// transactional invariant, every non-applied kernel is byte-identical to
// its pre-patch snapshot.
//
// Determinism: all numbers in a FleetReport are modeled (virtual-clock
// downtime, modeled link latency, modeled backoff) or counters, and are
// aggregated in target-index order, so the same seeds produce a
// byte-identical report at any --jobs level.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testbed/testbed.hpp"

namespace kshot::fleet {

enum class TargetState : u8 {
  kPending = 0,   // not attempted (or rollout aborted before its wave)
  kFetching,      // talking to the patch server
  kStaged,        // sealed package staged in mem_W
  kApplied,       // patch live and health-checked
  kFailed,        // pipeline failed; kernel untouched (transactional)
  kRolledBack,    // applied, then undone (health failure or wave abort)
  kQuarantined,   // tampering detected and recovery attempts exhausted:
                  // the target is fenced off from further rollout traffic
                  // (kernel untouched — every detection path is
                  // transactional)
};

const char* target_state_name(TargetState s);

/// Staged-rollout policy.
struct RolloutPlan {
  u32 canary = 1;  // size of the first (canary) wave
  u32 wave = 4;    // size of every later wave
  /// Abort the rollout when a wave's failure fraction (FAILED +
  /// health-rollbacks) reaches this; 1.01 disables aborting.
  double abort_failure_rate = 0.5;
  /// On abort, roll the wave's applied targets back too.
  bool rollback_failed_wave = true;
  /// Post-patch health probe rounds per applied target (each round: one
  /// benign syscall must complete cleanly, one exploit must stay dead).
  u32 health_probes = 1;

  // Quarantine policy (async-adversary hardening) -------------------------
  /// Recovery rounds granted to a target that reported detections without
  /// proof of health: each round aborts the session, charges escalating
  /// modeled backoff, and re-runs the pipeline against a freshly fetched
  /// envelope. A target still unhealthy afterwards is QUARANTINED.
  u32 quarantine_retry_limit = 2;
  /// Modeled backoff before recovery round r is kQuarantineBackoffUs << r.
  static constexpr double kQuarantineBackoffUs = 500.0;
  /// Abort the rollout when a wave's quarantine fraction reaches this
  /// (quarantines are bounded-blast-radius events, judged separately from
  /// plain failures); 1.01 disables aborting.
  double max_quarantine_rate = 0.5;
  /// Degraded mode: any quarantine in a wave halves every later wave
  /// (floor 1), trading rollout speed for blast radius while an active
  /// adversary is loose in the fleet.
  bool degrade_on_quarantine = true;
};

struct FleetOptions {
  std::string cve_id = "CVE-2014-0196";
  /// Non-empty switches the campaign to batched mode: every target boots
  /// the merged kernel of combine_cases(batch_cve_ids), the server learns
  /// one per-CVE patch source each (batch_part_cases), and each rollout
  /// step installs all the packages in ONE batched SMM session
  /// (Kshot::live_patch_batch). cve_id is ignored; the report carries the
  /// merged "BATCH(...)" id. Health checks probe every part's exploit.
  std::vector<std::string> batch_cve_ids;
  u32 targets = 4;
  u32 jobs = 1;  // worker threads (bounded concurrency), >= 1
  u64 base_seed = 0x5EED;
  RolloutPlan rollout;
  /// Channel fault plan applied to every target (clean when unset).
  std::optional<netsim::FaultPlan> fault_plan;
  /// Per-target overrides (e.g. make exactly one wave hostile).
  std::map<u32, netsim::FaultPlan> target_fault_plans;
  std::optional<core::RetryPolicy> retry_policy;
  /// Extend the post-apply health check with a kQueryApplied probe: the
  /// applied inventory SMM reports must contain every patch id this step
  /// installed (case id, or all batch part ids). A syscall probe proves the
  /// fix behaves; this proves the *stack bookkeeping* agrees — a unit
  /// missing from SMM's own inventory would strand later supersede/revert
  /// lifecycle operations fleet-wide. Off by default (one extra SMI per
  /// target).
  bool verify_applied_inventory = false;
  /// When set, every target's rollout runs under an AsyncAdversary driving
  /// the schedule generate(adversary_seed ^ target_seed(i)) — a different,
  /// deterministic attack per target. Detections feed the quarantine state
  /// machine instead of counting as plain failures.
  std::optional<u64> adversary_seed;
  int workload_threads = 0;  // background workload per target
  /// Simulated CPUs per target (>= 1); >1 engages the SMI rendezvous model
  /// and the per-CPU downtime decomposition in every TargetResult.
  u32 cpus = 1;
  /// Record per-target pipeline traces and fleet-level events; the campaign
  /// report then carries a deterministic Chrome-trace JSON (virtual
  /// timestamps only, byte-identical across --jobs levels).
  bool capture_trace = false;
};

struct TargetResult {
  u32 index = 0;
  u64 seed = 0;
  TargetState state = TargetState::kPending;
  u32 wave = 0;          // wave the target was scheduled in
  bool healthy = false;  // post-patch probes passed
  core::ResilienceStats resilience;
  double downtime_us = 0;  // modeled SMM downtime (virtual clock)
  /// Per-CPU decomposition of the modeled downtime, in integer cycles so the
  /// identity rendezvous + handler + resume == downtime_cycles is exact.
  u64 downtime_cycles = 0;
  u64 rendezvous_cycles = 0;  // all-CPU SMI entry (incl. IPI + jitter)
  u64 handler_cycles = 0;     // BSP handler work between entry and resume
  u64 resume_cycles = 0;      // RSM + AP staggered release
  double e2e_us = 0;       // modeled end-to-end latency: link + backoff +
                           // downtime
  u32 detection_events = 0;   // classified detections across all rounds
  u32 quarantine_rounds = 0;  // recovery rounds consumed
  bool recovered = false;     // applied+healthy only after recovery rounds
  std::string detections;     // comma-joined detection classes, in order
  std::string detail;         // failure reason when not applied
};

struct LatencyPercentiles {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Aggregated outcome of one fleet campaign.
struct FleetReport {
  std::string cve_id;
  u32 targets = 0;
  u32 jobs = 0;
  u32 cpus = 1;
  u32 waves_run = 0;

  u32 applied = 0;
  u32 failed = 0;
  u32 rolled_back = 0;
  u32 quarantined = 0;
  u32 recovered = 0;  // applied after at least one quarantine-recovery round
  u32 pending = 0;    // never attempted (rollout aborted first)

  bool aborted = false;
  u32 abort_wave = 0;  // wave index that tripped the abort (when aborted)
  /// Degraded mode engaged: a quarantine shrank every later wave.
  bool degraded = false;
  u32 degraded_from_wave = 0;  // first wave run at reduced size
  u64 total_detections = 0;    // classified detection events, fleet-wide

  u64 total_fetch_attempts = 0;
  u64 total_apply_attempts = 0;
  u64 total_retries = 0;  // attempts beyond the first, both phases
  u64 total_session_aborts = 0;

  netsim::BuildCacheStats cache;
  double cache_hit_rate = 0;  // patch-set cache

  /// Over applied targets, in sorted-sample order.
  LatencyPercentiles downtime_us;
  LatencyPercentiles e2e_us;

  /// Fleet-wide per-CPU downtime decomposition, summed over all targets in
  /// index order. Invariant: rendezvous + handler + resume == downtime,
  /// exactly (integer cycles end to end).
  u64 total_downtime_cycles = 0;
  u64 total_rendezvous_cycles = 0;
  u64 total_handler_cycles = 0;
  u64 total_resume_cycles = 0;

  std::vector<TargetResult> results;  // index order, one per target

  /// Chrome-trace JSON of the whole campaign (empty unless
  /// FleetOptions::capture_trace): per-target recorders concatenated in
  /// index order, then the canonicalized shared-recorder events (server,
  /// wave markers). Virtual timestamps only — byte-identical across --jobs.
  std::string trace_json;
  /// Fleet-wide metrics (every target's pipeline + the shared server).
  obs::MetricsSnapshot metrics;

  /// Deterministic formatted summary (the determinism tests compare this
  /// byte-for-byte across runs and --jobs levels).
  [[nodiscard]] std::string to_string() const;
};

/// Boots and drives a fleet. Targets stay alive after the campaign so tests
/// and tools can inspect (or snapshot-compare) their kernels.
class FleetController {
 public:
  explicit FleetController(FleetOptions opts);
  ~FleetController();

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// Boots the shared server and one testbed per target (parallel, bounded
  /// by jobs). Idempotent; run_campaign() calls it if needed.
  Status boot_fleet();

  /// Executes the staged rollout and returns the aggregated report.
  Result<FleetReport> run_campaign();

  [[nodiscard]] u32 size() const { return static_cast<u32>(targets_.size()); }
  /// Valid after boot_fleet(); nullptr for an out-of-range index.
  testbed::Testbed* target(u32 i);
  netsim::PatchServer& server() { return *server_; }
  [[nodiscard]] u64 target_seed(u32 i) const;

 private:
  void patch_one(u32 index, u32 wave, TargetResult& out);
  bool health_check(testbed::Testbed& t, TargetResult& out) const;
  void rollback_target(u32 index, TargetResult& out, const char* why);

  FleetOptions opts_;
  cve::CveCase case_;
  /// Batched mode only: per-CVE cases rebased onto the merged kernel.
  std::vector<cve::CveCase> batch_parts_;
  // Observability state must outlive server_/targets_, which hold pointers
  // into it — keep these declared first.
  obs::MetricsRegistry metrics_;
  /// One recorder per target: each is written serially by whichever worker
  /// drives that target, so per-target event order is deterministic.
  std::vector<std::unique_ptr<obs::TraceRecorder>> target_traces_;
  /// Shared recorder for events with no owning target (patch server, wave
  /// markers); canonicalized before export.
  obs::TraceRecorder shared_trace_;
  std::unique_ptr<netsim::PatchServer> server_;
  std::vector<std::unique_ptr<testbed::Testbed>> targets_;
  bool booted_ = false;
};

/// p50/p95/p99 of `samples` (nearest-rank on the sorted vector; zeros when
/// empty). Exposed for the fleet report and its tests.
LatencyPercentiles percentiles_of(std::vector<double> samples);

/// Modeled campaign makespan for a worker pool of width `jobs`: each wave's
/// attempted targets are placed (in index order, greedy least-loaded) onto
/// `jobs` virtual workers, with a barrier between waves; the result is the
/// sum of per-wave spans in modeled microseconds. A pure function of the
/// report, so concurrency scaling can be quantified deterministically even
/// on a single physical core (where wall-clock speedup is unmeasurable).
double modeled_makespan_us(const FleetReport& report, u32 jobs);

}  // namespace kshot::fleet
