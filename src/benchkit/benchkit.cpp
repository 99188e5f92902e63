#include "benchkit/benchkit.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <variant>

#include "attacks/rootkits.hpp"
#include "baselines/karma_sim.hpp"
#include "baselines/kpatch_sim.hpp"
#include "baselines/kup_sim.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "crypto/sha256.hpp"
#include "crypto/simple_hash.hpp"
#include "cve/synth.hpp"
#include "fleet/fleet.hpp"
#include "fleetscale/fleetscale.hpp"
#include "obs/trace.hpp"
#include "testbed/testbed.hpp"

namespace kshot::benchkit {

namespace {

// ---- Canonical formatting -------------------------------------------------
// Every number in the golden-compared documents goes through these, so the
// byte representation is a pure function of the value.

std::string fmt(double v) {
  char b[64];
  std::snprintf(b, sizeof(b), "%.6f", v);
  return b;
}

std::string fmt(u64 v) {
  char b[32];
  std::snprintf(b, sizeof(b), "%llu", static_cast<unsigned long long>(v));
  return b;
}

u64 scaled(u64 v, double s) {
  if (s == 1.0) return v;
  return static_cast<u64>(static_cast<double>(v) * s + 0.5);
}

/// Minimal append-only JSON writer producing a stable, human-diffable
/// layout (two-space indent, keys in emission order).
class Json {
 public:
  void open_obj() {
    sep();
    pad();
    out_ += "{\n";
    ++depth_;
    fresh_ = true;
  }
  void close_obj() {
    --depth_;
    out_ += "\n";
    pad();
    out_ += "}";
    fresh_ = false;
  }
  void open_arr(const std::string& key) {
    sep();
    pad();
    out_ += "\"" + key + "\": [\n";
    ++depth_;
    fresh_ = true;
  }
  void close_arr() {
    --depth_;
    out_ += "\n";
    pad();
    out_ += "]";
    fresh_ = false;
  }
  void field(const std::string& key, const std::string& str_value) {
    field_raw(key, "\"" + str_value + "\"");
  }
  void field_raw(const std::string& key, const std::string& raw) {
    sep();
    pad();
    out_ += "\"" + key + "\": " + raw;
  }
  std::string finish() { return out_ + "\n"; }

 private:
  void pad() { out_.append(static_cast<size_t>(depth_) * 2, ' '); }
  /// Separator before any new element: nothing right after an opener (it
  /// already ended with a newline), ",\n" between siblings.
  void sep() {
    if (out_.empty()) return;  // document root
    if (fresh_) {
      fresh_ = false;
    } else {
      out_ += ",\n";
    }
  }
  std::string out_;
  int depth_ = 0;
  bool fresh_ = true;
};

// ---- Rows -----------------------------------------------------------------

/// One row of a bench document: a name plus typed leaves in emission order.
/// `gated` leaves go to the modeled document, `wall` leaves to its sidecar;
/// a row without leaves of one kind is left out of that document. Cost
/// leaves are multiplied by BenchOptions::cost_scale; counts, flags and
/// plain ratios are not.
struct Row {
  struct Leaf {
    std::string key;
    std::variant<u64, double, bool> v;
    bool cost = false;
  };
  explicit Row(std::string n) : name(std::move(n)) {}

  std::string name;
  std::vector<Leaf> gated, wall;

  Row& count(std::string k, u64 v) { return add(gated, std::move(k), v); }
  Row& cost(std::string k, u64 v) { return add(gated, std::move(k), v, true); }
  Row& cost(std::string k, double v) {
    return add(gated, std::move(k), v, true);
  }
  Row& real(std::string k, double v) { return add(gated, std::move(k), v); }
  Row& flag(std::string k, bool v) { return add(gated, std::move(k), v); }
  Row& wall_us(std::string k, double v) { return add(wall, std::move(k), v); }
  Row& wall_count(std::string k, u64 v) { return add(wall, std::move(k), v); }

  Row& add(std::vector<Leaf>& to, std::string k,
           std::variant<u64, double, bool> v, bool cost = false) {
    to.push_back({std::move(k), v, cost});
    return *this;
  }
};

using Rows = std::vector<Row>;
/// One unit of work for the row pool: boots what it needs and returns its
/// rows, or the Status of the first check it failed.
using RowFn = std::function<Result<Rows>()>;

std::string leaf_text(const Row::Leaf& l, double cs) {
  if (const bool* b = std::get_if<bool>(&l.v)) return *b ? "true" : "false";
  if (const u64* u = std::get_if<u64>(&l.v)) {
    return fmt(l.cost ? scaled(*u, cs) : *u);
  }
  double d = std::get<double>(l.v);
  return fmt(l.cost ? d * cs : d);
}

/// Emits the gated document of `bench` (wall = false) or its sidecar.
std::string emit(const std::string& bench, const BenchOptions& o,
                 const Rows& rows, bool wall) {
  Json j;
  j.open_obj();
  j.field("bench", wall ? bench + "-wall" : bench);
  char seed[32];
  std::snprintf(seed, sizeof(seed), "0x%llx",
                static_cast<unsigned long long>(o.seed));
  j.field("seed", std::string(seed));
  j.field_raw("quick", o.quick ? "true" : "false");
  j.open_arr("rows");
  for (const Row& r : rows) {
    const auto& leaves = wall ? r.wall : r.gated;
    if (leaves.empty()) continue;
    j.open_obj();
    j.field("name", r.name);
    for (const auto& l : leaves) {
      j.field_raw(l.key, leaf_text(l, wall ? 1.0 : o.cost_scale));
    }
    j.close_obj();
  }
  j.close_arr();
  j.close_obj();
  return j.finish();
}

// ---- Shared helpers ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::string why(const core::PatchReport& r) {
  return core::smm_status_name(r.smm_status);
}
std::string why(const baselines::BaselineReport& r) { return r.detail; }

/// The Status of a run that must apply: its error, or kInternal when the
/// patcher refused it.
template <class Report>
Status applied(const Result<Report>& rep, const std::string& what) {
  if (!rep) return rep.status();
  if (rep->success) return Status::ok();
  return Status{Errc::kInternal, what + " did not apply: " + why(*rep)};
}

Status check(bool ok, const std::string& what) {
  return ok ? Status::ok() : Status{Errc::kInternal, "bench check: " + what};
}

testbed::TestbedOptions seeded(u64 seed, int workload_threads = 0) {
  testbed::TestbedOptions o;
  o.seed = seed;
  o.workload_threads = workload_threads;
  return o;
}

/// A deployment whose layout fits a `bytes` patch.
testbed::TestbedOptions sized(size_t bytes, u64 seed) {
  testbed::TestbedOptions o = seeded(seed);
  o.layout = testbed::layout_for_patch_bytes(bytes);
  return o;
}

// ---- table3: patch-size sweep ---------------------------------------------

/// Quick: the CI sweep. Full: the paper's Table II/III sizes, 40 B to 10 MB.
std::vector<size_t> sweep_sizes(bool quick) {
  if (quick) return {64, 1024, 4096};
  return {40, 400, 4096, 40960, 409600, size_t{10} << 20};
}

Result<Rows> sweep_row(size_t size, u64 seed) {
  cve::CveCase c = testbed::make_size_sweep_case(size);
  auto tb = testbed::Testbed::boot(c, sized(size, seed));
  if (!tb) return tb.status();
  testbed::Testbed& t = **tb;
  auto rep = t.kshot().live_patch(c.id);
  KSHOT_RETURN_IF_ERROR(applied(rep, c.id));
  Row r{"sweep-" + std::to_string(size)};
  r.count("target_bytes", size)
      .count("code_bytes", rep->stats.code_bytes)
      .count("package_bytes", rep->stats.package_bytes)
      .count("functions", rep->stats.functions)
      .cost("downtime_cycles", rep->downtime_cycles)
      .cost("modeled_total_us", rep->smm.modeled_total_us)
      .count("smi_count", t.machine().smi_count())
      // The TOCTOU-hardening share of the downtime.
      .cost("detection_overhead",
            t.kshot().handler().detection_overhead_cycles());
  r.wall_us("decrypt_us", rep->smm.decrypt_us)
      .wall_us("verify_us", rep->smm.verify_us)
      .wall_us("apply_us", rep->smm.apply_us)
      .wall_us("total_us", rep->smm.total_us)
      .wall_us("fetch_us", rep->sgx.fetch_us)
      .wall_us("preprocess_us", rep->sgx.preprocess_us)
      .wall_us("passing_us", rep->sgx.passing_us);
  return Rows{r};
}

/// Splice-vs-trampoline leg: the same splice-eligible case applied twice on
/// identical deployments — once through the default mem_X + trampoline
/// path, once with LifecycleOptions::allow_splice so the enclave lays the
/// body out in place. Both downtimes are modeled, so the in-place write's
/// cheaper per-byte cost shows up as a deterministic reduction.
Result<Rows> splice_row(size_t size, u64 seed) {
  cve::CveCase c = testbed::make_splice_sweep_case(size);
  u64 code_bytes = 0, spliced = 0;
  auto leg = [&](bool splice) -> Result<u64> {
    auto tb = testbed::Testbed::boot(c, sized(size, seed));
    if (!tb) return tb.status();
    core::LifecycleOptions lo;
    lo.allow_splice = splice;
    auto rep = (*tb)->kshot().live_patch(c.id, lo);
    KSHOT_RETURN_IF_ERROR(applied(rep, "splice leg " + c.id));
    auto inv = (*tb)->kshot().query_applied();
    if (!inv) return inv.status();
    KSHOT_RETURN_IF_ERROR(
        check(inv->units.size() == 1, "splice leg: one applied unit"));
    code_bytes = inv->units[0].code_bytes;
    if (splice) {
      spliced = inv->units[0].spliced;
      KSHOT_RETURN_IF_ERROR(
          check(spliced > 0, "splice leg installs in place: " + c.id));
    }
    return rep->downtime_cycles;
  };
  auto tramp = leg(false);
  if (!tramp) return tramp.status();
  auto splice = leg(true);
  if (!splice) return splice.status();
  Row r{"splice-" + std::to_string(size)};
  r.count("code_bytes", code_bytes)
      .cost("trampoline_downtime_cycles", *tramp)
      .cost("splice_downtime_cycles", *splice)
      // Lower is better: in-place splicing must stay cheaper than the
      // mem_X + trampoline path for the same body.
      .real("splice_cost_ratio",
            static_cast<double>(*splice) / static_cast<double>(*tramp))
      .count("spliced_members", spliced);
  return Rows{r};
}

/// Multi-CPU rendezvous legs on a minimal payload, so the rendezvous and
/// resume machinery dominates. The legs share one seed, so 1/4/16 CPUs
/// differ only in topology. The ratios row (lower is better) keeps the
/// 16-CPU downtime within a small multiple of 1 CPU through parallel SMI
/// entry and early AP release; the serial leg records what the naive
/// one-entry-per-CPU model would cost.
Result<Rows> mcpu_rows(u64 seed) {
  const std::pair<u32, bool> cfgs[] = {
      {1, false}, {4, false}, {16, false}, {16, true}};
  Rows rows;
  std::vector<double> down;
  for (auto [cpus, serial] : cfgs) {
    cve::CveCase c = testbed::make_size_sweep_case(64);
    testbed::TestbedOptions topts = sized(64, seed);
    topts.cpus = cpus;
    topts.serial_rendezvous = serial;
    auto tb = testbed::Testbed::boot(c, std::move(topts));
    if (!tb) return tb.status();
    auto rep = (*tb)->kshot().live_patch(c.id);
    KSHOT_RETURN_IF_ERROR(applied(rep, "mcpu leg"));
    Row r{"mcpu-" + std::to_string(cpus) + (serial ? "-serial" : "")};
    r.count("cpus", cpus)
        .cost("downtime_cycles", rep->downtime_cycles)
        .cost("rendezvous_cycles", rep->rendezvous_cycles)
        .cost("handler_cycles", rep->handler_cycles)
        .cost("resume_cycles", rep->resume_cycles);
    rows.push_back(r);
    down.push_back(static_cast<double>(rep->downtime_cycles));
  }
  Row ratios{"mcpu-ratios"};
  ratios.cost("mcpu16_vs_1_ratio", down[2] / down[0])
      .cost("serial16_vs_1_ratio", down[3] / down[0]);
  rows.push_back(ratios);
  return rows;
}

/// smm.staged_copies counts actual byte copies of staged package data; it
/// must stay at 1 (the SMM write), everything before it being a borrowed
/// span over the decrypted envelope.
Result<Rows> copy_row(u64 seed) {
  cve::CveCase c = testbed::make_size_sweep_case(4096);
  obs::MetricsRegistry reg;
  testbed::TestbedOptions topts = sized(4096, seed);
  topts.metrics = &reg;
  auto tb = testbed::Testbed::boot(c, std::move(topts));
  if (!tb) return tb.status();
  KSHOT_RETURN_IF_ERROR(applied((*tb)->kshot().live_patch(c.id), "copy leg"));
  Row r{"zero-copy"};
  r.count("copies_per_package", reg.counter("smm.staged_copies").value());
  return Rows{r};
}

std::vector<RowFn> table3_rows(const BenchOptions& o) {
  std::vector<RowFn> fns;
  std::vector<size_t> sizes = sweep_sizes(o.quick);
  for (size_t i = 0; i < sizes.size(); ++i) {
    fns.push_back([=] { return sweep_row(sizes[i], o.seed + 7919 * (i + 1)); });
  }
  fns.push_back([=] { return splice_row(4096, o.seed + 104033); });
  fns.push_back([=] { return mcpu_rows(o.seed + 31); });
  fns.push_back([=] { return copy_row(o.seed + 7); });
  return fns;
}

// ---- batch: batched-session matrix and campaigns --------------------------

/// sim-4.4 cases with pairwise-distinct functions — combinable into one
/// merged kernel for the batched legs.
const std::vector<std::string>& batchable_ids() {
  static const std::vector<std::string> kIds = {
      "CVE-2016-2543", "CVE-2016-4578", "CVE-2016-4580", "CVE-2016-5829",
      "CVE-2016-7916"};
  return kIds;
}

/// K CVEs as one batched session vs K sequential sessions on identical
/// deployments of the merged kernel.
Result<Rows> batch_row(u32 k, u64 seed) {
  std::vector<std::string> ids(batchable_ids().begin(),
                               batchable_ids().begin() + k);
  auto batch = cve::combine_cases(ids);
  if (!batch) return batch.status();
  auto parts = cve::batch_part_cases(ids);
  if (!parts) return parts.status();
  auto boot = [&]() -> Result<std::unique_ptr<testbed::Testbed>> {
    auto tb = testbed::Testbed::boot(batch->merged, seeded(seed));
    if (!tb) return tb.status();
    for (const auto& p : *parts) {
      (*tb)->server().add_patch({p.id, p.kernel, p.pre_source,
                                 p.post_source});
    }
    return tb;
  };
  auto tb_batch = boot();
  if (!tb_batch) return tb_batch.status();
  auto rep = (*tb_batch)->kshot().live_patch_batch(ids);
  KSHOT_RETURN_IF_ERROR(applied(rep, "batch"));
  auto tb_seq = boot();
  if (!tb_seq) return tb_seq.status();
  u64 seq_downtime = 0;
  for (const auto& id : ids) {
    auto r = (*tb_seq)->kshot().live_patch(id);
    KSHOT_RETURN_IF_ERROR(applied(r, "sequential " + id));
    seq_downtime += r->downtime_cycles;
  }
  Row r{"batch-k" + std::to_string(k)};
  r.count("k", k)
      .cost("seq_downtime_cycles", seq_downtime)
      .cost("batch_downtime_cycles", rep->downtime_cycles)
      .count("seq_smis", (*tb_seq)->machine().smi_count())
      .count("batch_smis", (*tb_batch)->machine().smi_count())
      .count("installed", (*tb_batch)->kshot().handler().installed().size())
      .cost("modeled_batch_us", rep->smm.modeled_total_us)
      // A cost ratio (lower is better), so the gate's increase-is-regression
      // rule applies directly.
      .real("batch_cost_ratio", static_cast<double>(rep->downtime_cycles) /
                                    static_cast<double>(seq_downtime));
  return Rows{r};
}

/// Batched fleet rollout. Internal widths are fixed constants: the fleet
/// report is byte-identical across its own jobs level, and the makespan is
/// evaluated at fixed *virtual* widths, so the bench --jobs flag never leaks
/// in.
Result<Rows> fleet_row(bool quick, u64 seed) {
  fleet::FleetOptions fo;
  fo.batch_cve_ids = {batchable_ids()[0], batchable_ids()[1],
                      batchable_ids()[2]};
  fo.targets = quick ? 4 : 8;
  fo.jobs = 2;
  fo.base_seed = seed;
  fleet::FleetController fc(fo);
  auto rep = fc.run_campaign();
  if (!rep) return rep.status();
  Row r{"fleet-batched"};
  r.count("targets", rep->targets)
      .count("applied_deficit", rep->targets - rep->applied)
      .count("waves", rep->waves_run)
      .cost("downtime_p50_us", rep->downtime_us.p50)
      .cost("e2e_p50_us", rep->e2e_us.p50)
      .cost("makespan_w1_us", fleet::modeled_makespan_us(*rep, 1))
      .cost("makespan_w4_us", fleet::modeled_makespan_us(*rep, 4));
  return Rows{r};
}

/// Small fleet campaign under a deterministic per-target async adversary:
/// what quarantine recovery costs the rollout. Wave aborts are off so the
/// row is a pure function of the schedules.
Result<Rows> adversary_row(bool quick, u64 seed) {
  fleet::FleetOptions fo;
  fo.targets = quick ? 4 : 8;
  fo.jobs = 2;
  fo.base_seed = seed;
  fo.adversary_seed = seed ^ 0xAD5E12;
  fo.rollout.abort_failure_rate = 1.01;
  fo.rollout.max_quarantine_rate = 1.01;
  // In-run retries off: every detection surfaces to the fleet layer, so the
  // row prices the quarantine state machine itself, not the retry budget.
  fo.retry_policy = core::RetryPolicy::none();
  fleet::FleetController fc(fo);
  auto rep = fc.run_campaign();
  if (!rep) return rep.status();
  double recovery_us = 0;
  for (const auto& t : rep->results) {
    for (u32 round = 0; round < t.quarantine_rounds; ++round) {
      recovery_us += fleet::RolloutPlan::kQuarantineBackoffUs * (1u << round);
    }
  }
  Row r{"fleet-adversary"};
  r.count("targets", rep->targets)
      .count("quarantined", rep->quarantined)
      .count("recovered", rep->recovered)
      .count("total_detections", rep->total_detections)
      .cost("quarantine_recovery_cost", recovery_us);
  return Rows{r};
}

/// Planet-scale modeled rollout: the sharded coordinator and relay tier end
/// to end, at fixed internal shards/jobs.
Result<Rows> scale_row(bool quick, u64 seed) {
  fleetscale::FleetScaleOptions so;
  so.targets = quick ? 50'000 : 250'000;
  so.shards = 4;
  so.sample = 1;
  so.relays = 8;
  so.relay_fanout = 4;
  so.jobs = 2;
  so.base_seed = seed;
  fleetscale::FleetCoordinator fc(std::move(so));
  auto rep = fc.run();
  if (!rep) return rep.status();
  Row r{"fleet-scale"};
  r.count("targets", rep->targets)
      .count("applied_deficit", rep->targets - rep->applied)
      .count("waves", rep->waves.size())
      .cost("makespan_us", rep->modeled_makespan_us)
      // A miss ratio, so lower is better; the hit ratio goes to the sidecar.
      .cost("relay_miss_ratio",
            rep->relay.pulls() == 0 ? 0.0
                                    : static_cast<double>(rep->relay.misses) /
                                          rep->relay.pulls())
      .cost("downtime_p99_us", rep->downtime_us.p99);
  r.wall_us("relay_hit_ratio", rep->relay.hit_rate())
      .wall_count("origin_fetches", rep->origin_fetches);
  return Rows{r};
}

/// Auto-CVE synthesis (DESIGN.md §14): every synthesized case must pass the
/// oracle stack (`oracle_failures` is gated at 0), plus one live-patched
/// synthesized case pricing the pipeline on generated input.
Result<Rows> synth_row(bool quick, u64 seed) {
  cve::CampaignOptions co;
  co.seed = seed ^ 0x5D17;
  co.cases = quick ? 12 : 24;
  co.jobs = 2;
  auto rep = cve::run_campaign(co);
  if (!rep) return rep.status();
  auto sc = cve::make_case(cve::BugClass::kOobWrite,
                           cve::synth_case_seed(co.seed, 0));
  if (!sc) return sc.status();
  auto tb = testbed::Testbed::boot(sc->cve, seeded(seed));
  if (!tb) return tb.status();
  auto patched = (*tb)->kshot().live_patch(sc->cve.id);
  KSHOT_RETURN_IF_ERROR(applied(patched, "synth live patch"));
  Row r{"synth-campaign"};
  r.count("cases", rep->cases)
      .count("oracle_failures", rep->failed)
      .count("live_code_bytes", patched->stats.code_bytes)
      .cost("live_downtime_cycles", patched->downtime_cycles)
      .cost("live_modeled_us", patched->smm.modeled_total_us);
  return Rows{r};
}

std::vector<RowFn> batch_rows(const BenchOptions& o) {
  std::vector<RowFn> fns;
  const u32 ks[] = {2, 5};  // K=5 backs the strictly-faster criterion
  for (u32 i = 0; i < 2; ++i) {
    fns.push_back([=] { return batch_row(ks[i], o.seed + 104729 * (i + 1)); });
  }
  fns.push_back([=] { return fleet_row(o.quick, o.seed); });
  fns.push_back([=] { return adversary_row(o.quick, o.seed); });
  fns.push_back([=] { return scale_row(o.quick, o.seed); });
  fns.push_back([=] { return synth_row(o.quick, o.seed); });
  return fns;
}

// ---- paper: the evaluation's tables, figures and ablations (§VI) ----------

/// Table I / RQ1: the exploit fires on the vulnerable kernel, KShot patches
/// it live, the exploit is dead afterwards and benign behaviour is
/// unchanged. Any of the four failing fails the run.
Result<Rows> table1_row(const cve::CveCase& c, u64 seed) {
  auto tb = testbed::Testbed::boot(c, seeded(seed));
  if (!tb) return tb.status();
  testbed::Testbed& t = **tb;
  auto fired = t.run_exploit();
  if (!fired) return fired.status();
  auto benign = t.run_benign();
  if (!benign) return benign.status();
  auto rep = t.kshot().live_patch(c.id);
  KSHOT_RETURN_IF_ERROR(applied(rep, c.id));
  auto dead = t.run_exploit();
  if (!dead) return dead.status();
  auto after = t.run_benign();
  if (!after) return after.status();
  const bool exploit_dead = !dead->oops;
  const bool benign_same = !after->oops && after->value == benign->value;
  KSHOT_RETURN_IF_ERROR(check(fired->oops && exploit_dead && benign_same,
                              "Table I " + c.id + " (fired " +
                                  std::to_string(fired->oops) + ", dead " +
                                  std::to_string(exploit_dead) + ", benign " +
                                  std::to_string(benign_same) + ")"));
  Row r{"t1-" + c.id};
  r.count("functions", rep->stats.functions)
      .count("code_bytes", rep->stats.code_bytes)
      .cost("downtime_cycles", rep->downtime_cycles)
      .cost("modeled_us", rep->smm.modeled_total_us)
      .count("exploit_fired", fired->oops)
      .count("exploit_dead", exploit_dead)
      .count("benign_same", benign_same);
  return Rows{r};
}

/// Figures 4 and 5: one figure CVE patched `reps` times (rolled back in
/// between). The modeled SMM phases come from the first run's "smm" spans;
/// the SGX and SMM wall phases are medians over all runs.
Result<Rows> figure_row(const std::string& id, u64 seed, int reps) {
  obs::TraceRecorder trace;
  testbed::TestbedOptions topts = seeded(seed);
  topts.trace = &trace;
  auto tb = testbed::Testbed::boot(cve::find_case(id), std::move(topts));
  if (!tb) return tb.status();
  testbed::Testbed& t = **tb;
  const char* phases[] = {"keygen", "decrypt", "verify", "apply"};
  u64 phase_cycles[4] = {};
  std::vector<double> wall[7];
  Row r{"fig-" + id};
  for (int i = 0; i < reps; ++i) {
    auto rep = t.kshot().live_patch(id);
    KSHOT_RETURN_IF_ERROR(applied(rep, id));
    if (i == 0) {
      for (const obs::TraceEvent& e : trace.snapshot()) {
        for (int p = 0; p < 4; ++p) {
          if (e.component == "smm" && e.name == phases[p]) {
            phase_cycles[p] += e.virt_cycles();
          }
        }
      }
      r.count("code_bytes", rep->stats.code_bytes);
      for (int p = 0; p < 4; ++p) {
        r.cost(std::string(phases[p]) + "_cycles", phase_cycles[p]);
      }
      r.cost("switch_cycles", rep->rendezvous_cycles + rep->resume_cycles)
          .cost("downtime_cycles", rep->downtime_cycles);
    }
    const double w[7] = {rep->sgx.fetch_us,    rep->sgx.preprocess_us,
                         rep->sgx.passing_us,  rep->smm.keygen_us,
                         rep->smm.decrypt_us,  rep->smm.verify_us,
                         rep->smm.apply_us};
    for (int k = 0; k < 7; ++k) wall[k].push_back(w[k]);
    KSHOT_RETURN_IF_ERROR(applied(t.kshot().rollback(), "rollback " + id));
    t.kshot().enclave().reset_mem_x_cursor();
  }
  const char* keys[7] = {"fetch_us",  "preprocess_us", "passing_us",
                         "keygen_us", "decrypt_us",    "verify_us",
                         "apply_us"};
  for (int k = 0; k < 7; ++k) r.wall_us(keys[k], summarize(wall[k]).p50);
  return Rows{r};
}

/// Table IV's measured column: does a kernel-resident reversion rootkit
/// undo the patch? KShot must survive it (introspection repairs the
/// trampoline) and the OS-trusting kpatch must not.
Result<Rows> rootkit_row(bool kshot, u64 seed) {
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, seeded(seed));
  if (!tb) return tb.status();
  testbed::Testbed& t = **tb;
  t.kernel().insmod(
      std::make_shared<attacks::ReversionRootkit>(t.pre_image()));
  if (kshot) {
    KSHOT_RETURN_IF_ERROR(applied(t.kshot().live_patch(c.id), "KShot"));
  } else {
    auto set = t.server().build_patchset(c.id, t.kernel().os_info());
    if (!set) return set.status();
    baselines::KpatchSim kpatch(t.kernel(), t.scheduler());
    KSHOT_RETURN_IF_ERROR(applied(kpatch.apply(*set), "kpatch"));
  }
  t.scheduler().run(5);
  // Periodic introspection is part of a KShot deployment.
  if (kshot) KSHOT_RETURN_IF_ERROR(t.kshot().introspect().status());
  auto exploit = t.run_exploit();
  if (!exploit) return exploit.status();
  const bool dead = !exploit->oops;
  const char* breach =
      kshot ? "the rootkit reverted KShot" : "kpatch survived the rootkit";
  KSHOT_RETURN_IF_ERROR(check(dead == kshot, breach));
  Row r{kshot ? "t4-rootkit-kshot" : "t4-rootkit-kpatch"};
  r.count("exploit_dead", dead);
  return Rows{r};
}

Row comparison_row(const char* name, testbed::Testbed& t, u64 cycles,
                   u64 tcb_bytes, u64 memory_bytes) {
  Row r{std::string("t5-") + name};
  r.cost("downtime_cycles", cycles)
      .cost("downtime_us", t.machine().cost_model().to_us(cycles))
      .count("tcb_bytes", tcb_bytes)
      .count("memory_bytes", memory_bytes);
  return r;
}

/// Table V: KUP (whole-kernel replacement with checkpoint/restore), KARMA
/// (instruction-level, in place), kpatch (function-level, OS-trusted) and
/// KShot, each on its own deployment. KARMA gets a same-size fix (the
/// splice case), the only kind it can apply.
Result<Rows> table5_row(int system, u64 seed) {
  const char* names[] = {"kup", "karma", "kpatch", "kshot"};
  const std::string id = "CVE-2014-0196";
  const cve::CveCase c = system == 1 ? testbed::make_splice_sweep_case(256)
                                     : cve::find_case(id);
  auto tb = testbed::Testbed::boot(c, seeded(seed, system == 0 ? 8 : 0));
  if (!tb) return tb.status();
  testbed::Testbed& t = **tb;
  if (system == 3) {
    auto rep = t.kshot().live_patch(id);
    KSHOT_RETURN_IF_ERROR(applied(rep, "KShot"));
    return Rows{comparison_row(names[3], t, rep->downtime_cycles,
                               t.kshot().tcb_bytes(),
                               t.kernel().layout().reserved_total())};
  }
  auto baseline = [&]() -> Result<baselines::BaselineReport> {
    if (system == 0) {
      t.scheduler().run(200);
      auto post = t.server().build_post_image(id, t.compile_options());
      if (!post) return post.status();
      return baselines::KupSim(t.kernel(), t.scheduler()).apply(id, *post);
    }
    auto set = t.server().build_patchset(c.id, t.kernel().os_info());
    if (!set) return set.status();
    if (system == 1) {
      return baselines::KarmaSim(t.kernel(), t.scheduler()).apply(*set);
    }
    return baselines::KpatchSim(t.kernel(), t.scheduler()).apply(*set);
  };
  auto rep = baseline();
  KSHOT_RETURN_IF_ERROR(applied(rep, names[system]));
  return Rows{comparison_row(names[system], t, rep->downtime_cycles,
                             rep->tcb_bytes, rep->memory_overhead_bytes)};
}

/// §VI-C3: an 8-thread Sysbench-style syscall workload with `patches` live
/// patches (each rolled back) interleaved, charged at the paper's duty
/// cycle of one patch per 300 ms. The pause and its share are modeled and
/// gated; the SGX preparation runs beside the workload on the host, so it
/// and the combined share go to the sidecar. An oops or a modeled share of
/// 3 % or more fails the run.
Result<Rows> sysbench_row(bool quick, u64 seed) {
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, seeded(seed, 8));
  if (!tb) return tb.status();
  testbed::Testbed& t = **tb;
  const u64 c0 = t.machine().cycles();
  t.scheduler().run(quick ? 2'000 : 20'000, 64);
  const u64 base_cycles = t.machine().cycles() - c0;
  const u64 base_syscalls = t.scheduler().stats().syscalls_completed;
  const u64 patches = quick ? 20 : 1000;
  double prep_us = 0, pause_us = 0;
  for (u64 i = 0; i < patches; ++i) {
    t.scheduler().run(20, 64);  // the workload runs between patches
    auto rep = t.kshot().live_patch(c.id);
    KSHOT_RETURN_IF_ERROR(applied(rep, "sysbench patch"));
    prep_us += rep->sgx.total_us() / static_cast<double>(patches);
    pause_us += rep->smm.modeled_total_us / static_cast<double>(patches);
    KSHOT_RETURN_IF_ERROR(applied(t.kshot().rollback(), "sysbench rollback"));
    t.kshot().enclave().reset_mem_x_cursor();
  }
  const double window_us = 300'000;
  const double pause_pct = 100 * pause_us / (window_us + pause_us);
  const u64 oopses = t.scheduler().stats().oopses;
  KSHOT_RETURN_IF_ERROR(check(oopses == 0, "sysbench workload oopsed"));
  KSHOT_RETURN_IF_ERROR(check(pause_pct < 3, "sysbench overhead >= 3%"));
  Row r{"sysbench"};
  r.count("patches", patches)
      .count("oopses", oopses)
      .real("base_cycles_per_syscall", static_cast<double>(base_cycles) /
                                           static_cast<double>(base_syscalls))
      .cost("pause_us", pause_us)
      .cost("pause_overhead_pct", pause_pct);
  r.wall_us("prep_us", prep_us)
      .wall_us("combined_overhead_pct",
               100 * (prep_us + pause_us) / (window_us + prep_us + pause_us));
  return Rows{r};
}

/// Ablation A2 (§IV-B): hardware state saving (KShot, nothing
/// checkpointed) against KUP's software checkpoint as live threads grow.
Result<Rows> checkpoint_row(int threads, u64 seed) {
  const std::string id = "CVE-2014-0196";
  auto boot = [&]() {
    return testbed::Testbed::boot(cve::find_case(id), seeded(seed, threads));
  };
  auto tk = boot();
  if (!tk) return tk.status();
  (*tk)->scheduler().run(static_cast<u64>(threads) * 40);
  auto kshot = (*tk)->kshot().live_patch(id);
  KSHOT_RETURN_IF_ERROR(applied(kshot, "KShot"));
  auto tu = boot();
  if (!tu) return tu.status();
  testbed::Testbed& t = **tu;
  t.scheduler().run(static_cast<u64>(threads) * 40);
  auto post = t.server().build_post_image(id, t.compile_options());
  if (!post) return post.status();
  auto kup = baselines::KupSim(t.kernel(), t.scheduler()).apply(id, *post);
  KSHOT_RETURN_IF_ERROR(applied(kup, "KUP"));
  Row r{"a2-threads-" + std::to_string(threads)};
  r.count("threads", static_cast<u64>(threads))
      .cost("kshot_downtime_cycles", kshot->downtime_cycles)
      .cost("kup_downtime_cycles", kup->downtime_cycles)
      .count("kup_memory_bytes", kup->memory_overhead_bytes);
  return Rows{r};
}

/// Ablation A3, sizes both paths handle: what chunked staging (one SMI and
/// one MAC per chunk) costs against single-shot staging.
Result<Rows> chunked_row(size_t size, u32 chunk, u64 seed) {
  cve::CveCase c = testbed::make_size_sweep_case(size);
  Row r{"a3-" + std::to_string(size)};
  for (bool chunked : {false, true}) {
    auto tb = testbed::Testbed::boot(c, sized(size, seed));
    if (!tb) return tb.status();
    const auto t0 = Clock::now();
    auto rep = chunked ? (*tb)->kshot().live_patch_chunked(c.id, chunk)
                       : (*tb)->kshot().live_patch(c.id);
    const double wall = us_since(t0);
    KSHOT_RETURN_IF_ERROR(applied(rep, r.name));
    const std::string leg = chunked ? "chunked_" : "single_";
    r.count(leg + "smis", (*tb)->machine().smi_count())
        .cost(leg + "downtime_cycles", rep->downtime_cycles);
    r.wall_us(leg + "wall_us", wall);
  }
  return Rows{r};
}

/// Ablation A3, the paper's large-patch claim: a package larger than the
/// whole mem_W window, which single-shot staging must refuse and chunked
/// staging must deliver.
Result<Rows> over_mem_w_row(size_t size, size_t window, u32 chunk, u64 seed) {
  cve::CveCase c = testbed::make_size_sweep_case(size);
  testbed::TestbedOptions topts = sized(size, seed);
  topts.layout.mem_w_size = window - topts.layout.mem_rw_size;
  auto ts = testbed::Testbed::boot(c, topts);
  if (!ts) return ts.status();
  auto single = (*ts)->kshot().live_patch(c.id);
  const bool single_delivered = single && single->success;
  auto tc = testbed::Testbed::boot(c, topts);
  if (!tc) return tc.status();
  const auto t0 = Clock::now();
  auto chunked = (*tc)->kshot().live_patch_chunked(c.id, chunk);
  const double wall = us_since(t0);
  KSHOT_RETURN_IF_ERROR(
      check(!single_delivered, "single-shot staged a patch over mem_W"));
  KSHOT_RETURN_IF_ERROR(applied(chunked, "chunked patch over mem_W"));
  Row r{"a3-over-mem-w"};
  r.count("target_bytes", size)
      .count("package_bytes", chunked->stats.package_bytes)
      .count("staging_window_bytes", window)
      .count("single_delivered", single_delivered)
      .count("chunked_delivered", 1)
      .count("chunked_smis", (*tc)->machine().smi_count())
      .cost("chunked_downtime_cycles", chunked->downtime_cycles);
  r.wall_us("chunked_wall_us", wall);
  return Rows{r};
}

/// Fault campaign cell: `runs` seeded live patches of CVE-2014-0196 through
/// a channel that injects `type` at `rate`. Every run must end applied (and
/// is then rolled back) or leave kernel text and data byte-identical to
/// the pre-patch snapshot; anything else fails the run.
Result<Rows> fault_row(netsim::FaultType type, double rate, int runs,
                       u64 seed) {
  const std::string id = "CVE-2014-0196";
  testbed::TestbedOptions topts;
  topts.fault_plan = netsim::FaultPlan{};
  auto tb = testbed::Testbed::boot(cve::find_case(id), std::move(topts));
  if (!tb) return tb.status();
  testbed::Testbed& t = **tb;
  const auto& lay = t.kernel().layout();
  auto snapshot = [&] {
    Bytes s(t.kernel().image().text.size() + lay.data_max);
    MutByteSpan all(s.data(), s.size());
    const size_t text = t.kernel().image().text.size();
    auto a = t.machine().mem().read(lay.text_base, all.first(text),
                                    machine::AccessMode::smm());
    auto b = t.machine().mem().read(lay.data_base, all.subspan(text),
                                    machine::AccessMode::smm());
    return a.is_ok() && b.is_ok() ? s : Bytes{};
  };
  const Bytes before = snapshot();
  u64 failures = 0, attempts = 0, aborts = 0;
  double backoff_us = 0;
  char name[48];
  std::snprintf(name, sizeof(name), "fault-%s-%.2f",
                netsim::fault_type_name(type), rate);
  for (int i = 0; i < runs; ++i) {
    const u64 run_seed = seed + 1000003ull * static_cast<u64>(i);
    t.fault_injector()->reset(netsim::FaultPlan::uniform(type, rate),
                              run_seed);
    auto rep = t.kshot().live_patch(id);
    if (rep) {
      attempts += rep->resilience.fetch_attempts +
                  rep->resilience.apply_attempts;
      aborts += rep->resilience.session_aborts;
      backoff_us += rep->resilience.backoff_us;
    }
    if (rep && rep->success) {
      t.fault_injector()->reset(netsim::FaultPlan{}, run_seed);
      KSHOT_RETURN_IF_ERROR(applied(t.kshot().rollback(), name));
    } else {
      ++failures;
    }
    KSHOT_RETURN_IF_ERROR(
        check(!before.empty() && snapshot() == before,
              std::string(name) + " left the kernel changed"));
  }
  Row r{name};
  r.count("runs", static_cast<u64>(runs))
      .count("failures", failures)
      .count("attempts", attempts)
      .count("session_aborts", aborts)
      .cost("backoff_us", backoff_us);
  return Rows{r};
}

/// Ablation A1 (§VI-C2 remark): SHA-256 against the paper's suggested SDBM
/// and two other cheap hashes, as median microseconds per hash of one
/// payload (MB/s = bytes / µs). Host time only, so sidecar only.
Result<Rows> hash_row(size_t size, int reps) {
  const Bytes data = Rng(size * 31 + 7).next_bytes(size);
  volatile u64 sink = 0;
  auto median_us = [&](u64 (*hash)(ByteSpan)) {
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      sink = sink + hash(data);
      us.push_back(us_since(t0));
    }
    return summarize(std::move(us)).p50;
  };
  Row r{"a1-hash-" + std::to_string(size)};
  r.wall_us("sha256_us",
            median_us([](ByteSpan d) { return u64{crypto::sha256(d)[0]}; }))
      .wall_us("sdbm_us", median_us(crypto::sdbm))
      .wall_us("fnv1a_us", median_us(crypto::fnv1a))
      .wall_us("crc32_us",
               median_us([](ByteSpan d) { return u64{crypto::crc32(d)}; }));
  return Rows{r};
}

std::vector<RowFn> paper_rows(const BenchOptions& o) {
  const bool q = o.quick;
  const u64 s = o.seed;
  std::vector<RowFn> fns;
  for (const cve::CveCase& c : cve::all_cases()) {
    fns.push_back([&c, s] { return table1_row(c, s + 0x71); });
  }
  for (const std::string& id : cve::figure_case_ids()) {
    fns.push_back([=] { return figure_row(id, s + 0xF16, q ? 1 : 20); });
  }
  fns.push_back([=] { return rootkit_row(true, s + 1); });
  fns.push_back([=] { return rootkit_row(false, s + 2); });
  for (int sys = 0; sys < 4; ++sys) {
    fns.push_back([=] { return table5_row(sys, s + 5 + sys); });
  }
  fns.push_back([=] { return sysbench_row(q, s + 0x5B); });
  for (int threads : q ? std::vector<int>{1, 8}
                       : std::vector<int>{1, 2, 4, 8, 16, 32}) {
    fns.push_back([=] { return checkpoint_row(threads, s + 0xAB1); });
  }
  // Quick keeps A3 small: a 16 KB pair and a 64 KB patch through a 32 KB
  // staging window. Full: the paper-scale 64 KB–4 MB pairs and an 8 MB
  // patch through 4 MB.
  for (size_t size : q ? std::vector<size_t>{16 << 10}
                       : std::vector<size_t>{64 << 10, 1 << 20, 4 << 20}) {
    const u32 chunk = q ? 8 << 10 : 512 << 10;
    fns.push_back([=] { return chunked_row(size, chunk, s); });
  }
  fns.push_back([=] {
    return q ? over_mem_w_row(64 << 10, 32 << 10, 16 << 10, s)
             : over_mem_w_row(8 << 20, 4 << 20, 1 << 20, s);
  });
  const netsim::FaultType types[] = {
      netsim::FaultType::kDrop,      netsim::FaultType::kCorrupt,
      netsim::FaultType::kTruncate,  netsim::FaultType::kDuplicate,
      netsim::FaultType::kReorder,   netsim::FaultType::kDelay};
  u64 cell = 0;
  for (netsim::FaultType type : types) {
    for (double rate : {0.1, 0.3, 0.5}) {
      const int runs = q ? 2 : 10;
      const u64 seed = s + 0xBE7C4 + 1000003ull * runs * cell++;
      fns.push_back([=] { return fault_row(type, rate, runs, seed); });
    }
  }
  for (size_t size : q ? std::vector<size_t>{4096}
                       : std::vector<size_t>{40, 400, 4096, 40960, 409600}) {
    fns.push_back([=] { return hash_row(size, size > (64 << 10) ? 20 : 200); });
  }
  return fns;
}

}  // namespace

Result<BenchResults> run_bench(const BenchOptions& opts) {
  const std::pair<std::string, std::vector<RowFn>> plans[] = {
      {"table3", table3_rows(opts)},
      {"batch", batch_rows(opts)},
      {"paper", paper_rows(opts)}};
  std::vector<const RowFn*> fns;
  for (const auto& [bench, rows] : plans) {
    for (const RowFn& f : rows) fns.push_back(&f);
  }
  std::vector<Result<Rows>> out(fns.size(), Rows{});
  parallel_for(static_cast<u32>(fns.size()), opts.jobs,
               [&](u32 i) { out[i] = (*fns[i])(); });

  BenchResults docs;
  size_t next = 0;
  for (const auto& [bench, fns_of_doc] : plans) {
    Rows rows;
    for (size_t k = 0; k < fns_of_doc.size(); ++k, ++next) {
      if (!out[next]) return out[next].status();
      rows.insert(rows.end(), out[next]->begin(), out[next]->end());
    }
    docs.push_back({"BENCH_" + bench + ".json",
                    emit(bench, opts, rows, false), true});
    docs.push_back({"BENCH_" + bench + "_wall.json",
                    emit(bench, opts, rows, true), false});
  }
  return docs;
}

// ---- Gate -----------------------------------------------------------------

namespace {

/// Strict-enough parser for the canonical documents run_bench emits.
class JsonParser {
 public:
  JsonParser(const std::string& s, std::map<std::string, double>& out)
      : start_(s.c_str()),
        p_(s.c_str()),
        end_(s.c_str() + s.size()),
        out_(out) {}

  Status parse() {
    KSHOT_RETURN_IF_ERROR(value(""));
    skip_ws();
    if (p_ != end_) return err("trailing content");
    return Status::ok();
  }

 private:
  Status value(const std::string& path) {
    skip_ws();
    if (p_ == end_) return err("unexpected end");
    switch (*p_) {
      case '{': return object(path);
      case '[': return array(path);
      case '"': {
        std::string s;
        return string(&s);
      }
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number(path);
    }
  }

  Status object(const std::string& path) {
    ++p_;  // '{'
    skip_ws();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return Status::ok();
    }
    while (true) {
      skip_ws();
      std::string key;
      KSHOT_RETURN_IF_ERROR(string(&key));
      skip_ws();
      if (p_ == end_ || *p_ != ':') return err("expected ':'");
      ++p_;
      KSHOT_RETURN_IF_ERROR(
          value(path.empty() ? key : path + "." + key));
      skip_ws();
      if (p_ != end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (p_ != end_ && *p_ == '}') {
        ++p_;
        return Status::ok();
      }
      return err("expected ',' or '}'");
    }
  }

  Status array(const std::string& path) {
    ++p_;  // '['
    skip_ws();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return Status::ok();
    }
    size_t i = 0;
    while (true) {
      KSHOT_RETURN_IF_ERROR(value(path + "[" + std::to_string(i++) + "]"));
      skip_ws();
      if (p_ != end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (p_ != end_ && *p_ == ']') {
        ++p_;
        return Status::ok();
      }
      return err("expected ',' or ']'");
    }
  }

  Status string(std::string* out) {
    skip_ws();
    if (p_ == end_ || *p_ != '"') return err("expected string");
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\' && p_ + 1 != end_) ++p_;
      out->push_back(*p_++);
    }
    if (p_ == end_) return err("unterminated string");
    ++p_;
    return Status::ok();
  }

  Status number(const std::string& path) {
    char* after = nullptr;
    double v = std::strtod(p_, &after);
    if (after == p_) return err("expected number");
    p_ = after;
    out_[path] = v;
    return Status::ok();
  }

  Status literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < n || std::strncmp(p_, lit, n) != 0) {
      return err("bad literal");
    }
    p_ += n;
    return Status::ok();
  }

  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r')) {
      ++p_;
    }
  }

  Status err(const char* what) const {
    return Status{Errc::kInvalidArgument,
                  std::string("bench json: ") + what + " at offset " +
                      std::to_string(p_ - start_)};
  }

  const char* start_;
  const char* p_;
  const char* end_;
  std::map<std::string, double>& out_;
};

/// The leaf walk behind both gates: every baseline leaf absent from
/// `current`, or above its baseline by more than `tolerance` (relative).
/// The hard gate files them as missing keys and regressions; the soft gate
/// files both as warnings, a missing key with current 0.
Result<GateReport> compare(const std::string& baseline_json,
                           const std::string& current_json, double tolerance,
                           bool soft) {
  auto base = flatten_json(baseline_json);
  if (!base) return base.status();
  auto cur = flatten_json(current_json);
  if (!cur) return cur.status();

  GateReport report;
  for (const auto& [key, bval] : *base) {
    auto it = cur->find(key);
    if (it == cur->end()) {
      if (soft) {
        report.warnings.push_back({key, bval, 0.0});
      } else {
        report.missing_keys.push_back(key);
      }
      continue;
    }
    double limit = bval >= 0 ? bval * (1.0 + tolerance) + 1e-9
                             : bval * (1.0 - tolerance) + 1e-9;
    if (it->second > limit) {
      (soft ? report.warnings : report.regressions)
          .push_back({key, bval, it->second});
    }
  }
  return report;
}

}  // namespace

Result<std::map<std::string, double>> flatten_json(const std::string& json) {
  std::map<std::string, double> out;
  JsonParser parser(json, out);
  KSHOT_RETURN_IF_ERROR(parser.parse());
  return out;
}

std::string GateReport::to_string() const {
  std::string s;
  // Wall warnings first: they never affect ok(), but a gate that passes
  // with warnings must still show them.
  for (const auto& f : warnings) {
    char b[192];
    std::snprintf(b, sizeof(b),
                  "bench gate: WALL WARNING (not gated) %s: baseline %.6f -> "
                  "current %.6f (+%.2f%%)\n",
                  f.key.c_str(), f.baseline, f.current,
                  100.0 * (f.current - f.baseline) /
                      (f.baseline == 0 ? 1 : f.baseline));
    s += b;
  }
  if (ok()) return s + "bench gate: OK\n";
  for (const auto& k : missing_keys) {
    s += "bench gate: key missing from current run: " + k + "\n";
  }
  for (const auto& f : regressions) {
    char b[192];
    std::snprintf(b, sizeof(b),
                  "bench gate: REGRESSION %s: baseline %.6f -> current %.6f "
                  "(+%.2f%%)\n",
                  f.key.c_str(), f.baseline, f.current,
                  100.0 * (f.current - f.baseline) /
                      (f.baseline == 0 ? 1 : f.baseline));
    s += b;
  }
  return s;
}

Result<GateReport> gate_compare(const std::string& baseline_json,
                                const std::string& current_json,
                                double tolerance) {
  return compare(baseline_json, current_json, tolerance, false);
}

Result<GateReport> wall_compare(const std::string& baseline_json,
                                const std::string& current_json,
                                double tolerance) {
  // A vanished wall key is a sidecar-layout change, not a perf event, so it
  // only warns: renames don't fail anyone's build.
  return compare(baseline_json, current_json, tolerance, true);
}

}  // namespace kshot::benchkit
