#include "benchkit/benchkit.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/parallel.hpp"
#include "cve/synth.hpp"
#include "fleet/fleet.hpp"
#include "fleetscale/fleetscale.hpp"
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
  void open_row() { open_obj(); }
  void close_row() { close_obj(); }
  void field(const std::string& key, const std::string& str_value) {
    field_raw(key, "\"" + str_value + "\"");
  }
  void field_raw(const std::string& key, const std::string& raw) {
    sep();
    pad();
    out_ += "\"" + key + "\": " + raw;
  }
  void field(const std::string& key, double v) { field_raw(key, fmt(v)); }
  void field(const std::string& key, u64 v) { field_raw(key, fmt(v)); }
  void field(const std::string& key, bool v) {
    field_raw(key, v ? "true" : "false");
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

// ---- Scenario definitions -------------------------------------------------

std::vector<size_t> sweep_sizes(bool quick) {
  if (quick) return {64, 1024, 4096};
  return {64, 400, 4096, 40960, 409600};
}

/// sim-4.4 cases with pairwise-distinct functions — combinable into one
/// merged kernel for the batched legs.
const std::vector<std::string>& batchable_ids() {
  static const std::vector<std::string> kIds = {
      "CVE-2016-2543", "CVE-2016-4578", "CVE-2016-4580", "CVE-2016-5829",
      "CVE-2016-7916"};
  return kIds;
}

std::vector<u32> batch_ks(bool quick) {
  (void)quick;
  return {2, 5};  // K=5 backs the strictly-faster acceptance criterion
}

// ---- Table 3: patch-size sweep -------------------------------------------

struct T3Row {
  size_t target_bytes = 0;
  Status st = Status::ok();
  // Modeled (golden-compared).
  u64 code_bytes = 0, package_bytes = 0, functions = 0;
  u64 downtime_cycles = 0, smis = 0;
  u64 detection_cycles = 0;  // TOCTOU-hardening share of the downtime
  double modeled_total_us = 0;
  // Wall (sidecar only).
  double decrypt_us = 0, verify_us = 0, apply_us = 0, total_us = 0;
  double fetch_us = 0, preprocess_us = 0, passing_us = 0;
};

T3Row run_t3_row(size_t size, u64 seed) {
  T3Row row;
  row.target_bytes = size;
  cve::CveCase c = testbed::make_size_sweep_case(size);
  testbed::TestbedOptions topts;
  topts.layout = testbed::layout_for_patch_bytes(size);
  topts.seed = seed;
  auto tb = testbed::Testbed::boot(c, std::move(topts));
  if (!tb) {
    row.st = tb.status();
    return row;
  }
  testbed::Testbed& t = **tb;
  auto rep = t.kshot().live_patch(c.id);
  if (!rep) {
    row.st = rep.status();
    return row;
  }
  if (!rep->success) {
    row.st = Status{Errc::kInternal,
                    std::string("live_patch failed: ") +
                        core::smm_status_name(rep->smm_status)};
    return row;
  }
  row.code_bytes = rep->stats.code_bytes;
  row.package_bytes = rep->stats.package_bytes;
  row.functions = rep->stats.functions;
  row.downtime_cycles = rep->downtime_cycles;
  row.modeled_total_us = rep->smm.modeled_total_us;
  row.smis = t.machine().smi_count();
  row.detection_cycles = t.kshot().handler().detection_overhead_cycles();
  row.decrypt_us = rep->smm.decrypt_us;
  row.verify_us = rep->smm.verify_us;
  row.apply_us = rep->smm.apply_us;
  row.total_us = rep->smm.total_us;
  row.fetch_us = rep->sgx.fetch_us;
  row.preprocess_us = rep->sgx.preprocess_us;
  row.passing_us = rep->sgx.passing_us;
  return row;
}

/// Splice-vs-trampoline leg (gated table3 row): the same splice-eligible
/// case applied twice on identical deployments — once through the default
/// mem_X + trampoline path, once with LifecycleOptions::allow_splice so the
/// enclave lays the body out in place. Both downtime figures are modeled
/// (virtual cycles), so the row is golden-comparable and the in-place
/// write's cheaper per-byte cost shows up as a deterministic reduction.
struct T3SpliceRow {
  Status st = Status::ok();
  u64 code_bytes = 0;
  u64 tramp_downtime_cycles = 0;
  u64 splice_downtime_cycles = 0;
  u64 spliced = 0;  // members installed in place (must be > 0)
};

T3SpliceRow run_t3_splice_row(size_t size, u64 seed) {
  T3SpliceRow row;
  cve::CveCase c = testbed::make_splice_sweep_case(size);
  auto leg = [&](bool splice) -> Result<u64> {
    testbed::TestbedOptions topts;
    topts.layout = testbed::layout_for_patch_bytes(size);
    topts.seed = seed;
    auto tb = testbed::Testbed::boot(c, std::move(topts));
    if (!tb) return tb.status();
    core::LifecycleOptions lo;
    lo.allow_splice = splice;
    auto rep = (*tb)->kshot().live_patch(c.id, lo);
    if (!rep) return rep.status();
    if (!rep->success) {
      return Status{Errc::kInternal,
                    std::string("splice-leg apply failed: ") +
                        core::smm_status_name(rep->smm_status)};
    }
    auto inv = (*tb)->kshot().query_applied();
    if (!inv) return inv.status();
    if (inv->units.size() != 1) {
      return Status{Errc::kInternal, "splice leg: expected one applied unit"};
    }
    row.code_bytes = inv->units[0].code_bytes;
    if (splice) {
      row.spliced = inv->units[0].spliced;
      if (row.spliced == 0) {
        return Status{Errc::kInternal,
                      "splice leg installed no in-place members: " + c.id};
      }
    }
    return rep->downtime_cycles;
  };
  auto tramp = leg(false);
  if (!tramp) {
    row.st = tramp.status();
    return row;
  }
  row.tramp_downtime_cycles = *tramp;
  auto spliced = leg(true);
  if (!spliced) {
    row.st = spliced.status();
    return row;
  }
  row.splice_downtime_cycles = *spliced;
  return row;
}

// ---- Multi-CPU rendezvous legs (gated table3 rows) ------------------------
// Minimal payload, so the rendezvous/resume machinery dominates: the gated
// ratio proves parallel SMI entry + early AP release keep the 16-CPU
// downtime within a small multiple of 1-CPU, while the serial row records
// what the naive one-entry-per-CPU model would cost.

struct T3McpuRow {
  Status st = Status::ok();
  u32 cpus = 1;
  bool serial = false;
  u64 downtime_cycles = 0;
  u64 rendezvous_cycles = 0, handler_cycles = 0, resume_cycles = 0;
};

T3McpuRow run_t3_mcpu_row(u32 cpus, bool serial, u64 seed) {
  T3McpuRow row;
  row.cpus = cpus;
  row.serial = serial;
  const size_t size = 64;
  cve::CveCase c = testbed::make_size_sweep_case(size);
  testbed::TestbedOptions topts;
  topts.layout = testbed::layout_for_patch_bytes(size);
  topts.seed = seed;
  topts.cpus = cpus;
  topts.serial_rendezvous = serial;
  auto tb = testbed::Testbed::boot(c, std::move(topts));
  if (!tb) {
    row.st = tb.status();
    return row;
  }
  auto rep = (*tb)->kshot().live_patch(c.id);
  if (!rep || !rep->success) {
    row.st = !rep ? rep.status()
                  : Status{Errc::kInternal, "mcpu-leg apply failed"};
    return row;
  }
  row.downtime_cycles = rep->downtime_cycles;
  row.rendezvous_cycles = rep->rendezvous_cycles;
  row.handler_cycles = rep->handler_cycles;
  row.resume_cycles = rep->resume_cycles;
  return row;
}

// ---- Zero-copy staging leg (gated table3 row) -----------------------------
// smm.staged_copies counts actual byte copies of staged package data. Gated:
// copies_per_package must stay at 1 (the SMM write); everything before it is
// a borrowed span over the decrypted envelope.

struct T3CopyRow {
  Status st = Status::ok();
  u64 copies = 0;
};

T3CopyRow run_t3_copy_row(u64 seed) {
  T3CopyRow row;
  const size_t size = 4096;
  cve::CveCase c = testbed::make_size_sweep_case(size);
  obs::MetricsRegistry reg;
  testbed::TestbedOptions topts;
  topts.layout = testbed::layout_for_patch_bytes(size);
  topts.seed = seed;
  topts.metrics = &reg;
  auto tb = testbed::Testbed::boot(c, std::move(topts));
  if (!tb) {
    row.st = tb.status();
    return row;
  }
  auto rep = (*tb)->kshot().live_patch(c.id);
  if (!rep) {
    row.st = rep.status();
  } else if (!rep->success) {
    row.st = Status{Errc::kInternal, "copy-leg apply failed"};
  } else {
    row.copies = reg.counter("smm.staged_copies").value();
  }
  return row;
}

// ---- Table 4: batched-session matrix -------------------------------------

struct T4BatchRow {
  u32 k = 0;
  Status st = Status::ok();
  u64 seq_downtime_cycles = 0, batch_downtime_cycles = 0;
  u64 seq_smis = 0, batch_smis = 0;
  u64 installed = 0;
  double modeled_batch_us = 0;
};

T4BatchRow run_t4_batch_row(u32 k, u64 seed) {
  T4BatchRow row;
  row.k = k;
  std::vector<std::string> ids(batchable_ids().begin(),
                               batchable_ids().begin() + k);
  auto batch = cve::combine_cases(ids);
  if (!batch) {
    row.st = batch.status();
    return row;
  }
  auto parts = cve::batch_part_cases(ids);
  if (!parts) {
    row.st = parts.status();
    return row;
  }

  auto boot = [&](u64 s) -> Result<std::unique_ptr<testbed::Testbed>> {
    testbed::TestbedOptions topts;
    topts.seed = s;
    auto tb = testbed::Testbed::boot(batch->merged, std::move(topts));
    if (!tb) return tb.status();
    for (const auto& p : *parts) {
      (*tb)->server().add_patch({p.id, p.kernel, p.pre_source,
                                 p.post_source});
    }
    return tb;
  };

  // Batched leg: one seal->stage->apply session for all K packages.
  auto tb_batch = boot(seed);
  if (!tb_batch) {
    row.st = tb_batch.status();
    return row;
  }
  auto rep = (*tb_batch)->kshot().live_patch_batch(ids);
  if (!rep || !rep->success) {
    row.st = !rep ? rep.status()
                  : Status{Errc::kInternal,
                           std::string("batch apply failed: ") +
                               core::smm_status_name(rep->smm_status)};
    return row;
  }
  row.batch_downtime_cycles = rep->downtime_cycles;
  row.batch_smis = (*tb_batch)->machine().smi_count();
  row.installed = (*tb_batch)->kshot().handler().installed().size();
  row.modeled_batch_us = rep->smm.modeled_total_us;

  // Sequential leg: K independent sessions on an identical deployment.
  auto tb_seq = boot(seed);
  if (!tb_seq) {
    row.st = tb_seq.status();
    return row;
  }
  for (const auto& id : ids) {
    auto r = (*tb_seq)->kshot().live_patch(id);
    if (!r || !r->success) {
      row.st = Status{Errc::kInternal, "sequential apply failed: " + id};
      return row;
    }
    row.seq_downtime_cycles += r->downtime_cycles;
  }
  row.seq_smis = (*tb_seq)->machine().smi_count();
  return row;
}

struct T4AdversaryRow {
  Status st = Status::ok();
  u64 targets = 0, quarantined = 0, recovered = 0;
  u64 total_detections = 0;
  /// Modeled escalating backoff charged to quarantine recovery rounds
  /// across the fleet (microseconds).
  double recovery_cost_us = 0;
};

/// Small fleet campaign under a deterministic per-target async adversary;
/// quantifies what quarantine recovery costs the rollout. Wave aborts are
/// disabled so the row is a pure function of the schedules, and the fleet's
/// internal jobs width is a fixed constant (the report is byte-identical
/// across it anyway).
T4AdversaryRow run_t4_adversary_row(bool quick, u64 seed) {
  T4AdversaryRow row;
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
  if (!rep) {
    row.st = rep.status();
    return row;
  }
  row.targets = rep->targets;
  row.quarantined = rep->quarantined;
  row.recovered = rep->recovered;
  row.total_detections = rep->total_detections;
  for (const auto& r : rep->results) {
    for (u32 round = 0; round < r.quarantine_rounds; ++round) {
      row.recovery_cost_us +=
          fleet::RolloutPlan::kQuarantineBackoffUs * (1u << round);
    }
  }
  return row;
}

struct T4FleetRow {
  Status st = Status::ok();
  u64 targets = 0, applied = 0, waves = 0;
  double downtime_p50_us = 0, e2e_p50_us = 0;
  double makespan_w1_us = 0, makespan_w4_us = 0;
  u64 prep_hits = 0, prep_misses = 0;  // sidecar; boolean is golden
};

T4FleetRow run_t4_fleet_row(bool quick, u64 seed) {
  T4FleetRow row;
  fleet::FleetOptions fo;
  fo.batch_cve_ids = {batchable_ids()[0], batchable_ids()[1],
                      batchable_ids()[2]};
  fo.targets = quick ? 4 : 8;
  // Internal widths are fixed constants: the fleet report is byte-identical
  // across its own jobs level, and the makespan is evaluated at fixed
  // *virtual* widths below, so the bench --jobs flag never leaks in.
  fo.jobs = 2;
  fo.prep_jobs = 2;
  fo.base_seed = seed;
  fleet::FleetController fc(fo);
  auto rep = fc.run_campaign();
  if (!rep) {
    row.st = rep.status();
    return row;
  }
  row.targets = rep->targets;
  row.applied = rep->applied;
  row.waves = rep->waves_run;
  row.downtime_p50_us = rep->downtime_us.p50;
  row.e2e_p50_us = rep->e2e_us.p50;
  row.makespan_w1_us = fleet::modeled_makespan_us(*rep, 1);
  row.makespan_w4_us = fleet::modeled_makespan_us(*rep, 4);
  row.prep_hits = fc.server().prep_hits();
  row.prep_misses = fc.server().prep_misses();
  return row;
}

struct T4ScaleRow {
  Status st = Status::ok();
  u64 targets = 0, applied = 0, waves = 0;
  double makespan_us = 0;
  /// Emitted as a *miss* ratio (lower is better) so the gate's
  /// increase-is-regression rule applies directly; the hit ratio lives in
  /// the wall sidecar.
  double relay_miss_ratio = 0;
  double relay_hit_ratio = 0;
  double downtime_p99_us = 0;
  u64 origin_fetches = 0;
};

/// Planet-scale modeled rollout: prices the sharded coordinator + relay
/// tier end to end. Internal shards/jobs are fixed constants — the report
/// is byte-identical across both, so the bench --jobs flag never leaks in.
T4ScaleRow run_t4_scale_row(bool quick, u64 seed) {
  T4ScaleRow row;
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
  if (!rep) {
    row.st = rep.status();
    return row;
  }
  row.targets = rep->targets;
  row.applied = rep->applied;
  row.waves = rep->waves.size();
  row.makespan_us = rep->modeled_makespan_us;
  row.relay_miss_ratio =
      rep->relay.pulls() == 0
          ? 0
          : static_cast<double>(rep->relay.misses) / rep->relay.pulls();
  row.relay_hit_ratio = rep->relay.hit_rate();
  row.downtime_p99_us = rep->downtime_us.p99;
  row.origin_fetches = rep->origin_fetches;
  return row;
}

struct T4SynthRow {
  Status st = Status::ok();
  u64 cases = 0, failed = 0;
  u64 live_downtime_cycles = 0;
  u64 live_code_bytes = 0;
  double live_modeled_us = 0;
};

/// Auto-CVE synthesis row (DESIGN.md §14): a fixed-size campaign in which
/// every synthesized case must pass the probe-contract, differential, and
/// diff-confinement oracles (`oracle_failures` is gated at 0), plus one
/// live-patched synthesized case pricing the end-to-end pipeline on
/// generated input. The campaign's internal jobs width is a fixed constant;
/// its report is byte-identical across it anyway.
T4SynthRow run_t4_synth_row(bool quick, u64 seed) {
  T4SynthRow row;
  cve::CampaignOptions co;
  co.seed = seed ^ 0x5D17;
  co.cases = quick ? 12 : 24;
  co.jobs = 2;
  auto rep = cve::run_campaign(co);
  if (!rep) {
    row.st = rep.status();
    return row;
  }
  row.cases = rep->cases;
  row.failed = rep->failed;

  auto sc = cve::make_case(cve::BugClass::kOobWrite,
                           cve::synth_case_seed(co.seed, 0));
  if (!sc) {
    row.st = sc.status();
    return row;
  }
  auto tb = testbed::Testbed::boot(sc->cve, {.seed = seed});
  if (!tb) {
    row.st = tb.status();
    return row;
  }
  auto patched = (*tb)->kshot().live_patch(sc->cve.id);
  if (!patched) {
    row.st = patched.status();
    return row;
  }
  if (!patched->success) {
    row.st = Status{Errc::kInternal, "synth live patch failed"};
    return row;
  }
  row.live_downtime_cycles = patched->downtime_cycles;
  row.live_code_bytes = patched->stats.code_bytes;
  row.live_modeled_us = patched->smm.modeled_total_us;
  return row;
}

void meta_header(const char* bench, const BenchOptions& o, Json& j) {
  j.open_obj();
  j.field("bench", std::string(bench));
  char seed[32];
  std::snprintf(seed, sizeof(seed), "0x%llx",
                static_cast<unsigned long long>(o.seed));
  j.field("seed", std::string(seed));
  j.field("quick", o.quick);
}

}  // namespace

Result<BenchResults> run_bench(const BenchOptions& opts) {
  const double cs = opts.cost_scale;
  BenchResults res;

  // ---- Table 3 ------------------------------------------------------------
  std::vector<size_t> sizes = sweep_sizes(opts.quick);
  std::vector<T3Row> t3(sizes.size());
  T3SpliceRow splice_row;
  const size_t splice_bytes = 4096;
  // Multi-CPU legs share one seed so 1/4/16 differ only in topology.
  const std::vector<std::pair<u32, bool>> mcpu_cfgs = {
      {1, false}, {4, false}, {16, false}, {16, true}};
  std::vector<T3McpuRow> mcpu(mcpu_cfgs.size());
  T3CopyRow copy_row;
  // Extra thunks: splice leg, the mcpu legs, and the zero-copy leg.
  const u32 extra = 2 + static_cast<u32>(mcpu_cfgs.size());
  parallel_for(static_cast<u32>(sizes.size()) + extra, opts.jobs, [&](u32 i) {
    if (i < sizes.size()) {
      t3[i] = run_t3_row(sizes[i], opts.seed + 7919 * (i + 1));
    } else if (i == sizes.size()) {
      splice_row = run_t3_splice_row(splice_bytes, opts.seed + 104033);
    } else if (i == sizes.size() + 1) {
      copy_row = run_t3_copy_row(opts.seed + 7);
    } else {
      size_t m = i - sizes.size() - 2;
      mcpu[m] = run_t3_mcpu_row(mcpu_cfgs[m].first, mcpu_cfgs[m].second,
                                opts.seed + 31);
    }
  });
  for (const T3Row& r : t3) {
    if (!r.st.is_ok()) return r.st;
  }
  if (!splice_row.st.is_ok()) return splice_row.st;
  if (!copy_row.st.is_ok()) return copy_row.st;
  for (const T3McpuRow& r : mcpu) {
    if (!r.st.is_ok()) return r.st;
  }

  {
    Json j;
    meta_header("table3", opts, j);
    j.open_arr("rows");
    for (const T3Row& r : t3) {
      j.open_row();
      j.field("name", "sweep-" + std::to_string(r.target_bytes));
      j.field("target_bytes", static_cast<u64>(r.target_bytes));
      j.field("code_bytes", r.code_bytes);
      j.field("package_bytes", r.package_bytes);
      j.field("functions", r.functions);
      j.field("downtime_cycles", scaled(r.downtime_cycles, cs));
      j.field("modeled_total_us", r.modeled_total_us * cs);
      j.field("smi_count", r.smis);
      j.field("detection_overhead", scaled(r.detection_cycles, cs));
      j.close_row();
    }
    j.open_row();
    j.field("name", "splice-" + std::to_string(splice_bytes));
    j.field("code_bytes", splice_row.code_bytes);
    j.field("trampoline_downtime_cycles",
            scaled(splice_row.tramp_downtime_cycles, cs));
    j.field("splice_downtime_cycles",
            scaled(splice_row.splice_downtime_cycles, cs));
    // Gated ratio (lower is better): in-place splicing must stay cheaper
    // than the mem_X + trampoline path for the same body.
    j.field("splice_cost_ratio",
            static_cast<double>(splice_row.splice_downtime_cycles) /
                static_cast<double>(splice_row.tramp_downtime_cycles));
    j.field("spliced_members", splice_row.spliced);
    j.close_row();
    for (const T3McpuRow& r : mcpu) {
      j.open_row();
      j.field("name", std::string("mcpu-") + std::to_string(r.cpus) +
                          (r.serial ? "-serial" : ""));
      j.field("cpus", static_cast<u64>(r.cpus));
      j.field("downtime_cycles", scaled(r.downtime_cycles, cs));
      j.field("rendezvous_cycles", scaled(r.rendezvous_cycles, cs));
      j.field("handler_cycles", scaled(r.handler_cycles, cs));
      j.field("resume_cycles", scaled(r.resume_cycles, cs));
      j.close_row();
    }
    // Gated ratios (lower is better). mcpu[0]=1 cpu, [2]=16 parallel,
    // [3]=16 serial: parallel rendezvous + early AP release must keep the
    // 16-CPU downtime within a small multiple of the 1-CPU baseline, while
    // the serial model's ratio documents what was recovered.
    j.open_row();
    j.field("name", std::string("mcpu-ratios"));
    j.field("mcpu16_vs_1_ratio",
            cs * static_cast<double>(mcpu[2].downtime_cycles) /
                static_cast<double>(mcpu[0].downtime_cycles));
    j.field("serial16_vs_1_ratio",
            cs * static_cast<double>(mcpu[3].downtime_cycles) /
                static_cast<double>(mcpu[0].downtime_cycles));
    j.close_row();
    // Gated copy accounting: staged package bytes are copied exactly once
    // (the SMM write).
    j.open_row();
    j.field("name", std::string("zero-copy"));
    j.field("copies_per_package", copy_row.copies);
    j.close_row();
    j.close_arr();
    j.close_obj();
    res.table3_json = j.finish();
  }
  {
    Json j;
    meta_header("table3-wall", opts, j);
    j.open_arr("rows");
    for (const T3Row& r : t3) {
      j.open_row();
      j.field("name", "sweep-" + std::to_string(r.target_bytes));
      j.field("decrypt_us", r.decrypt_us);
      j.field("verify_us", r.verify_us);
      j.field("apply_us", r.apply_us);
      j.field("total_us", r.total_us);
      j.field("fetch_us", r.fetch_us);
      j.field("preprocess_us", r.preprocess_us);
      j.field("passing_us", r.passing_us);
      j.close_row();
    }
    j.close_arr();
    j.close_obj();
    res.table3_wall_json = j.finish();
  }

  // ---- Table 4 ------------------------------------------------------------
  std::vector<u32> ks = batch_ks(opts.quick);
  std::vector<T4BatchRow> t4(ks.size());
  T4FleetRow fleet_row;
  T4AdversaryRow adv_row;
  T4ScaleRow scale_row;
  T4SynthRow synth_row;
  // One thunk per row (the fleet/synth rows are indices ks.size() ..
  // ks.size()+3).
  parallel_for(static_cast<u32>(ks.size()) + 4, opts.jobs, [&](u32 i) {
    if (i < ks.size()) {
      t4[i] = run_t4_batch_row(ks[i], opts.seed + 104729 * (i + 1));
    } else if (i == ks.size()) {
      fleet_row = run_t4_fleet_row(opts.quick, opts.seed);
    } else if (i == ks.size() + 1) {
      adv_row = run_t4_adversary_row(opts.quick, opts.seed);
    } else if (i == ks.size() + 2) {
      scale_row = run_t4_scale_row(opts.quick, opts.seed);
    } else {
      synth_row = run_t4_synth_row(opts.quick, opts.seed);
    }
  });
  for (const T4BatchRow& r : t4) {
    if (!r.st.is_ok()) return r.st;
  }
  if (!fleet_row.st.is_ok()) return fleet_row.st;
  if (!adv_row.st.is_ok()) return adv_row.st;
  if (!scale_row.st.is_ok()) return scale_row.st;
  if (!synth_row.st.is_ok()) return synth_row.st;

  {
    Json j;
    meta_header("table4", opts, j);
    j.open_arr("rows");
    for (const T4BatchRow& r : t4) {
      j.open_row();
      j.field("name", "batch-k" + std::to_string(r.k));
      j.field("k", static_cast<u64>(r.k));
      j.field("seq_downtime_cycles", scaled(r.seq_downtime_cycles, cs));
      j.field("batch_downtime_cycles", scaled(r.batch_downtime_cycles, cs));
      j.field("seq_smis", r.seq_smis);
      j.field("batch_smis", r.batch_smis);
      j.field("installed", r.installed);
      j.field("modeled_batch_us", r.modeled_batch_us * cs);
      // Emitted as a cost ratio (lower is better) so the gate's
      // increase-is-regression rule applies directly.
      j.field("batch_cost_ratio",
              static_cast<double>(r.batch_downtime_cycles) /
                  static_cast<double>(r.seq_downtime_cycles));
      j.close_row();
    }
    j.open_row();
    j.field("name", std::string("fleet-batched"));
    j.field("targets", fleet_row.targets);
    j.field("applied_deficit", fleet_row.targets - fleet_row.applied);
    j.field("waves", fleet_row.waves);
    j.field("downtime_p50_us", fleet_row.downtime_p50_us * cs);
    j.field("e2e_p50_us", fleet_row.e2e_p50_us * cs);
    j.field("makespan_w1_us", fleet_row.makespan_w1_us * cs);
    j.field("makespan_w4_us", fleet_row.makespan_w4_us * cs);
    j.field("prep_cache_hit", fleet_row.prep_hits > 0);
    j.close_row();
    j.open_row();
    j.field("name", std::string("fleet-adversary"));
    j.field("targets", adv_row.targets);
    j.field("quarantined", adv_row.quarantined);
    j.field("recovered", adv_row.recovered);
    j.field("total_detections", adv_row.total_detections);
    j.field("quarantine_recovery_cost", adv_row.recovery_cost_us * cs);
    j.close_row();
    j.open_row();
    j.field("name", std::string("fleet-scale"));
    j.field("targets", scale_row.targets);
    j.field("applied_deficit", scale_row.targets - scale_row.applied);
    j.field("waves", scale_row.waves);
    j.field("makespan_us", scale_row.makespan_us * cs);
    j.field("relay_miss_ratio", scale_row.relay_miss_ratio * cs);
    j.field("downtime_p99_us", scale_row.downtime_p99_us * cs);
    j.close_row();
    j.open_row();
    j.field("name", std::string("synth-campaign"));
    j.field("cases", synth_row.cases);
    // Gated at 0: any synthesized case failing its oracle stack regresses.
    j.field("oracle_failures", synth_row.failed);
    j.field("live_code_bytes", synth_row.live_code_bytes);
    j.field("live_downtime_cycles", scaled(synth_row.live_downtime_cycles, cs));
    j.field("live_modeled_us", synth_row.live_modeled_us * cs);
    j.close_row();
    j.close_arr();
    j.close_obj();
    res.table4_json = j.finish();
  }
  {
    Json j;
    meta_header("table4-wall", opts, j);
    j.open_arr("rows");
    j.open_row();
    j.field("name", std::string("fleet-batched"));
    // Exact hit/miss counts can shift with build interleaving, so they are
    // sidecar-only; the golden document keeps just the hit>0 boolean.
    j.field("prep_hits", fleet_row.prep_hits);
    j.field("prep_misses", fleet_row.prep_misses);
    j.close_row();
    j.open_row();
    j.field("name", std::string("fleet-scale"));
    // Hit ratio improves over time; the gate only flags increases, so it
    // stays out of the golden document (the gated miss ratio covers it).
    j.field("relay_hit_ratio", scale_row.relay_hit_ratio);
    j.field("origin_fetches", scale_row.origin_fetches);
    j.close_row();
    j.close_arr();
    j.close_obj();
    res.table4_wall_json = j.finish();
  }
  return res;
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
  auto base = flatten_json(baseline_json);
  if (!base) return base.status();
  auto cur = flatten_json(current_json);
  if (!cur) return cur.status();

  GateReport report;
  for (const auto& [key, bval] : *base) {
    auto it = cur->find(key);
    if (it == cur->end()) {
      report.missing_keys.push_back(key);
      continue;
    }
    double limit = bval >= 0 ? bval * (1.0 + tolerance) + 1e-9
                             : bval * (1.0 - tolerance) + 1e-9;
    if (it->second > limit) {
      report.regressions.push_back({key, bval, it->second});
    }
  }
  return report;
}

Result<GateReport> wall_compare(const std::string& baseline_json,
                                const std::string& current_json,
                                double tolerance) {
  auto base = flatten_json(baseline_json);
  if (!base) return base.status();
  auto cur = flatten_json(current_json);
  if (!cur) return cur.status();

  GateReport report;
  for (const auto& [key, bval] : *base) {
    auto it = cur->find(key);
    if (it == cur->end()) {
      // A vanished wall key is a sidecar-layout change, not a perf event;
      // note it softly so renames don't fail anyone's build.
      report.warnings.push_back({key, bval, 0.0});
      continue;
    }
    double limit = bval >= 0 ? bval * (1.0 + tolerance) + 1e-9
                             : bval * (1.0 - tolerance) + 1e-9;
    if (it->second > limit) {
      report.warnings.push_back({key, bval, it->second});
    }
  }
  return report;
}

}  // namespace kshot::benchkit
