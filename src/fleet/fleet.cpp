#include "fleet/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <thread>

#include "attacks/async_adversary.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

namespace kshot::fleet {

const char* target_state_name(TargetState s) {
  switch (s) {
    case TargetState::kPending: return "PENDING";
    case TargetState::kFetching: return "FETCHING";
    case TargetState::kStaged: return "STAGED";
    case TargetState::kApplied: return "APPLIED";
    case TargetState::kFailed: return "FAILED";
    case TargetState::kRolledBack: return "ROLLED_BACK";
    case TargetState::kQuarantined: return "QUARANTINED";
  }
  return "?";
}

LatencyPercentiles percentiles_of(std::vector<double> samples) {
  LatencyPercentiles p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = percentile_sorted(samples, 50);
  p.p95 = percentile_sorted(samples, 95);
  p.p99 = percentile_sorted(samples, 99);
  return p;
}

double modeled_makespan_us(const FleetReport& report, u32 jobs) {
  jobs = std::max<u32>(1, jobs);
  double total = 0;
  u32 waves = report.waves_run;
  for (u32 w = 0; w < waves; ++w) {
    std::vector<double> workers(jobs, 0.0);
    for (const TargetResult& r : report.results) {
      if (r.wave != w || r.state == TargetState::kPending) continue;
      auto slot = std::min_element(workers.begin(), workers.end());
      *slot += r.e2e_us;
    }
    total += *std::max_element(workers.begin(), workers.end());
  }
  return total;
}

FleetController::FleetController(FleetOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.jobs == 0) opts_.jobs = 1;
  // resolve_case also understands synthesized SYNTH-* ids (regenerated from
  // the id alone); a failed lookup is reported by boot_fleet.
  auto resolved = cve::resolve_case(opts_.cve_id);
  if (resolved) case_ = *resolved;
}

FleetController::~FleetController() = default;

u64 FleetController::target_seed(u32 i) const {
  return opts_.base_seed + 0x9E3779B97F4A7C15ull * (i + 1);
}

testbed::Testbed* FleetController::target(u32 i) {
  return i < targets_.size() ? targets_[i].get() : nullptr;
}

Status FleetController::boot_fleet() {
  if (booted_) return Status::ok();
  if (!opts_.batch_cve_ids.empty()) {
    auto batch = cve::combine_cases(opts_.batch_cve_ids);
    if (!batch) return batch.status();
    auto parts = cve::batch_part_cases(opts_.batch_cve_ids);
    if (!parts) return parts.status();
    case_ = batch->merged;
    opts_.cve_id = case_.id;
    batch_parts_ = std::move(*parts);
  } else if (case_.id != opts_.cve_id) {
    return Status{Errc::kNotFound, "unknown CVE id: " + opts_.cve_id};
  }
  server_ = std::make_unique<netsim::PatchServer>(
      nullptr, opts_.base_seed ^ 0xF1EE7, &metrics_);
  // Batched mode: announce each per-CVE source alongside the merged case
  // (which Testbed::boot registers); the parts share the merged kernel, so
  // their pre images all land on the same server-side build-cache entries.
  for (const cve::CveCase& p : batch_parts_) {
    server_->add_patch({p.id, p.kernel, p.pre_source, p.post_source});
  }
  if (opts_.capture_trace) {
    server_->set_trace(&shared_trace_);
    target_traces_.resize(opts_.targets);
    for (u32 i = 0; i < opts_.targets; ++i) {
      target_traces_[i] = std::make_unique<obs::TraceRecorder>();
    }
  }
  targets_.resize(opts_.targets);
  std::vector<Status> boot_status(opts_.targets, Status::ok());

  parallel_for(opts_.targets, opts_.jobs, [&](u32 i) {
    testbed::TestbedOptions topts;
    topts.seed = target_seed(i);
    topts.shared_server = server_.get();
    topts.workload_threads = opts_.workload_threads;
    topts.cpus = opts_.cpus;
    topts.metrics = &metrics_;
    if (opts_.capture_trace) {
      topts.trace = target_traces_[i].get();
      topts.trace_target = i;
    }
    auto it = opts_.target_fault_plans.find(i);
    if (it != opts_.target_fault_plans.end()) {
      topts.fault_plan = it->second;
    } else if (opts_.fault_plan) {
      topts.fault_plan = opts_.fault_plan;
    }
    topts.fault_seed = topts.seed ^ 0xFA017;
    topts.retry_policy = opts_.retry_policy;
    auto tb = testbed::Testbed::boot(case_, std::move(topts));
    if (!tb) {
      boot_status[i] = tb.status();
      return;
    }
    // Batched mode: each part's exploit syscall must be reachable for the
    // per-part health probes (the merged case only wires parts[0]'s).
    for (const cve::CveCase& p : batch_parts_) {
      Status st = (*tb)->kernel().register_syscall(p.syscall_nr,
                                                   p.entry_function);
      if (!st.is_ok()) {
        boot_status[i] = st;
        return;
      }
    }
    targets_[i] = std::move(*tb);
  });

  for (const Status& st : boot_status) {
    if (!st.is_ok()) return st;
  }
  booted_ = true;
  return Status::ok();
}

bool FleetController::health_check(testbed::Testbed& t,
                                   TargetResult& out) const {
  // In batched mode every part's fix must hold; otherwise just the case's.
  std::vector<const cve::CveCase*> probes;
  if (batch_parts_.empty()) {
    probes.push_back(&case_);
  } else {
    for (const cve::CveCase& p : batch_parts_) probes.push_back(&p);
  }
  cve::ProbeFn probe_fn = testbed::prober(t);
  for (u32 probe = 0; probe < opts_.rollout.health_probes; ++probe) {
    for (const cve::CveCase* c : probes) {
      auto rep = cve::probe_case(*c, probe_fn, /*expect_fixed=*/true);
      if (!rep) {
        out.detail = "health probe [" + c->id + "]: " +
                     rep.status().message();
        return false;
      }
      if (!rep->detail.empty()) {
        out.detail = "health " + rep->detail;
        return false;
      }
    }
  }
  return true;
}

void FleetController::rollback_target(u32 index, TargetResult& out,
                                      const char* why) {
  testbed::Testbed& t = *targets_[index];
  auto rb = t.kshot().rollback();
  if (rb.is_ok() && rb->success) {
    out.state = TargetState::kRolledBack;
    out.detail = why;
  } else {
    out.detail = std::string(why) + "; rollback FAILED";
  }
}

void FleetController::patch_one(u32 index, u32 wave, TargetResult& out) {
  testbed::Testbed& t = *targets_[index];
  out.index = index;
  out.seed = target_seed(index);
  out.wave = wave;

  obs::TraceRecorder* tr =
      index < target_traces_.size() ? target_traces_[index].get() : nullptr;

  // Hostile fleet: each target gets its own deterministic attack schedule,
  // derived from the campaign-wide adversary seed and the target seed.
  std::unique_ptr<attacks::AsyncAdversary> adversary;
  if (opts_.adversary_seed) {
    adversary = std::make_unique<attacks::AsyncAdversary>(
        t.machine(), t.kshot(), t.layout(),
        attacks::AdversarySchedule::generate(*opts_.adversary_seed ^
                                             target_seed(index)));
    adversary->attach();
  }

  auto note_detections = [&out](const core::DetectionReport& d) {
    for (const auto& ev : d.events) {
      ++out.detection_events;
      if (!out.detections.empty()) out.detections += ",";
      out.detections += core::detection_class_name(ev.cls);
    }
  };

  // One full pipeline run: mirror the real phase transitions into the
  // per-target state, accumulate resilience/latency, health-check on
  // success. Returns true only with proof of health (applied + probed).
  auto attempt = [&]() -> bool {
    t.kshot().set_phase_observer([&out, &t, tr, index](core::PatchPhase p) {
      switch (p) {
        case core::PatchPhase::kFetching:
          out.state = TargetState::kFetching;
          break;
        case core::PatchPhase::kStaged:
          out.state = TargetState::kStaged;
          break;
        case core::PatchPhase::kApplied:
          out.state = TargetState::kApplied;
          break;
        case core::PatchPhase::kFailed:
          out.state = TargetState::kFailed;
          break;
      }
      if (tr) {
        tr->instant("fleet", target_state_name(out.state), index,
                    t.machine().cycles());
      }
    });
    double link_before = t.channel().total_latency_us();
    auto rep = batch_parts_.empty()
                   ? t.kshot().live_patch(case_.id)
                   : t.kshot().live_patch_batch(opts_.batch_cve_ids);
    t.kshot().clear_phase_observer();
    double link_us = t.channel().total_latency_us() - link_before;

    if (!rep.is_ok()) {
      // Unrecoverable transport failure (e.g. fetch retries exhausted):
      // the per-attempt counters died with the report; the status says
      // why. Detections survive in the pipeline — harvest them so the
      // quarantine machine still sees the evidence.
      out.state = TargetState::kFailed;
      out.detail = rep.status().to_string();
      note_detections(t.kshot().take_detections());
      return false;
    }
    out.resilience.fetch_attempts += rep->resilience.fetch_attempts;
    out.resilience.apply_attempts += rep->resilience.apply_attempts;
    out.resilience.session_aborts += rep->resilience.session_aborts;
    out.resilience.backoff_us += rep->resilience.backoff_us;
    out.resilience.retries_exhausted = rep->resilience.retries_exhausted;
    note_detections(rep->detections);
    // Failed rounds still burned real (modeled) time — charge them so the
    // quarantine recovery cost is honest, not just the winning round.
    out.downtime_us += rep->smm.modeled_total_us;
    out.downtime_cycles += rep->downtime_cycles;
    out.rendezvous_cycles += rep->rendezvous_cycles;
    out.handler_cycles += rep->handler_cycles;
    out.resume_cycles += rep->resume_cycles;
    out.e2e_us += link_us + rep->resilience.backoff_us +
                  rep->smm.modeled_total_us;
    if (!rep->success) {
      out.state = TargetState::kFailed;
      out.detail = std::string("smm: ") +
                   core::smm_status_name(rep->smm_status);
      return false;
    }
    out.state = TargetState::kApplied;

    out.healthy = health_check(t, out);
    if (!out.healthy) {
      rollback_target(index, out, "health check failed");
      return false;
    }
    if (opts_.verify_applied_inventory) {
      auto inv = t.kshot().query_applied();
      std::vector<const std::string*> want;
      if (batch_parts_.empty()) {
        want.push_back(&case_.id);
      } else {
        for (const std::string& id : opts_.batch_cve_ids) want.push_back(&id);
      }
      for (const std::string* id : want) {
        bool found = false;
        if (inv.is_ok()) {
          for (const auto& u : inv->units) {
            if (u.id == *id) found = true;
          }
        }
        if (!found) {
          out.healthy = false;
          std::string why =
              "inventory probe: applied set missing [" + *id + "]";
          rollback_target(index, out, why.c_str());
          return false;
        }
      }
    }
    return true;
  };

  bool ok = attempt();

  // Quarantine state machine: detections without proof of health fence the
  // target; each recovery round charges escalating modeled backoff and
  // retries against a freshly fetched envelope (the attack schedule's
  // actions fire once, so a transient attacker loses the race eventually;
  // a persistent one keeps the target fenced).
  if (!ok && out.detection_events > 0) {
    const u32 limit = opts_.rollout.quarantine_retry_limit;
    for (u32 round = 0; round < limit && !ok; ++round) {
      ++out.quarantine_rounds;
      double backoff =
          RolloutPlan::kQuarantineBackoffUs * static_cast<double>(1u << round);
      out.resilience.backoff_us += backoff;
      out.e2e_us += backoff;
      if (tr) {
        tr->instant("fleet", "quarantine_retry", index, t.machine().cycles());
      }
      ok = attempt();
    }
    if (ok) {
      out.recovered = true;
    } else {
      out.state = TargetState::kQuarantined;
      out.detail = out.detail.empty()
                       ? "detections without proof of health"
                       : out.detail + "; quarantined";
    }
  }

  if (adversary) adversary->detach();
}

Result<FleetReport> FleetController::run_campaign() {
  KSHOT_RETURN_IF_ERROR(boot_fleet());

  FleetReport report;
  report.cve_id = opts_.cve_id;
  report.targets = opts_.targets;
  report.jobs = opts_.jobs;
  report.cpus = opts_.cpus;
  report.results.resize(opts_.targets);
  for (u32 i = 0; i < opts_.targets; ++i) {
    report.results[i].index = i;
    report.results[i].seed = target_seed(i);
  }

  const RolloutPlan& plan = opts_.rollout;
  u32 done = 0;
  u32 wave_idx = 0;
  // Current full-wave width; quarantines halve it (degraded mode).
  u32 wave_cap = std::max<u32>(1, plan.wave);
  while (done < opts_.targets) {
    u32 wave_size = wave_idx == 0 ? std::max<u32>(1, plan.canary) : wave_cap;
    wave_size = std::min(wave_size, opts_.targets - done);

    if (opts_.capture_trace) {
      shared_trace_.instant("fleet", "wave_start", obs::kSharedTarget, 0,
                            {{"wave", std::to_string(wave_idx)},
                             {"size", std::to_string(wave_size)}});
    }
    parallel_for(wave_size, opts_.jobs, [&](u32 k) {
      patch_one(done + k, wave_idx, report.results[done + k]);
    });
    ++report.waves_run;

    u32 failures = 0;
    u32 wave_quarantined = 0;
    for (u32 k = 0; k < wave_size; ++k) {
      TargetState s = report.results[done + k].state;
      if (s == TargetState::kFailed || s == TargetState::kRolledBack) {
        ++failures;
      }
      if (s == TargetState::kQuarantined) ++wave_quarantined;
    }
    // Quarantines are judged against their own bound: too many fenced
    // targets in one wave means an adversary owns a fleet-wide layer, and
    // pushing more waves at it only widens the blast radius.
    double quarantine_rate = static_cast<double>(wave_quarantined) /
                             static_cast<double>(wave_size);
    if (wave_quarantined > 0 && quarantine_rate >= plan.max_quarantine_rate) {
      if (plan.rollback_failed_wave) {
        for (u32 k = 0; k < wave_size; ++k) {
          TargetResult& r = report.results[done + k];
          if (r.state == TargetState::kApplied) {
            rollback_target(done + k, r, "wave aborted (quarantine)");
          }
        }
      }
      report.aborted = true;
      report.abort_wave = wave_idx;
      KSHOT_LOG(kWarn, "fleet")
          << "rollout aborted at wave " << wave_idx << " ("
          << wave_quarantined << "/" << wave_size << " quarantined)";
      done += wave_size;
      break;  // everything after this wave stays PENDING
    }
    if (wave_quarantined > 0 && plan.degrade_on_quarantine) {
      wave_cap = std::max<u32>(1, wave_cap / 2);
      if (!report.degraded) {
        report.degraded = true;
        report.degraded_from_wave = wave_idx + 1;
      }
      KSHOT_LOG(kInfo, "fleet")
          << "degraded mode: wave width now " << wave_cap << " after "
          << wave_quarantined << " quarantine(s) in wave " << wave_idx;
    }
    double failure_rate =
        static_cast<double>(failures) / static_cast<double>(wave_size);
    if (failures > 0 && failure_rate >= plan.abort_failure_rate) {
      if (plan.rollback_failed_wave) {
        for (u32 k = 0; k < wave_size; ++k) {
          TargetResult& r = report.results[done + k];
          if (r.state == TargetState::kApplied) {
            rollback_target(done + k, r, "wave aborted");
          }
        }
      }
      report.aborted = true;
      report.abort_wave = wave_idx;
      KSHOT_LOG(kWarn, "fleet")
          << "rollout aborted at wave " << wave_idx << " ("
          << failures << "/" << wave_size << " failures)";
      done += wave_size;
      break;  // everything after this wave stays PENDING
    }
    done += wave_size;
    ++wave_idx;
  }

  // ---- Aggregate, strictly in target-index order ---------------------------
  std::vector<double> downtime;
  std::vector<double> e2e;
  for (const TargetResult& r : report.results) {
    switch (r.state) {
      case TargetState::kApplied:
        ++report.applied;
        downtime.push_back(r.downtime_us);
        e2e.push_back(r.e2e_us);
        break;
      case TargetState::kFailed:
        ++report.failed;
        break;
      case TargetState::kRolledBack:
        ++report.rolled_back;
        break;
      case TargetState::kQuarantined:
        ++report.quarantined;
        break;
      default:
        ++report.pending;
        break;
    }
    if (r.recovered) ++report.recovered;
    report.total_detections += r.detection_events;
    report.total_fetch_attempts += r.resilience.fetch_attempts;
    report.total_apply_attempts += r.resilience.apply_attempts;
    // Batched mode fetches once per part, so only attempts beyond one per
    // package count as retries.
    u64 base_fetches =
        batch_parts_.empty() ? 1 : static_cast<u64>(batch_parts_.size());
    if (r.resilience.fetch_attempts > base_fetches) {
      report.total_retries += r.resilience.fetch_attempts - base_fetches;
    }
    if (r.resilience.apply_attempts > 1) {
      report.total_retries += r.resilience.apply_attempts - 1;
    }
    report.total_session_aborts += r.resilience.session_aborts;
    report.total_downtime_cycles += r.downtime_cycles;
    report.total_rendezvous_cycles += r.rendezvous_cycles;
    report.total_handler_cycles += r.handler_cycles;
    report.total_resume_cycles += r.resume_cycles;
  }
  report.downtime_us = percentiles_of(std::move(downtime));
  report.e2e_us = percentiles_of(std::move(e2e));
  report.cache = server_->cache_stats();
  report.cache_hit_rate = report.cache.patchset_hit_rate();
  report.metrics = metrics_.snapshot();

  if (opts_.capture_trace) {
    // Per-target recorders are written serially (one worker at a time per
    // target), so their event order is already deterministic; only the
    // shared recorder's racy append order needs canonicalizing. Wall time
    // is excluded so the export is byte-identical across --jobs levels.
    std::vector<obs::TraceEvent> events;
    for (const auto& rec : target_traces_) {
      auto ev = rec->snapshot();
      events.insert(events.end(), std::make_move_iterator(ev.begin()),
                    std::make_move_iterator(ev.end()));
    }
    auto shared = obs::canonicalize(shared_trace_.snapshot());
    events.insert(events.end(), std::make_move_iterator(shared.begin()),
                  std::make_move_iterator(shared.end()));
    obs::ChromeTraceOptions copts;
    copts.include_wall = false;
    report.trace_json = obs::to_chrome_trace(events, copts);
  }
  return report;
}

std::string FleetReport::to_string() const {
  std::string out;
  char line[256];
  auto append = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  append("fleet campaign %s: %u targets, jobs=%u, cpus=%u, %u wave(s)\n",
         cve_id.c_str(), targets, jobs, cpus, waves_run);
  append("  applied %u  failed %u  rolled_back %u  quarantined %u  "
         "pending %u%s\n",
         applied, failed, rolled_back, quarantined, pending,
         aborted ? "  [ABORTED]" : "");
  if (aborted) append("  aborted at wave %u\n", abort_wave);
  if (quarantined > 0 || recovered > 0 || total_detections > 0) {
    append("  quarantine: %u fenced  %u recovered  %llu detection(s)%s\n",
           quarantined, recovered,
           static_cast<unsigned long long>(total_detections),
           degraded ? "  [DEGRADED]" : "");
  }
  if (degraded) append("  degraded from wave %u\n", degraded_from_wave);
  append("  attempts: fetch %llu  apply %llu  retries %llu  aborts %llu\n",
         static_cast<unsigned long long>(total_fetch_attempts),
         static_cast<unsigned long long>(total_apply_attempts),
         static_cast<unsigned long long>(total_retries),
         static_cast<unsigned long long>(total_session_aborts));
  append("  patchset cache: %llu miss / %llu hit (%.1f%%)  image cache: "
         "%llu miss / %llu hit\n",
         static_cast<unsigned long long>(cache.patchset_misses),
         static_cast<unsigned long long>(cache.patchset_hits),
         100.0 * cache_hit_rate,
         static_cast<unsigned long long>(cache.image_misses),
         static_cast<unsigned long long>(cache.image_hits));
  append("  smm downtime us: p50 %.3f  p95 %.3f  p99 %.3f\n",
         downtime_us.p50, downtime_us.p95, downtime_us.p99);
  append("  smm cycles: rendezvous %llu + handler %llu + resume %llu = %llu\n",
         static_cast<unsigned long long>(total_rendezvous_cycles),
         static_cast<unsigned long long>(total_handler_cycles),
         static_cast<unsigned long long>(total_resume_cycles),
         static_cast<unsigned long long>(total_downtime_cycles));
  append("  e2e latency us:  p50 %.3f  p95 %.3f  p99 %.3f\n", e2e_us.p50,
         e2e_us.p95, e2e_us.p99);
  for (const TargetResult& r : results) {
    append("  [%3u] wave %u seed %016llx %-11s %s  fetch %u apply %u  "
           "downtime %.3f  e2e %.3f%s%s\n",
           r.index, r.wave, static_cast<unsigned long long>(r.seed),
           target_state_name(r.state),
           r.state == TargetState::kApplied
               ? (r.healthy ? "healthy  " : "UNHEALTHY")
               : "-        ",
           r.resilience.fetch_attempts, r.resilience.apply_attempts,
           r.downtime_us, r.e2e_us, r.detail.empty() ? "" : "  # ",
           r.detail.c_str());
    if (r.detection_events > 0) {
      append("        detections[%u]: %s  (recovery rounds %u%s)\n",
             r.detection_events, r.detections.c_str(), r.quarantine_rounds,
             r.recovered ? ", recovered" : "");
    }
  }
  return out;
}

}  // namespace kshot::fleet
