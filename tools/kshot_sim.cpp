// kshot-sim — command-line driver for the KShot simulation.
//
//   kshot-sim list                         table of all CVE benchmark cases
//   kshot-sim patch <CVE-ID> [flags]       run the live-patch scenario
//       --rootkit      load the reversion rootkit first
//       --watchdog     arm the periodic-SMI introspection watchdog
//       --guard        arm the kernel-text guard
//       --kpatch       use the kpatch baseline instead of KShot
//   kshot-sim fleet <CVE-ID> [flags]       staged rollout across N targets
//       --targets N    fleet size (default 8)
//       --canary K     canary wave size (default 1)
//       --wave W       size of later waves (default 4)
//       --abort-rate R abort threshold on a wave's failure fraction
//       --drop R / --corrupt R   channel fault rates on every target
//   kshot-sim lifecycle                    scripted patch-stack smoke
//       apply -> depend -> supersede -> query -> out-of-order revert ->
//       in-place splice; output is canonical (byte-identical across
//       --jobs), so CI can cmp two runs
//   kshot-sim disasm <CVE-ID> <function>   disassemble a kernel function
//   kshot-sim package <CVE-ID>             show the built patch set / wire
//
//   kshot-sim single [CVE-ID]              `patch` with a default case
//
//   kshot-sim synth [flags]                auto-CVE campaign (DESIGN.md §14)
//       --cases N      synthesized cases (default 200), classes cycled
//       --classes CSV  bug classes to cycle (OOB, CHK, DSP)
//       --live K       also live-patch the first K cases end to end
//       every case must pass the probe contract, the evaluator-vs-machine
//       differential (two optimizer configs), and diff confinement; the
//       report is byte-identical across --jobs
//
//   kshot-sim fuzz [flags]                 invariant-oracle fuzzing (DESIGN.md §9)
//       --surface S    package | netsim | kcc | attacker_schedule | synth
//                      | all (default package)
//       --iters N      generated cases per surface (default 200)
//       --time-budget T  wall-clock cap in seconds (0 = off; breaks
//                      run-to-run case-count determinism)
//       --corpus DIR   replay a regression corpus instead of generating
//       --write-corpus DIR   write the canonical seed corpus and exit
//       --replay FILE  re-execute one corpus file (needs --surface)
//       --selftest     re-open the fixed seams (wrapping bounds, TOCTOU
//                      double fetch, mis-planted synth guard) and prove
//                      the oracles catch all three
//
//   kshot-sim attack [flags]               seeded async-adversary campaign
//       --schedule-seed S  base seed for the schedule generator
//       --variants N       schedule variants to run (default 200)
//       every variant must be prevented (memory byte-identical to the
//       no-attack run) or detected (classified DetectionReport); any
//       silent corruption / silent failure exits nonzero
//
// Shared flags (all modes):
//   --seed S         deterministic seed (testbed RNG / fleet base seed)
//   --jobs J         parallelism: fleet worker pool; workload threads for
//                    `patch`
//   --cpus N         simulated CPUs per target (default 1; >1 engages the
//                    multi-CPU SMI rendezvous model; 0 exits 2)
//   --trace-out F    write a Chrome-trace JSON (chrome://tracing, Perfetto)
//                    of the run's pipeline spans to F
//   --metrics        dump the pipeline metrics snapshot to stdout
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/async_adversary.hpp"
#include "attacks/rootkits.hpp"
#include "baselines/kpatch_sim.hpp"
#include "benchkit/benchkit.hpp"
#include "common/hex.hpp"
#include "cve/synth.hpp"
#include "fleet/fleet.hpp"
#include "fleetscale/fleetscale.hpp"
#include "fuzz/fuzz.hpp"
#include "isa/disasm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "patchtool/package.hpp"
#include "testbed/testbed.hpp"

using namespace kshot;

namespace {

/// Flags shared by every mode; value flags are consumed as `--name value`.
struct CommonFlags {
  u64 seed = 0x5EED;
  u32 jobs = 1;
  u32 cpus = 1;  // --cpus N: simulated CPUs per target (>= 1, strict)
  std::string trace_out;  // --trace-out FILE: Chrome-trace JSON destination
  bool metrics = false;   // --metrics: dump the metrics snapshot on exit
};

void usage();

int write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return 0;
}

int cmd_list() {
  std::printf("%-16s %-9s %4s %-5s %s\n", "CVE", "kernel", "LoC", "types",
              "affected functions");
  for (const auto& c : cve::all_cases()) {
    std::string fns;
    for (size_t i = 0; i < c.functions.size(); ++i) {
      if (i) fns += ", ";
      fns += c.functions[i];
    }
    std::printf("%-16s %-9s %4d %-5s %s\n", c.id.c_str(), c.kernel.c_str(),
                c.patch_loc, c.types.c_str(), fns.c_str());
  }
  return 0;
}

/// Table ids resolve as-is; "SYNTH-<TAG>-<seed>" ids are regenerated on the
/// fly (cve::resolve_case), so every single-case command accepts both.
Result<cve::CveCase> resolve_or_report(const std::string& id) {
  auto resolved = cve::resolve_case(id);
  if (!resolved.is_ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().to_string().c_str());
  }
  return resolved;
}

int cmd_exploit(const std::string& id, const CommonFlags& common) {
  auto rc = resolve_or_report(id);
  if (!rc.is_ok()) return 1;
  const cve::CveCase& c = *rc;
  auto tb = testbed::Testbed::boot(c, {.seed = common.seed});
  if (!tb.is_ok()) {
    std::fprintf(stderr, "boot failed: %s\n", tb.status().to_string().c_str());
    return 1;
  }
  auto e = (*tb)->run_exploit();
  if (!e.is_ok()) {
    std::fprintf(stderr, "%s\n", e.status().to_string().c_str());
    return 1;
  }
  std::printf("syscall(%d, 0x%llx) -> %s\n", c.syscall_nr,
              static_cast<unsigned long long>(c.exploit_args[0]),
              e->oops ? "KERNEL OOPS" : "no oops");
  return 0;
}

int cmd_patch(const std::string& id, const CommonFlags& common, bool rootkit,
              bool watchdog, bool guard, bool use_kpatch) {
  auto rc = resolve_or_report(id);
  if (!rc.is_ok()) return 1;
  const cve::CveCase& c = *rc;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  testbed::TestbedOptions opts;
  opts.seed = common.seed;
  opts.cpus = common.cpus;
  opts.workload_threads = static_cast<int>(std::max<u32>(2, common.jobs));
  if (watchdog) opts.watchdog_interval_cycles = 50'000;
  if (!common.trace_out.empty()) opts.trace = &trace;
  opts.metrics = &metrics;
  auto tb = testbed::Testbed::boot(c, opts);
  if (!tb.is_ok()) {
    std::fprintf(stderr, "boot failed: %s\n", tb.status().to_string().c_str());
    return 1;
  }
  testbed::Testbed& t = **tb;
  if (guard && !t.kshot().arm_kernel_guard().is_ok()) {
    std::fprintf(stderr, "guard arming failed\n");
    return 1;
  }
  if (rootkit) {
    t.kernel().insmod(
        std::make_shared<attacks::ReversionRootkit>(t.pre_image()));
    std::printf("[attack] reversion rootkit resident\n");
  }

  auto pre = t.run_exploit();
  std::printf("exploit before: %s\n",
              pre.is_ok() && pre->oops ? "fires" : "no effect");

  if (use_kpatch) {
    baselines::KpatchSim kpatch(t.kernel(), t.scheduler());
    auto set = t.server().build_patchset(c.id, t.kernel().os_info());
    if (!set.is_ok()) {
      std::fprintf(stderr, "%s\n", set.status().to_string().c_str());
      return 1;
    }
    auto rep = kpatch.apply(*set);
    std::printf("kpatch: %s\n", rep.is_ok() && rep->success
                                    ? "applied"
                                    : rep->detail.c_str());
  } else {
    auto rep = t.kshot().live_patch(c.id);
    if (!rep.is_ok() || !rep->success) {
      std::fprintf(stderr, "live patch failed\n");
      return 1;
    }
    std::printf(
        "kshot: %u fn / %u bytes; SGX %.1fus; OS paused %.1fus (modeled)\n",
        rep->stats.functions, rep->stats.code_bytes, rep->sgx.total_us(),
        rep->smm.modeled_total_us);
  }

  t.scheduler().run(1000, 64);  // let attackers/watchdog act
  // Operator verification sweep (the remote server's final check): without
  // it, checking at an arbitrary instant races the rootkit's last tick.
  if (!use_kpatch) {
    auto sweep = t.kshot().introspect();
    if (!sweep.is_ok()) {
      std::fprintf(stderr, "introspection failed: %s\n",
                   sweep.status().to_string().c_str());
      return 1;
    }
  }

  auto post = t.run_exploit();
  std::printf("exploit after (post attack window): %s\n",
              post.is_ok() && post->oops ? "STILL FIRES" : "dead");

  if (!common.trace_out.empty()) {
    if (write_file(common.trace_out,
                   obs::to_chrome_trace(trace.snapshot())) != 0) {
      return 1;
    }
    std::printf("trace: %zu events -> %s\n", trace.size(),
                common.trace_out.c_str());
  }
  if (common.metrics) {
    std::fputs(metrics.snapshot().to_string().c_str(), stdout);
  }
  return post.is_ok() && !post->oops ? 0 : 1;
}

int cmd_disasm(const std::string& id, const std::string& fn) {
  auto rc = resolve_or_report(id);
  if (!rc.is_ok()) return 1;
  const cve::CveCase& c = *rc;
  auto tb = testbed::Testbed::boot(c, {.install_kshot = false});
  if (!tb.is_ok()) return 1;
  const auto& img = (*tb)->kernel().image();
  const kcc::Symbol* sym = img.find_symbol(fn);
  if (sym == nullptr) {
    std::fprintf(stderr, "no such function; available:\n");
    for (const auto& s : img.symbols) {
      std::fprintf(stderr, "  %s\n", s.name.c_str());
    }
    return 1;
  }
  auto body = img.function_bytes(fn);
  std::printf("%s @ 0x%llx (%u bytes%s)\n%s", fn.c_str(),
              static_cast<unsigned long long>(sym->addr), sym->size,
              sym->traced ? ", traced" : "",
              isa::disassemble(*body, sym->addr).c_str());
  return 0;
}

int cmd_package(const std::string& id) {
  auto rc = resolve_or_report(id);
  if (!rc.is_ok()) return 1;
  const cve::CveCase& c = *rc;
  auto tb = testbed::Testbed::boot(c, {.install_kshot = false});
  if (!tb.is_ok()) return 1;
  auto set = (*tb)->server().build_patchset(id, (*tb)->kernel().os_info());
  if (!set.is_ok()) {
    std::fprintf(stderr, "%s\n", set.status().to_string().c_str());
    return 1;
  }
  std::printf("patch set %s (kernel %s): %zu function(s)\n",
              set->id.c_str(), set->kernel_version.c_str(),
              set->patches.size());
  for (const auto& p : set->patches) {
    std::printf(
        "  [%u] %-36s type %d  taddr=0x%llx  %zuB code, %zu relocs, %zu var "
        "edits%s\n",
        p.sequence, p.name.c_str(), static_cast<int>(p.type),
        static_cast<unsigned long long>(p.taddr), p.code.size(),
        p.relocs.size(), p.var_edits.size(),
        p.ftrace_off ? "  (ftrace pad)" : "");
  }
  Bytes wire = patchtool::serialize_patchset(*set, patchtool::PatchOp::kPatch);
  std::printf("wire package: %zu bytes; first 64:\n%s", wire.size(),
              hexdump(ByteSpan(wire).subspan(
                          0, std::min<size_t>(64, wire.size())))
                  .c_str());
  return 0;
}

std::vector<std::string> split_ids(const std::string& csv) {
  std::vector<std::string> ids;
  std::string cur;
  for (char ch : csv) {
    if (ch == ',') {
      if (!cur.empty()) ids.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  if (!cur.empty()) ids.push_back(cur);
  return ids;
}

/// `single --batch A,B,C`: one merged deployment, one batched SMM session
/// installing every package, then a per-CVE exploit sweep.
int cmd_single_batch(const std::string& csv, const CommonFlags& common) {
  std::vector<std::string> ids = split_ids(csv);
  auto batch = cve::combine_cases(ids);
  if (!batch.is_ok()) {
    std::fprintf(stderr, "%s\n", batch.status().to_string().c_str());
    return 1;
  }
  auto parts = cve::batch_part_cases(ids);
  if (!parts.is_ok()) {
    std::fprintf(stderr, "%s\n", parts.status().to_string().c_str());
    return 1;
  }
  auto tb = testbed::Testbed::boot(batch->merged,
                                   {.seed = common.seed, .cpus = common.cpus});
  if (!tb.is_ok()) {
    std::fprintf(stderr, "boot failed: %s\n", tb.status().to_string().c_str());
    return 1;
  }
  testbed::Testbed& t = **tb;
  for (const auto& p : *parts) {
    t.server().add_patch({p.id, p.kernel, p.pre_source, p.post_source});
    if (!t.kernel().register_syscall(p.syscall_nr, p.entry_function).is_ok()) {
      std::fprintf(stderr, "cannot wire %s's syscall\n", p.id.c_str());
      return 1;
    }
  }

  auto rep = t.kshot().live_patch_batch(ids);
  if (!rep.is_ok() || !rep->success) {
    std::fprintf(stderr, "batched live patch failed: %s\n",
                 rep.is_ok() ? core::smm_status_name(rep->smm_status)
                             : rep.status().to_string().c_str());
    return 1;
  }
  std::printf(
      "kshot batch of %zu: %u fn / %u bytes in ONE session; SGX %.1fus; OS "
      "paused %.1fus (modeled)\n",
      ids.size(), rep->stats.functions, rep->stats.code_bytes,
      rep->sgx.total_us(), rep->smm.modeled_total_us);

  bool all_dead = true;
  for (const auto& p : *parts) {
    auto e = t.run_syscall(p.syscall_nr, p.exploit_args);
    bool dead = e.is_ok() && !e->oops;
    all_dead = all_dead && dead;
    std::printf("  %-16s exploit: %s\n", p.id.c_str(),
                dead ? "dead" : "STILL FIRES");
  }
  return all_dead ? 0 : 1;
}

/// `lifecycle`: scripted patch-stack smoke walking the full SMM lifecycle —
/// apply a base set, stack a dependent on top, refuse a missing dependency,
/// supersede the base, query the inventory, revert out of order (blocked,
/// then unblocked), and finish with an in-place splice leg. Every printed
/// line is canonical: byte-identical across --jobs and repeated runs, so CI
/// can cmp two invocations.
int cmd_lifecycle(const CommonFlags& common) {
  const std::string id_a = "CVE-2016-2543";   // base set
  const std::string id_b = "CVE-2016-4578";   // depends on A
  const std::string id_c = "CVE-2016-4580";   // supersedes A
  const std::vector<std::string> ids = {id_a, id_b, id_c};
  auto batch = cve::combine_cases(ids);
  auto parts = cve::batch_part_cases(ids);
  if (!batch.is_ok() || !parts.is_ok()) {
    std::fprintf(stderr, "cannot build merged lifecycle kernel\n");
    return 1;
  }
  testbed::TestbedOptions topts;
  topts.seed = common.seed;
  topts.cpus = common.cpus;
  topts.workload_threads = static_cast<int>(common.jobs) - 1;
  auto tb = testbed::Testbed::boot(batch->merged, topts);
  if (!tb.is_ok()) {
    std::fprintf(stderr, "boot failed: %s\n", tb.status().to_string().c_str());
    return 1;
  }
  testbed::Testbed& t = **tb;
  for (const auto& p : *parts) {
    t.server().add_patch({p.id, p.kernel, p.pre_source, p.post_source});
    if (!t.kernel().register_syscall(p.syscall_nr, p.entry_function).is_ok()) {
      std::fprintf(stderr, "cannot wire %s's syscall\n", p.id.c_str());
      return 1;
    }
  }

  bool all_ok = true;
  auto step = [&](const char* what, const Result<core::PatchReport>& rep,
                  core::SmmStatus want) {
    const char* got = rep.is_ok() ? core::smm_status_name(rep->smm_status)
                                  : "transport-error";
    bool match = rep.is_ok() && rep->smm_status == want;
    all_ok = all_ok && match;
    std::printf("%-44s %s%s\n", what, got, match ? "" : "  [UNEXPECTED]");
  };
  auto probe = [&](const char* what, const cve::CveCase& c, bool want_oops) {
    auto e = t.run_syscall(c.syscall_nr, c.exploit_args);
    bool oops = e.is_ok() && e->oops;
    all_ok = all_ok && e.is_ok() && oops == want_oops;
    std::printf("%-44s %s%s\n", what, oops ? "fires" : "dead",
                oops == want_oops ? "" : "  [UNEXPECTED]");
  };
  auto inventory = [&]() {
    auto inv = t.kshot().query_applied();
    if (!inv.is_ok()) {
      all_ok = false;
      std::printf("inventory: query failed\n");
      return;
    }
    std::printf("inventory: %zu unit(s), mem_X used=%llu extents=%zu\n",
                inv->units.size(),
                static_cast<unsigned long long>(inv->memx_used),
                inv->extents.size());
    for (const auto& u : inv->units) {
      std::printf("  seq=%llu %-16s fn=%u code=%uB spliced=%u\n",
                  static_cast<unsigned long long>(u.seq), u.id.c_str(),
                  u.functions, u.code_bytes, u.spliced);
    }
  };

  probe("exploit A before patching:", (*parts)[0], /*want_oops=*/true);
  step("apply A:", t.kshot().live_patch(id_a), core::SmmStatus::kOk);
  probe("exploit A after apply:", (*parts)[0], /*want_oops=*/false);
  core::LifecycleOptions dep_b;
  dep_b.depends = {id_a};
  step("apply B (depends A):", t.kshot().live_patch(id_b, dep_b),
       core::SmmStatus::kOk);
  // The dependency fence refuses unapplied prerequisites in SMM; the failed
  // apply must unwind cleanly (no mem_X leak, no stack entry).
  core::LifecycleOptions dep_missing;
  dep_missing.depends = {"CVE-0000-0000"};
  step("apply C (depends on unapplied id):",
       t.kshot().live_patch(id_c, dep_missing),
       core::SmmStatus::kMissingDependency);
  core::LifecycleOptions sup_a;
  sup_a.supersedes = {id_a};
  step("apply C (supersedes A):", t.kshot().live_patch(id_c, sup_a),
       core::SmmStatus::kOk);
  // Superseding retires A's text effects, so its exploit fires again; B's
  // dependency stays satisfied because C inherited A's provides.
  probe("exploit A after supersede (fix retired):", (*parts)[0],
        /*want_oops=*/true);
  inventory();
  step("revert C (B depends on its provides):", t.kshot().revert_patch(id_c),
       core::SmmStatus::kRevertBlocked);
  step("revert B (out of order):", t.kshot().revert_patch(id_b),
       core::SmmStatus::kOk);
  step("revert C:", t.kshot().revert_patch(id_c), core::SmmStatus::kOk);
  step("revert A (already superseded):", t.kshot().revert_patch(id_a),
       core::SmmStatus::kNothingToRollback);
  inventory();

  // Splice leg: a size-neutral fix applied in place — no mem_X slot, no
  // trampoline — then reverted, leaving occupancy at zero.
  auto sc = testbed::make_splice_sweep_case(256);
  testbed::TestbedOptions sopts;
  sopts.seed = common.seed;
  auto stb = testbed::Testbed::boot(sc, sopts);
  if (!stb.is_ok()) {
    std::fprintf(stderr, "splice leg boot failed\n");
    return 1;
  }
  core::LifecycleOptions splice;
  splice.allow_splice = true;
  auto srep = (*stb)->kshot().live_patch(sc.id, splice);
  bool sok = srep.is_ok() && srep->success;
  auto sinv = (*stb)->kshot().query_applied();
  u32 spliced = sinv.is_ok() && sinv->units.size() == 1
                    ? sinv->units[0].spliced
                    : 0;
  u64 sused = sinv.is_ok() ? sinv->memx_used : ~0ull;
  bool sleg = sok && spliced == 1 && sused == 0;
  all_ok = all_ok && sleg;
  std::printf("%-44s %s%s\n", "splice leg (in place, mem_X untouched):",
              sleg ? "spliced" : "not spliced", sleg ? "" : "  [UNEXPECTED]");
  step("revert splice:", (*stb)->kshot().revert_patch(sc.id),
       core::SmmStatus::kOk);

  std::printf("lifecycle: %s\n", all_ok ? "OK" : "FAILED");
  return all_ok ? 0 : 1;
}

/// `bench`: deterministic modeled-cost harness + optional regression gate.
int cmd_bench(const CommonFlags& common, bool quick,
              const std::string& out_dir, const std::string& gate_dir,
              double gate_tol, double cost_scale) {
  benchkit::BenchOptions bo;
  bo.seed = common.seed;
  bo.jobs = common.jobs;
  bo.quick = quick;
  bo.cost_scale = cost_scale;
  auto res = benchkit::run_bench(bo);
  if (!res.is_ok()) {
    std::fprintf(stderr, "bench failed: %s\n",
                 res.status().to_string().c_str());
    return 1;
  }

  std::string dir = out_dir.empty() ? "." : out_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  struct Doc {
    const char* file;
    const std::string* body;
    bool gated;
  };
  const Doc docs[] = {
      {"BENCH_table3.json", &res->table3_json, true},
      {"BENCH_table4.json", &res->table4_json, true},
      {"BENCH_table3_wall.json", &res->table3_wall_json, false},
      {"BENCH_table4_wall.json", &res->table4_wall_json, false},
  };
  for (const Doc& d : docs) {
    std::string path = dir + "/" + d.file;
    if (write_file(path, *d.body) != 0) return 1;
    std::printf("bench: wrote %s (%zu bytes)%s\n", path.c_str(),
                d.body->size(), d.gated ? "" : "  [wall sidecar, not gated]");
  }

  if (gate_dir.empty()) return 0;
  bool gate_ok = true;
  size_t wall_warnings = 0;
  for (const Doc& d : docs) {
    std::string base_path = gate_dir + "/" + d.file;
    std::ifstream in(base_path, std::ios::binary);
    if (!in) {
      if (!d.gated) continue;  // wall sidecar baselines are optional
      std::fprintf(stderr, "bench gate: cannot read baseline %s\n",
                   base_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (d.gated) {
      auto gate = benchkit::gate_compare(buf.str(), *d.body, gate_tol);
      if (!gate.is_ok()) {
        std::fprintf(stderr, "bench gate: %s\n",
                     gate.status().to_string().c_str());
        return 1;
      }
      std::printf("%s: %s", d.file, gate->to_string().c_str());
      gate_ok = gate_ok && gate->ok();
    } else {
      // Soft gate: wall time is real and noisy, so a >10% regression only
      // warns (distinct message, exit stays 0).
      auto gate = benchkit::wall_compare(buf.str(), *d.body);
      if (!gate.is_ok()) {
        std::fprintf(stderr, "bench wall gate: %s\n",
                     gate.status().to_string().c_str());
        continue;  // a broken sidecar never fails the run
      }
      std::printf("%s: %s", d.file, gate->to_string().c_str());
      wall_warnings += gate->warnings.size();
    }
  }
  if (wall_warnings > 0) {
    std::fprintf(stderr,
                 "bench wall gate: %zu wall-clock warning(s) beyond 10%% "
                 "(soft gate; never fails the build)\n",
                 wall_warnings);
  }
  if (!gate_ok) {
    std::fprintf(stderr,
                 "bench gate FAILED: modeled costs regressed beyond %.1f%% "
                 "tolerance\n",
                 100.0 * gate_tol);
    return 1;
  }
  return 0;
}

struct FuzzCliOptions {
  std::string surface = "package";
  fuzz::FuzzOptions fuzz;
  std::string corpus_dir;
  std::string write_corpus_dir;
  std::string replay_file;
  bool selftest = false;
};

int print_reports(const std::vector<fuzz::FuzzReport>& reports) {
  bool failed = false;
  for (const auto& r : reports) {
    std::fputs(r.to_string().c_str(), stdout);
    failed = failed || !r.failures.empty();
  }
  return failed ? 1 : 0;
}

int cmd_fuzz(const FuzzCliOptions& o) {
  if (!o.write_corpus_dir.empty()) {
    auto st = fuzz::write_seed_corpus(o.write_corpus_dir);
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("seed corpus written to %s\n", o.write_corpus_dir.c_str());
    return 0;
  }
  if (!o.replay_file.empty()) {
    std::ifstream in(o.replay_file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", o.replay_file.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Bytes input;
    if (o.surface == "kcc" &&
        o.replay_file.find(".hex") == std::string::npos) {
      input = to_bytes(buf.str());
    } else {
      auto decoded = fuzz::decode_hex_file(buf.str());
      if (!decoded.is_ok()) {
        std::fprintf(stderr, "%s\n", decoded.status().to_string().c_str());
        return 1;
      }
      input = std::move(*decoded);
    }
    auto surface = fuzz::make_surface(o.surface);
    if (!surface) {
      std::fprintf(stderr,
                   "--replay needs --surface "
                   "package|netsim|kcc|attacker_schedule|synth\n");
      return 2;
    }
    std::printf("%s\n", surface->describe(input).c_str());
    auto v = surface->execute(input);
    if (v.failure) {
      std::printf("FAILURE oracle=%s\n  detail: %s\n", v.failure->first.c_str(),
                  v.failure->second.c_str());
      return 1;
    }
    std::printf("verdict: %s\n",
                v.kind == fuzz::Surface::Verdict::Kind::kAccepted ? "accepted"
                : v.kind == fuzz::Surface::Verdict::Kind::kRejected
                    ? "rejected"
                    : "skipped");
    return 0;
  }
  if (!o.corpus_dir.empty()) {
    auto entries = fuzz::load_corpus(o.corpus_dir);
    if (!entries.is_ok()) {
      std::fprintf(stderr, "%s\n", entries.status().to_string().c_str());
      return 1;
    }
    return print_reports(fuzz::replay_corpus(*entries, o.fuzz));
  }
  if (o.selftest) {
    // Re-introduce each fixed bug class in the target and prove the oracles
    // catch it with a small shrunk repro: the pre-fix wrapping bounds check
    // (package surface), the pre-hardening TOCTOU double fetch
    // (attacker_schedule surface), and an off-by-one mis-planted guard in
    // the CVE synthesizer (cve_synth surface, probe-contract oracle).
    struct Seam {
      const char* what;
      std::unique_ptr<fuzz::Surface> surface;
    };
    std::vector<Seam> seams;
    seams.push_back({"wrapping-bounds bug",
                     fuzz::make_package_surface(
                         {.legacy_wrapping_bounds = true})});
    seams.push_back({"double-fetch TOCTOU bug",
                     fuzz::make_attacker_schedule_surface(
                         {.legacy_double_fetch = true})});
    seams.push_back({"mis-planted synth guard",
                     fuzz::make_cve_synth_surface(
                         {.misplant_off_by_one = true})});
    for (auto& s : seams) {
      auto rep = fuzz::run_fuzz(*s.surface, o.fuzz);
      std::fputs(rep.to_string().c_str(), stdout);
      if (rep.failures.empty()) {
        std::fprintf(stderr,
                     "selftest FAILED: oracles missed the reintroduced %s\n",
                     s.what);
        return 1;
      }
      std::printf("selftest ok: %s caught; shrunk repro:\n%s\n", s.what,
                  s.surface->describe(rep.failures[0].input).c_str());
    }
    return 0;
  }
  std::vector<std::string> surfaces;
  if (o.surface == "all") {
    surfaces = {"package", "netsim", "kcc", "attacker_schedule", "cve_synth"};
  } else {
    surfaces = {o.surface};
  }
  std::vector<fuzz::FuzzReport> reports;
  for (const auto& name : surfaces) {
    auto surface = fuzz::make_surface(name);
    if (!surface) {
      std::fprintf(stderr, "unknown surface: %s\n", name.c_str());
      return 2;
    }
    reports.push_back(fuzz::run_fuzz(*surface, o.fuzz));
  }
  return print_reports(reports);
}

/// Seeded async-adversary campaign: `variants` generated schedules, each
/// judged by the attacker_schedule surface's prevented-or-detected oracle.
/// Workers partition variants statically (worker w takes indices w, w+jobs,
/// ...), results land in index-i slots, and the summary is aggregated in
/// index order — so the output is byte-identical at any --jobs level.
int cmd_attack(u64 schedule_seed, u32 variants, u32 jobs, u32 cpus) {
  std::vector<Bytes> wires(variants);
  std::map<std::string, u32> by_variant;  // sorted -> deterministic print
  for (u32 i = 0; i < variants; ++i) {
    auto sched = attacks::AdversarySchedule::generate(
        schedule_seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
    for (const auto& a : sched.actions) {
      ++by_variant[attacks::adversary_variant_name(a.variant)];
    }
    wires[i] = sched.encode();
  }

  std::vector<fuzz::Surface::Verdict> verdicts(variants);
  jobs = std::max<u32>(1, std::min(jobs, variants));
  auto worker = [&](u32 w) {
    // One surface (with its own cached no-attack baseline) per worker;
    // every execute() boots a fresh deployment, so cases are independent.
    fuzz::AttackerSurfaceOptions so;
    so.cpus = cpus;
    auto surface = fuzz::make_attacker_schedule_surface(so);
    for (u32 i = w; i < variants; i += jobs) {
      verdicts[i] = surface->execute(wires[i]);
    }
  };
  if (jobs == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (u32 w = 0; w < jobs; ++w) pool.emplace_back(worker, w);
    for (auto& th : pool) th.join();
  }

  u32 prevented = 0;
  u32 detected = 0;
  u32 skipped = 0;
  u32 oracle_failures = 0;
  std::printf("adversary campaign: %u variant(s), schedule seed 0x%llx\n",
              variants, static_cast<unsigned long long>(schedule_seed));
  for (u32 i = 0; i < variants; ++i) {
    const auto& v = verdicts[i];
    switch (v.kind) {
      case fuzz::Surface::Verdict::Kind::kAccepted: ++prevented; break;
      case fuzz::Surface::Verdict::Kind::kRejected: ++detected; break;
      case fuzz::Surface::Verdict::Kind::kSkipped: ++skipped; break;
    }
    if (v.failure) {
      ++oracle_failures;
      std::printf("FAILURE variant %u oracle=%s\n  %s\n  schedule: %s\n", i,
                  v.failure->first.c_str(), v.failure->second.c_str(),
                  attacks::AdversarySchedule::decode(wires[i])
                      .value_or(attacks::AdversarySchedule{})
                      .to_string()
                      .c_str());
    }
  }
  std::printf("  prevented (patch applied, memory clean): %u\n", prevented);
  std::printf("  detected  (blocked, kernel untouched):   %u\n", detected);
  if (skipped > 0) std::printf("  skipped: %u\n", skipped);
  std::printf("  action mix:");
  for (const auto& [name, count] : by_variant) {
    std::printf(" %s=%u", name.c_str(), count);
  }
  std::printf("\n");
  if (oracle_failures > 0) {
    std::fprintf(stderr,
                 "attack campaign FAILED: %u silent-corruption/"
                 "silent-failure case(s)\n",
                 oracle_failures);
    return 1;
  }
  std::printf("attack campaign ok: every variant prevented or detected\n");
  return 0;
}

/// `synth`: seeded auto-CVE campaign (DESIGN.md §14). Every case is
/// generated from the campaign seed stream and judged by the full oracle
/// stack — probe contract on the AST evaluator, evaluator-vs-machine
/// differential under two optimizer configs, structural diff confinement —
/// before it is allowed near the live pipeline. `--live N` additionally
/// pushes the first N cases through a full boot -> seal -> stage -> apply
/// deployment and re-probes the exploit. stdout carries ONLY the campaign
/// report, byte-identical across --jobs, so CI can cmp two runs.
int cmd_synth(const CommonFlags& common, u32 cases,
              const std::string& classes_csv, u32 live) {
  cve::CampaignOptions o;
  o.seed = common.seed;
  o.cases = cases;
  o.jobs = common.jobs;
  if (!classes_csv.empty()) {
    o.classes.clear();
    for (const auto& tag : split_ids(classes_csv)) {
      auto cls = cve::bug_class_from_tag(tag);
      if (!cls.is_ok()) {
        std::fprintf(stderr, "synth: %s\n",
                     cls.status().to_string().c_str());
        usage();
        return 2;
      }
      o.classes.push_back(*cls);
    }
  }
  if (live > 0) {
    o.live_cases = live;
    o.live_probe = [&common](const cve::SynthCase& sc) -> Status {
      auto tb = testbed::Testbed::boot(sc.cve, {.seed = common.seed});
      if (!tb.is_ok()) return tb.status();
      testbed::Testbed& t = **tb;
      auto probe = testbed::prober(t);
      auto pre = cve::probe_case(sc.cve, probe, /*expect_fixed=*/false);
      if (!pre.is_ok()) return pre.status();
      if (!pre->detail.empty()) return Status{Errc::kInternal, pre->detail};
      auto rep = t.kshot().live_patch(sc.cve.id);
      if (!rep.is_ok()) return rep.status();
      if (!rep->success) {
        return Status{Errc::kInternal,
                      std::string("live patch failed: ") +
                          core::smm_status_name(rep->smm_status)};
      }
      auto post = cve::probe_case(sc.cve, probe, /*expect_fixed=*/true);
      if (!post.is_ok()) return post.status();
      if (!post->detail.empty()) return Status{Errc::kInternal, post->detail};
      return Status::ok();
    };
  }
  auto rep = cve::run_campaign(o);
  if (!rep.is_ok()) {
    std::fprintf(stderr, "synth: %s\n", rep.status().to_string().c_str());
    return 1;
  }
  std::fputs(rep->report.c_str(), stdout);
  return rep->ok() ? 0 : 1;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: kshot-sim list\n"
      "       kshot-sim exploit <CVE-ID>\n"
      "       kshot-sim patch <CVE-ID> [--rootkit] [--watchdog] [--guard]\n"
      "                 [--kpatch]\n"
      "       kshot-sim single [CVE-ID]       patch one target (defaults to\n"
      "                 CVE-2014-0196); same flags as patch\n"
      "       kshot-sim single --batch A,B,C  apply several CVEs' packages\n"
      "                 in ONE batched SMM session on a merged kernel\n"
      "       kshot-sim fleet <CVE-ID> [--targets N] [--canary K] [--wave W]\n"
      "                 [--abort-rate R] [--drop R] [--corrupt R]\n"
      "                 [--batch A,B,C] (batched sessions per target)\n"
      "                 [--prep-jobs N] (server-side parallel patch prep)\n"
      "                 [--synth-seed S] (roll out a synthesized CVE;\n"
      "                 class cycles with S, id = SYNTH-<TAG>-<S>)\n"
      "       kshot-sim fleet [CVE-ID] --targets 1000000 [--shards R]\n"
      "                 [--sample K] [--relays M] [--relay-fanout F]\n"
      "                 [--fail-permille P]   planet-scale modeled rollout:\n"
      "                 sharded controllers + content-addressed patch relays,\n"
      "                 K real sampled testbeds per wave as ground truth;\n"
      "                 report is byte-identical across --jobs and --shards\n"
      "                 (any scale flag, or --targets > 10000, selects it)\n"
      "       kshot-sim bench [--quick] [--out-dir DIR] [--gate BASELINE_DIR]\n"
      "                 [--gate-tol F] [--cost-scale X]   deterministic\n"
      "                 modeled-cost bench; writes BENCH_table3/4.json (+\n"
      "                 *_wall.json sidecars); --gate fails on regressions\n"
      "       kshot-sim lifecycle             scripted patch-stack smoke:\n"
      "                 apply, depend, supersede, query, out-of-order revert,\n"
      "                 in-place splice; canonical output (byte-identical\n"
      "                 across --jobs) for CI cmp\n"
      "       kshot-sim disasm <CVE-ID> <function>\n"
      "       kshot-sim package <CVE-ID>\n"
      "       kshot-sim synth [--cases N] [--classes OOB,CHK,DSP] [--live K]\n"
      "                 seeded auto-CVE campaign (DESIGN.md §14): every case\n"
      "                 passes probe-contract + evaluator-vs-machine\n"
      "                 differential + diff-confinement oracles; --live K\n"
      "                 also live-patches the first K cases end to end;\n"
      "                 report is byte-identical across --jobs for CI cmp\n"
      "       kshot-sim fuzz [--surface package|netsim|kcc|attacker_schedule"
      "|synth|all]\n"
      "                 [--iters N] [--time-budget T] [--corpus DIR]\n"
      "                 [--write-corpus DIR] [--replay FILE] [--selftest]\n"
      "       kshot-sim attack [--schedule-seed S] [--variants N]\n"
      "                 seeded async-adversary campaign; nonzero exit on any\n"
      "                 silent corruption (deterministic across --jobs)\n"
      "shared flags: --seed S (deterministic seed, default 0x5EED)\n"
      "              --jobs J (fleet worker pool; workload threads for "
      "patch)\n"
      "              --cpus N (simulated CPUs per target, default 1; >1\n"
      "                 engages the multi-CPU SMI rendezvous cost model;\n"
      "                 0 is rejected)\n"
      "              --trace-out FILE (write a Chrome-trace JSON of the run)\n"
      "              --metrics (dump the metrics snapshot to stdout)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage();
    return 2;
  }
  const std::string& cmd = args[0];

  // Strict flag validation: every command declares its boolean and
  // value-taking flags; anything else that starts with "--" is an error
  // (exit 2), not silently ignored. Value flags consume the next argument.
  static const std::vector<std::string> kCommonBool = {"--metrics"};
  static const std::vector<std::string> kCommonValue = {"--seed", "--jobs",
                                                        "--cpus",
                                                        "--trace-out"};
  auto allowed_bool = kCommonBool;
  auto allowed_value = kCommonValue;
  if (cmd == "patch" || cmd == "single") {
    for (const char* f : {"--rootkit", "--watchdog", "--guard", "--kpatch"}) {
      allowed_bool.push_back(f);
    }
    if (cmd == "single") allowed_value.push_back("--batch");
  } else if (cmd == "fleet") {
    for (const char* f : {"--targets", "--canary", "--wave", "--abort-rate",
                          "--drop", "--corrupt", "--batch", "--prep-jobs",
                          "--shards", "--sample", "--relays", "--relay-fanout",
                          "--fail-permille", "--synth-seed"}) {
      allowed_value.push_back(f);
    }
  } else if (cmd == "synth") {
    for (const char* f : {"--cases", "--classes", "--live"}) {
      allowed_value.push_back(f);
    }
  } else if (cmd == "bench") {
    allowed_bool.push_back("--quick");
    for (const char* f : {"--out-dir", "--gate", "--gate-tol",
                          "--cost-scale"}) {
      allowed_value.push_back(f);
    }
  } else if (cmd == "fuzz") {
    allowed_bool.push_back("--selftest");
    for (const char* f : {"--surface", "--iters", "--time-budget", "--corpus",
                          "--write-corpus", "--replay"}) {
      allowed_value.push_back(f);
    }
  } else if (cmd == "attack") {
    for (const char* f : {"--schedule-seed", "--variants"}) {
      allowed_value.push_back(f);
    }
  }
  auto contains = [](const std::vector<std::string>& v, const std::string& s) {
    for (const auto& e : v) {
      if (e == s) return true;
    }
    return false;
  };
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) continue;  // positional
    if (contains(allowed_bool, args[i])) continue;
    if (contains(allowed_value, args[i])) {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s: flag %s needs a value\n", cmd.c_str(),
                     args[i].c_str());
        usage();
        return 2;
      }
      ++i;  // skip the consumed value
      continue;
    }
    std::fprintf(stderr, "%s: unknown flag %s\n", cmd.c_str(),
                 args[i].c_str());
    usage();
    return 2;
  }

  auto has_flag = [&](const char* f) {
    for (const auto& a : args) {
      if (a == f) return true;
    }
    return false;
  };
  // `--name value` flags; returns fallback when absent or malformed.
  auto value_flag = [&](const char* f, double fallback) {
    for (size_t i = 1; i + 1 < args.size(); ++i) {
      if (args[i] == f) return std::strtod(args[i + 1].c_str(), nullptr);
    }
    return fallback;
  };
  auto string_flag = [&](const char* f, std::string fallback) {
    for (size_t i = 1; i + 1 < args.size(); ++i) {
      if (args[i] == f) return args[i + 1];
    }
    return fallback;
  };

  CommonFlags common;
  common.seed = static_cast<u64>(
      value_flag("--seed", static_cast<double>(common.seed)));
  common.jobs = static_cast<u32>(
      std::max(1.0, value_flag("--jobs", common.jobs)));
  common.trace_out = string_flag("--trace-out", "");
  common.metrics = has_flag("--metrics");
  // --cpus is strict: 0 (or an unparsable value) is a topology that cannot
  // exist, so it exits 2 like an unknown flag rather than being clamped.
  double cpus_v = value_flag("--cpus", 1);
  if (cpus_v < 1) {
    std::fprintf(stderr, "%s: --cpus must be >= 1\n", cmd.c_str());
    usage();
    return 2;
  }
  common.cpus = static_cast<u32>(cpus_v);

  if (cmd == "list") return cmd_list();
  if (cmd == "exploit" && args.size() >= 2) {
    return cmd_exploit(args[1], common);
  }
  if (cmd == "patch" && args.size() >= 2) {
    return cmd_patch(args[1], common, has_flag("--rootkit"),
                     has_flag("--watchdog"), has_flag("--guard"),
                     has_flag("--kpatch"));
  }
  if (cmd == "single") {
    std::string batch_csv = string_flag("--batch", "");
    if (!batch_csv.empty()) return cmd_single_batch(batch_csv, common);
    // `single` is `patch` with a default case: one target, end to end.
    std::string id = args.size() >= 2 && args[1].rfind("--", 0) != 0
                         ? args[1]
                         : "CVE-2014-0196";
    return cmd_patch(id, common, has_flag("--rootkit"), has_flag("--watchdog"),
                     has_flag("--guard"), has_flag("--kpatch"));
  }
  if (cmd == "bench") {
    return cmd_bench(common, has_flag("--quick"), string_flag("--out-dir", ""),
                     string_flag("--gate", ""), value_flag("--gate-tol", 0.02),
                     value_flag("--cost-scale", 1.0));
  }
  if (cmd == "fleet" &&
      (args.size() >= 2 || !string_flag("--batch", "").empty())) {
    auto flag_present = [&](const char* f) {
      for (size_t i = 1; i < args.size(); ++i) {
        if (args[i] == f) return true;
      }
      return false;
    };
    // --synth-seed S targets a synthesized CVE instead of a table one: the
    // bug class cycles with the seed (S mod 3) and the id round-trips
    // through cve::resolve_case on every consumer down the line.
    std::string synth_cve_id;
    if (flag_present("--synth-seed")) {
      u64 s = static_cast<u64>(value_flag("--synth-seed", 0));
      synth_cve_id = cve::synth_id(static_cast<cve::BugClass>(s % 3), s);
      std::fprintf(stderr, "fleet: synthesized target %s\n",
                   synth_cve_id.c_str());
    }
    double targets_v = value_flag("--targets", 8);
    // Planet-scale path: any sharding/relay/sampling flag — or a population
    // too large to boot one real testbed per target — routes to the modeled
    // fleetscale coordinator (real testbeds are still sampled per wave).
    bool scale = flag_present("--shards") || flag_present("--sample") ||
                 flag_present("--relays") || flag_present("--relay-fanout") ||
                 flag_present("--fail-permille") || targets_v > 10'000;
    if (scale) {
      if (!string_flag("--batch", "").empty()) {
        std::fprintf(stderr,
                     "fleet: --batch is not supported at planet scale\n");
        usage();
        return 2;
      }
      fleetscale::FleetScaleOptions so;
      if (args.size() >= 2 && args[1].rfind("--", 0) != 0) so.cve_id = args[1];
      if (!synth_cve_id.empty()) so.cve_id = synth_cve_id;
      so.targets = static_cast<u64>(std::max(0.0, targets_v));
      so.shards = static_cast<u32>(std::max(0.0, value_flag("--shards", 4)));
      so.sample = static_cast<u32>(std::max(0.0, value_flag("--sample", 2)));
      so.relays = static_cast<u32>(std::max(0.0, value_flag("--relays", 8)));
      so.relay_fanout =
          static_cast<u32>(std::max(0.0, value_flag("--relay-fanout", 4)));
      so.fail_permille =
          static_cast<u32>(std::max(0.0, value_flag("--fail-permille", 0)));
      so.jobs = common.jobs;
      so.base_seed = common.seed;
      so.cpus = common.cpus;
      so.capture_trace = !common.trace_out.empty();
      Status valid = fleetscale::FleetCoordinator::validate(so);
      if (!valid.is_ok()) {
        std::fprintf(stderr, "fleet: %s\n", valid.to_string().c_str());
        usage();
        return 2;
      }
      fleetscale::FleetCoordinator fc(std::move(so));
      auto rep = fc.run();
      if (!rep.is_ok()) {
        std::fprintf(stderr, "fleetscale campaign failed: %s\n",
                     rep.status().to_string().c_str());
        return 1;
      }
      // stdout carries ONLY the report: CI cmp's it byte-for-byte across
      // --jobs and --shards, so execution topology goes to stderr.
      std::fputs(rep->to_string().c_str(), stdout);
      std::fprintf(stderr,
                   "fleetscale: ran with shards=%u jobs=%u (execution "
                   "detail, never part of the report)\n",
                   static_cast<u32>(std::max(0.0, value_flag("--shards", 4))),
                   common.jobs);
      if (!common.trace_out.empty()) {
        if (write_file(common.trace_out, rep->trace_json) != 0) return 1;
        std::fprintf(stderr, "trace -> %s\n", common.trace_out.c_str());
      }
      if (common.metrics) {
        std::fputs(rep->metrics.to_string().c_str(), stdout);
      }
      return rep->aborted || rep->applied != rep->targets ? 1 : 0;
    }
    fleet::FleetOptions o;
    std::string batch_csv = string_flag("--batch", "");
    if (!batch_csv.empty()) {
      o.batch_cve_ids = split_ids(batch_csv);
    } else if (!synth_cve_id.empty()) {
      o.cve_id = synth_cve_id;
    } else if (args[1].rfind("--", 0) != 0) {
      o.cve_id = args[1];
    } else {
      usage();
      return 2;
    }
    o.prep_jobs =
        static_cast<u32>(std::max(1.0, value_flag("--prep-jobs", 1)));
    o.base_seed = common.seed;
    o.jobs = common.jobs;
    o.cpus = common.cpus;
    o.targets = static_cast<u32>(std::max(1.0, value_flag("--targets", 8)));
    o.rollout.canary =
        static_cast<u32>(std::max(1.0, value_flag("--canary", 1)));
    o.rollout.wave = static_cast<u32>(std::max(1.0, value_flag("--wave", 4)));
    o.rollout.abort_failure_rate = value_flag("--abort-rate", 0.5);
    double drop = value_flag("--drop", 0);
    double corrupt = value_flag("--corrupt", 0);
    if (drop > 0 || corrupt > 0) {
      netsim::FaultPlan fp;
      fp.rates.drop = drop;
      fp.rates.corrupt = corrupt;
      o.fault_plan = fp;
    }
    o.capture_trace = !common.trace_out.empty();
    fleet::FleetController fc(o);
    auto rep = fc.run_campaign();
    if (!rep.is_ok()) {
      std::fprintf(stderr, "fleet campaign failed: %s\n",
                   rep.status().to_string().c_str());
      return 1;
    }
    std::fputs(rep->to_string().c_str(), stdout);
    std::printf("modeled makespan at --jobs %u: %.1f us (serial %.1f us)\n",
                o.jobs, fleet::modeled_makespan_us(*rep, o.jobs),
                fleet::modeled_makespan_us(*rep, 1));
    if (!common.trace_out.empty()) {
      if (write_file(common.trace_out, rep->trace_json) != 0) return 1;
      std::printf("trace -> %s\n", common.trace_out.c_str());
    }
    if (common.metrics) {
      std::fputs(rep->metrics.to_string().c_str(), stdout);
    }
    return rep->aborted || rep->applied != rep->targets ? 1 : 0;
  }
  if (cmd == "lifecycle") return cmd_lifecycle(common);
  if (cmd == "disasm" && args.size() >= 3) return cmd_disasm(args[1], args[2]);
  if (cmd == "package" && args.size() >= 2) return cmd_package(args[1]);
  if (cmd == "fuzz") {
    FuzzCliOptions o;
    o.surface = string_flag("--surface", o.surface);
    o.fuzz.seed = common.seed;
    o.fuzz.iters = static_cast<u32>(
        std::max(1.0, value_flag("--iters", o.fuzz.iters)));
    o.fuzz.time_budget_s = value_flag("--time-budget", 0);
    o.corpus_dir = string_flag("--corpus", "");
    o.write_corpus_dir = string_flag("--write-corpus", "");
    o.replay_file = string_flag("--replay", "");
    o.selftest = has_flag("--selftest");
    return cmd_fuzz(o);
  }
  if (cmd == "attack") {
    u64 schedule_seed = static_cast<u64>(
        value_flag("--schedule-seed", static_cast<double>(common.seed)));
    u32 variants =
        static_cast<u32>(std::max(1.0, value_flag("--variants", 200)));
    return cmd_attack(schedule_seed, variants, common.jobs, common.cpus);
  }
  if (cmd == "synth") {
    u32 cases = static_cast<u32>(std::max(1.0, value_flag("--cases", 200)));
    u32 live = static_cast<u32>(std::max(0.0, value_flag("--live", 0)));
    return cmd_synth(common, cases, string_flag("--classes", ""), live);
  }
  usage();
  return 2;
}
