// kshot-sim — command-line driver for the KShot simulation.
//
// Every command, its positional arguments and each flag it reads are
// declared once, in the command table (commands() at the bottom of this
// file); usage, parsing and validation all come from that table. Run
// `kshot-sim` with no arguments for the generated usage text.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

// ---- The command-line model -------------------------------------------------
//
// The one rule: a command lists exactly the flags it reads. Reading a flag
// the row does not declare is a check failure, and passing one exits 2.

enum class Kind { kBool, kU32, kU64, kDouble, kString };

/// One flag a command reads, given as `--name` (kBool) or `--name value`.
struct Flag {
  const char* name;  // without the leading "--"
  std::string help;
  Kind kind = Kind::kBool;
  const char* metavar = nullptr;  // value placeholder in the usage text
  const char* def = nullptr;      // default, in the form typed; null = none
  u64 min = 0;                    // smallest accepted integer value
};

struct Value {
  const Flag* flag = nullptr;
  bool given = false;
  u64 u = 0;
  double d = 0;
  std::string s;
};

/// A command line parsed against one table row.
struct Args {
  std::vector<std::string> pos;
  std::map<std::string, Value> values;

  const Value& at(const char* name) const {
    auto it = values.find(name);
    KSHOT_CHECK(it != values.end(), "flag read but not declared");
    return it->second;
  }
  const Value& at(const char* name, Kind kind) const {
    const Value& v = at(name);
    KSHOT_CHECK(v.flag->kind == kind, "flag read as the wrong kind");
    return v;
  }
  bool given(const char* name) const { return at(name).given; }
  bool on(const char* name) const { return at(name, Kind::kBool).given; }
  u32 count(const char* name) const {
    return static_cast<u32>(at(name, Kind::kU32).u);
  }
  u64 num(const char* name) const { return at(name, Kind::kU64).u; }
  double real(const char* name) const { return at(name, Kind::kDouble).d; }
  const std::string& str(const char* name) const {
    return at(name, Kind::kString).s;
  }
};

struct Command {
  const char* name;
  std::vector<const char*> positionals;  // "<required>" or "[optional]"
  const char* summary;
  std::vector<Flag> flags;
  int (*run)(const Args&);
};

void usage();

/// Prints "<cmd>: <why>" and the usage; returns exit code 2.
int usage_error(const char* cmd, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", cmd, why.c_str());
  usage();
  return 2;
}

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

int cmd_list(const Args&) {
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

int cmd_exploit(const Args& a) {
  auto rc = resolve_or_report(a.pos[0]);
  if (!rc.is_ok()) return 1;
  const cve::CveCase& c = *rc;
  auto tb = testbed::Testbed::boot(c, {.seed = a.num("seed")});
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

/// `patch`, and `single` without --batch: `single` is `patch` with a
/// default case, one target end to end.
int cmd_patch(const Args& a) {
  auto rc = resolve_or_report(a.pos.empty() ? "CVE-2014-0196" : a.pos[0]);
  if (!rc.is_ok()) return 1;
  const cve::CveCase& c = *rc;
  const std::string& trace_out = a.str("trace-out");
  const bool use_kpatch = a.on("kpatch");
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  testbed::TestbedOptions opts;
  opts.seed = a.num("seed");
  opts.cpus = a.count("cpus");
  opts.workload_threads = static_cast<int>(std::max<u32>(2, a.count("jobs")));
  if (a.on("watchdog")) opts.watchdog_interval_cycles = 50'000;
  if (!trace_out.empty()) opts.trace = &trace;
  opts.metrics = &metrics;
  auto tb = testbed::Testbed::boot(c, opts);
  if (!tb.is_ok()) {
    std::fprintf(stderr, "boot failed: %s\n", tb.status().to_string().c_str());
    return 1;
  }
  testbed::Testbed& t = **tb;
  if (a.on("guard") && !t.kshot().arm_kernel_guard().is_ok()) {
    std::fprintf(stderr, "guard arming failed\n");
    return 1;
  }
  if (a.on("rootkit")) {
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

  if (!trace_out.empty()) {
    if (write_file(trace_out, obs::to_chrome_trace(trace.snapshot())) != 0) {
      return 1;
    }
    std::printf("trace: %zu events -> %s\n", trace.size(), trace_out.c_str());
  }
  if (a.on("metrics")) {
    std::fputs(metrics.snapshot().to_string().c_str(), stdout);
  }
  return post.is_ok() && !post->oops ? 0 : 1;
}

int cmd_disasm(const Args& a) {
  const std::string& fn = a.pos[1];
  auto rc = resolve_or_report(a.pos[0]);
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

int cmd_package(const Args& a) {
  const std::string& id = a.pos[0];
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
  std::istringstream in(csv);
  for (std::string id; std::getline(in, id, ',');) {
    if (!id.empty()) ids.push_back(id);
  }
  return ids;
}

/// `single --batch A,B,C`: one merged deployment, one batched SMM session
/// installing every package, then a per-CVE exploit sweep.
int cmd_single(const Args& a) {
  if (a.str("batch").empty()) return cmd_patch(a);
  std::vector<std::string> ids = split_ids(a.str("batch"));
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
                                   {.seed = a.num("seed"),
                                    .cpus = a.count("cpus")});
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
int cmd_lifecycle(const Args& a) {
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
  topts.seed = a.num("seed");
  topts.cpus = a.count("cpus");
  topts.workload_threads = static_cast<int>(a.count("jobs")) - 1;
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
  sopts.seed = a.num("seed");
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
int cmd_bench(const Args& a) {
  const std::string& gate_dir = a.str("gate");
  const double gate_tol = a.real("gate-tol");
  benchkit::BenchOptions bo;
  bo.seed = a.num("seed");
  bo.jobs = a.count("jobs");
  bo.quick = a.on("quick");
  bo.cost_scale = a.real("cost-scale");
  auto res = benchkit::run_bench(bo);
  if (!res.is_ok()) {
    std::fprintf(stderr, "bench failed: %s\n",
                 res.status().to_string().c_str());
    return 1;
  }

  std::string dir = a.str("out-dir").empty() ? "." : a.str("out-dir");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const benchkit::BenchDoc& d : *res) {
    std::string path = dir + "/" + d.file;
    if (write_file(path, d.body) != 0) return 1;
    std::printf("bench: wrote %s (%zu bytes)%s\n", path.c_str(),
                d.body.size(), d.gated ? "" : "  [wall sidecar, not gated]");
  }

  if (gate_dir.empty()) return 0;
  bool gate_ok = true;
  size_t wall_warnings = 0;
  for (const benchkit::BenchDoc& d : *res) {
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
    // The wall sidecars get the soft gate: wall time is real and noisy, so
    // a >10% regression only warns (distinct message, exit stays 0), and a
    // broken sidecar never fails the run.
    auto gate = d.gated ? benchkit::gate_compare(buf.str(), d.body, gate_tol)
                        : benchkit::wall_compare(buf.str(), d.body);
    if (!gate.is_ok()) {
      std::fprintf(stderr, "bench %sgate: %s\n", d.gated ? "" : "wall ",
                   gate.status().to_string().c_str());
      if (d.gated) return 1;
      continue;
    }
    std::printf("%s: %s", d.file.c_str(), gate->to_string().c_str());
    gate_ok = gate_ok && gate->ok();
    wall_warnings += gate->warnings.size();
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

/// The registered fuzz surfaces joined by '|', for usage and errors.
std::string surface_choices() {
  std::string out;
  for (const auto& name : fuzz::surface_names()) {
    out += (out.empty() ? "" : "|") + name;
  }
  return out;
}

int print_reports(const std::vector<fuzz::FuzzReport>& reports) {
  bool failed = false;
  for (const auto& r : reports) {
    std::fputs(r.to_string().c_str(), stdout);
    failed = failed || !r.failures.empty();
  }
  return failed ? 1 : 0;
}

int cmd_fuzz(const Args& a) {
  const std::string& surface_name = a.str("surface");
  const std::string& write_dir = a.str("write-corpus");
  const std::string& replay_file = a.str("replay");
  fuzz::FuzzOptions opts;
  opts.seed = a.num("seed");
  opts.iters = a.count("iters");
  opts.time_budget_s = a.real("time-budget");
  if (!write_dir.empty()) {
    auto st = fuzz::write_seed_corpus(write_dir);
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("seed corpus written to %s\n", write_dir.c_str());
    return 0;
  }
  if (!replay_file.empty()) {
    std::ifstream in(replay_file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_file.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Bytes input;
    if (surface_name == "kcc" &&
        replay_file.find(".hex") == std::string::npos) {
      input = to_bytes(buf.str());
    } else {
      auto decoded = fuzz::decode_hex_file(buf.str());
      if (!decoded.is_ok()) {
        std::fprintf(stderr, "%s\n", decoded.status().to_string().c_str());
        return 1;
      }
      input = std::move(*decoded);
    }
    auto surface = fuzz::make_surface(surface_name);
    if (!surface) {
      std::fprintf(stderr, "--replay needs --surface %s\n",
                   surface_choices().c_str());
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
  if (!a.str("corpus").empty()) {
    auto entries = fuzz::load_corpus(a.str("corpus"));
    if (!entries.is_ok()) {
      std::fprintf(stderr, "%s\n", entries.status().to_string().c_str());
      return 1;
    }
    return print_reports(fuzz::replay_corpus(*entries, opts));
  }
  if (a.on("selftest")) {
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
      auto rep = fuzz::run_fuzz(*s.surface, opts);
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
  std::vector<std::string> surfaces = {surface_name};
  if (surface_name == "all") surfaces = fuzz::surface_names();
  std::vector<fuzz::FuzzReport> reports;
  for (const auto& name : surfaces) {
    auto surface = fuzz::make_surface(name);
    if (!surface) {
      std::fprintf(stderr, "unknown surface: %s\n", name.c_str());
      return 2;
    }
    reports.push_back(fuzz::run_fuzz(*surface, opts));
  }
  return print_reports(reports);
}

/// Seeded async-adversary campaign: `variants` generated schedules, each
/// judged by the attacker_schedule surface's prevented-or-detected oracle.
/// Workers partition variants statically (worker w takes indices w, w+jobs,
/// ...), results land in index-i slots, and the summary is aggregated in
/// index order — so the output is byte-identical at any --jobs level.
int cmd_attack(const Args& a) {
  const u64 schedule_seed =
      a.given("schedule-seed") ? a.num("schedule-seed") : a.num("seed");
  const u32 variants = a.count("variants");
  const u32 jobs = std::min(a.count("jobs"), variants);
  const u32 cpus = a.count("cpus");
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
int cmd_synth(const Args& a) {
  cve::CampaignOptions o;
  o.seed = a.num("seed");
  o.cases = a.count("cases");
  o.jobs = a.count("jobs");
  if (!a.str("classes").empty()) {
    o.classes.clear();
    for (const auto& tag : split_ids(a.str("classes"))) {
      auto cls = cve::bug_class_from_tag(tag);
      if (!cls.is_ok()) return usage_error("synth", cls.status().to_string());
      o.classes.push_back(*cls);
    }
  }
  if (a.count("live") > 0) {
    o.live_cases = a.count("live");
    o.live_probe = [seed = o.seed](const cve::SynthCase& sc) -> Status {
      auto tb = testbed::Testbed::boot(sc.cve, {.seed = seed});
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

/// `fleet`: a staged rollout over real testbeds, or, at planet scale, the
/// modeled fleetscale coordinator.
int cmd_fleet(const Args& a) {
  const std::string& trace_out = a.str("trace-out");
  // --synth-seed S targets a synthesized CVE instead of a table one: the
  // bug class cycles with the seed (S mod 3) and the id round-trips
  // through cve::resolve_case on every consumer down the line.
  std::string synth_cve_id;
  if (a.given("synth-seed")) {
    u64 s = a.num("synth-seed");
    synth_cve_id = cve::synth_id(static_cast<cve::BugClass>(s % 3), s);
    std::fprintf(stderr, "fleet: synthesized target %s\n",
                 synth_cve_id.c_str());
  }
  const std::string& batch_csv = a.str("batch");
  // Planet-scale path: any sharding/relay/sampling flag — or a population
  // too large to boot one real testbed per target — routes to the modeled
  // fleetscale coordinator (real testbeds are still sampled per wave).
  bool scale = a.given("shards") || a.given("sample") || a.given("relays") ||
               a.given("relay-fanout") || a.given("fail-permille") ||
               a.num("targets") > 10'000;
  if (scale) {
    if (!batch_csv.empty()) {
      return usage_error("fleet", "--batch is not supported at planet scale");
    }
    fleetscale::FleetScaleOptions so;
    if (!a.pos.empty()) so.cve_id = a.pos[0];
    if (!synth_cve_id.empty()) so.cve_id = synth_cve_id;
    so.targets = a.num("targets");
    so.shards = a.count("shards");
    so.sample = a.count("sample");
    so.relays = a.count("relays");
    so.relay_fanout = a.count("relay-fanout");
    so.fail_permille = a.count("fail-permille");
    so.jobs = a.count("jobs");
    so.base_seed = a.num("seed");
    so.cpus = a.count("cpus");
    so.capture_trace = !trace_out.empty();
    Status valid = fleetscale::FleetCoordinator::validate(so);
    if (!valid.is_ok()) return usage_error("fleet", valid.to_string());
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
                 a.count("shards"), a.count("jobs"));
    if (!trace_out.empty()) {
      if (write_file(trace_out, rep->trace_json) != 0) return 1;
      std::fprintf(stderr, "trace -> %s\n", trace_out.c_str());
    }
    if (a.on("metrics")) {
      std::fputs(rep->metrics.to_string().c_str(), stdout);
    }
    return rep->aborted || rep->applied != rep->targets ? 1 : 0;
  }
  fleet::FleetOptions o;
  if (!batch_csv.empty()) {
    o.batch_cve_ids = split_ids(batch_csv);
  } else if (!synth_cve_id.empty()) {
    o.cve_id = synth_cve_id;
  } else if (!a.pos.empty()) {
    o.cve_id = a.pos[0];
  } else {
    return usage_error("fleet", "needs a CVE-ID, --batch or --synth-seed");
  }
  o.base_seed = a.num("seed");
  o.jobs = a.count("jobs");
  o.cpus = a.count("cpus");
  o.targets = static_cast<u32>(a.num("targets"));  // <= 10'000 here
  o.rollout.canary = a.count("canary");
  o.rollout.wave = a.count("wave");
  o.rollout.abort_failure_rate = a.real("abort-rate");
  if (a.real("drop") > 0 || a.real("corrupt") > 0) {
    netsim::FaultPlan fp;
    fp.rates.drop = a.real("drop");
    fp.rates.corrupt = a.real("corrupt");
    o.fault_plan = fp;
  }
  o.capture_trace = !trace_out.empty();
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
  if (!trace_out.empty()) {
    if (write_file(trace_out, rep->trace_json) != 0) return 1;
    std::printf("trace -> %s\n", trace_out.c_str());
  }
  if (a.on("metrics")) {
    std::fputs(rep->metrics.to_string().c_str(), stdout);
  }
  return rep->aborted || rep->applied != rep->targets ? 1 : 0;
}

// ---- Parsing, usage and the command table ----------------------------------

/// Integers parse exactly (strtoull base 0: decimal, 0x hex, 0 octal) and
/// doubles must be finite; either way the whole text must be consumed.
bool parse_value(const Flag& f, const std::string& text, Value& v) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  switch (f.kind) {
    case Kind::kBool:
    case Kind::kString:
      v.s = text;
      return true;
    case Kind::kDouble:
      v.d = std::strtod(s, &end);
      return end != s && *end == '\0' && errno == 0 && std::isfinite(v.d);
    case Kind::kU32:
    case Kind::kU64:
      if (!std::isdigit(static_cast<unsigned char>(s[0]))) return false;
      v.u = std::strtoull(s, &end, 0);
      return *end == '\0' && errno == 0 &&
             (f.kind == Kind::kU64 || v.u <= 0xFFFFFFFFull);
  }
  return false;
}

const std::vector<Command>& commands();

void usage() {
  std::fprintf(stderr,
               "usage: kshot-sim <command> [arguments] [--flag [value]]...\n");
  for (const Command& c : commands()) {
    std::string head = c.name;
    for (const char* p : c.positionals) head += std::string(" ") + p;
    std::fprintf(stderr, "  %-26s %s\n", head.c_str(), c.summary);
    for (const Flag& f : c.flags) {
      std::string lhs = std::string("--") + f.name;
      if (f.metavar) lhs += std::string(" ") + f.metavar;
      std::string def = f.def ? std::string(" (default ") + f.def + ")" : "";
      std::fprintf(stderr, "    %-19s %s%s\n", lhs.c_str(), f.help.c_str(),
                   def.c_str());
    }
  }
}

/// Parses `argv` (everything after the command name) against `c`:
/// positionals may sit anywhere, value flags take the next argument.
/// Returns 0, or exit code 2 after printing the reason and the usage for an
/// undeclared flag, a missing, malformed or too-small value, or a wrong
/// positional count.
int parse_args(const Command& c, const std::vector<std::string>& argv,
               Args& out) {
  auto fail = [&](const std::string& why) { return usage_error(c.name, why); };
  for (const Flag& f : c.flags) {
    Value& v = out.values[f.name];
    v.flag = &f;
    KSHOT_CHECK(!f.def || parse_value(f, f.def, v), "malformed flag default");
  }
  for (size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out.pos.push_back(arg);
      continue;
    }
    auto it = out.values.find(arg.substr(2));
    if (it == out.values.end()) return fail("unknown flag " + arg);
    Value& v = it->second;
    v.given = true;
    if (v.flag->kind == Kind::kBool) continue;
    if (++i == argv.size()) return fail("flag " + arg + " needs a value");
    if (!parse_value(*v.flag, argv[i], v)) {
      return fail("invalid " + arg + " value '" + argv[i] + "'");
    }
    if (v.u < v.flag->min) {
      return fail(arg + " must be >= " + std::to_string(v.flag->min));
    }
  }
  size_t required = 0;
  for (const char* p : c.positionals) required += p[0] == '<';
  if (out.pos.size() < required) {
    return fail(std::string("missing ") + c.positionals[out.pos.size()]);
  }
  if (out.pos.size() > c.positionals.size()) {
    return fail("unexpected argument " + out.pos[c.positionals.size()]);
  }
  return 0;
}

const Flag kSeed{"seed", "deterministic seed", Kind::kU64, "S", "0x5EED"};
const Flag kJobs{"jobs", "parallelism (same output at any level)", Kind::kU32,
                 "J", "1", 1};
const Flag kCpus{"cpus", "simulated CPUs per target", Kind::kU32, "N", "1", 1};
const Flag kTraceOut{"trace-out", "write a Chrome-trace JSON of the spans",
                     Kind::kString, "FILE"};
const Flag kMetrics{"metrics", "dump the metrics snapshot to stdout"};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = [] {
    const std::vector<Flag> patch = {
        kSeed, kJobs, kCpus, kTraceOut, kMetrics,
        {"rootkit", "load the reversion rootkit first"},
        {"watchdog", "arm the periodic-SMI introspection watchdog"},
        {"guard", "arm the kernel-text guard"},
        {"kpatch", "use the kpatch baseline instead of KShot"}};
    std::vector<Flag> single = patch;
    single.push_back({"batch", "apply several CVEs in ONE SMM session",
                      Kind::kString, "A,B,C"});
    return std::vector<Command>{
        {"list", {}, "table of all CVE benchmark cases", {}, cmd_list},
        {"exploit", {"<CVE-ID>"}, "fire the exploit on the unpatched kernel",
         {kSeed}, cmd_exploit},
        {"patch", {"<CVE-ID>"}, "live-patch one target, re-run the exploit",
         patch, cmd_patch},
        {"single", {"[CVE-ID]"}, "`patch` defaulting to CVE-2014-0196",
         single, cmd_single},
        {"fleet", {"[CVE-ID]"}, "staged rollout across N targets",
         {kSeed, kJobs, kCpus, kTraceOut, kMetrics,
          {"targets", "fleet size; > 10000 is modeled, like scale:",
           Kind::kU64, "N", "8", 1},
          {"canary", "canary wave size", Kind::kU32, "K", "1", 1},
          {"wave", "size of later waves", Kind::kU32, "W", "4", 1},
          {"abort-rate", "wave failure fraction that aborts", Kind::kDouble,
           "R", "0.5"},
          {"drop", "channel drop rate", Kind::kDouble, "R", "0"},
          {"corrupt", "channel corruption rate", Kind::kDouble, "R", "0"},
          {"batch", "batched sessions per target", Kind::kString, "A,B,C"},
          {"synth-seed", "roll out the synthesized CVE SYNTH-<TAG>-<S>",
           Kind::kU64, "S"},
          {"shards", "scale: sharded controllers", Kind::kU32, "R", "4"},
          {"sample", "scale: real testbeds sampled per wave", Kind::kU32,
           "K", "2"},
          {"relays", "scale: patch relays", Kind::kU32, "M", "8"},
          {"relay-fanout", "scale: relay fanout", Kind::kU32, "F", "4"},
          {"fail-permille", "scale: injected failures per mille",
           Kind::kU32, "P", "0"}},
         cmd_fleet},
        {"bench", {}, "modeled-cost bench; writes BENCH_*.json",
         {kSeed, kJobs, {"quick", "reduced sweep"},
          {"out-dir", "output directory", Kind::kString, "DIR", "."},
          {"gate", "fail on regressions against DIR's goldens", Kind::kString,
           "DIR"},
          {"gate-tol", "gate tolerance", Kind::kDouble, "F", "0.02"},
          {"cost-scale", "scale every modeled cost", Kind::kDouble, "X",
           "1.0"}},
         cmd_bench},
        {"lifecycle", {}, "scripted patch-stack smoke (canonical output)",
         {kSeed, kJobs, kCpus}, cmd_lifecycle},
        {"disasm", {"<CVE-ID>", "<function>"}, "disassemble a kernel function",
         {}, cmd_disasm},
        {"package", {"<CVE-ID>"}, "show the built patch set and wire package",
         {}, cmd_package},
        {"synth", {}, "oracle-checked auto-CVE campaign (DESIGN.md §14)",
         {kSeed, kJobs,
          {"cases", "synthesized cases, classes cycled", Kind::kU32, "N",
           "200", 1},
          {"classes", "bug classes to cycle (OOB,CHK,DSP; default all)",
           Kind::kString, "CSV"},
          {"live", "also live-patch the first K cases", Kind::kU32, "K",
           "0"}},
         cmd_synth},
        {"fuzz", {}, "invariant-oracle fuzzing (DESIGN.md §9)",
         {kSeed,
          {"surface", surface_choices() + "|all", Kind::kString, "S",
           "package"},
          {"iters", "generated cases per surface", Kind::kU32, "N", "200", 1},
          {"time-budget", "wall-clock cap in s; 0 = off", Kind::kDouble, "T",
           "0"},
          {"corpus", "replay a regression corpus instead of generating",
           Kind::kString, "DIR"},
          {"write-corpus", "write the canonical seed corpus and exit",
           Kind::kString, "DIR"},
          {"replay", "re-execute one corpus file of --surface",
           Kind::kString, "FILE"},
          {"selftest", "prove the oracles catch the three seams"}},
         cmd_fuzz},
        {"attack", {}, "seeded async-adversary campaign (DESIGN.md §11)",
         {kSeed, kJobs, kCpus,
          {"schedule-seed", "schedule generator seed (default: --seed)",
           Kind::kU64, "S"},
          {"variants", "schedule variants", Kind::kU32, "N", "200", 1}},
         cmd_attack},
    };
  }();
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage();
    return 2;
  }
  for (const Command& c : commands()) {
    if (args[0] != c.name) continue;
    Args parsed;
    if (int rc = parse_args(c, {args.begin() + 1, args.end()}, parsed)) {
      return rc;
    }
    return c.run(parsed);
  }
  return usage_error("kshot-sim", "unknown command " + args[0]);
}
