// The four workloads and the run loop shared by them.
//
//   patch-small         a round over the 31 Table I targets (one shared
//                       PatchServer), each: live_patch -> probe -> rollback
//                       -> reclaim_mem_x -> probe
//   patch-large         the same cycle on one 1 MiB size-sweep target
//   adversary-campaign  attacker_schedule cases, each judged by Surface::execute
//   synth-campaign      cve::run_campaign, one case per op, classes cycled
//
// Each op is checked; a failed check counts the op as failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "attacks/async_adversary.hpp"
#include "bench.hpp"
#include "common/stats.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "cve/suite.hpp"
#include "cve/synth.hpp"
#include "fuzz/fuzz.hpp"
#include "kcc/compiler.hpp"
#include "kcc/eval.hpp"
#include "kcc/parser.hpp"
#include "machine/cost_model.hpp"
#include "testbed/testbed.hpp"

namespace kshot::perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

/// Simulated CPUs per patch target: SMI entry is a multi-CPU rendezvous,
/// whose seeded jitter makes the modeled downtime differ between seeds.
constexpr u32 kTargetCpus = 4;
constexpr size_t kLargePatchBytes = 1 << 20;
/// Set-ups per run, each from scratch and each followed by its share of
/// the untraced timed phase; setup_s is their median.
constexpr u32 kSetups = 5;
/// Ops a run times at least (split across the set-ups), so that op_ms_p90
/// has ten samples above it.
constexpr u64 kOpFloor = 100;
/// Modeled downtime percentiles cover the first patches of the first timed
/// segment only — no more than its share of the op floor guarantees — so
/// they repeat exactly for a seed whatever the host speed.
constexpr size_t kDowntimePatches = kOpFloor / kSetups;

/// Nearest-rank percentile (common/stats.hpp) of an unsorted sample.
double percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, pct);
}

/// Per-layer samples gathered in the traced phase, by sample name.
using Samples = std::map<std::string, std::vector<double>>;

/// What an op sees: in the traced phase a span log and sample sink.
struct Ctx {
  SpanLog* log = nullptr;
  Samples* layers = nullptr;
  /// Crypto throughput measured in this process (traced phase only).
  double aead_open_mbps = 0;
  double sha256_mbps = 0;
  std::vector<double>* downtime_us = nullptr;
};

/// Times one call into a layer; in the traced phase also logs a span.
class Call {
 public:
  Call(Ctx& c, const char* name) : log_(c.log), t0_(Clock::now()) {
    if (log_ != nullptr) id_ = log_->begin(name);
  }
  double done_us() {
    double us = us_between(t0_, Clock::now());
    if (log_ != nullptr) log_->end(id_);
    return us;
  }

 private:
  SpanLog* log_;
  Clock::time_point t0_;
  size_t id_ = 0;
};

void sample(Ctx& c, const char* name, double v) {
  if (c.layers != nullptr) (*c.layers)[name].push_back(v);
}

/// SGX/SMM phase timings and the modeled downtime decomposition of one
/// successful live_patch, plus the decrypt/verify rooflines.
void sample_report(Ctx& c, const core::PatchReport& r) {
  if (c.layers == nullptr) return;
  sample(c, "sgx.fetch_us", r.sgx.fetch_us);
  sample(c, "sgx.preprocess_us", r.sgx.preprocess_us);
  sample(c, "sgx.passing_us", r.sgx.passing_us);
  sample(c, "smm.keygen_us", r.smm.keygen_us);
  sample(c, "smm.decrypt_us", r.smm.decrypt_us);
  sample(c, "smm.verify_us", r.smm.verify_us);
  sample(c, "smm.apply_us", r.smm.apply_us);
  sample(c, "smm.rendezvous_cycles", static_cast<double>(r.rendezvous_cycles));
  sample(c, "smm.handler_cycles", static_cast<double>(r.handler_cycles));
  sample(c, "smm.resume_cycles", static_cast<double>(r.resume_cycles));
  const double bytes = r.stats.package_bytes;
  if (bytes > 0 && c.aead_open_mbps > 0 && c.sha256_mbps > 0) {
    sample(c, "smm.decrypt_roofline",
           r.smm.decrypt_us / (bytes / c.aead_open_mbps));
    sample(c, "smm.verify_roofline",
           r.smm.verify_us / (bytes / c.sha256_mbps));
  }
}

/// Times kcc on a case's fixed source: parse, compile, and the AST
/// evaluator running the benign probe.
std::string probe_kcc(Ctx& c, const cve::CveCase& cc,
                      const kcc::CompileOptions& copts) {
  Call p(c, "kcc.parse");
  auto mod = kcc::parse(cc.post_source);
  sample(c, "kcc.parse_ms", p.done_us() / 1e3);
  if (!mod) return "kcc.parse: " + mod.status().to_string();
  Call k(c, "kcc.compile");
  auto img = kcc::compile_module(*mod, copts);
  sample(c, "kcc.compile_ms", k.done_us() / 1e3);
  if (!img) return "kcc.compile: " + img.status().to_string();
  const kcc::Function* fn = mod->find_function(cc.entry_function);
  if (fn == nullptr) return "kcc: entry function missing";
  std::vector<u64> args(cc.benign_args.begin(),
                        cc.benign_args.begin() +
                            std::min(fn->params.size(), cc.benign_args.size()));
  Call e(c, "kcc.eval");
  kcc::AstEvaluator ev(*mod);
  auto out = ev.call(cc.entry_function, args);
  sample(c, "kcc.eval_ms", e.done_us() / 1e3);
  if (!out) return "kcc.eval: " + out.status().to_string();
  if (out->oops) return "kcc.eval: benign probe trapped";
  return "";
}

/// One booted target plus what its probes looked like before any patch.
struct Target {
  std::unique_ptr<testbed::Testbed> tb;
  cve::ProbeFn probe;
  u64 benign_value = 0;
};

Result<Target> boot_target(const cve::CveCase& c, testbed::TestbedOptions o,
                           Ctx& ctx, double& boot_ms) {
  Call b(ctx, "testbed.boot");
  auto tb = testbed::Testbed::boot(c, std::move(o));
  boot_ms = b.done_us() / 1e3;
  sample(ctx, "testbed.boot_ms", boot_ms);
  if (!tb) return tb.status();
  Target t;
  t.tb = std::move(*tb);
  t.probe = testbed::prober(*t.tb);
  auto pre = cve::probe_case(c, t.probe, /*expect_fixed=*/false);
  if (!pre) return pre.status();
  if (!pre->detail.empty()) {
    return Status{Errc::kInternal, c.id + " pre-patch probe: " + pre->detail};
  }
  t.benign_value = pre->benign_value;
  return t;
}

/// The patch cycle: live_patch -> probe (fixed) -> rollback -> reclaim_mem_x
/// -> probe (vulnerable again). Returns "" or the first broken check.
std::string patch_cycle(Target& t, Ctx& c) {
  core::Kshot& k = t.tb->kshot();
  const cve::CveCase& cc = t.tb->cve_case();

  Call lp(c, "kshot.live_patch");
  auto rep = k.live_patch(cc.id);
  double lp_us = lp.done_us();
  if (!rep) return "live_patch: " + rep.status().to_string();
  if (!rep->success) {
    return "live_patch failed: " +
           std::string(core::smm_status_name(rep->smm_status));
  }
  if (rep->rendezvous_cycles + rep->handler_cycles + rep->resume_cycles !=
      rep->downtime_cycles) {
    return "downtime decomposition does not sum to downtime_cycles";
  }
  if (c.downtime_us != nullptr) {
    c.downtime_us->push_back(rep->smm.modeled_total_us);
  }
  sample(c, "kshot.live_patch_ms", lp_us / 1e3);
  sample_report(c, *rep);

  Call p1(c, "cve.probe");
  auto fixed = cve::probe_case(cc, t.probe, /*expect_fixed=*/true);
  sample(c, "cve.probe_us", p1.done_us());
  if (!fixed) return "probe (patched): " + fixed.status().to_string();
  if (fixed->exploit_trapped || !fixed->benign_ok ||
      fixed->benign_value != t.benign_value) {
    return cc.id + ": patched probe contract broken " + fixed->detail;
  }

  Call rb(c, "kshot.rollback");
  auto back = k.rollback();
  sample(c, "kshot.rollback_us", rb.done_us());
  if (!back) return "rollback: " + back.status().to_string();
  if (!back->success) return "rollback failed";

  Call rc(c, "kshot.reclaim_mem_x");
  Status st = k.reclaim_mem_x();
  rc.done_us();
  if (!st.is_ok()) return "reclaim_mem_x: " + st.to_string();

  Call p2(c, "cve.probe");
  auto vuln = cve::probe_case(cc, t.probe, /*expect_fixed=*/false);
  sample(c, "cve.probe_us", p2.done_us());
  if (!vuln) return "probe (rolled back): " + vuln.status().to_string();
  if (!vuln->detail.empty() || vuln->benign_value != t.benign_value) {
    return cc.id + ": rolled-back probe contract broken " + vuln->detail;
  }
  return "";
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs op `i`; returns "" or the failure detail.
  virtual std::string op(u64 i, Ctx& c) = 0;
  /// Per-layer probes after traced op `i`, outside the op's timing.
  virtual std::string probe_layers(u64 /*i*/, Ctx& /*c*/) { return ""; }
  /// Routes the program's spans into `rec` (null detaches).
  virtual void set_trace(obs::TraceRecorder* /*rec*/) {}
  /// Patch-set cache counters of the server the timed ops use, if any.
  virtual netsim::BuildCacheStats cache_stats() const { return {}; }
  /// Adds this instance's counts to the run's (each set-up is an instance).
  virtual void add_counts(std::map<std::string, Metric>& /*m*/) const {}
  /// Ops a timed phase runs even past its deadline (percentile floor).
  [[nodiscard]] virtual u64 min_ops() const { return kOpFloor; }
};

// ---- patch-small / patch-large ---------------------------------------------

class PatchWorkload final : public Workload {
 public:
  /// `cases` are booted one target each; `shared` selects one PatchServer
  /// for all of them (TestbedOptions::shared_server).
  static Result<std::unique_ptr<Workload>> make(
      const std::vector<cve::CveCase>& cases, kernel::MemoryLayout layout,
      bool shared, u64 seed, std::vector<double>& boot_ms) {
    auto w = std::unique_ptr<PatchWorkload>(new PatchWorkload());
    if (shared) {
      w->server_ = std::make_unique<netsim::PatchServer>(
          nullptr, mix_seed(seed ^ 0x5E7E7));
    }
    Ctx setup;
    for (size_t i = 0; i < cases.size(); ++i) {
      testbed::TestbedOptions o;
      o.layout = layout;
      o.seed = mix_seed(seed + i);
      o.cpus = kTargetCpus;
      o.shared_server = w->server_.get();
      double ms = 0;
      auto t = boot_target(cases[i], o, setup, ms);
      boot_ms.push_back(ms);
      if (!t) return t.status();
      w->targets_.push_back(std::move(*t));
    }
    // Warm-up: one cycle per target builds every server-side patch set.
    for (Target& t : w->targets_) {
      std::string err = patch_cycle(t, setup);
      if (!err.empty()) return Status{Errc::kInternal, "warm-up: " + err};
    }
    w->start_ = seed % w->targets_.size();
    return std::unique_ptr<Workload>(std::move(w));
  }

  /// One op is one round: the patch cycle on every target. The 31 Table I
  /// cycles differ in cost, so single-cycle op times are multimodal and
  /// their median jumps between modes from run to run; a round is not.
  std::string op(u64, Ctx& c) override {
    for (size_t j = 0; j < targets_.size(); ++j) {
      std::string err =
          patch_cycle(targets_[(start_ + j) % targets_.size()], c);
      if (!err.empty()) return err;
    }
    return "";
  }

  /// kcc on one case's fixed source: what a cold server build costs.
  std::string probe_layers(u64 i, Ctx& c) override {
    Target& t = targets_[i % targets_.size()];
    return probe_kcc(c, t.tb->cve_case(), t.tb->compile_options());
  }

  void set_trace(obs::TraceRecorder* rec) override {
    if (server_) server_->set_trace(rec);
    for (Target& t : targets_) {
      t.tb->kshot().set_trace(rec);
      if (!server_) t.tb->server().set_trace(rec);
    }
  }

  netsim::BuildCacheStats cache_stats() const override {
    netsim::BuildCacheStats s;
    if (server_) return server_->cache_stats();
    for (const Target& t : targets_) {
      auto x = t.tb->server().cache_stats();
      s.patchset_hits += x.patchset_hits;
      s.patchset_misses += x.patchset_misses;
    }
    return s;
  }

 private:
  std::unique_ptr<netsim::PatchServer> server_;
  std::vector<Target> targets_;
  u64 start_ = 0;
};

Result<std::unique_ptr<Workload>> make_patch_small(const Options& o,
                                                   std::vector<double>& boot) {
  return PatchWorkload::make(cve::all_cases(), kernel::MemoryLayout{},
                             /*shared=*/true, o.seed, boot);
}

Result<std::unique_ptr<Workload>> make_patch_large(const Options& o,
                                                   std::vector<double>& boot) {
  return PatchWorkload::make({testbed::make_size_sweep_case(kLargePatchBytes)},
                             testbed::layout_for_patch_bytes(kLargePatchBytes),
                             /*shared=*/false, o.seed, boot);
}

// ---- adversary-campaign -----------------------------------------------------

class AdversaryWorkload final : public Workload {
 public:
  static Result<std::unique_ptr<Workload>> make(const Options& o,
                                                std::vector<double>&) {
    auto w = std::unique_ptr<AdversaryWorkload>(new AdversaryWorkload(o));
    fuzz::AttackerSurfaceOptions so;
    so.legacy_double_fetch = o.legacy_double_fetch;
    w->surface_ = fuzz::make_attacker_schedule_surface(so);
    // Warm-up: an empty schedule builds the no-attack baseline.
    auto v = w->surface_->execute(attacks::AdversarySchedule{}.encode());
    if (v.failure || v.kind != fuzz::Surface::Verdict::Kind::kAccepted) {
      return Status{Errc::kInternal, "adversary warm-up was not accepted"};
    }
    return std::unique_ptr<Workload>(std::move(w));
  }

  std::string op(u64 i, Ctx& c) override {
    Rng rng(mix_seed(mix_seed(seed_) ^ i));
    wire_ = surface_->generate(rng);
    Call x(c, "fuzz.execute");
    auto v = surface_->execute(wire_);
    execute_us_ = x.done_us();
    using Kind = fuzz::Surface::Verdict::Kind;
    ++(v.kind == Kind::kAccepted   ? accepted_
       : v.kind == Kind::kRejected ? rejected_
                                   : skipped_);
    if (v.failure) return v.failure->first + ": " + v.failure->second;
    if (v.kind == Kind::kSkipped) return "skipped verdict";
    return "";
  }

  /// Replays the op's schedule through AsyncAdversary on a traced target:
  /// boot, attach, live_patch, detach; then checks the outcome from outside
  /// (prevented: patched; detected: still vulnerable).
  std::string probe_layers(u64, Ctx& c) override {
    auto sched = attacks::AdversarySchedule::decode(wire_);
    if (!sched) return "";  // a rejected wire never reaches a target
    const cve::CveCase& cc = cve::find_case("CVE-2014-0196");
    testbed::TestbedOptions o;
    o.seed = mix_seed(seed_ ^ ++replays_);
    o.trace = trace_;
    double boot_ms = 0;
    auto t = boot_target(cc, o, c, boot_ms);
    if (!t) return "replay boot: " + t.status().to_string();

    core::Kshot& k = t->tb->kshot();
    attacks::AsyncAdversary adv(t->tb->machine(), k, t->tb->layout(), *sched);
    adv.attach();
    Call lp(c, "adversary.live_patch");
    auto rep = k.live_patch(cc.id);
    double lp_us = lp.done_us();
    adv.detach();
    sample(c, "adversary.live_patch_ms", lp_us / 1e3);
    sample(c, "adversary.actions_fired",
           static_cast<double>(adv.actions_fired()));
    sample(c, "fuzz.oracle_ms", execute_us_ / 1e3 - boot_ms - lp_us / 1e3);
    const bool applied = rep && rep->success;
    if (applied) sample_report(c, *rep);

    Call p(c, "cve.probe");
    auto pr = cve::probe_case(cc, t->probe, /*expect_fixed=*/applied);
    sample(c, "cve.probe_us", p.done_us());
    if (!pr) return "replay probe: " + pr.status().to_string();
    if (applied ? pr->exploit_trapped : !pr->detail.empty()) {
      return "replay: neither prevented nor detected " + pr->detail;
    }
    return probe_kcc(c, cc, t->tb->compile_options());
  }

  void set_trace(obs::TraceRecorder* rec) override { trace_ = rec; }

  void add_counts(std::map<std::string, Metric>& m) const override {
    m["fuzz.accepted"].value += static_cast<double>(accepted_);
    m["fuzz.rejected"].value += static_cast<double>(rejected_);
    m["fuzz.skipped"].value += static_cast<double>(skipped_);
  }

  [[nodiscard]] u64 min_ops() const override { return 8; }

 private:
  explicit AdversaryWorkload(const Options& o) : seed_(o.seed) {}

  std::unique_ptr<fuzz::Surface> surface_;
  u64 seed_;
  Bytes wire_;
  double execute_us_ = 0;
  u64 replays_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  u64 accepted_ = 0, rejected_ = 0, skipped_ = 0;
};

// ---- synth-campaign ---------------------------------------------------------

class SynthWorkload final : public Workload {
 public:
  static Result<std::unique_ptr<Workload>> make(const Options& o,
                                                std::vector<double>&) {
    auto w = std::unique_ptr<SynthWorkload>(new SynthWorkload(o));
    // Warm-up: eight cases of each class, from a stream the timed ops skip,
    // without the seam (set-up is not an op).
    for (u64 i = 0; i < 24; ++i) {
      cve::CampaignOptions co = w->campaign(~i);
      co.synth = {};
      auto r = cve::run_campaign(co);
      if (!r || !r->ok()) {
        return Status{Errc::kInternal, "synth warm-up case failed"};
      }
    }
    return std::unique_ptr<Workload>(std::move(w));
  }

  std::string op(u64 i, Ctx& c) override {
    Call x(c, "cve.run_campaign");
    auto r = cve::run_campaign(campaign(i));
    x.done_us();
    if (!r) return "run_campaign: " + r.status().to_string();
    if (!r->ok()) return "synth case failed: " + r->report.substr(0, 200);
    return "";
  }

  /// The op's case again, call by call (make_case, check_case, kcc), then
  /// live through a booted testbed: the campaign's live-probe path.
  std::string probe_layers(u64 i, Ctx& c) override {
    cve::CampaignOptions co = campaign(i);
    const u64 cs = cve::synth_case_seed(co.seed, 0);
    Call m(c, "cve.make_case");
    auto sc = cve::make_case(co.classes[0], cs, co.synth);
    sample(c, "cve.make_case_ms", m.done_us() / 1e3);
    if (!sc) return "make_case: " + sc.status().to_string();
    Call k(c, "cve.check_case");
    Status st = cve::check_case(*sc);
    sample(c, "cve.check_case_ms", k.done_us() / 1e3);
    if (!st.is_ok()) return "check_case: " + st.to_string();
    std::string err = probe_kcc(c, sc->cve, kcc::CompileOptions{});
    if (!err.empty()) return err;

    testbed::TestbedOptions o;
    o.seed = cs;
    o.cpus = kTargetCpus;
    o.trace = trace_;
    double boot_ms = 0;
    auto t = boot_target(sc->cve, o, c, boot_ms);
    if (!t) return "live probe boot: " + t.status().to_string();
    return patch_cycle(*t, c);
  }

  void set_trace(obs::TraceRecorder* rec) override { trace_ = rec; }

 private:
  explicit SynthWorkload(const Options& o)
      : seed_(o.seed), misplant_(o.misplant_off_by_one) {}

  cve::CampaignOptions campaign(u64 i) const {
    static constexpr cve::BugClass kClasses[] = {cve::BugClass::kOobWrite,
                                                 cve::BugClass::kMissingCheck,
                                                 cve::BugClass::kTypeConfusion};
    cve::CampaignOptions co;
    co.seed = mix_seed(seed_ * 0x100000001B3ULL + i);
    co.cases = 1;
    co.jobs = 1;
    co.classes = {kClasses[i % 3]};
    co.synth.misplant_off_by_one = misplant_;
    return co;
  }

  u64 seed_;
  bool misplant_;
  obs::TraceRecorder* trace_ = nullptr;
};

// ---- Run loop ---------------------------------------------------------------

using Factory = Result<std::unique_ptr<Workload>> (*)(const Options&,
                                                      std::vector<double>&);

const std::vector<std::pair<std::string, Factory>>& factories() {
  static const std::vector<std::pair<std::string, Factory>> f = {
      {"patch-small", make_patch_small},
      {"patch-large", make_patch_large},
      {"adversary-campaign", AdversaryWorkload::make},
      {"synth-campaign", SynthWorkload::make},
  };
  return f;
}

struct Phase {
  std::vector<double> op_us;
  double wall_s = 0;
};

/// Closed loop, one client: the next op starts when the previous one ends.
/// Runs until `seconds` have passed and at least `min_ops` ops are done.
/// With `probe`, each successful op is followed by its per-layer probes.
Phase run_phase(Workload& w, Ctx& c, double seconds, u64 min_ops, bool probe,
                u64& next_op, Outcome& out) {
  Phase ph;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline || ph.op_us.size() < min_ops) {
    const u64 i = next_op++;
    size_t span = c.log != nullptr ? c.log->begin("op") : 0;
    auto s = Clock::now();
    std::string err = w.op(i, c);
    ph.op_us.push_back(us_between(s, Clock::now()));
    if (c.log != nullptr) c.log->end(span);
    if (err.empty() && probe) err = w.probe_layers(i, c);
    ++out.attempted;
    if (!err.empty()) {
      ++out.failed;
      if (out.failure_details.size() < 5) {
        out.failure_details.push_back("op " + std::to_string(i) + ": " + err);
      }
    }
  }
  ph.wall_s = us_between(t0, Clock::now()) / 1e6;
  return ph;
}

/// Times `f` over `bytes` `reps` times; returns MB/s (bytes per µs) at the
/// median.
template <class F>
double mbps(size_t bytes, int reps, F&& f) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    f();
    us.push_back(us_between(t0, Clock::now()));
  }
  return static_cast<double>(bytes) / percentile(us, 50);
}

/// Crypto primitives measured in this process: the roofline denominators.
void measure_crypto(Ctx& c, std::map<std::string, Metric>& m) {
  constexpr size_t kBytes = 1 << 20;
  Bytes buf(kBytes);
  Rng rng(0xC1F3);
  for (auto& b : buf) b = static_cast<u8>(rng.next());
  crypto::Key256 key{};
  crypto::Nonce96 nonce{};
  key[0] = 1;
  volatile u8 sink = 0;

  c.sha256_mbps = mbps(kBytes, 9, [&] { sink = sink + crypto::sha256(buf)[0]; });
  double chacha = mbps(kBytes, 9, [&] {
    crypto::chacha20_xor(key, nonce, 1, MutByteSpan(buf.data(), buf.size()));
  });
  crypto::SealedBox box = crypto::seal(key, nonce, buf);
  c.aead_open_mbps = mbps(kBytes, 9, [&] {
    auto pt = crypto::open(key, box);
    sink = sink + static_cast<u8>(pt.is_ok());
  });
  crypto::X25519Key scalar{}, point = crypto::x25519_base(scalar);
  scalar[0] = 9;
  std::vector<double> x_us;
  for (int r = 0; r < 64; ++r) {
    auto t0 = Clock::now();
    point = crypto::x25519(scalar, point);
    x_us.push_back(us_between(t0, Clock::now()));
  }
  m["crypto.sha256_mbps"] = {c.sha256_mbps, "MB/s"};
  m["crypto.chacha20_mbps"] = {chacha, "MB/s"};
  m["crypto.aead_open_mbps"] = {c.aead_open_mbps, "MB/s"};
  m["crypto.x25519_us"] = {percentile(x_us, 50), "us"};
}

/// Per-layer metrics from samples: name, unit, sample key, percentile (or
/// -1 for the mean). Every workload reports all of them; a layer the workload
/// does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* sample;
  double pct;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"testbed.boot_ms_p50", "ms", "testbed.boot_ms", 50},
    {"kshot.live_patch_ms_p50", "ms", "kshot.live_patch_ms", 50},
    {"kshot.rollback_us_p50", "us", "kshot.rollback_us", 50},
    {"cve.probe_us_p50", "us", "cve.probe_us", 50},
    {"netsim.handle_request_us_p50", "us", "netsim.handle_request_us", 50},
    {"sgx.fetch_us_p50", "us", "sgx.fetch_us", 50},
    {"sgx.preprocess_us_p50", "us", "sgx.preprocess_us", 50},
    {"sgx.passing_us_p50", "us", "sgx.passing_us", 50},
    {"smm.keygen_us_p50", "us", "smm.keygen_us", 50},
    {"smm.decrypt_us_p50", "us", "smm.decrypt_us", 50},
    {"smm.verify_us_p50", "us", "smm.verify_us", 50},
    {"smm.apply_us_p50", "us", "smm.apply_us", 50},
    {"smm.decrypt_roofline", "ratio", "smm.decrypt_roofline", 50},
    {"smm.verify_roofline", "ratio", "smm.verify_roofline", 50},
    {"smm.rendezvous_cycles", "cycles", "smm.rendezvous_cycles", 50},
    {"smm.handler_cycles", "cycles", "smm.handler_cycles", 50},
    {"smm.resume_cycles", "cycles", "smm.resume_cycles", 50},
    {"adversary.live_patch_ms_p50", "ms", "adversary.live_patch_ms", 50},
    {"adversary.actions_fired_mean", "count", "adversary.actions_fired", -1},
    {"fuzz.oracle_ms_p50", "ms", "fuzz.oracle_ms", 50},
    {"cve.make_case_ms_p50", "ms", "cve.make_case_ms", 50},
    {"cve.check_case_ms_p50", "ms", "cve.check_case_ms", 50},
    {"kcc.parse_ms_p50", "ms", "kcc.parse_ms", 50},
    {"kcc.compile_ms_p50", "ms", "kcc.compile_ms", 50},
    {"kcc.eval_ms_p50", "ms", "kcc.eval_ms", 50},
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void fail(Outcome& out, std::string detail) {
  ++out.failed;
  out.failure_details.push_back(std::move(detail));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& [name, f] : factories()) n.push_back(name);
    return n;
  }();
  return names;
}

Outcome run_workload(const Options& o) {
  Outcome out;
  Factory make = nullptr;
  for (const auto& [name, f] : factories()) {
    if (name == o.workload) make = f;
  }
  if (make == nullptr) {
    out.failure_details.push_back("unknown workload " + o.workload);
    return out;
  }

  // Set-up is repeated from scratch (the first timed from process start),
  // and the untraced timed phase is split across the set-ups: pooling ops
  // from several independently placed heaps steadies the host-time
  // metrics. Every end-to-end metric comes from these ops.
  const double timed_s = (o.trace ? o.seconds / 2 : o.seconds) / kSetups;
  std::vector<double> setup_s, boot_ms, downtime;
  std::unique_ptr<Workload> w;
  Phase a;
  u64 next_op = 0, hits = 0, misses = 0;
  auto& m = out.metrics;
  for (const char* k : {"fuzz.accepted", "fuzz.rejected", "fuzz.skipped"}) {
    m[k] = {0, "count"};
  }
  for (u32 k = 0; k < kSetups; ++k) {
    if (w) w->add_counts(m);
    w.reset();
    auto t0 = k == 0 ? g_process_start : Clock::now();
    auto made = make(o, boot_ms);
    setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
    if (!made) {
      fail(out, "setup: " + made.status().to_string());
      out.attempted = std::max<u64>(out.attempted, 1);
      return out;
    }
    w = std::move(*made);
    const auto cache0 = w->cache_stats();
    Ctx plain;
    plain.downtime_us = k == 0 ? &downtime : nullptr;
    Phase p = run_phase(*w, plain, timed_s,
                        (w->min_ops() + kSetups - 1) / kSetups,
                        /*probe=*/false, next_op, out);
    a.op_us.insert(a.op_us.end(), p.op_us.begin(), p.op_us.end());
    a.wall_s += p.wall_s;
    const auto cache1 = w->cache_stats();
    hits += cache1.patchset_hits - cache0.patchset_hits;
    misses += cache1.patchset_misses - cache0.patchset_misses;
  }

  const auto cache0 = w->cache_stats();
  const double a_ms_p50 = percentile(a.op_us, 50) / 1e3;
  m["ops_per_s"] = {static_cast<double>(a.op_us.size()) / a.wall_s, "ops/s"};
  m["op_ms_p50"] = {a_ms_p50, "ms"};
  m["op_ms_p90"] = {percentile(a.op_us, 90) / 1e3, "ms"};
  m["setup_s"] = {percentile(setup_s, 50), "s"};
  // Modeled (virtual-clock) downtime; exact for a seed.
  downtime.resize(std::min(downtime.size(), kDowntimePatches));
  m["smm.downtime_us_p50"] = {percentile(downtime, 50), "us"};
  m["smm.downtime_us_p90"] = {percentile(downtime, 90), "us"};

  if (o.trace) {
    Samples layers;
    Ctx traced;
    traced.layers = &layers;
    measure_crypto(traced, m);
    layers["testbed.boot_ms"] = boot_ms;

    obs::TraceRecorder rec;
    SpanLog log(&rec);
    traced.log = &log;
    w->set_trace(&rec);
    // Traced ops alone give the tracing overhead; the layer probes run in
    // a phase of their own so their memory traffic cannot skew it.
    const u64 floor = std::min<u64>(w->min_ops(), 20);
    Phase b = run_phase(*w, traced, o.seconds / 4, floor, /*probe=*/false,
                        next_op, out);
    run_phase(*w, traced, o.seconds / 4, floor / 4, /*probe=*/true, next_op,
              out);
    w->set_trace(nullptr);

    const auto events = rec.snapshot();
    for (const auto& e : events) {
      if (e.component == "netsim" && e.name == "handle_request") {
        layers["netsim.handle_request_us"].push_back(e.wall_us);
      }
    }
    for (const LayerMetric& lm : kLayerMetrics) {
      const auto& v = layers[lm.sample];
      m[lm.name] = {lm.pct < 0 ? summarize(v).mean : percentile(v, lm.pct),
                    lm.unit};
    }
    const double us_per_cycle = 1.0 / (machine::CostModel{}.ghz * 1000.0);
    Rollup r = roll_up(log, events, "op", us_per_cycle);
    add_rollup_metrics(r, m);
    m["obs.trace_overhead_pct"] = {
        (percentile(b.op_us, 50) / 1e3 / a_ms_p50 - 1) * 100, "%"};
    std::fprintf(stderr, "%s", format_rollup(r).c_str());
    if (!o.out_dir.empty()) {
      std::string prefix = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
      if (!export_trace(prefix, log, events, r, us_per_cycle)) {
        fail(out, "trace export to " + prefix + " failed");
      }
    }
  }

  // The server must not rebuild a patch set while ops are timed.
  const auto cache1 = w->cache_stats();
  hits += cache1.patchset_hits - cache0.patchset_hits;
  misses += cache1.patchset_misses - cache0.patchset_misses;
  m["netsim.patchset_hit_ratio"] = {
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0,
      "ratio"};
  if (misses > 0) {
    fail(out, std::to_string(misses) + " patch-set rebuilds while timed");
  }
  w->add_counts(m);
  w.reset();
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["fail_ratio"] = {static_cast<double>(out.failed) /
                         static_cast<double>(std::max<u64>(1, out.attempted)),
                     "ratio"};
  return out;
}

}  // namespace kshot::perfbench
