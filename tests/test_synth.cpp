// The auto-CVE synthesizer's contract (DESIGN.md §14): every seed yields a
// well-formed case (sources compile, the diff is confined to the planted
// site, metadata matches the knobs), the full oracle stack passes on an
// unbounded seeded campaign, the campaign report is byte-identical across
// jobs, a deliberately mis-planted guard is caught, and synthesized cases
// flow through every live consumer — single live patch, in-place splice,
// batched SMM session, and the lifecycle supersede chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cve/synth.hpp"
#include "fuzz/fuzz.hpp"
#include "kcc/compiler.hpp"
#include "kcc/parser.hpp"
#include "patchtool/callgraph.hpp"
#include "testbed/testbed.hpp"

namespace kshot::cve {
namespace {

const BugClass kClasses[] = {BugClass::kOobWrite, BugClass::kMissingCheck,
                             BugClass::kTypeConfusion};

std::set<std::string> sorted(const std::vector<std::string>& v) {
  return {v.begin(), v.end()};
}

TEST(SynthIds, RoundTripThroughParseAndResolve) {
  for (BugClass cls : kClasses) {
    for (u64 seed : {u64{0}, u64{1}, u64{0x123456789ABCDEF0ULL}, ~u64{0}}) {
      std::string id = synth_id(cls, seed);
      auto back = parse_synth_id(id);
      ASSERT_TRUE(back.is_ok()) << id;
      EXPECT_EQ(back->first, cls);
      EXPECT_EQ(back->second, seed);
    }
  }
  EXPECT_FALSE(parse_synth_id("CVE-2014-0196").is_ok());
  EXPECT_FALSE(parse_synth_id("SYNTH-XXX-0000000000000000").is_ok());
  EXPECT_FALSE(parse_synth_id("SYNTH-OOB-nothex").is_ok());
}

TEST(SynthIds, ResolveCaseRegeneratesTheExactCase) {
  auto sc = make_case(BugClass::kMissingCheck, 0xFEED);
  ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
  auto resolved = resolve_case(sc->cve.id);
  ASSERT_TRUE(resolved.is_ok()) << resolved.status().to_string();
  EXPECT_EQ(resolved->pre_source, sc->cve.pre_source);
  EXPECT_EQ(resolved->post_source, sc->cve.post_source);
  EXPECT_EQ(resolved->syscall_nr, sc->cve.syscall_nr);
  EXPECT_EQ(resolved->exploit_args, sc->cve.exploit_args);
  EXPECT_EQ(resolved->types, sc->cve.types);

  // Table ids still resolve to the table entries; garbage is kNotFound.
  auto table = resolve_case("CVE-2014-0196");
  ASSERT_TRUE(table.is_ok());
  EXPECT_EQ(table->id, "CVE-2014-0196");
  auto bogus = resolve_case("CVE-1999-9999");
  ASSERT_FALSE(bogus.is_ok());
  EXPECT_EQ(bogus.status().code(), Errc::kNotFound);
}

TEST(SynthProperty, KnobNormalizationReconcilesInteractions) {
  for (BugClass cls : kClasses) {
    for (u32 i = 0; i < 64; ++i) {
      SynthKnobs k = knobs_for_seed(cls, synth_case_seed(0xA11CE, i));
      SynthKnobs again = k;
      normalize_knobs(again);  // knobs_for_seed output is already normal
      EXPECT_EQ(again.inline_flaw, k.inline_flaw);
      EXPECT_EQ(again.guard_in_helper, k.guard_in_helper);
      EXPECT_EQ(again.add_global_fix, k.add_global_fix);
      EXPECT_EQ(again.size_neutral_fix, k.size_neutral_fix);
      EXPECT_EQ(again.limit, k.limit);
      if (k.size_neutral_fix) {
        EXPECT_FALSE(k.inline_flaw);
        EXPECT_FALSE(k.add_global_fix);
      }
      if (k.inline_flaw) {
        EXPECT_TRUE(k.guard_in_helper);
      }
      EXPECT_GE(k.limit, 8u);
      EXPECT_LE(k.limit, 8192u);
    }
  }
}

// Satellite property sweep: 200 seeded cases per class must compile (pre
// and post), diff only at the planted site, and carry metadata that matches
// the shape knobs (inline flaw => Type 2, added global => Type 3).
TEST(SynthProperty, TwoHundredSeededCasesPerClassAreWellFormed) {
  kernel::MemoryLayout lay;
  auto copts = testbed::options_for_layout(lay, "sim-4.4");
  for (BugClass cls : kClasses) {
    for (u32 i = 0; i < 200; ++i) {
      u64 seed = synth_case_seed(0xC0FFEE + static_cast<u64>(cls), i);
      auto sc = make_case(cls, seed);
      ASSERT_TRUE(sc.is_ok())
          << bug_class_tag(cls) << " seed " << seed << ": "
          << sc.status().to_string();
      const CveCase& c = sc->cve;
      EXPECT_EQ(c.id, synth_id(cls, seed));

      auto pre = kcc::compile_source(c.pre_source, copts);
      ASSERT_TRUE(pre.is_ok()) << c.id << ": " << pre.status().to_string();
      auto post = kcc::compile_source(c.post_source, copts);
      ASSERT_TRUE(post.is_ok()) << c.id << ": " << post.status().to_string();

      // Diff confinement: the source-level diff is exactly the declared
      // planted site, and the only post-only global is the declared one.
      auto pre_m = kcc::parse(c.pre_source);
      auto post_m = kcc::parse(c.post_source);
      ASSERT_TRUE(pre_m.is_ok() && post_m.is_ok()) << c.id;
      auto changed = patchtool::source_changed_functions(*pre_m, *post_m);
      EXPECT_EQ(changed, sorted(sc->changed_functions)) << c.id;
      std::set<std::string> pre_globals, post_only;
      for (const auto& g : pre_m->globals) pre_globals.insert(g.name);
      for (const auto& g : post_m->globals) {
        if (pre_globals.count(g.name) == 0) post_only.insert(g.name);
      }
      if (sc->added_global.empty()) {
        EXPECT_TRUE(post_only.empty()) << c.id;
      } else {
        EXPECT_EQ(post_only, std::set<std::string>{sc->added_global}) << c.id;
      }

      // Metadata matches the shape knobs.
      EXPECT_EQ(c.has_type(2), sc->knobs.inline_flaw) << c.id;
      EXPECT_EQ(c.has_type(3), sc->knobs.add_global_fix) << c.id;
      EXPECT_EQ(sc->knobs.add_global_fix, !sc->added_global.empty()) << c.id;
      EXPECT_FALSE(c.functions.empty()) << c.id;
      EXPECT_GT(c.patch_loc, 0) << c.id;
    }
  }
}

// Acceptance gate: a 200-case campaign cycling all three classes passes the
// full oracle stack on every case, and the report is byte-identical across
// worker counts.
TEST(SynthOracle, CampaignOf200PassesAndIsJobsInvariant) {
  CampaignOptions o;
  o.seed = 0x5EED;
  o.cases = 200;
  o.jobs = 1;
  auto r1 = run_campaign(o);
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  EXPECT_TRUE(r1->ok()) << r1->report;
  EXPECT_EQ(r1->cases, 200u);
  EXPECT_EQ(r1->passed, 200u);
  EXPECT_EQ(r1->failed, 0u);
  EXPECT_NE(r1->report.find("synth: OK (200/200 cases)"), std::string::npos)
      << r1->report;
  // All three classes actually ran.
  for (const char* tag : {"OOB", "CHK", "DSP"}) {
    EXPECT_NE(r1->report.find(tag), std::string::npos) << r1->report;
  }

  o.jobs = 3;
  auto r3 = run_campaign(o);
  ASSERT_TRUE(r3.is_ok()) << r3.status().to_string();
  EXPECT_EQ(r1->report, r3->report) << "worker count leaked into the report";
}

TEST(SynthOracle, RejectsDegenerateCampaignOptions) {
  CampaignOptions none;
  none.cases = 0;
  EXPECT_FALSE(run_campaign(none).is_ok());
  CampaignOptions empty{.classes = {}};
  EXPECT_FALSE(run_campaign(empty).is_ok());
}

// The generator must not be able to fool its own oracles: planting the
// defensive limit one too high (so the minimal exploit no longer traps
// pre-patch) must fail the probe contract.
TEST(SynthOracle, MisplantedGuardFailsTheProbeContract) {
  for (BugClass cls : {BugClass::kOobWrite, BugClass::kMissingCheck}) {
    auto sc = make_case(cls, 0xBAD5EED, {.misplant_off_by_one = true});
    ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
    Status st = check_case(*sc);
    ASSERT_FALSE(st.is_ok()) << bug_class_tag(cls)
                             << ": oracle missed the mis-planted guard";
    EXPECT_EQ(st.message().rfind("probe contract", 0), 0u) << st.to_string();
  }
}

// ---- Live-pipeline consumers ----------------------------------------------

TEST(SynthE2e, LivePatchEndToEndForEveryClass) {
  for (BugClass cls : kClasses) {
    auto sc = make_case(cls, 0x1000 + static_cast<u64>(cls));
    ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
    const CveCase& c = sc->cve;
    auto tb = testbed::Testbed::boot(c, {.seed = 0x777});
    ASSERT_TRUE(tb.is_ok()) << c.id << ": " << tb.status().to_string();
    testbed::Testbed& t = **tb;
    auto probe = testbed::prober(t);

    auto before = probe_case(c, probe, /*expect_fixed=*/false);
    ASSERT_TRUE(before.is_ok()) << before.status().to_string();
    EXPECT_TRUE(before->detail.empty()) << before->detail;
    ASSERT_TRUE(before->benign_ok) << c.id;

    auto rep = t.kshot().live_patch(c.id);
    ASSERT_TRUE(rep.is_ok()) << c.id << ": " << rep.status().to_string();
    ASSERT_TRUE(rep->success) << c.id;

    auto after = probe_case(c, probe, /*expect_fixed=*/true);
    ASSERT_TRUE(after.is_ok()) << after.status().to_string();
    EXPECT_TRUE(after->detail.empty()) << after->detail;
    EXPECT_TRUE(after->exploit_rejected) << c.id;
    EXPECT_EQ(after->benign_value, before->benign_value)
        << c.id << " patch changed benign behaviour";
  }
}

// A size-neutral fix must be splice-eligible: applied with allow_splice the
// enclave lays the fixed body into the old footprint (no trampoline).
TEST(SynthE2e, SizeNeutralCaseSplicesInPlace) {
  SynthKnobs k = knobs_for_seed(BugClass::kOobWrite, 0xDEED);
  k.size_neutral_fix = true;
  auto sc = make_case(k, 0xDEED);
  ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
  ASSERT_TRUE(sc->knobs.size_neutral_fix);
  const CveCase& c = sc->cve;

  auto tb = testbed::Testbed::boot(c, {.seed = 0x505});
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  core::LifecycleOptions lo;
  lo.allow_splice = true;
  auto rep = (*tb)->kshot().live_patch(c.id, lo);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);
  auto inv = (*tb)->kshot().query_applied();
  ASSERT_TRUE(inv.is_ok()) << inv.status().to_string();
  ASSERT_EQ(inv->units.size(), 1u);
  EXPECT_GT(inv->units[0].spliced, 0u)
      << c.id << " size-neutral fix was not spliced in place";

  auto after = probe_case(c, testbed::prober(**tb), /*expect_fixed=*/true);
  ASSERT_TRUE(after.is_ok());
  EXPECT_TRUE(after->detail.empty()) << after->detail;
}

// combine_cases/batch_part_cases accept synthesized ids: two generated CVEs
// merge into one kernel and ship in ONE batched SMM session.
TEST(SynthE2e, BatchedSessionOverSynthesizedIds) {
  std::vector<std::string> ids = {
      synth_id(BugClass::kOobWrite, 0xAAA1),
      synth_id(BugClass::kTypeConfusion, 0xBBB2),
  };
  auto batch = combine_cases(ids);
  ASSERT_TRUE(batch.is_ok()) << batch.status().to_string();
  auto parts = batch_part_cases(ids);
  ASSERT_TRUE(parts.is_ok()) << parts.status().to_string();

  auto tb = testbed::Testbed::boot(batch->merged, {.seed = 0x99});
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  testbed::Testbed& t = **tb;
  for (const auto& p : *parts) {
    t.server().add_patch({p.id, p.kernel, p.pre_source, p.post_source});
    ASSERT_TRUE(
        t.kernel().register_syscall(p.syscall_nr, p.entry_function).is_ok())
        << p.id;
  }
  auto rep = t.kshot().live_patch_batch(ids);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);
  for (const auto& p : *parts) {
    auto e = t.run_syscall(p.syscall_nr, p.exploit_args);
    ASSERT_TRUE(e.is_ok()) << p.id;
    EXPECT_FALSE(e->oops) << p.id << " still exploitable after batch";
  }
}

// The supersede chain: the partial fix kills exploit A but leaves flaw B;
// the cumulative fix supersedes it, retires the partial unit, and kills
// both exploits.
TEST(SynthE2e, SupersedeChainRetiresPartialFix) {
  auto pair = make_supersede_pair(0x5AFE);
  ASSERT_TRUE(pair.is_ok()) << pair.status().to_string();
  const CveCase& part = pair->partial;
  const CveCase& cum = pair->cumulative;

  auto tb = testbed::Testbed::boot(part, {.seed = 0x444});
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  testbed::Testbed& t = **tb;
  t.server().add_patch({cum.id, cum.kernel, cum.pre_source, cum.post_source});

  // Both flaws live pre-patch.
  auto a0 = t.run_syscall(part.syscall_nr, part.exploit_args);
  ASSERT_TRUE(a0.is_ok());
  EXPECT_TRUE(a0->oops);
  auto b0 = t.run_syscall(part.syscall_nr, pair->exploit_b);
  ASSERT_TRUE(b0.is_ok());
  EXPECT_TRUE(b0->oops);
  EXPECT_EQ(b0->trap_code, pair->trap_b);

  // Partial fix: A dies, B still fires.
  auto rep1 = t.kshot().live_patch(part.id);
  ASSERT_TRUE(rep1.is_ok()) << rep1.status().to_string();
  ASSERT_TRUE(rep1->success);
  auto a1 = t.run_syscall(part.syscall_nr, part.exploit_args);
  ASSERT_TRUE(a1.is_ok());
  EXPECT_FALSE(a1->oops) << "partial fix did not kill exploit A";
  auto b1 = t.run_syscall(part.syscall_nr, pair->exploit_b);
  ASSERT_TRUE(b1.is_ok());
  EXPECT_TRUE(b1->oops) << "partial fix unexpectedly killed exploit B";

  // Cumulative fix supersedes the partial: both dead, one unit applied.
  core::LifecycleOptions lo;
  lo.supersedes = {part.id};
  auto rep2 = t.kshot().live_patch(cum.id, lo);
  ASSERT_TRUE(rep2.is_ok()) << rep2.status().to_string();
  ASSERT_TRUE(rep2->success);
  auto a2 = t.run_syscall(part.syscall_nr, part.exploit_args);
  auto b2 = t.run_syscall(part.syscall_nr, pair->exploit_b);
  ASSERT_TRUE(a2.is_ok() && b2.is_ok());
  EXPECT_FALSE(a2->oops);
  EXPECT_FALSE(b2->oops) << "cumulative fix did not kill exploit B";
  auto inv = t.kshot().query_applied();
  ASSERT_TRUE(inv.is_ok());
  ASSERT_EQ(inv->units.size(), 1u) << "partial unit was not retired";
  EXPECT_EQ(inv->units[0].id, cum.id);
}

// ---- probe_case unit contract ---------------------------------------------

/// Scripted probe: returns fixed outcomes per (nr, args) so the contract
/// classification is tested without any execution backend.
TEST(ProbeContract, ClassifiesScriptedOutcomes) {
  CveCase c;
  c.id = "SYNTH-TEST";
  c.syscall_nr = 42;
  c.trap_code = 99;
  c.exploit_args = {1, 0, 0, 0, 0};
  c.benign_args = {2, 0, 0, 0, 0};

  auto scripted = [&](ProbeOutcome on_exploit, ProbeOutcome on_benign) {
    return [=](int nr, const std::array<u64, 5>& args)
               -> Result<ProbeOutcome> {
      EXPECT_EQ(nr, 42);
      return args[0] == 1 ? on_exploit : on_benign;
    };
  };
  ProbeOutcome trap{true, 99, 0};
  ProbeOutcome wrong_trap{true, 7, 0};
  ProbeOutcome einval{false, 0, kEinval};
  ProbeOutcome benign{false, 0, 1234};

  // Vulnerable kernel, expected vulnerable: clean.
  auto r = probe_case(c, scripted(trap, benign), /*expect_fixed=*/false);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->detail.empty()) << r->detail;
  EXPECT_TRUE(r->exploit_trapped);
  EXPECT_TRUE(r->benign_ok);
  EXPECT_EQ(r->benign_value, 1234u);

  // Fixed kernel, expected fixed: clean.
  r = probe_case(c, scripted(einval, benign), /*expect_fixed=*/true);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->detail.empty()) << r->detail;
  EXPECT_TRUE(r->exploit_rejected);

  // Exploit still fires on a supposedly fixed kernel.
  r = probe_case(c, scripted(trap, benign), /*expect_fixed=*/true);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r->detail.find("still fires"), std::string::npos) << r->detail;

  // Exploit fails to fire on a supposedly vulnerable kernel.
  r = probe_case(c, scripted(einval, benign), /*expect_fixed=*/false);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r->detail.find("did not trap"), std::string::npos) << r->detail;

  // Wrong trap code is a violation either way.
  r = probe_case(c, scripted(wrong_trap, benign), /*expect_fixed=*/false);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r->detail.find("expected 99"), std::string::npos) << r->detail;

  // Benign input must never oops.
  r = probe_case(c, scripted(einval, trap), /*expect_fixed=*/true);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r->detail.find("benign"), std::string::npos) << r->detail;

  // Null probe is an error, not a crash.
  EXPECT_FALSE(probe_case(c, ProbeFn{}, true).is_ok());
}

// ---- Fuzz surface ----------------------------------------------------------

TEST(SynthFuzz, SurfacePassesOnCurrentTree) {
  fuzz::FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 150;
  auto s = fuzz::make_cve_synth_surface();
  auto rep = fuzz::run_fuzz(*s, opts);
  EXPECT_TRUE(rep.failures.empty()) << rep.to_string();
  EXPECT_GT(rep.accepted, 0u);
}

// Acceptance gate for the synth oracles: with the mis-plant seam open the
// probe contract must catch it, and the shrunk repro must still trip the
// same oracle when replayed.
TEST(SynthFuzz, SelftestSeamCaughtWithShrunkRepro) {
  fuzz::FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 60;
  auto s = fuzz::make_cve_synth_surface({.misplant_off_by_one = true});
  auto rep = fuzz::run_fuzz(*s, opts);
  ASSERT_FALSE(rep.failures.empty())
      << "oracles missed the mis-planted guard";
  for (const auto& f : rep.failures) {
    EXPECT_EQ(f.oracle, "probe-contract") << f.detail;
    EXPECT_LE(f.input.size(), f.original_size);
    auto v = s->execute(f.input);
    ASSERT_TRUE(v.failure.has_value()) << "shrunk repro no longer fails";
    EXPECT_EQ(v.failure->first, f.oracle);
  }
}

}  // namespace
}  // namespace kshot::cve
