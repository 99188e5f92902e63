// The fuzzing harness's own contract (DESIGN.md §9): runs are deterministic,
// every invariant oracle passes on the current tree, the checked-in
// regression corpus replays clean, and the harness provably catches the
// pre-PR-3 wrapping-bounds bug when it is deliberately re-introduced —
// with a shrunk, replayable repro.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/fuzz.hpp"
#include "patchtool/package.hpp"

namespace kshot::fuzz {
namespace {

TEST(FuzzDeterminism, SameSeedSameReportBytes) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 300;
  // Two independently constructed surfaces: catches hidden global state as
  // well as RNG misuse.
  auto s1 = make_package_surface();
  auto s2 = make_package_surface();
  EXPECT_EQ(run_fuzz(*s1, opts).to_string(), run_fuzz(*s2, opts).to_string());
}

TEST(FuzzDeterminism, DifferentSeedsDifferentCases) {
  auto s = make_package_surface();
  Rng r1(1), r2(1), r3(2);
  Bytes a = s->generate(r1);
  Bytes b = s->generate(r2);
  Bytes c = s->generate(r3);
  EXPECT_EQ(a, b) << "generation is not a pure function of the RNG";
  EXPECT_NE(a, c) << "the seed is not reaching generation";
}

TEST(FuzzOracles, PackageSurfacePassesOnCurrentTree) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 400;
  auto s = make_package_surface();
  auto rep = run_fuzz(*s, opts);
  EXPECT_EQ(rep.cases, opts.iters);
  EXPECT_TRUE(rep.failures.empty()) << rep.to_string();
  // The generator must exercise both accept and reject paths.
  EXPECT_GT(rep.accepted, 0u);
  EXPECT_GT(rep.rejected, 0u);
}

TEST(FuzzOracles, NetsimSurfacePassesOnCurrentTree) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 150;
  auto s = make_netsim_surface();
  auto rep = run_fuzz(*s, opts);
  EXPECT_TRUE(rep.failures.empty()) << rep.to_string();
  EXPECT_GT(rep.accepted, 0u);
  EXPECT_GT(rep.rejected, 0u);
}

TEST(FuzzOracles, LifecycleSurfacePassesOnCurrentTree) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 150;
  auto s = make_lifecycle_surface();
  auto rep = run_fuzz(*s, opts);
  EXPECT_TRUE(rep.failures.empty()) << rep.to_string();
  // Accepted = at least one op in the schedule applied; rejected covers
  // both structural garbage and schedules whose every op was refused.
  EXPECT_GT(rep.accepted, 0u);
  EXPECT_GT(rep.rejected, 0u);
}

TEST(FuzzOracles, KccSurfacePassesOnCurrentTree) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 60;
  auto s = make_kcc_surface();
  auto rep = run_fuzz(*s, opts);
  EXPECT_TRUE(rep.failures.empty()) << rep.to_string();
  EXPECT_GT(rep.accepted, 0u);
}

// Acceptance gate for the harness: re-introduce the pre-fix wrapping bounds
// check in the SMM handler and prove the oracles catch it, shrinking at
// least one repro to <= 64 attacker-controlled entry bytes (wire size minus
// the fixed 44-byte envelope).
TEST(FuzzSelftest, CatchesReintroducedWrappingBoundsBug) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 500;
  auto s = make_package_surface({.legacy_wrapping_bounds = true});
  auto rep = run_fuzz(*s, opts);
  ASSERT_FALSE(rep.failures.empty())
      << "oracles missed the legacy wrapping-bounds bug";
  size_t best_entry_bytes = SIZE_MAX;
  for (const auto& f : rep.failures) {
    ASSERT_GE(f.input.size(), 44u);
    ASSERT_LE(f.input.size(), f.original_size);
    best_entry_bytes = std::min(best_entry_bytes, f.input.size() - 44);
    // Every shrunk repro must still trip the same oracle when replayed.
    auto v = s->execute(f.input);
    ASSERT_TRUE(v.failure.has_value());
    EXPECT_EQ(v.failure->first, f.oracle);
  }
  EXPECT_LE(best_entry_bytes, 64u) << rep.to_string();
}

TEST(FuzzShrinker, ShrinksWhilePreservingTheOracle) {
  auto s = make_package_surface({.legacy_wrapping_bounds = true});
  // The PR 3 wrapping-taddr regression wire, padded with an extra valid
  // entry's worth of junk fields via a second entry — shrinking must keep
  // the tripped oracle while strictly reducing size.
  Bytes wire;
  for (const auto& [name, bytes] : seed_package_cases()) {
    if (name == "wrapping-taddr") wire = bytes;
  }
  ASSERT_FALSE(wire.empty());
  auto v = s->execute(wire);
  ASSERT_TRUE(v.failure.has_value()) << "legacy target accepted the repro";
  FuzzOptions opts;
  opts.seed = 1;
  Bytes shrunk = shrink_case(*s, wire, v.failure->first, opts);
  EXPECT_LE(shrunk.size(), wire.size());
  auto v2 = s->execute(shrunk);
  ASSERT_TRUE(v2.failure.has_value());
  EXPECT_EQ(v2.failure->first, v.failure->first);
}

TEST(FuzzCorpus, HexFileRoundTrip) {
  Bytes b;
  for (int i = 0; i < 100; ++i) b.push_back(static_cast<u8>(i * 7));
  std::string text = encode_hex_file(b, "two\nline comment");
  auto back = decode_hex_file(text);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(*back, b);
  EXPECT_FALSE(decode_hex_file("abc").is_ok());   // odd digit count
  EXPECT_FALSE(decode_hex_file("zz").is_ok());    // non-hex
  auto empty = decode_hex_file("# only comments\n");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FuzzCorpus, CheckedInCorpusMatchesCanonicalSeeds) {
  auto entries = load_corpus(KSHOT_CORPUS_DIR);
  ASSERT_TRUE(entries.is_ok()) << entries.status().to_string();
  auto find = [&](const std::string& surface, const std::string& file) {
    for (const auto& e : *entries) {
      if (e.surface == surface && e.file == file) return &e;
    }
    return static_cast<const CorpusEntry*>(nullptr);
  };
  for (const auto& [name, bytes] : seed_package_cases()) {
    const auto* e = find("package", name + ".hex");
    ASSERT_NE(e, nullptr) << "missing corpus file package/" << name
                          << ".hex — run kshot-sim fuzz --write-corpus";
    EXPECT_EQ(e->input, bytes) << "stale corpus file package/" << name;
  }
  for (const auto& [name, bytes] : seed_netsim_cases()) {
    const auto* e = find("netsim", name + ".hex");
    ASSERT_NE(e, nullptr) << "missing corpus file netsim/" << name;
    EXPECT_EQ(e->input, bytes) << "stale corpus file netsim/" << name;
  }
  for (const auto& [name, src] : seed_kcc_cases()) {
    const auto* e = find("kcc", name + ".ksrc");
    ASSERT_NE(e, nullptr) << "missing corpus file kcc/" << name;
    EXPECT_EQ(e->input, to_bytes(src)) << "stale corpus file kcc/" << name;
  }
  for (const auto& [name, bytes] : seed_attacker_cases()) {
    const auto* e = find("attacker_schedule", name + ".hex");
    ASSERT_NE(e, nullptr) << "missing corpus file attacker_schedule/" << name;
    EXPECT_EQ(e->input, bytes)
        << "stale corpus file attacker_schedule/" << name;
  }
  for (const auto& [name, bytes] : seed_lifecycle_cases()) {
    const auto* e = find("lifecycle", name + ".hex");
    ASSERT_NE(e, nullptr) << "missing corpus file lifecycle/" << name;
    EXPECT_EQ(e->input, bytes) << "stale corpus file lifecycle/" << name;
  }
  for (const auto& [name, bytes] : seed_synth_cases()) {
    const auto* e = find("synth", name + ".hex");
    ASSERT_NE(e, nullptr) << "missing corpus file synth/" << name;
    EXPECT_EQ(e->input, bytes) << "stale corpus file synth/" << name;
  }
}

TEST(FuzzCorpus, ReplaysCleanOnCurrentTree) {
  auto entries = load_corpus(KSHOT_CORPUS_DIR);
  ASSERT_TRUE(entries.is_ok()) << entries.status().to_string();
  ASSERT_GE(entries->size(), 25u);
  FuzzOptions opts;
  opts.seed = 1;
  auto reports = replay_corpus(*entries, opts);
  // attacker_schedule, kcc, lifecycle, netsim, package, synth (cve_synth)
  ASSERT_EQ(reports.size(), 6u);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.failures.empty()) << r.to_string();
  }
  // Frozen verdicts: every surface's exact accepted/rejected/skipped split.
  // Package: the two bare valid seeds plus the batched pair apply. Every
  // checked-in lifecycle schedule lands at least one apply, and every synth
  // wire synthesizes a case passing all oracles.
  struct Counts {
    const char* surface;
    u32 accepted, rejected, skipped;
  };
  const Counts want[] = {
      {"attacker_schedule", 8, 0, 0}, {"kcc", 3, 0, 0},
      {"lifecycle", 5, 0, 0},         {"netsim", 3, 6, 0},
      {"package", 3, 8, 0},           {"cve_synth", 5, 0, 0},
  };
  for (const auto& w : want) {
    auto it = std::find_if(reports.begin(), reports.end(), [&](const auto& r) {
      return r.surface == w.surface;
    });
    ASSERT_NE(it, reports.end()) << w.surface;
    EXPECT_EQ(it->accepted, w.accepted) << it->to_string();
    EXPECT_EQ(it->rejected, w.rejected) << it->to_string();
    EXPECT_EQ(it->skipped, w.skipped) << it->to_string();
  }
}

TEST(FuzzCorpus, SeedWiresAreWellFormed) {
  // The "valid-*" seeds parse; the malformed ones fail with a clean Status
  // (never an unchecked crash path).
  for (const auto& [name, bytes] : seed_package_cases()) {
    if (name.rfind("batch", 0) == 0) {
      // Batch seeds are envelopes, not bare packages: the envelope must
      // split cleanly and every inner wire must be a package-sized blob.
      EXPECT_TRUE(patchtool::is_batch_wire(bytes)) << name;
      auto pkgs = patchtool::parse_batch(bytes);
      EXPECT_TRUE(pkgs.is_ok()) << name << ": " << pkgs.status().to_string();
      if (pkgs.is_ok()) EXPECT_EQ(pkgs->size(), 2u) << name;
      continue;
    }
    auto parsed = patchtool::parse_patchset(bytes);
    if (name.rfind("valid", 0) == 0 || name == "mixed-op" ||
        name == "rollback-on-fresh" || name.rfind("wrapping", 0) == 0) {
      EXPECT_TRUE(parsed.is_ok()) << name << ": " << parsed.status().to_string();
    } else {
      EXPECT_FALSE(parsed.is_ok()) << name << " should not parse";
    }
  }
}

TEST(FuzzSurfaces, FactoryResolvesNames) {
  EXPECT_NE(make_surface("package"), nullptr);
  EXPECT_NE(make_surface("netsim"), nullptr);
  EXPECT_NE(make_surface("kcc"), nullptr);
  EXPECT_NE(make_surface("attacker_schedule"), nullptr);
  EXPECT_NE(make_surface("lifecycle"), nullptr);
  EXPECT_EQ(make_surface("bogus"), nullptr);
  // The registry behind `--surface all` names every surface once, and
  // "synth" stays an alias of its corpus directory.
  const std::vector<std::string> names = surface_names();
  EXPECT_EQ(names.size(), 6u);
  for (const auto& name : names) {
    auto s = make_surface(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_EQ(make_surface("synth")->name(), std::string("cve_synth"));
}

TEST(FuzzSurfaces, TimeBudgetStopsEarly) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 1'000'000;     // would run for minutes
  opts.time_budget_s = 0.05;  // but the budget stops it almost immediately
  auto s = make_package_surface();
  auto rep = run_fuzz(*s, opts);
  EXPECT_TRUE(rep.budget_exhausted);
  EXPECT_LT(rep.cases, opts.iters);
}

}  // namespace
}  // namespace kshot::fuzz
