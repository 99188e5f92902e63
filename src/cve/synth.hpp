// Auto-CVE synthesis: a deterministic, seeded generator of vulnerability
// cases that mutates kcc kernel sources to plant parameterized bug classes
// (DESIGN.md §14). Where suite.cpp transcribes the paper's 31 fixed Table I
// cases, this module manufactures an unbounded corpus: every splitmix64
// seed yields a fresh `cve::CveCase` — vulnerable pre_source, fixed
// post_source differing only at the planted site, and a derived exploit
// probe — that every existing consumer (PatchServer, fleet waves,
// combine_cases batching, lifecycle supersede chains, benchkit) ingests
// unchanged.
//
// Construction is fix-first: the *fixed* tail is built as a kcc AST and
// canonically printed; the vulnerable tail is a mutated clone (kcc/mutate.*)
// — the guard dropped (fix grows, trampoline path) or its action swapped
// for the trap (size-neutral fix, pad-equalized so the in-place splice path
// is hit). Diff confinement to the planted site falls out of construction
// and is still independently verified.
//
// Oracle stack, run BEFORE a case touches the live pipeline:
//   1. probe contract on the AST evaluator — exploit traps pre (with the
//      case's trap code), returns -EINVAL post, benign returns the same
//      value pre and post;
//   2. evaluator-vs-compiled-machine differential under two optimization
//      configs (constfold off/on), comparing oops/trap/value/globals — the
//      same pattern as the PR 4 kcc fuzz surface;
//   3. structural diff confinement — pre/post may differ only in the
//      declared changed functions plus the declared added global.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "cve/suite.hpp"

namespace kshot::cve {

enum class BugClass : u8 {
  kOobWrite = 0,       // copy loop runs past a synthesized buffer bound
  kMissingCheck = 1,   // attacker arg reaches a privileged helper unchecked
  kTypeConfusion = 2,  // out-of-range selector hits a wrong-type handler
};

/// Stable id tag: "OOB" / "CHK" / "DSP".
const char* bug_class_tag(BugClass c);
Result<BugClass> bug_class_from_tag(const std::string& tag);

/// Every knob changes the *shape* of the resulting patch, not just its
/// constants; all are derived from the seed (knobs_for_seed) unless a
/// caller pins them (the fuzz surface decodes them from the wire).
struct SynthKnobs {
  BugClass bug_class = BugClass::kOobWrite;
  /// The flawed function is `inline fn` => the binary patch implicates its
  /// synthesized callers (Type 2 metadata).
  bool inline_flaw = false;
  /// Fix guards inside the flawed helper vs up front in the syscall entry.
  bool guard_in_helper = true;
  /// The fix also adds an audit global bumped on the rejected path
  /// (Type 3 metadata; the vulnerable source lacks the global).
  bool add_global_fix = false;
  /// Size-neutral fix: both sources carry a pad() equalized against the
  /// compiled symbol sizes so the fixed body fits the old footprint and
  /// the enclave's in-place splice path (allow_splice) is eligible.
  bool size_neutral_fix = false;
  int filler_lines = 2;   // deterministic no-op lines per function (0..8)
  int helpers = 1;        // call-chain depth entry -> flawed fn (1..3)
  u64 limit = kGuardLimit;  // planted bounds limit, clamped to [8, 8192]
};

SynthKnobs knobs_for_seed(BugClass cls, u64 seed);

/// Clamps ranges and reconciles knob interactions deterministically:
/// size_neutral_fix forces !inline_flaw and !add_global_fix (a splice needs
/// one non-inline symbol of unchanged footprint), and inline_flaw forces
/// guard_in_helper (the flaw must live in the inline function).
void normalize_knobs(SynthKnobs& k);

/// "SYNTH-<TAG>-<seed as 16 hex digits>"; invertible via parse_synth_id,
/// which is what lets resolve_case() regenerate a case from its id alone.
std::string synth_id(BugClass cls, u64 seed);
Result<std::pair<BugClass, u64>> parse_synth_id(const std::string& id);

struct SynthCase {
  CveCase cve;
  SynthKnobs knobs;
  u64 seed = 0;
  /// Functions whose source differs between pre and post (the planted
  /// site); the diff-confinement oracle holds the sources to exactly this.
  std::vector<std::string> changed_functions;
  /// Non-empty iff the fix adds a global (Type 3).
  std::string added_global;
};

struct SynthOptions {
  /// Test-only seam (fuzz --selftest): plants the defensive fault-site
  /// limit one too high, so the minimal exploit no longer traps pre-patch
  /// and the probe-contract oracle must catch the mis-planted guard.
  /// Applies to the classes with a numeric fault-site limit (OOB, CHK).
  bool misplant_off_by_one = false;
};

Result<SynthCase> make_case(BugClass cls, u64 seed,
                            const SynthOptions& o = {});
Result<SynthCase> make_case(const SynthKnobs& knobs, u64 seed,
                            const SynthOptions& o = {});

/// Runs the full oracle stack (header comment) on one case.
Status check_case(const SynthCase& sc);

/// The lifecycle supersede-chain shape: one shared vulnerable kernel with
/// two independent flaws (guard A on a1 in the entry, guard B on a2 in the
/// helper). `partial` fixes only A — its exploit (A) dies but exploit_b
/// still traps; `cumulative` fixes A+B and retires the partial patch via
/// LifecycleOptions::supersedes.
struct SupersedePair {
  CveCase partial;
  CveCase cumulative;
  std::array<u64, 5> exploit_b{};  // traps until the cumulative fix lands
  u8 trap_b = 0;
};
Result<SupersedePair> make_supersede_pair(u64 seed);

// ---- Campaign --------------------------------------------------------------

/// Per-case seed stream (splitmix64 finalizer over campaign seed + index).
u64 synth_case_seed(u64 campaign_seed, u32 index);

struct CampaignOptions {
  u64 seed = 0x5EED;
  u32 cases = 200;
  u32 jobs = 1;
  /// Bug classes cycled case-by-case (index i gets classes[i % size]).
  std::vector<BugClass> classes = {BugClass::kOobWrite,
                                   BugClass::kMissingCheck,
                                   BugClass::kTypeConfusion};
  /// Optional extra per-case probe through a live deployment (the caller
  /// supplies a testbed live_patch driver; cve cannot depend on testbed).
  /// Runs on the first `live_cases` indices.
  std::function<Status(const SynthCase&)> live_probe = {};
  u32 live_cases = 0;
  SynthOptions synth = {};  // seam passthrough for selftests
};

struct CampaignReport {
  u32 cases = 0;
  u32 passed = 0;
  u32 failed = 0;
  /// Deterministic rendering: results are computed into index-order slots
  /// and aggregated serially, so the text is byte-identical across jobs.
  std::string report;
  [[nodiscard]] bool ok() const { return cases > 0 && failed == 0; }
};

Result<CampaignReport> run_campaign(const CampaignOptions& opts);

}  // namespace kshot::cve
