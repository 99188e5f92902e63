// Deterministic structure-aware fuzzing harness for KShot's three untrusted
// input surfaces (DESIGN.md §9):
//
//   package  plaintext patch-package wires delivered to the SMM handler
//            through the full begin-session / seal / stage / apply SMI
//            handshake (the §V-B attack surface PR 3 fixed three bugs on)
//   netsim   enclave<->server protocol frames (PatchRequest/PatchResponse)
//            run against the real attested handshake
//   kcc      ksrc source programs differential-tested between the AST
//            evaluator and the compiled machine
//
// Every case is judged by invariant oracles, not just "no crash": a package
// either applies exactly as an independent model predicts or leaves memory
// byte-identical; rollback restores the pre-patch text; the trace's smi-span
// sum equals the machine's published SMM residency; the handler's metrics
// counters match what the harness observed; the SMM status word is always a
// known, non-swallowed value.
//
// Everything is seeded: `run_fuzz` with the same options produces
// byte-identical reports, a failing case is replayable from its hex dump,
// and the greedy shrinker minimizes failures into checked-in corpus entries
// (tests/corpus/) that every ctest run replays.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace kshot::fuzz {

struct FuzzOptions {
  u64 seed = 1;
  u32 iters = 200;
  /// Wall-clock cap in seconds; 0 disables it. The iteration bound keeps a
  /// run deterministic — with a time budget the *case count* may vary
  /// between runs, so CI smokes pin iters and leave the budget off.
  double time_budget_s = 0;
  bool shrink = true;
  /// Executed shrink candidates per failure (greedy, first-improvement).
  u32 max_shrink_steps = 400;
  /// Stop the run after this many distinct failures.
  u32 max_failures = 5;
};

/// One tripped invariant, with the (shrunk) replayable input.
struct Failure {
  std::string surface;
  u32 case_index = 0;  // which iteration generated it
  u64 case_seed = 0;   // the per-case RNG seed (mix of run seed + index)
  std::string oracle;  // which invariant tripped
  std::string detail;
  Bytes input;             // encoded case after shrinking
  size_t original_size = 0;  // encoded size before shrinking
};

struct FuzzReport {
  std::string surface;
  u64 seed = 0;
  u32 cases = 0;
  u32 accepted = 0;  // target accepted the input end to end
  u32 rejected = 0;  // target rejected it with a clean Status
  u32 skipped = 0;   // oracle could not judge (e.g. instruction-cap timeout)
  bool budget_exhausted = false;
  std::vector<Failure> failures;

  /// Deterministic rendering (no wall times, no pointers).
  [[nodiscard]] std::string to_string() const;
};

/// One untrusted input surface. A surface owns whatever fixture it needs
/// (a bare machine + SMM handler, a booted testbed, a compiler) and exposes
/// three deterministic operations over an opaque encoded case:
/// generation, execution-with-oracles, and shrink-candidate enumeration.
/// execute() must be a pure function of the encoded bytes so the shrinker
/// and corpus replay reproduce verdicts exactly.
class Surface {
 public:
  virtual ~Surface() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Builds one encoded case (structure-aware generation + mutation).
  virtual Bytes generate(Rng& rng) = 0;

  struct Verdict {
    enum class Kind : u8 { kRejected = 0, kAccepted = 1, kSkipped = 2 };
    Kind kind = Kind::kRejected;
    /// Set when an invariant tripped: (oracle name, detail).
    std::optional<std::pair<std::string, std::string>> failure;
  };
  virtual Verdict execute(ByteSpan encoded) = 0;

  /// Strictly smaller candidates for the shrinker — structure-aware where
  /// the encoding still decodes, raw byte removals otherwise.
  virtual std::vector<Bytes> shrink_candidates(ByteSpan encoded, Rng& rng);

  /// Human-readable replay info for a (shrunk) case: sizes + hex dump.
  [[nodiscard]] virtual std::string describe(ByteSpan encoded) const;
};

struct PackageSurfaceOptions {
  /// Self-test seam: runs the SMM target with the pre-overflow-fix bounds
  /// check (SmmPatchHandler::enable_legacy_wrapping_bounds_for_selftest) so
  /// the harness can prove it detects that bug class. Test-only.
  bool legacy_wrapping_bounds = false;
};

std::unique_ptr<Surface> make_package_surface(PackageSurfaceOptions o = {});
/// Boots one testbed (CVE-2014-0196, `boot_seed`) and fuzzes the protocol
/// decoders plus the live attested fetch handshake against it.
std::unique_ptr<Surface> make_netsim_surface(u64 boot_seed = 0x5EED);
std::unique_ptr<Surface> make_kcc_surface();

struct AttackerSurfaceOptions {
  /// Self-test seam: runs the SMM target with the pre-hardening double
  /// fetch (SmmPatchHandler::enable_legacy_double_fetch_for_selftest) so
  /// the harness can prove its prevented-or-detected oracle catches that
  /// TOCTOU class. Test-only.
  bool legacy_double_fetch = false;
  /// Simulated CPUs on the fuzzed target (>= 1).
  u32 cpus = 1;
};

/// Fuzzes async-adversary schedule wires (attacks/async_adversary.hpp)
/// against a full live_patch run. Oracle: every schedule is prevented
/// (memory byte-identical to the no-attack run) or detected (classified
/// DetectionReport) — never silent corruption or silent failure.
std::unique_ptr<Surface> make_attacker_schedule_surface(
    AttackerSurfaceOptions o = {});

/// Fuzzes patch-stack lifecycle op schedules (apply / supersede / revert /
/// rollback) against the SMM handler through real SMI sessions. Oracle: a
/// reference model of the applied stack predicts every op's status and the
/// exact kQueryApplied blob, and a final rollback drain must restore all
/// memory outside SMRAM/mailbox/mem_W/mem_X byte-identically.
std::unique_ptr<Surface> make_lifecycle_surface();

struct SynthSurfaceOptions {
  /// Self-test seam: plants every generated case's defensive fault-site
  /// limit one too high (cve::SynthOptions::misplant_off_by_one), so the
  /// probe-contract oracle must catch the mis-planted guard. Test-only.
  bool misplant_off_by_one = false;
};

/// Fuzzes the CVE synthesizer itself: each case decodes to (bug class,
/// knobs, seed), generates a SynthCase, and runs the full cve::check_case
/// oracle stack — probe contract on the AST evaluator, evaluator-vs-machine
/// differential, and structural diff confinement. Corpus dir: "synth".
std::unique_ptr<Surface> make_cve_synth_surface(SynthSurfaceOptions o = {});

/// Every registered surface name, in `--surface all` order: "package",
/// "netsim", "kcc", "attacker_schedule", "lifecycle", "cve_synth".
std::vector<std::string> surface_names();

/// Factory by registered surface name (or "synth", the alias of
/// "cve_synth" that is also its corpus dir); null for unknown.
std::unique_ptr<Surface> make_surface(const std::string& name);

/// Runs `opts.iters` generated cases, shrinking any failure.
FuzzReport run_fuzz(Surface& surface, const FuzzOptions& opts);

/// Greedy minimization: repeatedly adopts any strictly smaller candidate
/// that still trips `oracle`. Deterministic for a fixed failing input.
Bytes shrink_case(Surface& surface, Bytes failing, const std::string& oracle,
                  const FuzzOptions& opts);

// ---- Regression corpus -------------------------------------------------------
//
// Layout: <dir>/<surface>/<name>.hex for wire surfaces (hex bytes, '#'
// comments, whitespace ignored) and <dir>/kcc/<name>.ksrc for source cases.
// Policy: every shrunk fuzz failure that led to a code change is checked in
// here; `kshot-sim fuzz --write-corpus` regenerates the canonical seeds.

struct CorpusEntry {
  std::string surface;
  std::string file;  // basename, for reporting
  Bytes input;       // decoded encoded-case bytes
};

/// Loads every corpus entry under `dir`, sorted by (surface, file) so
/// replay order — and therefore output — is deterministic.
Result<std::vector<CorpusEntry>> load_corpus(const std::string& dir);

/// Writes the canonical seed corpus (the PR 3 regression wires, protocol
/// edge frames, kcc seeds). Overwrites existing files of the same names.
Status write_seed_corpus(const std::string& dir);

/// Replays entries grouped by surface; one report per surface touched.
/// Failures shrink with `opts` like generated cases.
std::vector<FuzzReport> replay_corpus(const std::vector<CorpusEntry>& entries,
                                      const FuzzOptions& opts);

/// The canonical seed cases for the wire surfaces, exposed so tests can
/// assert the checked-in corpus matches the generator.
std::vector<std::pair<std::string, Bytes>> seed_package_cases();
std::vector<std::pair<std::string, Bytes>> seed_netsim_cases();
std::vector<std::pair<std::string, Bytes>> seed_attacker_cases();
std::vector<std::pair<std::string, Bytes>> seed_lifecycle_cases();
std::vector<std::pair<std::string, Bytes>> seed_synth_cases();
std::vector<std::pair<std::string, std::string>> seed_kcc_cases();

// ---- Hex helpers (corpus file format) ---------------------------------------

std::string encode_hex_file(ByteSpan bytes, const std::string& comment);
Result<Bytes> decode_hex_file(const std::string& text);

}  // namespace kshot::fuzz
