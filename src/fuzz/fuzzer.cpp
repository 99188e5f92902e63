// Surface-independent fuzz driver: seeded case generation, verdict
// accounting, greedy shrinking, and the deterministic report rendering.
#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/hex.hpp"

namespace kshot::fuzz {

namespace {

/// SplitMix64 finalizer: decorrelates per-case seeds derived from
/// (run seed, case index) so neighbouring cases share no RNG structure.
u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

u64 case_seed_for(u64 run_seed, u32 index) {
  return mix64(run_seed + (static_cast<u64>(index) + 1) *
                              0x9e3779b97f4a7c15ULL);
}

std::vector<Bytes> Surface::shrink_candidates(ByteSpan encoded, Rng& rng) {
  // Default: ddmin-style chunk removals at halving granularity, plus a
  // sampled set of single-byte removals. Structure-aware surfaces override.
  std::vector<Bytes> out;
  size_t n = encoded.size();
  if (n <= 1) return out;
  for (size_t chunk = n / 2; chunk >= 1; chunk /= 2) {
    for (size_t off = 0; off < n; off += chunk) {
      Bytes c(encoded.begin(), encoded.end());
      size_t len = std::min(chunk, n - off);
      c.erase(c.begin() + static_cast<std::ptrdiff_t>(off),
              c.begin() + static_cast<std::ptrdiff_t>(off + len));
      if (!c.empty() || n == 1) out.push_back(std::move(c));
      if (out.size() >= 64) break;
    }
    if (out.size() >= 64) break;
  }
  // A few random single-byte removals to escape chunk-boundary plateaus.
  for (int i = 0; i < 8 && n > 1; ++i) {
    size_t off = rng.next_below(n);
    Bytes c(encoded.begin(), encoded.end());
    c.erase(c.begin() + static_cast<std::ptrdiff_t>(off));
    out.push_back(std::move(c));
  }
  return out;
}

std::string Surface::describe(ByteSpan encoded) const {
  std::ostringstream os;
  os << encoded.size() << " bytes: " << to_hex(encoded);
  return os.str();
}

std::string FuzzReport::to_string() const {
  std::ostringstream os;
  os << "fuzz surface=" << surface << " seed=" << seed << " cases=" << cases
     << " accepted=" << accepted << " rejected=" << rejected
     << " skipped=" << skipped << " failures=" << failures.size()
     << (budget_exhausted ? " (time budget exhausted)" : "") << "\n";
  for (const auto& f : failures) {
    os << "FAILURE surface=" << f.surface << " case=" << f.case_index
       << " case_seed=0x" << std::hex << f.case_seed << std::dec
       << " oracle=" << f.oracle << "\n"
       << "  detail: " << f.detail << "\n"
       << "  shrunk " << f.original_size << " -> " << f.input.size()
       << " bytes\n"
       << "  repro: " << to_hex(f.input) << "\n";
  }
  return os.str();
}

Bytes shrink_case(Surface& surface, Bytes failing, const std::string& oracle,
                  const FuzzOptions& opts) {
  // Greedy first-improvement descent: adopt any strictly smaller candidate
  // that still trips the same oracle, restart candidate enumeration from it.
  // The candidate RNG is seeded from the run seed only, so shrinking is a
  // pure function of (failing input, oracle, options).
  Rng rng(opts.seed ^ 0x5318A11ULL);
  u32 steps = 0;
  bool improved = true;
  while (improved && steps < opts.max_shrink_steps) {
    improved = false;
    auto candidates = surface.shrink_candidates(failing, rng);
    for (auto& cand : candidates) {
      if (cand.size() >= failing.size()) continue;
      if (++steps > opts.max_shrink_steps) break;
      auto v = surface.execute(cand);
      if (v.failure && v.failure->first == oracle) {
        failing = std::move(cand);
        improved = true;
        break;
      }
    }
  }
  return failing;
}

namespace {

/// Executes one encoded case and folds the verdict into the report.
/// Returns true while the run should continue.
bool run_one(Surface& surface, Bytes encoded, u32 index, u64 case_seed,
             const FuzzOptions& opts, FuzzReport& rep) {
  auto v = surface.execute(encoded);
  ++rep.cases;
  switch (v.kind) {
    case Surface::Verdict::Kind::kAccepted:
      ++rep.accepted;
      break;
    case Surface::Verdict::Kind::kRejected:
      ++rep.rejected;
      break;
    case Surface::Verdict::Kind::kSkipped:
      ++rep.skipped;
      break;
  }
  if (v.failure) {
    Failure f;
    f.surface = surface.name();
    f.case_index = index;
    f.case_seed = case_seed;
    f.oracle = v.failure->first;
    f.detail = v.failure->second;
    f.original_size = encoded.size();
    f.input = opts.shrink
                  ? shrink_case(surface, std::move(encoded), f.oracle, opts)
                  : std::move(encoded);
    rep.failures.push_back(std::move(f));
    if (rep.failures.size() >= opts.max_failures) return false;
  }
  return true;
}

}  // namespace

FuzzReport run_fuzz(Surface& surface, const FuzzOptions& opts) {
  FuzzReport rep;
  rep.surface = surface.name();
  rep.seed = opts.seed;
  auto t0 = std::chrono::steady_clock::now();
  for (u32 i = 0; i < opts.iters; ++i) {
    if (opts.time_budget_s > 0) {
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - t0;
      if (elapsed.count() > opts.time_budget_s) {
        rep.budget_exhausted = true;
        break;
      }
    }
    u64 cs = case_seed_for(opts.seed, i);
    Rng rng(cs);
    Bytes encoded = surface.generate(rng);
    if (!run_one(surface, std::move(encoded), i, cs, opts, rep)) break;
  }
  return rep;
}

std::vector<FuzzReport> replay_corpus(const std::vector<CorpusEntry>& entries,
                                      const FuzzOptions& opts) {
  // One report per surface, in first-appearance order (entries arrive
  // sorted by surface, so this is also sorted).
  std::vector<FuzzReport> reports;
  std::unique_ptr<Surface> surface;
  // Group by the *requested* directory name, not surface->name(): aliases
  // (corpus dir "synth" -> surface "cve_synth") would otherwise re-create
  // the surface — and open a fresh report — for every entry.
  std::string current;
  FuzzReport* rep = nullptr;
  u32 index = 0;
  for (const auto& e : entries) {
    if (!surface || e.surface != current) {
      surface = make_surface(e.surface);
      current = e.surface;
      if (!surface) continue;  // unknown surface directory: skip
      reports.emplace_back();
      rep = &reports.back();
      rep->surface = surface->name();
      rep->seed = opts.seed;
      index = 0;
    }
    run_one(*surface, e.input, index++, 0, opts, *rep);
  }
  return reports;
}

namespace {

struct RegisteredSurface {
  const char* name;
  std::unique_ptr<Surface> (*make)();
};

// The surface registry, in `--surface all` order.
const RegisteredSurface kSurfaces[] = {
    {"package", [] { return make_package_surface(); }},
    {"netsim", [] { return make_netsim_surface(); }},
    {"kcc", [] { return make_kcc_surface(); }},
    {"attacker_schedule", [] { return make_attacker_schedule_surface(); }},
    {"lifecycle", [] { return make_lifecycle_surface(); }},
    {"cve_synth", [] { return make_cve_synth_surface(); }},
};

}  // namespace

std::vector<std::string> surface_names() {
  std::vector<std::string> names;
  for (const auto& s : kSurfaces) names.emplace_back(s.name);
  return names;
}

std::unique_ptr<Surface> make_surface(const std::string& name) {
  // "synth" is both the CLI alias and the corpus directory name.
  const std::string key = name == "synth" ? "cve_synth" : name;
  for (const auto& s : kSurfaces) {
    if (key == s.name) return s.make();
  }
  return nullptr;
}

}  // namespace kshot::fuzz
