// Observability layer: recorder/metrics units, Chrome-trace export, full
// pipeline span coverage, the phase-sum identities against the modeled
// timing claims (Table III), and fleet trace determinism across --jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cve/suite.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testbed/testbed.hpp"

namespace kshot::obs {
namespace {

// ---- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorder, RecordsSpansAndInstantsInOrder) {
  TraceRecorder r;
  r.complete("smm", "decrypt", 3, 100, 250, 1.5, {{"bytes", "42"}});
  r.instant("fleet", "wave_start", kSharedTarget, 0, {{"wave", "1"}});

  auto events = r.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(r.size(), 2u);

  EXPECT_EQ(events[0].kind, EventKind::kComplete);
  EXPECT_EQ(events[0].component, "smm");
  EXPECT_EQ(events[0].name, "decrypt");
  EXPECT_EQ(events[0].target, 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].virt_cycles(), 150u);
  EXPECT_DOUBLE_EQ(events[0].wall_us, 1.5);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].key, "bytes");

  EXPECT_EQ(events[1].kind, EventKind::kInstant);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].target, kSharedTarget);
  EXPECT_EQ(events[1].virt_cycles(), 0u);

  r.clear();
  EXPECT_EQ(r.size(), 0u);
}

TEST(TraceRecorder, ChromeTraceIsStructurallyValidAndEscapes) {
  TraceRecorder r;
  r.complete("smm", "na\"me\nwith\ttabs\\", 0, 0, 3000, 2.0,
             {{"why", "a \"quoted\" reason"}});
  r.instant("kshot", "evt", 1, 1500);
  std::string js = to_chrome_trace(r.snapshot());

  EXPECT_EQ(js.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(js.substr(js.size() - 2), "]}");
  // Raw control characters / quotes must not survive into the JSON.
  EXPECT_EQ(js.find('\t'), std::string::npos);
  EXPECT_NE(js.find("\\\""), std::string::npos);
  EXPECT_NE(js.find("\\n"), std::string::npos);
  EXPECT_NE(js.find("\\t"), std::string::npos);
  // Balanced delimiters (no nesting beyond objects in the array).
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'),
            std::count(js.begin(), js.end(), '}'));
  EXPECT_EQ(std::count(js.begin(), js.end(), '['),
            std::count(js.begin(), js.end(), ']'));
  // Default cost model: 3000 cycles -> 1.000 us.
  EXPECT_NE(js.find("\"dur\":1.000"), std::string::npos);
}

TEST(TraceRecorder, WallClockOmittedFromDeterministicExport) {
  TraceRecorder r;
  r.complete("smm", "apply", 0, 0, 300, 123.456);
  ChromeTraceOptions opts;
  opts.include_wall = false;
  EXPECT_EQ(to_chrome_trace(r.snapshot(), opts).find("wall_us"),
            std::string::npos);
  EXPECT_NE(to_chrome_trace(r.snapshot()).find("wall_us"),
            std::string::npos);
}

TEST(Canonicalize, DiscardsAppendOrder) {
  // The same event multiset appended in two different interleavings (as a
  // racy shared recorder would) must canonicalize to the same sequence.
  TraceRecorder a;
  a.instant("netsim", "patchset_cache_miss", kSharedTarget, 0, {{"key", "x"}});
  a.instant("netsim", "patchset_cache_hit", kSharedTarget, 0, {{"key", "x"}});
  a.instant("fleet", "wave_start", kSharedTarget, 0, {{"wave", "0"}});

  TraceRecorder b;
  b.instant("fleet", "wave_start", kSharedTarget, 0, {{"wave", "0"}});
  b.instant("netsim", "patchset_cache_hit", kSharedTarget, 0, {{"key", "x"}});
  b.instant("netsim", "patchset_cache_miss", kSharedTarget, 0, {{"key", "x"}});

  ChromeTraceOptions det;
  det.include_wall = false;
  EXPECT_EQ(to_chrome_trace(canonicalize(a.snapshot()), det),
            to_chrome_trace(canonicalize(b.snapshot()), det));
}

// ---- Metrics -----------------------------------------------------------------

TEST(Metrics, CounterReferencesAreStable) {
  MetricsRegistry reg;
  Counter& c = reg.counter("smm.sessions");
  c.inc();
  c.inc(4);
  EXPECT_EQ(&c, &reg.counter("smm.sessions"));
  EXPECT_EQ(reg.counter("smm.sessions").value(), 5u);
  EXPECT_EQ(reg.counter("other").value(), 0u);
}

TEST(Metrics, HistogramBucketsAndStats) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("downtime_us");
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);
  auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 103.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 103.5 / 3);
  u64 total = 0;
  for (u64 b : s.buckets) total += b;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(s.buckets[0], 1u);  // [0, 1)
}

TEST(Metrics, SnapshotMergeSumsByName) {
  MetricsRegistry a;
  a.counter("x").inc(2);
  a.histogram("h").observe(10);
  MetricsRegistry b;
  b.counter("x").inc(3);
  b.counter("y").inc(1);
  b.histogram("h").observe(30);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  auto find = [&](const std::string& name) -> u64 {
    for (const auto& [n, v] : merged.counters) {
      if (n == name) return v;
    }
    return ~0ull;
  };
  EXPECT_EQ(find("x"), 5u);
  EXPECT_EQ(find("y"), 1u);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].second.count, 2u);
  EXPECT_DOUBLE_EQ(merged.histograms[0].second.sum, 40.0);

  // Both dump formats mention every metric.
  for (const std::string& body :
       {merged.to_string(), merged.to_json()}) {
    EXPECT_NE(body.find('x'), std::string::npos);
    EXPECT_NE(body.find('y'), std::string::npos);
    EXPECT_NE(body.find('h'), std::string::npos);
  }
}

// ---- Pipeline integration ----------------------------------------------------

struct TracedRun {
  TraceRecorder trace;
  MetricsRegistry metrics;
  std::unique_ptr<testbed::Testbed> tb;
  core::PatchReport report;
};

std::unique_ptr<TracedRun> traced_live_patch() {
  auto run = std::make_unique<TracedRun>();
  testbed::TestbedOptions opts;
  opts.trace = &run->trace;
  opts.metrics = &run->metrics;
  auto tb = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"), opts);
  EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
  run->tb = std::move(*tb);
  auto rep = run->tb->kshot().live_patch("CVE-2014-0196");
  EXPECT_TRUE(rep.is_ok());
  if (rep.is_ok()) run->report = *rep;
  return run;
}

TEST(PipelineTrace, EveryLayerEmitsSpans) {
  auto run = traced_live_patch();
  ASSERT_TRUE(run->report.success);

  std::set<std::string> components;
  std::set<std::string> names;
  for (const auto& e : run->trace.snapshot()) {
    components.insert(e.component);
    names.insert(e.component + "/" + e.name);
  }
  for (const char* c : {"kshot", "enclave", "smm", "netsim"}) {
    EXPECT_TRUE(components.count(c)) << "no spans from component " << c;
  }
  for (const char* n :
       {"kshot/fetch", "kshot/stage", "kshot/live_patch", "kshot/smi_raised",
        "enclave/preprocess", "enclave/seal", "smm/keygen", "smm/decrypt",
        "smm/verify", "smm/apply", "smm/smi", "netsim/handle_request",
        "netsim/compile"}) {
    EXPECT_TRUE(names.count(n)) << "missing span " << n;
  }

  // The handler's counters and the pipeline's registry are the same store.
  EXPECT_EQ(run->metrics.counter("smm.applied").value(),
            run->tb->kshot().handler().patches_applied());
  EXPECT_EQ(run->metrics.counter("kshot.patch_success").value(), 1u);
  EXPECT_EQ(run->metrics.counter("server.requests").value(), 1u);
}

/// The three shapes of the staged-apply pipeline.
enum class Shape { kSingle, kBatch, kChunked };

/// One traced run of `shape` on a fresh testbed: CVE-2014-0196 as one
/// package, three sim-4.4 CVEs as one batch on their merged kernel, or
/// CVE-2016-7914 (~15 KB) as a train of 2 KB chunks.
std::unique_ptr<TracedRun> traced_run(Shape shape) {
  if (shape == Shape::kSingle) return traced_live_patch();
  auto run = std::make_unique<TracedRun>();
  testbed::TestbedOptions opts;
  opts.trace = &run->trace;
  opts.metrics = &run->metrics;
  const std::vector<std::string> ids = {"CVE-2016-2543", "CVE-2016-4578",
                                        "CVE-2016-4580"};
  cve::CveCase target = cve::find_case("CVE-2016-7914");
  std::vector<cve::CveCase> parts;
  if (shape == Shape::kBatch) {
    auto batch = cve::combine_cases(ids);
    auto batch_parts = cve::batch_part_cases(ids);
    EXPECT_TRUE(batch.is_ok() && batch_parts.is_ok());
    if (!batch.is_ok() || !batch_parts.is_ok()) return run;
    target = batch->merged;
    parts = *batch_parts;
  }
  auto tb = testbed::Testbed::boot(target, opts);
  EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
  if (!tb.is_ok()) return run;
  run->tb = std::move(*tb);
  for (const auto& p : parts) {
    run->tb->server().add_patch({p.id, p.kernel, p.pre_source, p.post_source});
  }
  auto rep = shape == Shape::kBatch
                 ? run->tb->kshot().live_patch_batch(ids)
                 : run->tb->kshot().live_patch_chunked(target.id, 2048);
  EXPECT_TRUE(rep.is_ok()) << rep.status().to_string();
  if (rep.is_ok()) run->report = *rep;
  return run;
}

TEST(PipelineTrace, SmiSpansSumToModeledDowntime) {
  // Both identities hold for every entry point of the staged-apply
  // pipeline: live_patch, live_patch_batch and live_patch_chunked.
  for (Shape shape : {Shape::kSingle, Shape::kBatch, Shape::kChunked}) {
    SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)));
    auto run = traced_run(shape);
    ASSERT_TRUE(run->tb);
    ASSERT_TRUE(run->report.success);
    auto& m = run->tb->machine();
    const auto& cost = m.cost_model();

    u64 smi_cycles = 0;
    u64 phase_cycles = 0;
    u64 smi_spans = 0;
    u64 decrypt_spans = 0;
    for (const auto& e : run->trace.snapshot()) {
      if (e.component != "smm") continue;
      if (e.name == "smi") {
        smi_cycles += e.virt_cycles();
        ++smi_spans;
      } else if (e.name == "keygen" || e.name == "decrypt" ||
                 e.name == "verify" || e.name == "apply") {
        phase_cycles += e.virt_cycles();
        if (e.name == "decrypt") ++decrypt_spans;
      }
    }
    // live_patch and live_patch_batch take one begin-session SMI + one
    // apply SMI; a chunk train takes one SMI per chunk after the begin-
    // session SMI. Every staging SMI opens one decrypt span.
    if (shape == Shape::kChunked) {
      EXPECT_GT(smi_spans, 2u);
    } else {
      EXPECT_EQ(smi_spans, 2u);
    }
    EXPECT_EQ(smi_spans, m.smi_count());
    EXPECT_EQ(decrypt_spans, smi_spans - 1);

    // Identity 1: the "smi" spans cover the machine's SMM residency
    // exactly — their sum is the paper's downtime, which is what the report
    // publishes.
    EXPECT_EQ(smi_cycles, run->report.downtime_cycles);
    EXPECT_EQ(smi_cycles, m.smm_cycles());
    EXPECT_DOUBLE_EQ(cost.to_us(smi_cycles),
                     run->report.smm.modeled_total_us);

    // Identity 2: the four phase spans sum to exactly the handler's modeled
    // work, the whole detection charge is the per-SMI one (mailbox snapshot
    // + freshness checks, charged before any phase span opens), and adding
    // it and the per-SMI switch overhead to the phases reconstructs the
    // full downtime. Hardening is not free, and every cycle of it must be
    // accounted for here.
    const auto& t = run->tb->kshot().handler().last_timings();
    const u64 per_smi_detect =
        cost.snapshot_cycles + cost.detect_fixed_cycles;
    EXPECT_EQ(run->tb->kshot().handler().detection_overhead_cycles(),
              smi_spans * per_smi_detect);
    EXPECT_EQ(phase_cycles, t.modeled_cycles);
    EXPECT_EQ(phase_cycles + smi_spans * (cost.smi_entry_cycles +
                                          cost.rsm_cycles + per_smi_detect),
              smi_cycles);

    // The report's Table III total is the sum of its phase columns.
    const core::SmmPhaseTimings& smm = run->report.smm;
    EXPECT_GT(smm.decrypt_us, 0.0);
    EXPECT_DOUBLE_EQ(smm.total_us, smm.keygen_us + smm.decrypt_us +
                                       smm.verify_us + smm.apply_us +
                                       smm.switch_us);
  }
}

/// The span a pipeline span closes inside: the server's compile inside
/// handle_request, the fetch round trip inside kshot/fetch, every SMM phase
/// inside its smm/smi, and everything else inside the closing
/// kshot/live_patch* span, which is itself top level ("").
std::string parent_of(const TraceEvent& e) {
  const std::string key = e.component + "/" + e.name;
  if (key == "netsim/compile") return "netsim/handle_request";
  if (key == "netsim/handle_request" || key == "enclave/begin_fetch" ||
      key == "enclave/finish_fetch") {
    return "kshot/fetch";
  }
  if (e.component == "smm" && e.name != "smi") return "smm/smi";
  if (key.rfind("kshot/live_patch", 0) == 0) return "";
  return "kshot/live_patch";
}

TEST(PipelineTrace, KshotSpansCoverTheirChildren) {
  // A span's wall time is host time measured around its children, so it can
  // never be shorter than their sum. Modeled time (the link latency of a
  // fetch) belongs in args and on the virtual clock, not in wall_us.
  for (bool sweep : {false, true}) {
    SCOPED_TRACE(sweep ? "64 KiB size sweep" : "CVE-2014-0196");
    auto run = std::make_unique<TracedRun>();
    testbed::TestbedOptions opts;
    opts.trace = &run->trace;
    opts.metrics = &run->metrics;
    cve::CveCase c = cve::find_case("CVE-2014-0196");
    if (sweep) {
      c = testbed::make_size_sweep_case(64 * 1024);
      opts.layout = testbed::layout_for_patch_bytes(64 * 1024);
    }
    auto tb = testbed::Testbed::boot(c, opts);
    ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
    auto rep = (*tb)->kshot().live_patch(c.id);
    ASSERT_TRUE(rep.is_ok() && rep->success);
    EXPECT_GT(rep->sgx.link_us, 0.0);
    EXPECT_GT(rep->sgx.fetch_us, rep->sgx.link_us);

    // Children complete before their parent: a closing span adopts every
    // pending span that names it as parent.
    struct Pending {
      std::string parent;
      double wall_us;
    };
    std::vector<Pending> pending;
    u32 kshot_parents = 0;
    for (const auto& e : run->trace.snapshot()) {
      if (e.kind != EventKind::kComplete) continue;
      const std::string key = e.component + "/" + e.name;
      double children = 0;
      u32 adopted = 0;
      std::vector<Pending> keep;
      for (const Pending& p : pending) {
        if (p.parent == key) {
          children += p.wall_us;
          ++adopted;
        } else {
          keep.push_back(p);
        }
      }
      pending = std::move(keep);
      pending.push_back({parent_of(e), e.wall_us});
      if (e.component != "kshot" || adopted == 0) continue;
      ++kshot_parents;
      EXPECT_GE(e.wall_us, children) << key << " has " << adopted
                                      << " children";
    }
    EXPECT_EQ(kshot_parents, 2u);  // kshot/fetch and kshot/live_patch
  }
}

TEST(PipelineTrace, VirtualTimelineIsSeedDeterministic) {
  // Two runs with the same seed must produce the same virtual-clock event
  // sequence (names + virtual timestamps); wall clocks may differ.
  auto sig = [](const TraceRecorder& r) {
    std::string s;
    for (const auto& e : r.snapshot()) {
      s += e.component + "/" + e.name + "@" +
           std::to_string(e.virt_begin_cycles) + "+" +
           std::to_string(e.virt_cycles()) + ";";
    }
    return s;
  };
  auto a = traced_live_patch();
  auto b = traced_live_patch();
  EXPECT_EQ(sig(a->trace), sig(b->trace));
}

// ---- Fleet determinism -------------------------------------------------------

fleet::FleetReport run_fleet(u32 jobs) {
  fleet::FleetOptions o;
  o.targets = 6;
  o.jobs = jobs;
  o.base_seed = 77;
  o.rollout.canary = 2;
  o.rollout.wave = 4;
  o.capture_trace = true;
  fleet::FleetController fc(o);
  auto rep = fc.run_campaign();
  EXPECT_TRUE(rep.is_ok()) << rep.status().to_string();
  return rep.is_ok() ? *rep : fleet::FleetReport{};
}

TEST(FleetTrace, ByteIdenticalAcrossJobsLevels) {
  fleet::FleetReport serial = run_fleet(1);
  fleet::FleetReport parallel = run_fleet(4);

  ASSERT_FALSE(serial.trace_json.empty());
  EXPECT_EQ(serial.trace_json, parallel.trace_json);
  // Everything below the header (which prints the jobs level itself) is
  // byte-identical.
  auto body = [](const fleet::FleetReport& r) {
    std::string s = r.to_string();
    return s.substr(s.find('\n') + 1);
  };
  EXPECT_EQ(body(serial), body(parallel));
  // Counters are deterministic regardless of worker interleaving.
  // (Histograms are not compared: some record *wall* durations, e.g.
  // kshot.fetch_us, which legitimately vary run to run.)
  EXPECT_EQ(serial.metrics.counters, parallel.metrics.counters);

  // The campaign trace carries per-target pipeline spans and the shared
  // server/fleet events.
  EXPECT_NE(serial.trace_json.find("\"smm\""), std::string::npos);
  EXPECT_NE(serial.trace_json.find("wave_start"), std::string::npos);
  EXPECT_NE(serial.trace_json.find("handle_request"), std::string::npos);
  // Deterministic export: no wall-clock residue.
  EXPECT_EQ(serial.trace_json.find("wall_us"), std::string::npos);
}

// ---- Multi-CPU downtime decomposition ----------------------------------------

TEST(MultiCpuDecomposition, SpansSumToDowntimeExactlyAtEveryCpuCount) {
  // The tentpole's accounting identity, integer-exact (no float rounding):
  // rendezvous + handler + resume == downtime at every CPU count.
  for (u32 cpus : {1u, 4u, 16u}) {
    testbed::TestbedOptions topts;
    topts.seed = 0x5EED;
    topts.cpus = cpus;
    auto tb = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"),
                                     std::move(topts));
    ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
    auto rep = (*tb)->kshot().live_patch("CVE-2014-0196");
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    ASSERT_TRUE(rep->success);
    EXPECT_EQ(rep->rendezvous_cycles + rep->handler_cycles +
                  rep->resume_cycles,
              rep->downtime_cycles)
        << "cpus=" << cpus;
    EXPECT_GT(rep->rendezvous_cycles, 0u);
    EXPECT_GT(rep->handler_cycles, 0u);
    EXPECT_GT(rep->resume_cycles, 0u);
  }
}

TEST(MultiCpuDecomposition, MoreCpusNeverShrinkRendezvous) {
  auto decomposed = [](u32 cpus) {
    testbed::TestbedOptions topts;
    topts.seed = 0x5EED;
    topts.cpus = cpus;
    auto tb = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"),
                                     std::move(topts));
    EXPECT_TRUE(tb.is_ok());
    auto rep = (*tb)->kshot().live_patch("CVE-2014-0196");
    EXPECT_TRUE(rep.is_ok() && rep->success);
    return *rep;
  };
  auto r1 = decomposed(1);
  auto r4 = decomposed(4);
  auto r16 = decomposed(16);
  EXPECT_LT(r1.rendezvous_cycles, r4.rendezvous_cycles);
  EXPECT_LT(r4.rendezvous_cycles, r16.rendezvous_cycles);
  // Parallel verify: the handler phase must not blow up 16x with the CPUs.
  EXPECT_LT(r16.downtime_cycles, r1.downtime_cycles * 5 / 2);
}

TEST(FleetTrace, ReportByteIdenticalAcrossJobsAtEveryCpuCount) {
  for (u32 cpus : {1u, 4u, 16u}) {
    auto run = [&](u32 jobs) {
      fleet::FleetOptions o;
      o.targets = 4;
      o.jobs = jobs;
      o.base_seed = 99;
      o.rollout.canary = 1;
      o.rollout.wave = 3;
      o.cpus = cpus;
      fleet::FleetController fc(o);
      auto rep = fc.run_campaign();
      EXPECT_TRUE(rep.is_ok()) << rep.status().to_string();
      return rep.is_ok() ? *rep : fleet::FleetReport{};
    };
    fleet::FleetReport a = run(1);
    fleet::FleetReport b = run(4);
    // Everything below the header (which prints the jobs level) matches.
    auto body = [](const fleet::FleetReport& r) {
      std::string s = r.to_string();
      return s.substr(s.find('\n') + 1);
    };
    EXPECT_EQ(body(a), body(b)) << "cpus=" << cpus;
    EXPECT_EQ(a.cpus, cpus);
    EXPECT_EQ(a.total_rendezvous_cycles + a.total_handler_cycles +
                  a.total_resume_cycles,
              a.total_downtime_cycles)
        << "cpus=" << cpus;
    EXPECT_GT(a.total_downtime_cycles, 0u);
  }
}

}  // namespace
}  // namespace kshot::obs
