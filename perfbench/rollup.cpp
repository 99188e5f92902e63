// Span recording, span-tree rollup and trace export for the benchmark.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "common/stats.hpp"

namespace kshot::perfbench {

size_t SpanLog::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  s.ev0 = program_ != nullptr ? program_->size() : 0;
  s.t0_us = us_between(origin_, Clock::now());
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(size_t id) {
  Span& s = spans_[id];
  s.t1_us = us_between(origin_, Clock::now());
  s.ev1 = program_ != nullptr ? program_->size() : 0;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

namespace {

std::string key_of(const obs::TraceEvent& e) {
  return e.component + "." + e.name;
}

bool is_live_patch(const std::string& key) {
  return key.rfind("kshot.live_patch", 0) == 0;
}

/// The span a program span closes inside, as src/core and src/netsim emit
/// them: the server's compile runs inside handle_request, the fetch round
/// trip (both enclave ecalls and the server request) inside kshot.fetch,
/// and every SMM phase inside its smm.smi. Everything else a pipeline run
/// emits nests under the closing kshot.live_patch* span; "" marks a span
/// that is itself top level.
std::string parent_key(const std::string& key) {
  if (key == "netsim.compile") return "netsim.handle_request";
  if (key == "netsim.handle_request" || key == "enclave.begin_fetch" ||
      key == "enclave.finish_fetch") {
    return "kshot.fetch";
  }
  if (key.rfind("smm.", 0) == 0 && key != "smm.smi") return "smm.smi";
  if (is_live_patch(key)) return "";
  return "kshot.live_patch";
}

bool adopts(const std::string& parent, const std::string& child_wants) {
  if (child_wants.empty()) return false;
  if (child_wants == "kshot.live_patch") return is_live_patch(parent);
  return parent == child_wants;
}

}  // namespace

Rollup roll_up(const SpanLog& log, const std::vector<obs::TraceEvent>& events,
               const std::string& op_name, double us_per_cycle) {
  Rollup r;
  const auto& spans = log.spans();

  // Owner of each program event: the innermost benchmark span whose window
  // holds it (children are logged after their parents, so they overwrite).
  std::vector<long> owner(events.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t hi = std::min(spans[i].ev1, events.size());
    for (size_t ev = spans[i].ev0; ev < hi; ++ev) {
      owner[ev] = static_cast<long>(i);
    }
  }
  std::vector<std::vector<size_t>> owned(spans.size());
  for (size_t ev = 0; ev < events.size(); ++ev) {
    if (owner[ev] >= 0 && events[ev].kind == obs::EventKind::kComplete) {
      owned[static_cast<size_t>(owner[ev])].push_back(ev);
    }
  }

  // Program span tree inside each benchmark span; a parent closes after
  // its children, so pending spans are adopted by the next matching one.
  std::vector<double> child_wall(events.size(), 0);
  std::vector<double> top_program_wall(spans.size(), 0);
  for (size_t s = 0; s < spans.size(); ++s) {
    std::vector<size_t> pending;
    for (size_t ev : owned[s]) {
      const std::string key = key_of(events[ev]);
      std::vector<size_t> keep;
      for (size_t p : pending) {
        if (adopts(key, parent_key(key_of(events[p])))) {
          child_wall[ev] += events[p].wall_us;
        } else {
          keep.push_back(p);
        }
      }
      keep.push_back(ev);
      pending = std::move(keep);
    }
    for (size_t p : pending) top_program_wall[s] += events[p].wall_us;
  }
  for (size_t s = 0; s < spans.size(); ++s) {
    for (size_t ev : owned[s]) {
      const auto& e = events[ev];
      SpanTotals& t = r.spans[key_of(e)];
      ++t.count;
      t.wall_us += e.wall_us;
      t.self_wall_us += e.wall_us - child_wall[ev];
      t.virt_us += static_cast<double>(e.virt_cycles()) * us_per_cycle;
    }
  }

  // Benchmark spans: self = wall - benchmark children - top-level program
  // spans recorded directly in its window.
  std::vector<double> bench_child_wall(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      bench_child_wall[static_cast<size_t>(s.parent)] += s.wall_us();
    }
  }
  for (size_t s = 0; s < spans.size(); ++s) {
    double self =
        spans[s].wall_us() - bench_child_wall[s] - top_program_wall[s];
    SpanTotals& t = r.spans["bench." + spans[s].name];
    ++t.count;
    t.wall_us += spans[s].wall_us();
    t.self_wall_us += self;
    if (spans[s].name == op_name) {
      r.unattributed_us.push_back(self);
      ++r.ops;
    }
  }
  return r;
}

void add_rollup_metrics(const Rollup& r, std::map<std::string, Metric>& out) {
  const double ops = std::max<double>(1, static_cast<double>(r.ops));
  for (const auto& [key, t] : r.spans) {
    if (key.rfind("bench.", 0) == 0) continue;
    const double n = std::max<double>(1, static_cast<double>(t.count));
    const std::string p = "span." + key + ".";
    out[p + "count"] = {static_cast<double>(t.count) / ops, "count/op"};
    out[p + "wall_us"] = {t.wall_us / n, "us"};
    out[p + "self_wall_us"] = {t.self_wall_us / n, "us"};
    out[p + "virt_us"] = {t.virt_us / n, "us"};
    out[p + "model_wall_ratio"] = {t.wall_us > 0 ? t.virt_us / t.wall_us : 0,
                                   "ratio"};
  }
  out["op.unattributed_us_p50"] = {summarize(r.unattributed_us).p50, "us"};
}

std::string format_rollup(const Rollup& r) {
  std::vector<std::pair<std::string, SpanTotals>> rows(r.spans.begin(),
                                                       r.spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_wall_us > b.second.self_wall_us;
  });
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-34s %9s %12s %12s %12s %9s\n", "span",
                "count", "wall_us", "self_us", "virt_us", "virt/wall");
  out += line;
  for (const auto& [key, t] : rows) {
    std::snprintf(line, sizeof line,
                  "%-34s %9llu %12.1f %12.1f %12.1f %9.3f\n", key.c_str(),
                  static_cast<unsigned long long>(t.count), t.wall_us,
                  t.self_wall_us, t.virt_us,
                  t.wall_us > 0 ? t.virt_us / t.wall_us : 0.0);
    out += line;
  }
  const SampleStats u = summarize(r.unattributed_us);
  std::snprintf(line, sizeof line,
                "unattributed per traced op (%llu ops): p50 %.1f us, mean "
                "%.1f us, max %.1f us\n",
                static_cast<unsigned long long>(r.ops), u.p50, u.mean, u.max);
  out += line;
  return out;
}

bool export_trace(const std::string& prefix, const SpanLog& log,
                  const std::vector<obs::TraceEvent>& events,
                  const Rollup& r, double us_per_cycle) {
  std::string bench = "{\"traceEvents\":[";
  const auto& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%ld}}",
                  spans[i].t0_us, spans[i].wall_us(), i, spans[i].parent);
    bench += (i ? ",{\"name\":\"" : "{\"name\":\"") + spans[i].name + "\"," +
             buf;
  }
  bench += "]}\n";
  obs::ChromeTraceOptions copts;
  copts.us_per_cycle = us_per_cycle;
  std::ofstream b(prefix + ".bench.json"), p(prefix + ".program.json"),
      t(prefix + ".rollup.txt");
  b << bench;
  p << obs::to_chrome_trace(events, copts) << "\n";
  t << format_rollup(r);
  return b.good() && p.good() && t.good();
}

}  // namespace kshot::perfbench
