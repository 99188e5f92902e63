// perfbench_workload — runs one benchmark workload and prints its metrics.
//
//   perfbench_workload --workload patch-small --seed 1 --seconds 10
//                      [--trace 0|1] [--out DIR]
//
// A table of every metric goes to stderr; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}} with every metric the run produced. Exits 1 when any op failed,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

using kshot::perfbench::Options;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\nusage: perfbench_workload --workload "
               "NAME --seed N --seconds S [--trace 0|1] [--out DIR]\n",
               why.c_str());
  return 2;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--out") {
      o.out_dir = v;
    } else {
      return usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || v.empty())) {
      return usage("bad number for " + flag);
    }
  }
  bool known = false;
  for (const auto& n : kshot::perfbench::workload_names()) {
    known = known || n == o.workload;
  }
  if (!known) return usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  kshot::perfbench::Outcome r = kshot::perfbench::run_workload(o);

  std::fprintf(stderr, "%s seed %llu: %llu ops, %llu failed\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (const auto& d : r.failure_details) {
    std::fprintf(stderr, "  FAILED %s\n", d.c_str());
  }
  const bool correct = r.attempted > 0 && r.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(stderr, "  %-44s %16.6f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    append_json_string(json, name);
    json += ": {\"value\": ";
    json += num;
    json += ", \"unit\": ";
    append_json_string(json, m.unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
