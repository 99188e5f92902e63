// Regenerates Figure 5 (§VI-C3): SMM-based live patching time for the same
// six CVEs, broken into key generation / switching / decryption /
// verification / application. Switching and keygen are fixed costs; the
// rest track patch size.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/testbed.hpp"

using namespace kshot;

int main() {
  bench::title("Figure 5 — SMM-based live patching time per CVE (us)");
  std::printf("%-16s %6s %8s %8s %8s %8s %8s %9s %9s\n", "CVE", "bytes",
              "Keygen", "Switch*", "Decrypt", "Verify", "Apply", "Total",
              "Modeled");
  bench::rule('-', 100);

  struct Row {
    std::string id;
    double keygen, sw, dec, ver, app;
  };
  std::vector<Row> rows;

  for (const std::string& id : cve::figure_case_ids()) {
    const auto& c = cve::find_case(id);
    auto tb = testbed::Testbed::boot(c, {.seed = 0xF15});
    if (!tb.is_ok()) {
      std::printf("%-16s boot failed\n", id.c_str());
      continue;
    }
    testbed::Testbed& t = **tb;

    const int n = 50;
    std::vector<double> kg, dec, ver, app, tot, modeled;
    double sw = 0;
    size_t bytes = 0;
    for (int i = 0; i < n; ++i) {
      auto rep = t.kshot().live_patch(c.id);
      if (!rep.is_ok() || !rep->success) break;
      kg.push_back(rep->smm.keygen_us);
      dec.push_back(rep->smm.decrypt_us);
      ver.push_back(rep->smm.verify_us);
      app.push_back(rep->smm.apply_us);
      tot.push_back(rep->smm.total_us);
      modeled.push_back(rep->smm.modeled_total_us);
      sw = rep->smm.switch_us;
      bytes = rep->stats.code_bytes;
      if (!t.kshot().rollback().is_ok()) break;
      t.kshot().enclave().reset_mem_x_cursor();
    }
    if (kg.empty()) continue;
    Row r{id, bench::stats_of(kg).mean, sw, bench::stats_of(dec).mean,
          bench::stats_of(ver).mean, bench::stats_of(app).mean};
    std::printf("%-16s %6zu %8.2f %8.2f %8.2f %8.2f %8.2f %9.2f %9.2f\n",
                id.c_str(), bytes, r.keygen, r.sw, r.dec, r.ver, r.app,
                bench::stats_of(tot).mean, bench::stats_of(modeled).mean);
    rows.push_back(r);
  }

  bench::rule('-', 100);
  std::printf(
      "* switching time is the calibrated virtual-time model (paper: 12.9us "
      "entry + 21.7us resume per SMI, two SMIs per patch).\n");

  // Stacked bars over the size-dependent phases.
  double max_total = 1e-9;
  for (const auto& r : rows) {
    max_total = std::max(max_total, r.dec + r.ver + r.app);
  }
  std::printf("\nSize-dependent phases (d=decrypt, V=verify, a=apply):\n");
  for (const auto& r : rows) {
    const int width = 60;
    std::printf("%-16s |", r.id.c_str());
    for (int i = 0; i < static_cast<int>(r.dec / max_total * width); ++i)
      std::putchar('d');
    for (int i = 0; i < static_cast<int>(r.ver / max_total * width); ++i)
      std::putchar('V');
    for (int i = 0; i < static_cast<int>(r.app / max_total * width); ++i)
      std::putchar('a');
    std::printf("\n");
  }
  std::printf(
      "\nShape check: larger patches need more patching time while keygen "
      "and switching stay\nconstant across all patches — matching the "
      "paper's Figure 5.\n");
  return 0;
}
