// Zero-copy copy accounting: on the staged hot path the span parser copies
// package bytes exactly once per package — the SMM commit write. Every
// earlier stage (envelope decrypt, package parse, installed-body retention)
// borrows from the SMRAM copy of the sealed envelope. DESIGN.md §15 has the
// span ownership rule this relies on.
#include <gtest/gtest.h>

#include "core/kshot.hpp"
#include "cve/suite.hpp"
#include "obs/metrics.hpp"
#include "testbed/testbed.hpp"

namespace kshot {
namespace {

TEST(ZeroCopyCounters, StagedPathCopiesExactlyOncePerPackage) {
  {
    obs::MetricsRegistry reg;
    testbed::TestbedOptions topts;
    topts.seed = 0x5EED;
    topts.metrics = &reg;
    auto tb = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"),
                                     std::move(topts));
    ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
    auto rep = (*tb)->kshot().live_patch("CVE-2014-0196");
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    ASSERT_TRUE(rep->success);
    EXPECT_EQ(reg.counter("smm.staged_copies").value(), 1u);
  }

  // A three-package batch under one SMI: one SMM write per package.
  const std::vector<std::string> ids = {"CVE-2016-2543", "CVE-2016-4578",
                                        "CVE-2016-4580"};
  auto batch = cve::combine_cases(ids);
  ASSERT_TRUE(batch.is_ok()) << batch.status().to_string();
  auto parts = cve::batch_part_cases(ids);
  ASSERT_TRUE(parts.is_ok()) << parts.status().to_string();
  obs::MetricsRegistry reg;
  testbed::TestbedOptions topts;
  topts.seed = 0x5EED;
  topts.metrics = &reg;
  auto tb = testbed::Testbed::boot(batch->merged, std::move(topts));
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  for (const auto& p : *parts) {
    (*tb)->server().add_patch({p.id, p.kernel, p.pre_source, p.post_source});
  }
  auto rep = (*tb)->kshot().live_patch_batch(ids);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);
  EXPECT_EQ(reg.counter("smm.staged_copies").value(), 3u);
}

}  // namespace
}  // namespace kshot
