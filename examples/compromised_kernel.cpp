// The headline scenario (paper §I/§VI-D): the kernel is already compromised
// by a rootkit that actively fights live patching. The OS-trusting patcher
// (kpatch) silently loses; KShot's SMM-based pipeline survives.
//
//   $ ./examples/compromised_kernel
#include <cstdio>

#include "attacks/rootkits.hpp"
#include "baselines/kpatch_sim.hpp"
#include "testbed/testbed.hpp"

using namespace kshot;

namespace {

bool exploit_fires(testbed::Testbed& t) {
  auto r = t.run_exploit();
  return r.is_ok() && r->oops;
}

}  // namespace

int main() {
  const auto& c = cve::find_case("CVE-2016-5195");  // Dirty-COW-inspired
  std::printf("== Patching a compromised kernel: %s ==\n\n", c.id.c_str());

  // ---- Round 1: kpatch on the compromised kernel -------------------------
  {
    auto tb = testbed::Testbed::boot(c, {.seed = 0xBAD});
    testbed::Testbed& t = **tb;
    auto rootkit =
        std::make_shared<attacks::ReversionRootkit>(t.pre_image());
    t.kernel().insmod(rootkit);
    std::printf("[round 1] rootkit resident; deploying patch with "
                "kpatch-style in-kernel patcher...\n");

    baselines::KpatchSim kpatch(t.kernel(), t.scheduler());
    auto set = t.server().build_patchset(c.id, t.kernel().os_info());
    auto rep = kpatch.apply(*set);
    std::printf("  kpatch reports: %s\n",
                rep->success ? "SUCCESS" : rep->detail.c_str());
    std::printf("  exploit immediately after:   %s\n",
                exploit_fires(t) ? "fires" : "dead");

    t.scheduler().run(3);  // the rootkit gets a tick
    std::printf("  exploit a few ticks later:   %s   (rootkit reverted %llu "
                "trampolines)\n",
                exploit_fires(t) ? "FIRES AGAIN" : "dead",
                static_cast<unsigned long long>(rootkit->reversions()));
    std::printf("  kpatch has no idea anything happened.\n\n");
  }

  // ---- Round 2: KShot on the same compromised kernel ----------------------
  {
    auto tb = testbed::Testbed::boot(c, {.seed = 0xBAD});
    testbed::Testbed& t = **tb;
    auto rootkit =
        std::make_shared<attacks::ReversionRootkit>(t.pre_image());
    t.kernel().insmod(rootkit);
    std::printf("[round 2] same rootkit; deploying with KShot...\n");

    auto rep = t.kshot().live_patch(c.id);
    std::printf("  KShot reports: %s\n",
                rep.is_ok() && rep->success ? "SUCCESS" : "failure");

    t.scheduler().run(3);
    bool reverted = exploit_fires(t);
    std::printf("  rootkit reverts the trampoline:  exploit %s\n",
                reverted ? "fires (as expected)" : "dead");

    // Periodic SMM introspection is part of the deployment (§V-D); the
    // rootkit cannot block or observe it.
    auto rep2 = t.kshot().introspect();
    std::printf("  SMM introspection: %u trampolines repaired, %u bodies, "
                "%u page attrs\n",
                rep2->trampolines_reverted, rep2->memx_tampered,
                rep2->attrs_restored);
    bool still = exploit_fires(t);
    std::printf("  exploit after introspection:  %s\n",
                still ? "STILL FIRES" : "dead");

    // The rootkit keeps trying; a periodic introspection sweep keeps
    // winning because the detection+repair runs at a privilege the kernel
    // cannot touch.
    t.scheduler().run(3);
    if (!t.kshot().introspect().is_ok()) return 1;
    std::printf("  after another attack/introspect round: exploit %s\n\n",
                exploit_fires(t) ? "fires" : "dead");

    std::printf("Conclusion: the in-kernel patcher's work is silently "
                "undone; KShot detects and repairs\nreversion from SMM, "
                "which the compromised kernel can neither block nor "
                "forge.\n");
    return still ? 1 : 0;
  }
}
