// SMM kernel-text guard tests (§IV-A "kernel introspection module for
// kernel protection"): any unauthorized kernel-text modification is detected
// and reverted from SMM, while KShot's own trampolines and the dynamic
// tracer's pad rewrites are recognized as legitimate.
#include <gtest/gtest.h>

#include "kernel/ftrace.hpp"
#include "testbed/testbed.hpp"

namespace kshot::core {
namespace {

using testbed::Testbed;

std::unique_ptr<Testbed> boot_guarded(const char* id = "CVE-2014-0196") {
  auto tb = Testbed::boot(cve::find_case(id), {});
  EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
  EXPECT_TRUE((*tb)->kshot().arm_kernel_guard().is_ok());
  return std::move(*tb);
}

TEST(KernelGuard, CleanKernelStaysClean) {
  auto t = boot_guarded();
  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_EQ(rep->text_bytes_restored, 0u);
  EXPECT_TRUE(rep->clean());
}

TEST(KernelGuard, DetectsAndRevertsBackdoor) {
  auto t = boot_guarded();
  // A rootkit plants a backdoor: an unconditional trap in the middle of
  // sys_hash (kernel text is writable at kernel privilege).
  const kcc::Symbol* sym = t->kernel().image().find_symbol("sys_hash");
  Bytes backdoor = {0x72, 0x66};  // trap 0x66
  ASSERT_TRUE(t->machine()
                  .mem()
                  .write(sym->addr + sym->size / 2, backdoor,
                         machine::AccessMode::normal())
                  .is_ok());
  // The write may land mid-instruction, so the symptom is either a clean
  // trap or an undecodable stream — any abnormal outcome counts.
  auto broken = t->run_syscall(cve::kSysHash, {3, 0, 0, 0, 0});
  EXPECT_TRUE(!broken.is_ok() || broken->oops);

  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_EQ(rep->text_bytes_restored, 2u);

  auto healed = t->run_syscall(cve::kSysHash, {3, 0, 0, 0, 0});
  ASSERT_TRUE(healed.is_ok());
  EXPECT_FALSE(healed->oops);
}

TEST(KernelGuard, WhitelistsKshotTrampolines) {
  auto t = boot_guarded();
  const auto& c = t->cve_case();
  ASSERT_TRUE(t->kshot().live_patch(c.id)->success);
  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_EQ(rep->text_bytes_restored, 0u)
      << "guard reverted KShot's own trampoline";
  auto exploit = t->run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_FALSE(exploit->oops);
}

TEST(KernelGuard, WhitelistsFtracePads) {
  auto t = boot_guarded();
  kernel::FtraceRuntime ftrace(t->kernel());
  ASSERT_TRUE(ftrace.install().is_ok());
  ASSERT_TRUE(ftrace.enable("sys_hash").is_ok());
  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_EQ(rep->text_bytes_restored, 0u)
      << "guard reverted the tracer's pad rewrite";
  // Tracing still works.
  ASSERT_TRUE(t->run_syscall(cve::kSysHash, {1, 0, 0, 0, 0}).is_ok());
  EXPECT_GE(*ftrace.hits(), 1u);
}

TEST(KernelGuard, RollbackRestoresPristineState) {
  auto t = boot_guarded();
  const auto& c = t->cve_case();
  ASSERT_TRUE(t->kshot().live_patch(c.id)->success);
  ASSERT_TRUE(t->kshot().rollback()->success);
  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok());
  EXPECT_EQ(rep->text_bytes_restored, 0u);
}

TEST(KernelGuard, GuardPlusWatchdogAutonomouslyHeals) {
  // Backdoor planted by a periodically acting rootkit; the periodic-SMI
  // watchdog (no explicit introspect calls) keeps reverting it.
  testbed::TestbedOptions o;
  o.workload_threads = 1;
  o.watchdog_interval_cycles = 30'000;
  auto tb = Testbed::boot(cve::find_case("CVE-2014-0196"), o);
  ASSERT_TRUE(tb.is_ok());
  Testbed& t = **tb;
  ASSERT_TRUE(t.kshot().arm_kernel_guard().is_ok());

  class BackdoorRootkit final : public kernel::KernelModule {
   public:
    explicit BackdoorRootkit(u64 addr) : addr_(addr) {}
    std::string name() const override { return "backdoor"; }
    void on_tick(machine::Machine& m, kernel::Kernel&) override {
      Bytes payload = {0x72, 0x66};
      ASSERT_TRUE(
          m.mem().write(addr_, payload, machine::AccessMode::normal()).is_ok());
      ++attempts;
    }
    u64 addr_;
    u64 attempts = 0;
  };
  const kcc::Symbol* sym = t.kernel().image().find_symbol("k_busy");
  auto rootkit = std::make_shared<BackdoorRootkit>(sym->addr + 20);
  t.kernel().insmod(rootkit);

  t.scheduler().run(2000, 64);
  EXPECT_GT(rootkit->attempts, 0u);
  // Remove the rootkit, let one more watchdog sweep pass, verify healed.
  ASSERT_TRUE(t.kernel().rmmod("backdoor").is_ok());
  ASSERT_TRUE(t.kshot().introspect().is_ok());
  auto r = t.run_syscall(cve::kSysBusy, {16, 0, 0, 0, 0});
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r->oops);
}

TEST(KernelGuard, RequiresInstall) {
  auto tb = Testbed::boot(cve::find_case("CVE-2014-0196"),
                          {.install_kshot = false});
  ASSERT_TRUE(tb.is_ok());
  EXPECT_EQ((*tb)->kshot().arm_kernel_guard().code(),
            Errc::kFailedPrecondition);
}

}  // namespace
}  // namespace kshot::core
