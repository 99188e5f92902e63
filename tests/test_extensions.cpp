// Tests for the extension features: constant folding, the §VIII consistency
// checker, signature-based function matching (stripped symbols), and the
// periodic-SMI introspection watchdog.
#include <gtest/gtest.h>

#include "attacks/rootkits.hpp"
#include "kcc/constfold.hpp"
#include "kcc/eval.hpp"
#include "kcc/parser.hpp"
#include "kcc/printer.hpp"
#include "patchtool/consistency.hpp"
#include "patchtool/matcher.hpp"
#include "testbed/testbed.hpp"

namespace kshot {
namespace {

kcc::CompileOptions opts() {
  kcc::CompileOptions o;
  o.text_base = 0x100000;
  o.data_base = 0x400000;
  return o;
}

// ---- Constant folding -----------------------------------------------------------

TEST(ConstFold, FoldsArithmetic) {
  auto m = kcc::parse("fn f() { return 2 + 3 * 4; }");
  ASSERT_TRUE(m.is_ok());
  kcc::run_constfold_pass(*m);
  EXPECT_EQ(kcc::to_source(m->functions[0]),
            "fn f() {\n  return 14;\n}\n");
}

TEST(ConstFold, PrunesDecidedBranches) {
  auto m = kcc::parse(R"(
fn f(a) {
  if (1 > 2) {
    return 111;
  } else {
    return 222;
  }
}
)");
  ASSERT_TRUE(m.is_ok());
  kcc::run_constfold_pass(*m);
  std::string folded = kcc::to_source(m->functions[0]);
  EXPECT_EQ(folded.find("111"), std::string::npos);
  EXPECT_NE(folded.find("222"), std::string::npos);
  EXPECT_EQ(folded.find("if"), std::string::npos);
}

TEST(ConstFold, DropsWhileZero) {
  auto m = kcc::parse("fn f() { while (0) { bug(1); } return 7; }");
  ASSERT_TRUE(m.is_ok());
  kcc::run_constfold_pass(*m);
  EXPECT_EQ(kcc::to_source(m->functions[0]).find("while"),
            std::string::npos);
}

TEST(ConstFold, PreservesDivByZeroOops) {
  auto m = kcc::parse("fn f() { return 5 / 0; }");
  ASSERT_TRUE(m.is_ok());
  kcc::run_constfold_pass(*m);
  // Must not fold: the runtime semantics are an oops.
  EXPECT_NE(kcc::to_source(m->functions[0]).find("/"), std::string::npos);
  kcc::AstEvaluator ev(*m);
  auto r = ev.call("f", {});
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->oops);
}

TEST(ConstFold, CompiledImageShrinks) {
  std::string src = "fn f(a) { return a + (2 * 3 + 4 * (5 + 6)); }";
  auto plain = kcc::compile_source(src, opts());
  kcc::CompileOptions fopts = opts();
  fopts.enable_constfold = true;
  auto folded = kcc::compile_source(src, fopts);
  ASSERT_TRUE(plain.is_ok() && folded.is_ok());
  EXPECT_LT(folded->find_symbol("f")->size, plain->find_symbol("f")->size);
}

TEST(ConstFold, WideImmediatesSurvive) {
  // Folding can create >32-bit constants; the wide-immediate emitter must
  // reproduce them exactly.
  std::string src = "fn f() { return 0x12345678 * 0x1000; }";
  kcc::CompileOptions fopts = opts();
  fopts.enable_constfold = true;
  auto img = kcc::compile_source(src, fopts);
  ASSERT_TRUE(img.is_ok());
  machine::Machine m(8 << 20, 0xA0000, 0x20000);
  ASSERT_TRUE(m.mem()
                  .write(img->text_base, img->text, machine::AccessMode::smm())
                  .is_ok());
  m.cpu().sp() = 0x400000 - 8;
  ASSERT_TRUE(m.mem()
                  .write_u64(m.cpu().sp(), machine::kReturnSentinel,
                             machine::AccessMode::normal())
                  .is_ok());
  m.cpu().rip = img->find_symbol("f")->addr;
  auto res = m.run(1000);
  EXPECT_EQ(res.kind, machine::StepKind::kRetTop);
  EXPECT_EQ(m.cpu().regs[0], 0x12345678ull * 0x1000ull);
}

// ---- Consistency checker (§VIII) -----------------------------------------------

TEST(Consistency, SafeWhenGlobalOnlyUsedByPatchedFunctions) {
  std::string pre = "global lim = 9; fn f(a) { return lim + a; }";
  std::string post =
      "global lim = 5; fn f(a) { if (a > lim) { return 0 - 22; } return lim "
      "+ a; }";
  auto pre_img = kcc::compile_source(pre, opts());
  auto post_img = kcc::compile_source(post, opts());
  auto post_mod = kcc::parse(post);
  ASSERT_TRUE(pre_img.is_ok() && post_img.is_ok() && post_mod.is_ok());
  auto diff = patchtool::diff_images(*pre_img, *post_img);
  ASSERT_TRUE(diff.is_ok());
  auto rep = patchtool::check_consistency(*post_mod, *post_img, *diff);
  EXPECT_TRUE(rep.safe)
      << (rep.warnings.empty() ? std::string() : rep.warnings[0]);
}

TEST(Consistency, WarnsWhenUnpatchedFunctionSharesGlobal) {
  // `other` uses `lim` too but the patch does not replace it — the §VIII
  // case KShot cannot handle.
  std::string pre = R"(
global lim = 9;
fn f(a) { return lim + a; }
fn other(a) { return lim * a; }
)";
  std::string post = R"(
global lim = 5;
fn f(a) { if (a > lim) { return 0 - 22; } return lim + a; }
fn other(a) { return lim * a; }
)";
  auto pre_img = kcc::compile_source(pre, opts());
  auto post_img = kcc::compile_source(post, opts());
  auto post_mod = kcc::parse(post);
  auto diff = patchtool::diff_images(*pre_img, *post_img);
  ASSERT_TRUE(diff.is_ok());
  auto rep = patchtool::check_consistency(*post_mod, *post_img, *diff);
  EXPECT_FALSE(rep.safe);
  ASSERT_EQ(rep.warnings.size(), 1u);
  EXPECT_NE(rep.warnings[0].find("other"), std::string::npos);
}

TEST(Consistency, TracksGlobalsThroughInlining) {
  // The shared use is hidden inside an inline helper expanded into an
  // unpatched caller; the checker must still find it.
  std::string pre = R"(
global state = 1;
inline fn touch(v) { return state + v; }
fn f(a) { return a; }
fn user(a) { return touch(a); }
)";
  std::string post = R"(
global state = 2;
inline fn touch(v) { return state + v; }
fn f(a) { let x = 1; return a + x * 0; }
fn user(a) { return touch(a); }
)";
  auto pre_img = kcc::compile_source(pre, opts());
  auto post_img = kcc::compile_source(post, opts());
  auto post_mod = kcc::parse(post);
  auto diff = patchtool::diff_images(*pre_img, *post_img);
  ASSERT_TRUE(diff.is_ok());
  auto rep = patchtool::check_consistency(*post_mod, *post_img, *diff);
  EXPECT_FALSE(rep.safe);
  bool mentions_user = false;
  for (const auto& w : rep.warnings) {
    if (w.find("user") != std::string::npos) mentions_user = true;
  }
  EXPECT_TRUE(mentions_user);
}

TEST(Consistency, AllTable1CasesAreSafe) {
  // The CVE suite deliberately stays within KShot's supported envelope; the
  // checker must agree (the paper reports ~2% of real CVEs fall outside).
  for (const auto& c : cve::all_cases()) {
    if (!c.has_type(3)) continue;  // only data-touching patches matter
    kernel::MemoryLayout lay;
    auto o = testbed::options_for_layout(lay, c.kernel);
    auto pre_img = kcc::compile_source(c.pre_source, o);
    auto post_img = kcc::compile_source(c.post_source, o);
    auto post_mod = kcc::parse(c.post_source);
    ASSERT_TRUE(pre_img.is_ok() && post_img.is_ok() && post_mod.is_ok());
    auto diff = patchtool::diff_images(*pre_img, *post_img);
    ASSERT_TRUE(diff.is_ok());
    auto rep = patchtool::check_consistency(*post_mod, *post_img, *diff);
    EXPECT_TRUE(rep.safe) << c.id << ": "
                          << (rep.warnings.empty() ? "" : rep.warnings[0]);
  }
}

// ---- Signature matcher -------------------------------------------------------------

TEST(Matcher, AlignsIdenticalImages) {
  std::string src = R"(
fn alpha(a) { return a + 1; }
fn beta(a) { return alpha(a) * 2; }
fn gamma(a) { return beta(a) - alpha(a); }
)";
  auto img = kcc::compile_source(src, opts());
  ASSERT_TRUE(img.is_ok());
  auto match = patchtool::match_functions(*img, *img);
  EXPECT_EQ(match.matches.size(), 3u);
  for (const auto& [post, pre] : match.matches) EXPECT_EQ(post, pre);
  EXPECT_TRUE(match.unmatched.empty());
}

TEST(Matcher, SurvivesRelocationShift) {
  // Growing the first function moves everything; signatures must still
  // align the unchanged functions.
  std::string pre = R"(
fn alpha(a) { return a + 1; }
fn beta(a) { return alpha(a) * 2; }
fn gamma(a) { return beta(a) - 7; }
)";
  std::string post = R"(
fn alpha(a) { pad(48); return a + 1; }
fn beta(a) { return alpha(a) * 2; }
fn gamma(a) { return beta(a) - 7; }
)";
  auto pre_img = kcc::compile_source(pre, opts());
  auto post_img = kcc::compile_source(post, opts());
  auto match = patchtool::match_functions(*pre_img, *post_img);
  EXPECT_EQ(match.matches.at("beta"), "beta");
  EXPECT_EQ(match.matches.at("gamma"), "gamma");
  // alpha changed, so it may be unmatched — but must not mis-match.
  if (match.matches.count("alpha")) {
    EXPECT_EQ(match.matches.at("alpha"), "alpha");
  }
}

TEST(Matcher, MatchesRenamedSymbols) {
  // Same code, stripped/renamed symbols: signature matching recovers the
  // correspondence without names.
  std::string pre = R"(
fn checksum(a, b) { let s = a + b; return s * 17; }
fn dispatch(a) { return checksum(a, 3) + 1; }
)";
  std::string post = R"(
fn sub_401000(a, b) { let s = a + b; return s * 17; }
fn sub_401040(a) { return sub_401000(a, 3) + 1; }
)";
  auto pre_img = kcc::compile_source(pre, opts());
  auto post_img = kcc::compile_source(post, opts());
  auto match = patchtool::match_functions(*pre_img, *post_img);
  EXPECT_EQ(match.matches.at("sub_401000"), "checksum");
  EXPECT_EQ(match.matches.at("sub_401040"), "dispatch");
}

TEST(Matcher, ReportsUnmatchedNewFunctions) {
  std::string pre = "fn f(a) { return a; }";
  std::string post =
      "fn f(a) { return a; } fn brand_new(a) { return a * 99 + 1; }";
  auto pre_img = kcc::compile_source(pre, opts());
  auto post_img = kcc::compile_source(post, opts());
  auto match = patchtool::match_functions(*pre_img, *post_img);
  ASSERT_EQ(match.unmatched.size(), 1u);
  EXPECT_EQ(match.unmatched[0], "brand_new");
}

// ---- Periodic-SMI introspection watchdog -----------------------------------------

TEST(Watchdog, PeriodicSmiFiresDuringExecution) {
  testbed::TestbedOptions o;
  o.workload_threads = 2;
  o.watchdog_interval_cycles = 50'000;
  auto tb = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"), o);
  ASSERT_TRUE(tb.is_ok());
  testbed::Testbed& t = **tb;
  u64 smis_before = t.machine().smi_count();
  t.scheduler().run(2000, 64);
  EXPECT_GT(t.machine().smi_count(), smis_before + 5);
}

TEST(Watchdog, AutonomouslyRepairsReversion) {
  // No explicit introspect() call anywhere: the firmware watchdog SMIs run
  // the sweep and keep beating the rootkit.
  testbed::TestbedOptions o;
  o.workload_threads = 2;
  o.watchdog_interval_cycles = 30'000;
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, o);
  ASSERT_TRUE(tb.is_ok());
  testbed::Testbed& t = **tb;

  auto rootkit =
      std::make_shared<attacks::ReversionRootkit>(t.pre_image());
  t.kernel().insmod(rootkit);
  ASSERT_TRUE(t.kshot().live_patch(c.id)->success);

  // Let rootkit and watchdog race for a while.
  t.scheduler().run(3000, 64);
  EXPECT_GT(rootkit->reversions(), 0u);

  // The watchdog must have the last word: one more sweep interval without
  // scheduler ticks (the rootkit only acts on ticks), then check.
  ASSERT_TRUE(t.kshot().introspect().is_ok());
  auto exploit = t.run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_FALSE(exploit->oops);
  EXPECT_GT(t.kshot().handler().last_introspection().patches_checked, 0u);
}

TEST(Watchdog, CannotBeArmedAfterLock) {
  auto tb = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"), {});
  ASSERT_TRUE(tb.is_ok());
  // install() already locked SMRAM.
  EXPECT_EQ((*tb)->machine().set_periodic_smi(1000).code(),
            Errc::kPermissionDenied);
}

}  // namespace
}  // namespace kshot
