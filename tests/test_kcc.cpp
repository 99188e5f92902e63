// Compiler toolchain tests: lexer/parser, printer, inlining pass, code
// generation (validated by executing compiled code on the machine), and
// image linking.
#include <gtest/gtest.h>

#include "isa/isa.hpp"
#include "crypto/hmac.hpp"
#include "kcc/compiler.hpp"
#include "kcc/inline_pass.hpp"
#include "kcc/parser.hpp"
#include "kcc/printer.hpp"
#include "machine/machine.hpp"

namespace kshot::kcc {
namespace {

CompileOptions test_opts() {
  CompileOptions o;
  o.text_base = 0x10000;
  o.data_base = 0x80000;
  return o;
}

/// Compiles `src`, loads it into a machine, and calls `fn` with args.
struct ExecResult {
  machine::StepKind kind;
  u64 value = 0;
  u64 trap = 0;
};

ExecResult compile_and_run(const std::string& src, const std::string& fn,
                           std::vector<u64> args,
                           const CompileOptions& opts = test_opts()) {
  auto img = compile_source(src, opts);
  EXPECT_TRUE(img.is_ok()) << img.status().to_string();
  if (!img.is_ok()) return {machine::StepKind::kBadInstr, 0, 0};

  machine::Machine m(4 << 20, 0xA0000, 0x20000);
  EXPECT_TRUE(m.mem()
                  .write(opts.text_base, img->text,
                         machine::AccessMode::smm())
                  .is_ok());
  Bytes data = img->data_image();
  if (!data.empty()) {
    EXPECT_TRUE(m.mem()
                    .write(opts.data_base, data, machine::AccessMode::smm())
                    .is_ok());
  }
  const Symbol* sym = img->find_symbol(fn);
  EXPECT_NE(sym, nullptr) << fn << " not found";
  if (!sym) return {machine::StepKind::kBadInstr, 0, 0};

  auto& cpu = m.cpu();
  for (size_t i = 0; i < args.size(); ++i) cpu.regs[1 + i] = args[i];
  cpu.sp() = 0x200000 - 8;
  EXPECT_TRUE(m.mem()
                  .write_u64(cpu.sp(), machine::kReturnSentinel,
                             machine::AccessMode::normal())
                  .is_ok());
  cpu.rip = sym->addr;
  auto res = m.run(1'000'000);
  return {res.kind, m.cpu().regs[0], res.info};
}

// ---- Parser -----------------------------------------------------------------

TEST(Parser, MinimalFunction) {
  auto m = parse("fn f(a) { return a; }");
  ASSERT_TRUE(m.is_ok()) << m.status().to_string();
  ASSERT_EQ(m->functions.size(), 1u);
  EXPECT_EQ(m->functions[0].name, "f");
  EXPECT_EQ(m->functions[0].params.size(), 1u);
}

TEST(Parser, GlobalsAndModifiers) {
  auto m = parse(R"(
    global counter = 42;
    global neg = -7;
    inline fn helper(x) { return x + 1; }
    notrace fn raw() { return 0; }
  )");
  ASSERT_TRUE(m.is_ok()) << m.status().to_string();
  ASSERT_EQ(m->globals.size(), 2u);
  EXPECT_EQ(m->globals[0].init, 42);
  EXPECT_EQ(m->globals[1].init, -7);
  EXPECT_TRUE(m->functions[0].is_inline);
  EXPECT_TRUE(m->functions[1].notrace);
}

TEST(Parser, HexLiterals) {
  auto m = parse("fn f() { return 0xFF; }");
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m->functions[0].body[0]->value->num, 255);
}

TEST(Parser, SyntaxErrorsCarryLine) {
  auto m = parse("fn f() {\n  let x = ;\n}");
  ASSERT_FALSE(m.is_ok());
  EXPECT_NE(m.status().message().find("line 2"), std::string::npos);
}

TEST(Parser, RejectsUnterminatedBlock) {
  EXPECT_FALSE(parse("fn f() { return 1;").is_ok());
}

TEST(Parser, RejectsGarbageCharacter) {
  EXPECT_FALSE(parse("fn f() { return 1 @ 2; }").is_ok());
}

TEST(Printer, RoundTripsThroughParser) {
  std::string src = R"(
global g = 5;
fn f(a, b) {
  let x = (a + b) * 2;
  if (x > 10) {
    x = x - 1;
  } else {
    x = x + 1;
  }
  while (x > 0) {
    x = x - 3;
  }
  g = x;
  bug(7);
  pad(3);
  return x % 5;
}
)";
  auto m1 = parse(src);
  ASSERT_TRUE(m1.is_ok());
  std::string printed = to_source(*m1);
  auto m2 = parse(printed);
  ASSERT_TRUE(m2.is_ok()) << m2.status().to_string();
  EXPECT_EQ(printed, to_source(*m2));  // printer fixed point
}

// ---- Codegen via execution ------------------------------------------------

TEST(Codegen, ReturnsConstant) {
  auto r = compile_and_run("fn f() { return 42; }", "f", {});
  EXPECT_EQ(r.kind, machine::StepKind::kRetTop);
  EXPECT_EQ(r.value, 42u);
}

TEST(Codegen, Arithmetic) {
  auto r = compile_and_run(
      "fn f(a, b) { return (a + b) * (a - b) + a % b; }", "f", {10, 3});
  EXPECT_EQ(r.kind, machine::StepKind::kRetTop);
  EXPECT_EQ(r.value, 13u * 7u + 1u);
}

TEST(Codegen, Comparisons) {
  std::string src = "fn f(a, b) { return (a < b) + (a == b) * 10 + (a >= b) * 100; }";
  EXPECT_EQ(compile_and_run(src, "f", {1, 2}).value, 1u);
  EXPECT_EQ(compile_and_run(src, "f", {2, 2}).value, 110u);
  EXPECT_EQ(compile_and_run(src, "f", {3, 2}).value, 100u);
}

TEST(Codegen, IfElse) {
  std::string src = R"(
fn f(a) {
  if (a > 10) {
    return 1;
  } else {
    return 2;
  }
}
)";
  EXPECT_EQ(compile_and_run(src, "f", {11}).value, 1u);
  EXPECT_EQ(compile_and_run(src, "f", {10}).value, 2u);
}

TEST(Codegen, WhileLoopSum) {
  std::string src = R"(
fn f(n) {
  let i = 0;
  let acc = 0;
  while (i < n) {
    i = i + 1;
    acc = acc + i;
  }
  return acc;
}
)";
  EXPECT_EQ(compile_and_run(src, "f", {10}).value, 55u);
  EXPECT_EQ(compile_and_run(src, "f", {0}).value, 0u);
}

TEST(Codegen, FunctionCalls) {
  std::string src = R"(
fn sq(x) { return x * x; }
fn f(a, b) { return sq(a) + sq(b); }
)";
  EXPECT_EQ(compile_and_run(src, "f", {3, 4}).value, 25u);
}

TEST(Codegen, RecursionViaStackFrames) {
  std::string src = R"(
fn fact(n) {
  if (n < 2) {
    return 1;
  }
  return n * fact(n - 1);
}
)";
  EXPECT_EQ(compile_and_run(src, "fact", {10}).value, 3628800u);
}

TEST(Codegen, GlobalsReadWrite) {
  std::string src = R"(
global counter = 100;
fn f(a) {
  counter = counter + a;
  return counter;
}
)";
  EXPECT_EQ(compile_and_run(src, "f", {5}).value, 105u);
}

TEST(Codegen, BugStatementTraps) {
  auto r = compile_and_run("fn f(a) { if (a > 1) { bug(9); } return 0; }",
                           "f", {5});
  EXPECT_EQ(r.kind, machine::StepKind::kOops);
  EXPECT_EQ(r.trap, 9u);
}

TEST(Codegen, FallThroughReturnsZero) {
  auto r = compile_and_run("fn f(a) { let x = a + 1; }", "f", {7});
  EXPECT_EQ(r.kind, machine::StepKind::kRetTop);
  EXPECT_EQ(r.value, 0u);
}

TEST(Codegen, CallerSeesCalleeClobberSafe) {
  // Locals survive calls because they live in stack frames.
  std::string src = R"(
fn noisy(x) {
  let a = x * 2;
  let b = a + 3;
  return b;
}
fn f(p, q) {
  let keep = p * 100;
  let r = noisy(q);
  return keep + r;
}
)";
  EXPECT_EQ(compile_and_run(src, "f", {7, 5}).value, 700u + 13u);
}

TEST(Codegen, UnknownVariableFails) {
  auto img = compile_source("fn f() { return nosuch; }", test_opts());
  EXPECT_FALSE(img.is_ok());
  EXPECT_EQ(img.status().code(), Errc::kNotFound);
}

TEST(Codegen, UnknownFunctionFails) {
  auto img = compile_source("fn f() { return g(1); }", test_opts());
  EXPECT_FALSE(img.is_ok());
}

TEST(Codegen, TooManyArgsFails) {
  auto img = compile_source(
      "fn g(a,b,c,d,e,x) { return 0; } fn f() { return g(1,2,3,4,5,6); }",
      test_opts());
  EXPECT_FALSE(img.is_ok());
}

TEST(Codegen, PadEmitsNops) {
  CompileOptions o = test_opts();
  o.enable_ftrace = false;
  auto with = compile_source("fn f() { pad(40); return 1; }", o);
  auto without = compile_source("fn f() { return 1; }", o);
  ASSERT_TRUE(with.is_ok() && without.is_ok());
  EXPECT_EQ(with->find_symbol("f")->size,
            without->find_symbol("f")->size + 40);
}

// ---- ftrace pad --------------------------------------------------------------

TEST(Ftrace, TracedFunctionStartsWithNop5) {
  auto img = compile_source("fn f() { return 1; }", test_opts());
  ASSERT_TRUE(img.is_ok());
  auto body = img->function_bytes("f");
  ASSERT_TRUE(body.is_ok());
  EXPECT_EQ((*body)[0], 0x0F);
  EXPECT_EQ((*body)[1], 0x1F);
  EXPECT_TRUE(img->find_symbol("f")->traced);
}

TEST(Ftrace, NotraceSkipsPad) {
  auto img = compile_source("notrace fn f() { return 1; }", test_opts());
  ASSERT_TRUE(img.is_ok());
  auto body = img->function_bytes("f");
  EXPECT_NE((*body)[0], 0x0F);
  EXPECT_FALSE(img->find_symbol("f")->traced);
}

TEST(Ftrace, FirstRealInstructionIsAtLeastFiveBytes) {
  // Live-patch consistency invariant: no instruction boundary inside the
  // 5-byte trampoline window after the pad.
  auto img = compile_source("fn f(a) { return a; }", test_opts());
  ASSERT_TRUE(img.is_ok());
  auto body = img->function_bytes("f");
  auto d = isa::decode(ByteSpan(*body).subspan(5));
  ASSERT_TRUE(d.is_ok());
  EXPECT_GE(d->len, 5u);
}

// ---- Inlining ------------------------------------------------------------------

TEST(Inline, InlineFunctionDisappearsFromImage) {
  std::string src = R"(
inline fn helper(x) { return x * 2; }
fn f(a) { return helper(a) + 1; }
)";
  auto img = compile_source(src, test_opts());
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img->find_symbol("helper"), nullptr);
  EXPECT_NE(img->find_symbol("f"), nullptr);
  EXPECT_EQ(compile_and_run(src, "f", {21}).value, 43u);
}

TEST(Inline, DisabledInliningKeepsSymbol) {
  std::string src = R"(
inline fn helper(x) { return x * 2; }
fn f(a) { return helper(a) + 1; }
)";
  CompileOptions o = test_opts();
  o.enable_inlining = false;
  auto img = compile_source(src, o);
  ASSERT_TRUE(img.is_ok());
  EXPECT_NE(img->find_symbol("helper"), nullptr);
}

TEST(Inline, TransitiveInlining) {
  std::string src = R"(
inline fn a(x) { return x + 1; }
inline fn b(x) { return a(x) * 2; }
fn f(v) { return b(v); }
)";
  EXPECT_EQ(compile_and_run(src, "f", {5}).value, 12u);
  auto img = compile_source(src, test_opts());
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img->symbols.size(), 1u);
}

TEST(Inline, BodyWithLetsAndIf) {
  std::string src = R"(
inline fn clamp(v) {
  let r = v;
  if (v > 100) {
    r = 100;
  }
  return r;
}
fn f(a) { return clamp(a) + clamp(a * 2); }
)";
  EXPECT_EQ(compile_and_run(src, "f", {30}).value, 90u);
  EXPECT_EQ(compile_and_run(src, "f", {80}).value, 180u);
}

TEST(Inline, NestedCallArguments) {
  std::string src = R"(
inline fn inc(x) { return x + 1; }
fn f(a) { return inc(inc(inc(a))); }
)";
  EXPECT_EQ(compile_and_run(src, "f", {0}).value, 3u);
}

TEST(Inline, BugInsideInlineePropagates) {
  std::string src = R"(
inline fn check(v) {
  if (v > 10) {
    bug(5);
  }
  return v;
}
fn f(a) { return check(a); }
)";
  auto r = compile_and_run(src, "f", {11});
  EXPECT_EQ(r.kind, machine::StepKind::kOops);
  EXPECT_EQ(r.trap, 5u);
  EXPECT_EQ(compile_and_run(src, "f", {3}).value, 3u);
}

TEST(Inline, WhileInsideInlineRejected) {
  std::string src = R"(
inline fn bad(x) {
  while (x > 0) {
    x = x - 1;
  }
  return x;
}
fn f(a) { return bad(a); }
)";
  auto img = compile_source(src, test_opts());
  EXPECT_FALSE(img.is_ok());
  EXPECT_EQ(img.status().code(), Errc::kUnsupported);
}

TEST(Inline, InlineCallInLoopConditionRejected) {
  std::string src = R"(
inline fn limit() { return 5; }
fn f(a) {
  let i = 0;
  while (i < limit()) {
    i = i + 1;
  }
  return i;
}
)";
  EXPECT_FALSE(compile_source(src, test_opts()).is_ok());
}

TEST(Inline, InlineCallInLoopBodyAllowed) {
  std::string src = R"(
inline fn step(x) { return x + 2; }
fn f(n) {
  let i = 0;
  while (i < n) {
    i = step(i);
  }
  return i;
}
)";
  EXPECT_EQ(compile_and_run(src, "f", {10}).value, 10u);
}

// ---- Image / linking --------------------------------------------------------

TEST(Image, SymbolsHaveDistinctAlignedAddresses) {
  auto img = compile_source(
      "fn a() { return 1; } fn b() { return 2; } fn c() { return 3; }",
      test_opts());
  ASSERT_TRUE(img.is_ok());
  ASSERT_EQ(img->symbols.size(), 3u);
  for (size_t i = 1; i < img->symbols.size(); ++i) {
    EXPECT_GT(img->symbols[i].addr,
              img->symbols[i - 1].addr + img->symbols[i - 1].size - 1);
    EXPECT_EQ(img->symbols[i].addr % 16, 0u);
  }
}

TEST(Image, SymbolAtFindsContainingFunction) {
  auto img = compile_source("fn a() { return 1; } fn b() { return 2; }",
                            test_opts());
  ASSERT_TRUE(img.is_ok());
  const Symbol* a = img->find_symbol("a");
  const Symbol* b = img->find_symbol("b");
  EXPECT_EQ(img->symbol_at(a->addr + 3)->name, "a");
  EXPECT_EQ(img->symbol_at(b->addr)->name, "b");
  // Alignment padding between functions belongs to no symbol.
  if (a->addr + a->size < b->addr) {
    EXPECT_EQ(img->symbol_at(a->addr + a->size), nullptr);
  }
}

TEST(Image, MeasurementDetectsAnyChange) {
  auto img1 = compile_source("fn f() { return 1; }", test_opts());
  auto img2 = compile_source("fn f() { return 2; }", test_opts());
  ASSERT_TRUE(img1.is_ok() && img2.is_ok());
  EXPECT_FALSE(
      crypto::digest_equal(img1->measurement(), img2->measurement()));
}

TEST(Image, GlobalsLaidOutInOrder) {
  auto img = compile_source(
      "global a = 1; global b = 2; fn f() { return a + b; }", test_opts());
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img->find_global("a")->addr, test_opts().data_base);
  EXPECT_EQ(img->find_global("b")->addr, test_opts().data_base + 8);
  Bytes data = img->data_image();
  ASSERT_EQ(data.size(), 16u);
  EXPECT_EQ(data[0], 1);
  EXPECT_EQ(data[8], 2);
}

TEST(Image, FunctionBytesMatchesSymbolSize) {
  auto img = compile_source("fn f(a) { return a * 3; }", test_opts());
  ASSERT_TRUE(img.is_ok());
  auto body = img->function_bytes("f");
  ASSERT_TRUE(body.is_ok());
  EXPECT_EQ(body->size(), img->find_symbol("f")->size);
}

TEST(Image, MissingSymbolLookupFails) {
  auto img = compile_source("fn f() { return 1; }", test_opts());
  ASSERT_TRUE(img.is_ok());
  EXPECT_FALSE(img->function_bytes("nope").is_ok());
  EXPECT_EQ(img->find_global("nope"), nullptr);
}

}  // namespace
}  // namespace kshot::kcc
