// Differential testing of the whole compilation pipeline: randomly generated
// ksrc programs are executed both by the AST reference evaluator and by the
// machine (compiled with every optimization combination); results — values,
// oopses, trap codes, and final global state — must agree exactly.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "kcc/compiler.hpp"
#include "kcc/eval.hpp"
#include "kcc/parser.hpp"
#include "machine/machine.hpp"

namespace kshot::kcc {
namespace {

// ---- Random program generator ------------------------------------------------

class ProgramGen {
 public:
  explicit ProgramGen(u64 seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream src;
    int nglobals = 2 + static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < nglobals; ++i) {
      globals_.push_back("g" + std::to_string(i));
      src << "global g" << i << " = "
          << static_cast<i64>(rng_.next_below(200)) - 100 << ";\n";
    }
    // One inline helper of supported shape.
    src << "inline fn helper(h0) {\n"
        << "  let hv = h0 " << arith_op() << " "
        << (1 + rng_.next_below(9)) << ";\n"
        << "  if (hv > " << rng_.next_below(100) << ") {\n"
        << "    hv = hv & 1023;\n"
        << "  }\n"
        << "  return hv;\n"
        << "}\n";
    fns_.push_back({"helper", 1});

    int nfns = 2 + static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < nfns; ++i) {
      std::string name = "f" + std::to_string(i);
      int params = 1 + static_cast<int>(rng_.next_below(2));
      src << "fn " << name << "(";
      std::vector<std::string> scope;
      for (int p = 0; p < params; ++p) {
        if (p) src << ", ";
        src << "p" << p;
        scope.push_back("p" + std::to_string(p));
      }
      src << ") {\n";
      gen_block(src, scope, 1, 3);
      src << "  return " << expr(scope, 2) << ";\n}\n";
      fns_.push_back({name, params});
    }
    entry_ = fns_.back().first;
    entry_params_ = fns_.back().second;
    return src.str();
  }

  const std::string& entry() const { return entry_; }
  int entry_params() const { return entry_params_; }
  const std::vector<std::string>& globals() const { return globals_; }
  Rng& rng() { return rng_; }

 private:
  std::string arith_op() {
    static const char* kOps[] = {"+", "-", "*", "&", "|", "^", "%", "/",
                                 "<<", ">>"};
    return kOps[rng_.next_below(10)];
  }
  std::string cmp_op() {
    static const char* kOps[] = {"<", "<=", ">", ">=", "==", "!="};
    return kOps[rng_.next_below(6)];
  }

  std::string expr(const std::vector<std::string>& scope, int depth) {
    u64 pick = rng_.next_below(depth <= 0 ? 3 : 6);
    switch (pick) {
      case 0:
        return std::to_string(static_cast<i64>(rng_.next_below(64)) - 8);
      case 1:
        // Occasionally a constant needing the wide-immediate path.
        if (rng_.next_below(8) == 0) return "0x1234567890";
        return std::to_string(rng_.next_below(1000));
      case 2:
        if (!scope.empty()) return scope[rng_.next_below(scope.size())];
        return globals_[rng_.next_below(globals_.size())];
      case 3:
        return globals_[rng_.next_below(globals_.size())];
      case 4: {
        // Call an earlier function (no recursion -> guaranteed termination).
        if (fns_.empty()) return "1";
        auto& [name, arity] = fns_[rng_.next_below(fns_.size())];
        std::string call = name + "(";
        for (int i = 0; i < arity; ++i) {
          if (i) call += ", ";
          call += expr(scope, depth - 1);
        }
        return call + ")";
      }
      default: {
        const char* op = rng_.next_below(4) == 0 ? nullptr : nullptr;
        (void)op;
        bool cmp = rng_.next_below(5) == 0;
        return "(" + expr(scope, depth - 1) + " " +
               (cmp ? cmp_op() : arith_op()) + " " + expr(scope, depth - 1) +
               ")";
      }
    }
  }

  void gen_block(std::ostringstream& src, std::vector<std::string>& scope,
                 int indent, int budget) {
    std::string ind(static_cast<size_t>(indent) * 2, ' ');
    int stmts = 1 + static_cast<int>(rng_.next_below(4));
    for (int s = 0; s < stmts && budget > 0; ++s) {
      switch (rng_.next_below(6)) {
        case 0: {  // let
          std::string name =
              "v" + std::to_string(indent) + "_" + std::to_string(s) + "_" +
              std::to_string(rng_.next_below(1000));
          src << ind << "let " << name << " = " << expr(scope, 2) << ";\n";
          scope.push_back(name);
          break;
        }
        case 1:  // assign local or global
          if (!scope.empty() && rng_.next_below(2) == 0) {
            src << ind << scope[rng_.next_below(scope.size())] << " = "
                << expr(scope, 2) << ";\n";
          } else {
            src << ind << globals_[rng_.next_below(globals_.size())] << " = "
                << expr(scope, 2) << ";\n";
          }
          break;
        case 2: {  // if/else
          src << ind << "if (" << expr(scope, 1) << " " << cmp_op() << " "
              << expr(scope, 1) << ") {\n";
          size_t mark = scope.size();
          gen_block(src, scope, indent + 1, budget - 1);
          scope.resize(mark);
          src << ind << "} else {\n";
          gen_block(src, scope, indent + 1, budget - 1);
          scope.resize(mark);
          src << ind << "}\n";
          break;
        }
        case 3: {  // bounded while
          std::string i = "i" + std::to_string(indent) + "_" +
                          std::to_string(rng_.next_below(1000));
          src << ind << "let " << i << " = 0;\n";
          src << ind << "while (" << i << " < "
              << (1 + rng_.next_below(6)) << ") {\n";
          src << ind << "  " << i << " = " << i << " + 1;\n";
          size_t mark = scope.size();
          scope.push_back(i);
          gen_block(src, scope, indent + 1, budget - 2);
          scope.resize(mark);
          src << ind << "}\n";
          break;
        }
        case 4:  // guarded bug
          if (rng_.next_below(3) == 0) {
            src << ind << "if (" << expr(scope, 1) << " == "
                << rng_.next_below(16) << ") {\n"
                << ind << "  bug(" << (1 + rng_.next_below(200)) << ");\n"
                << ind << "}\n";
          }
          break;
        default:  // expression statement (call for effect)
          src << ind << expr(scope, 2) << ";\n";
          break;
      }
    }
  }

  Rng rng_;
  std::vector<std::string> globals_;
  std::vector<std::pair<std::string, int>> fns_;
  std::string entry_;
  int entry_params_ = 1;
};

// ---- Machine-side executor -----------------------------------------------------

struct MachineWorld {
  machine::Machine m{16 << 20, 0xA0000, 0x20000};
  KernelImage img;
  bool ok = false;

  explicit MachineWorld(const Module& mod, const CompileOptions& opts) {
    auto compiled = compile_module(mod, opts);
    if (!compiled.is_ok()) {
      ADD_FAILURE() << "compile failed: " << compiled.status().to_string();
      return;
    }
    img = std::move(*compiled);
    if (!m.mem()
             .write(img.text_base, img.text, machine::AccessMode::smm())
             .is_ok()) {
      ADD_FAILURE() << "text load failed";
      return;
    }
    Bytes data = img.data_image();
    if (!data.empty() &&
        !m.mem().write(img.data_base, data, machine::AccessMode::smm())
             .is_ok()) {
      ADD_FAILURE() << "data load failed";
      return;
    }
    ok = true;
  }

  struct Outcome {
    bool oops = false;
    u64 trap = 0;
    u64 value = 0;
    bool completed = true;
  };

  Outcome call(const std::string& fn, const std::vector<u64>& args) {
    Outcome out;
    const Symbol* sym = img.find_symbol(fn);
    if (sym == nullptr) {
      out.completed = false;
      return out;
    }
    auto& cpu = m.cpu();
    cpu = machine::CpuState{};
    for (size_t i = 0; i < args.size(); ++i) cpu.regs[1 + i] = args[i];
    cpu.sp() = (12 << 20) - 8;
    EXPECT_TRUE(m.mem()
                    .write_u64(cpu.sp(), machine::kReturnSentinel,
                               machine::AccessMode::normal())
                    .is_ok());
    cpu.rip = sym->addr;
    auto res = m.run(20'000'000);
    switch (res.kind) {
      case machine::StepKind::kRetTop:
        out.value = cpu.regs[0];
        break;
      case machine::StepKind::kOops:
        out.oops = true;
        out.trap = res.info;
        break;
      default:
        out.completed = false;
    }
    return out;
  }

  Result<u64> global(const std::string& name) {
    const GlobalSym* g = img.find_global(name);
    if (!g) return Status{Errc::kNotFound, "no global"};
    return m.mem().read_u64(g->addr, machine::AccessMode::normal());
  }
};

// ---- The differential test ---------------------------------------------------

// gtest labels each case with the param's raw bytes. The six bytes after
// the flags are a named, zeroed member rather than padding, so the label is
// the same in every build of the same source.
struct FuzzConfig {
  u64 seed;
  bool inlining;
  bool constfold;
  u8 zero[6] = {};
};
static_assert(sizeof(FuzzConfig) == 16, "every byte of the label is a member");

class DifferentialFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(DifferentialFuzz, CompiledMatchesEvaluator) {
  FuzzConfig cfg = GetParam();
  ProgramGen gen(cfg.seed);
  std::string source = gen.generate();

  auto mod = parse(source);
  ASSERT_TRUE(mod.is_ok()) << mod.status().to_string() << "\n" << source;

  CompileOptions opts;
  opts.text_base = 0x100000;
  opts.data_base = 0x400000;
  opts.enable_inlining = cfg.inlining;
  opts.enable_constfold = cfg.constfold;

  MachineWorld world(*mod, opts);
  ASSERT_TRUE(world.ok);
  AstEvaluator ref(*mod);

  Rng args_rng(cfg.seed ^ 0xA46);
  for (int round = 0; round < 10; ++round) {
    std::vector<u64> args;
    for (int i = 0; i < gen.entry_params(); ++i) {
      args.push_back(args_rng.next_below(2000));
    }
    auto expect = ref.call(gen.entry(), args);
    ASSERT_TRUE(expect.is_ok()) << expect.status().to_string();

    auto got = world.call(gen.entry(), args);
    ASSERT_TRUE(got.completed) << "machine did not finish\n" << source;
    EXPECT_EQ(got.oops, expect->oops) << "round " << round << "\n" << source;
    if (expect->oops) {
      EXPECT_EQ(got.trap, expect->trap_code) << source;
      // A kernel oops desynchronizes global state between the two worlds
      // (the machine stops mid-statement); stop comparing further rounds.
      break;
    }
    EXPECT_EQ(got.value, expect->value) << "round " << round << "\n" << source;

    for (const auto& g : gen.globals()) {
      auto mg = world.global(g);
      auto eg = ref.global(g);
      ASSERT_TRUE(mg.is_ok() && eg.is_ok());
      EXPECT_EQ(*mg, *eg) << "global " << g << " diverged\n" << source;
    }
  }
}

std::vector<FuzzConfig> fuzz_configs() {
  std::vector<FuzzConfig> configs;
  for (u64 seed = 1; seed <= 25; ++seed) {
    configs.push_back({seed, true, false});
    configs.push_back({seed, false, false});
    configs.push_back({seed, true, true});
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, DifferentialFuzz, ::testing::ValuesIn(fuzz_configs()),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      const FuzzConfig& c = info.param;
      return "seed" + std::to_string(c.seed) +
             (c.inlining ? "_inline" : "_noinline") +
             (c.constfold ? "_fold" : "");
    });

}  // namespace
}  // namespace kshot::kcc
