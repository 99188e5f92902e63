// kcc surface: encoded cases are raw ksrc source text. Each case that parses
// and compiles is differential-tested — the compiled image running on the
// machine must agree with the AST reference evaluator on return values,
// oops/trap codes, and final global state, under two optimization configs.
// Argument vectors are derived from a hash of the source so execute() stays a
// pure function of the encoded bytes.
#include <sstream>

#include "fuzz/fuzz.hpp"
#include "kcc/compiler.hpp"
#include "kcc/eval.hpp"
#include "kcc/parser.hpp"
#include "machine/machine.hpp"

namespace kshot::fuzz {

namespace {

u64 fnv1a(ByteSpan bytes) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u8 b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Simplified clone of the test-suite ProgramGen: globals, one inline
/// helper, a few straight-line/branch/loop functions calling earlier ones
/// (no recursion, bounded loops), last function is the entry.
class SourceGen {
 public:
  explicit SourceGen(Rng& rng) : rng_(rng) {}

  std::string generate() {
    std::ostringstream src;
    int nglobals = 2 + static_cast<int>(rng_.next_below(2));
    for (int i = 0; i < nglobals; ++i) {
      globals_.push_back("g" + std::to_string(i));
      src << "global g" << i << " = "
          << static_cast<i64>(rng_.next_below(100)) - 50 << ";\n";
    }
    src << "inline fn helper(h0) {\n"
        << "  let hv = h0 " << arith_op() << " " << (1 + rng_.next_below(9))
        << ";\n  return hv;\n}\n";
    fns_.push_back({"helper", 1});
    int nfns = 2 + static_cast<int>(rng_.next_below(2));
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
      block(src, scope, 1);
      src << "  return " << expr(scope, 2) << ";\n}\n";
      fns_.push_back({name, params});
    }
    return src.str();
  }

 private:
  std::string arith_op() {
    static const char* kOps[] = {"+", "-", "*", "&", "|", "^", "%", "/"};
    return kOps[rng_.next_below(8)];
  }
  std::string cmp_op() {
    static const char* kOps[] = {"<", "<=", ">", ">=", "==", "!="};
    return kOps[rng_.next_below(6)];
  }

  std::string expr(const std::vector<std::string>& scope, int depth) {
    switch (rng_.next_below(depth <= 0 ? 2 : 5)) {
      case 0:
        return std::to_string(static_cast<i64>(rng_.next_below(64)) - 8);
      case 1:
        if (!scope.empty()) return scope[rng_.next_below(scope.size())];
        [[fallthrough]];
      case 2:
        return globals_[rng_.next_below(globals_.size())];
      case 3: {
        auto& [name, arity] = fns_[rng_.next_below(fns_.size())];
        std::string call = name + "(";
        for (int i = 0; i < arity; ++i) {
          if (i) call += ", ";
          call += expr(scope, depth - 1);
        }
        return call + ")";
      }
      default:
        return "(" + expr(scope, depth - 1) + " " +
               (rng_.next_below(5) == 0 ? cmp_op() : arith_op()) + " " +
               expr(scope, depth - 1) + ")";
    }
  }

  void block(std::ostringstream& src, std::vector<std::string>& scope,
             int indent) {
    std::string ind(static_cast<size_t>(indent) * 2, ' ');
    int stmts = 1 + static_cast<int>(rng_.next_below(3));
    for (int s = 0; s < stmts; ++s) {
      switch (rng_.next_below(5)) {
        case 0: {
          std::string name = "v" + std::to_string(indent) + "_" +
                             std::to_string(rng_.next_below(1000));
          src << ind << "let " << name << " = " << expr(scope, 2) << ";\n";
          scope.push_back(name);
          break;
        }
        case 1:
          src << ind << globals_[rng_.next_below(globals_.size())] << " = "
              << expr(scope, 2) << ";\n";
          break;
        case 2: {
          src << ind << "if (" << expr(scope, 1) << " " << cmp_op() << " "
              << expr(scope, 1) << ") {\n";
          size_t mark = scope.size();
          if (indent < 3) block(src, scope, indent + 1);
          scope.resize(mark);
          src << ind << "}\n";
          break;
        }
        case 3: {
          std::string i =
              "i" + std::to_string(indent) + std::to_string(rng_.next_below(100));
          src << ind << "let " << i << " = 0;\n"
              << ind << "while (" << i << " < " << (1 + rng_.next_below(5))
              << ") {\n"
              << ind << "  " << i << " = " << i << " + 1;\n";
          size_t mark = scope.size();
          scope.push_back(i);
          if (indent < 3) block(src, scope, indent + 1);
          scope.resize(mark);
          src << ind << "}\n";
          break;
        }
        default:
          if (rng_.next_below(4) == 0) {
            src << ind << "if (" << expr(scope, 1) << " == "
                << rng_.next_below(8) << ") {\n"
                << ind << "  bug(" << (1 + rng_.next_below(200)) << ");\n"
                << ind << "}\n";
          } else {
            src << ind << expr(scope, 2) << ";\n";
          }
          break;
      }
    }
  }

  Rng& rng_;
  std::vector<std::string> globals_;
  std::vector<std::pair<std::string, int>> fns_;
};

class KccSurface final : public Surface {
 public:
  const char* name() const override { return "kcc"; }

  Bytes generate(Rng& rng) override {
    SourceGen gen(rng);
    std::string src = gen.generate();
    if (rng.next_below(3) == 0) mutate(src, rng);
    return to_bytes(src);
  }

  Verdict execute(ByteSpan encoded) override;
  std::vector<Bytes> shrink_candidates(ByteSpan encoded, Rng& rng) override;

  std::string describe(ByteSpan encoded) const override {
    std::ostringstream os;
    os << "kcc source (" << encoded.size() << " bytes):\n"
       << std::string(encoded.begin(), encoded.end());
    return os.str();
  }

 private:
  static void mutate(std::string& src, Rng& rng);
};

void KccSurface::mutate(std::string& src, Rng& rng) {
  // Line-granular textual mutations: most results still parse, exercising
  // the compiler; the rest exercise parser rejection paths.
  size_t nmut = 1 + rng.next_below(2);
  for (size_t m = 0; m < nmut; ++m) {
    std::vector<std::string> lines;
    std::istringstream is(src);
    for (std::string l; std::getline(is, l);) lines.push_back(l);
    if (lines.empty()) return;
    switch (rng.next_below(4)) {
      case 0:  // delete a line
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(rng.next_below(lines.size())));
        break;
      case 1: {  // duplicate a line
        size_t i = rng.next_below(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
        break;
      }
      case 2: {  // swap one arithmetic operator on a random line
        std::string& l = lines[rng.next_below(lines.size())];
        static const char kOps[] = {'+', '-', '*', '&', '|', '^'};
        for (char& c : l) {
          if (c == kOps[rng.next_below(6)]) {
            c = kOps[rng.next_below(6)];
            break;
          }
        }
        break;
      }
      default:  // truncate the tail
        lines.resize(1 + rng.next_below(lines.size()));
        break;
    }
    std::ostringstream os;
    for (const auto& l : lines) os << l << "\n";
    src = os.str();
  }
}

Surface::Verdict KccSurface::execute(ByteSpan encoded) {
  Verdict v;
  std::string source(encoded.begin(), encoded.end());
  auto mod = kcc::parse(source);
  if (!mod.is_ok()) return v;  // clean parser rejection

  // Entry point: the last non-inline function, as the generator emits it.
  const kcc::Function* entry = nullptr;
  for (const auto& f : mod->functions) {
    if (!f.is_inline) entry = &f;
  }
  if (!entry || entry->params.size() > 5) return v;

  static const kcc::CompileOptions kConfigs[] = {
      {.text_base = 0x100000,
       .data_base = 0x400000,
       .enable_inlining = true,
       .enable_constfold = false},
      {.text_base = 0x100000,
       .data_base = 0x400000,
       .enable_inlining = true,
       .enable_constfold = true},
  };
  for (size_t ci = 0; ci < 2; ++ci) {
    auto img = kcc::compile_module(*mod, kConfigs[ci]);
    if (!img.is_ok()) return v;  // clean compiler rejection

    machine::Machine m{16 << 20, 0xA0000, 0x20000};
    if (!m.mem()
             .write(img->text_base, img->text, machine::AccessMode::smm())
             .is_ok()) {
      v.kind = Verdict::Kind::kSkipped;
      return v;
    }
    Bytes data = img->data_image();
    if (!data.empty() &&
        !m.mem().write(img->data_base, data, machine::AccessMode::smm())
             .is_ok()) {
      v.kind = Verdict::Kind::kSkipped;
      return v;
    }
    kcc::AstEvaluator ref(*mod);
    Rng args_rng(fnv1a(encoded) ^ (0xA46ULL + ci));
    for (int round = 0; round < 2; ++round) {
      std::vector<u64> args;
      for (size_t i = 0; i < entry->params.size(); ++i) {
        args.push_back(args_rng.next_below(2000));
      }
      auto expect = ref.call(entry->name, args);
      if (!expect.is_ok()) {
        // Step-budget / depth exhaustion: the reference can't judge it.
        v.kind = Verdict::Kind::kSkipped;
        return v;
      }
      const kcc::Symbol* sym = img->find_symbol(entry->name);
      if (!sym) {
        v.failure = {"differential-divergence",
                     "entry symbol missing from compiled image: " +
                         entry->name};
        return v;
      }
      auto& cpu = m.cpu();
      cpu = machine::CpuState{};
      for (size_t i = 0; i < args.size(); ++i) cpu.regs[1 + i] = args[i];
      cpu.sp() = (12 << 20) - 8;
      if (!m.mem()
               .write_u64(cpu.sp(), machine::kReturnSentinel,
                          machine::AccessMode::normal())
               .is_ok()) {
        v.kind = Verdict::Kind::kSkipped;
        return v;
      }
      cpu.rip = sym->addr;
      auto res = m.run(20'000'000);
      bool oops = res.kind == machine::StepKind::kOops;
      if (res.kind != machine::StepKind::kRetTop && !oops) {
        // Instruction budgets differ between the worlds; don't call a
        // near-boundary timeout a divergence.
        v.kind = Verdict::Kind::kSkipped;
        return v;
      }
      std::ostringstream why;
      if (oops != expect->oops) {
        why << "config " << ci << " round " << round << ": machine "
            << (oops ? "oopsed" : "returned") << ", evaluator "
            << (expect->oops ? "oopsed" : "returned");
      } else if (oops && res.info != expect->trap_code) {
        why << "config " << ci << " round " << round << ": trap "
            << res.info << " vs " << expect->trap_code;
      } else if (!oops && cpu.regs[0] != expect->value) {
        why << "config " << ci << " round " << round << ": value "
            << cpu.regs[0] << " vs " << expect->value;
      } else if (!oops) {
        for (const auto& g : mod->globals) {
          const kcc::GlobalSym* gs = img->find_global(g.name);
          auto eg = ref.global(g.name);
          if (!gs || !eg.is_ok()) continue;
          auto mg = m.mem().read_u64(gs->addr, machine::AccessMode::normal());
          if (mg.is_ok() && *mg != *eg) {
            why << "config " << ci << " round " << round << ": global "
                << g.name << " " << *mg << " vs " << *eg;
            break;
          }
        }
      }
      if (!why.str().empty()) {
        v.failure = {"differential-divergence", why.str()};
        return v;
      }
      // An oops desynchronizes global state between worlds; stop rounds.
      if (oops) break;
    }
  }
  v.kind = Verdict::Kind::kAccepted;
  return v;
}

std::vector<Bytes> KccSurface::shrink_candidates(ByteSpan encoded, Rng& rng) {
  // Line-granular shrinking: drop single lines and halving ranges.
  std::vector<Bytes> out;
  std::string src(encoded.begin(), encoded.end());
  std::vector<std::string> lines;
  std::istringstream is(src);
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  size_t n = lines.size();
  if (n <= 1) return Surface::shrink_candidates(encoded, rng);
  auto emit = [&](size_t from, size_t len) {
    std::ostringstream os;
    for (size_t i = 0; i < n; ++i) {
      if (i >= from && i < from + len) continue;
      os << lines[i] << "\n";
    }
    Bytes b = to_bytes(os.str());
    if (b.size() < encoded.size()) out.push_back(std::move(b));
  };
  for (size_t chunk = n / 2; chunk >= 1; chunk /= 2) {
    for (size_t off = 0; off < n && out.size() < 64; off += chunk) {
      emit(off, std::min(chunk, n - off));
    }
    if (out.size() >= 64) break;
  }
  return out;
}

}  // namespace

std::unique_ptr<Surface> make_kcc_surface() {
  return std::make_unique<KccSurface>();
}

}  // namespace kshot::fuzz
