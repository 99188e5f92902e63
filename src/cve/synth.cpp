#include "cve/synth.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "kcc/compiler.hpp"
#include "kcc/eval.hpp"
#include "kcc/mutate.hpp"
#include "kcc/parser.hpp"
#include "kcc/printer.hpp"
#include "machine/machine.hpp"

namespace kshot::cve {

namespace {

using kcc::BinOp;
using kcc::Expr;
using kcc::ExprPtr;
using kcc::Stmt;
using kcc::StmtPtr;

/// SplitMix64 finalizer — the seed stream backbone: every derived quantity
/// (knobs, traps, args, filler constants) is a pure function of it.
u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string hex16(u64 v) {
  char b[17];
  std::snprintf(b, sizeof(b), "%016llx", static_cast<unsigned long long>(v));
  return b;
}

// ---- AST construction helpers ---------------------------------------------

ExprPtr num(i64 v) { return Expr::make_num(v); }
ExprPtr var(std::string n) { return Expr::make_var(std::move(n)); }
ExprPtr bin(BinOp op, ExprPtr l, ExprPtr r) {
  return Expr::make_bin(op, std::move(l), std::move(r));
}
ExprPtr call1(std::string n, ExprPtr a) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(a));
  return Expr::make_call(std::move(n), std::move(args));
}
ExprPtr call0(std::string n) { return Expr::make_call(std::move(n), {}); }
/// The canonical fixed-return value `(0 - 22)`.
ExprPtr einval_expr() { return bin(BinOp::kSub, num(0), num(22)); }

StmtPtr s_let(std::string name, ExprPtr v) {
  auto s = std::make_unique<Stmt>();
  s->kind = Stmt::Kind::kLet;
  s->name = std::move(name);
  s->value = std::move(v);
  return s;
}
StmtPtr s_assign(std::string name, ExprPtr v) {
  auto s = std::make_unique<Stmt>();
  s->kind = Stmt::Kind::kAssign;
  s->name = std::move(name);
  s->value = std::move(v);
  return s;
}
StmtPtr s_ret(ExprPtr v) {
  auto s = std::make_unique<Stmt>();
  s->kind = Stmt::Kind::kReturn;
  s->value = std::move(v);
  return s;
}
StmtPtr s_if(ExprPtr cond, std::vector<StmtPtr> body) {
  auto s = std::make_unique<Stmt>();
  s->kind = Stmt::Kind::kIf;
  s->cond = std::move(cond);
  s->body = std::move(body);
  return s;
}
StmtPtr s_while(ExprPtr cond, std::vector<StmtPtr> body) {
  auto s = std::make_unique<Stmt>();
  s->kind = Stmt::Kind::kWhile;
  s->cond = std::move(cond);
  s->body = std::move(body);
  return s;
}
StmtPtr s_bug(i64 code) {
  auto s = std::make_unique<Stmt>();
  s->kind = Stmt::Kind::kBug;
  s->num = code;
  return s;
}
StmtPtr s_pad(i64 n) {
  auto s = std::make_unique<Stmt>();
  s->kind = Stmt::Kind::kPad;
  s->num = n;
  return s;
}

/// Deterministic side-effect-free filler lines (matches the suite idiom).
void add_filler(std::vector<StmtPtr>& body, const std::string& src_var,
                int count, u64 salt) {
  for (int i = 0; i < count; ++i) {
    u64 m = mix64(salt + static_cast<u64>(i));
    char fname[16];
    std::snprintf(fname, sizeof(fname), "f%d", i);
    body.push_back(s_let(
        fname,
        bin(BinOp::kMul,
            bin(BinOp::kAdd, var(src_var), num(3 + static_cast<i64>(m % 97))),
            num(2 + static_cast<i64>((m >> 32) % 9)))));
  }
}

/// The -EINVAL guard the fix plants: `if (<cond>) { [audit bump] return
/// (0 - 22); }`. This is the one statement kcc/mutate.* rewrites to derive
/// the vulnerable source.
StmtPtr make_guard(ExprPtr cond, const std::string& audit) {
  std::vector<StmtPtr> body;
  if (!audit.empty()) {
    body.push_back(
        s_assign(audit, bin(BinOp::kAdd, var(audit), num(1))));
  }
  body.push_back(s_ret(einval_expr()));
  return s_if(std::move(cond), std::move(body));
}

/// The inline-safe guard form: inline functions may not return early, so
/// the fix clamps the result variable to -EINVAL and the caller's
/// propagation check turns that into the syscall's -EINVAL. Recognized by
/// the same kcc/mutate.* matcher as the return form.
StmtPtr make_guard_assign(ExprPtr cond, const std::string& audit,
                          const std::string& result_var) {
  std::vector<StmtPtr> body;
  if (!audit.empty()) {
    body.push_back(
        s_assign(audit, bin(BinOp::kAdd, var(audit), num(1))));
  }
  body.push_back(s_assign(result_var, einval_expr()));
  return s_if(std::move(cond), std::move(body));
}

kcc::Function make_fn(std::string name, std::vector<std::string> params,
                      std::vector<StmtPtr> body, bool is_inline) {
  kcc::Function f;
  f.name = std::move(name);
  f.params = std::move(params);
  f.body = std::move(body);
  f.is_inline = is_inline;
  return f;
}

/// Leading pad used on size-neutral cases before equalization against the
/// compiled symbol sizes.
constexpr i64 kBasePad = 32;

struct Blueprint {
  kcc::Module tail;        // the fixed (post) tail
  std::string entry;
  std::string guarded_fn;  // holds the -EINVAL guard (the planted site)
  std::string audit;       // post-only global, or empty
  std::vector<std::string> emitted;  // every synthesized function name
};

/// Builds the FIXED tail module for one case. The vulnerable tail is then
/// derived by mutation in make_case (fix-first construction).
Blueprint build_post_tail(const SynthKnobs& k, u64 seed, u8 trap,
                          const SynthOptions& o) {
  Blueprint bp;
  std::string tag = bug_class_tag(k.bug_class);
  for (auto& c : tag) c = static_cast<char>(c - 'A' + 'a');
  const std::string pfx = tag + "_" + hex16(seed) + "_";
  const i64 limit = static_cast<i64>(k.limit);
  const i64 fault_limit = limit + (o.misplant_off_by_one ? 1 : 0);

  bp.entry = pfx + "entry";
  bp.audit = k.add_global_fix ? pfx + "audit" : "";
  if (!bp.audit.empty()) bp.tail.globals.push_back({bp.audit, 0});

  // The flawed function's name and the name the entry's call chain starts
  // at (filled in below once the intermediates exist).
  std::string flawed;
  auto push = [&](kcc::Function f) {
    bp.emitted.push_back(f.name);
    bp.tail.functions.push_back(std::move(f));
  };

  switch (k.bug_class) {
    case BugClass::kOobWrite: {
      // Copy loop past a synthesized buffer of `limit` slots: the loop body
      // models the machine check that fires when the write runs past the
      // buffer. The fix validates the requested length up front. The inline
      // variant (no loops or early returns allowed) compresses the copy to
      // a bounded-summary expression guarded by the assignment-form fix.
      flawed = pfx + "copy";
      std::vector<StmtPtr> body;
      if (k.inline_flaw) {
        add_filler(body, "n", k.filler_lines, mix64(seed ^ 0xF111));
        body.push_back(s_let(
            "r", bin(BinOp::kAdd,
                     bin(BinOp::kMul, call1("k_hash", var("n")), num(2)),
                     num(1))));
        body.push_back(make_guard_assign(
            bin(BinOp::kGt, var("n"), num(limit)), bp.audit, "r"));
        body.push_back(s_ret(var("r")));
        push(make_fn(flawed, {"n"}, std::move(body), true));
        break;
      }
      if (k.size_neutral_fix && k.guard_in_helper) {
        body.push_back(s_pad(kBasePad));
      }
      add_filler(body, "n", k.filler_lines, mix64(seed ^ 0xF111));
      if (k.guard_in_helper) {
        body.push_back(
            make_guard(bin(BinOp::kGt, var("n"), num(limit)), bp.audit));
      }
      body.push_back(s_let("i", num(0)));
      body.push_back(s_let("acc", num(0)));
      {
        std::vector<StmtPtr> loop;
        std::vector<StmtPtr> fault;
        fault.push_back(s_bug(trap));
        loop.push_back(s_if(bin(BinOp::kGe, var("i"), num(fault_limit)),
                            std::move(fault)));
        loop.push_back(s_assign(
            "acc", bin(BinOp::kAdd, var("acc"), call1("k_hash", var("i")))));
        loop.push_back(s_assign("i", bin(BinOp::kAdd, var("i"), num(1))));
        body.push_back(
            s_while(bin(BinOp::kLt, var("i"), var("n")), std::move(loop)));
      }
      body.push_back(s_ret(bin(BinOp::kAdd, var("acc"), num(1))));
      push(make_fn(flawed, {"n"}, std::move(body), false));
      break;
    }
    case BugClass::kMissingCheck: {
      // Privileged helper that faults on out-of-range input; the checked
      // wrapper is where the fix plants (or the attacker-controlled
      // argument bypasses) the bounds/permission validation. The inline
      // variant makes the helper total and puts the fault at the guard
      // itself (trap-swap derivation).
      std::string priv = pfx + "priv";
      {
        std::vector<StmtPtr> body;
        add_filler(body, "x", 1, mix64(seed ^ 0x9B1BULL));
        if (!k.inline_flaw) {
          std::vector<StmtPtr> fault;
          fault.push_back(s_bug(trap));
          body.push_back(s_if(bin(BinOp::kGt, var("x"), num(fault_limit)),
                              std::move(fault)));
        }
        body.push_back(s_ret(bin(
            BinOp::kAdd,
            call1("k_hash", bin(BinOp::kAnd, var("x"), num(1048575))),
            num(7))));
        push(make_fn(priv, {"x"}, std::move(body), false));
      }
      flawed = pfx + "check";
      std::vector<StmtPtr> body;
      if (k.inline_flaw) {
        add_filler(body, "x", k.filler_lines, mix64(seed ^ 0xC44C));
        body.push_back(s_let("r", call1(priv, var("x"))));
        body.push_back(make_guard_assign(
            bin(BinOp::kGt, var("x"), num(limit)), bp.audit, "r"));
        body.push_back(s_ret(var("r")));
        push(make_fn(flawed, {"x"}, std::move(body), true));
        break;
      }
      if (k.size_neutral_fix && k.guard_in_helper) {
        body.push_back(s_pad(kBasePad));
      }
      add_filler(body, "x", k.filler_lines, mix64(seed ^ 0xC44C));
      if (k.guard_in_helper) {
        body.push_back(
            make_guard(bin(BinOp::kGt, var("x"), num(limit)), bp.audit));
      }
      body.push_back(s_let("v", call1(priv, var("x"))));
      body.push_back(s_ret(var("v")));
      push(make_fn(flawed, {"x"}, std::move(body), false));
      break;
    }
    case BugClass::kTypeConfusion: {
      // Dispatch table: selector bits route to typed handlers; an
      // out-of-range selector lands on the wrong-type handler, which traps.
      // The fix validates the selector before dispatching.
      std::string h0 = pfx + "op0", h1 = pfx + "op1", bad = pfx + "bad";
      {
        std::vector<StmtPtr> body;
        body.push_back(
            s_ret(bin(BinOp::kAdd, call1("k_hash", var("x")), num(11))));
        push(make_fn(h0, {"x"}, std::move(body), false));
      }
      {
        std::vector<StmtPtr> body;
        body.push_back(s_ret(
            bin(BinOp::kMul, bin(BinOp::kAnd, var("x"), num(4095)), num(3))));
        push(make_fn(h1, {"x"}, std::move(body), false));
      }
      flawed = pfx + "dispatch";
      std::vector<StmtPtr> body;
      if (k.inline_flaw) {
        // Inline dispatch: handlers assign into a result variable (no early
        // returns), and the out-of-range selector is the guard itself.
        add_filler(body, "v", k.filler_lines, mix64(seed ^ 0xD157));
        body.push_back(s_let("op", bin(BinOp::kShr, var("v"), num(12))));
        body.push_back(s_let("x", bin(BinOp::kAnd, var("v"), num(4095))));
        body.push_back(s_let("r", num(0)));
        {
          std::vector<StmtPtr> then0;
          then0.push_back(s_assign("r", call1(h0, var("x"))));
          body.push_back(
              s_if(bin(BinOp::kEq, var("op"), num(0)), std::move(then0)));
          std::vector<StmtPtr> then1;
          then1.push_back(s_assign("r", call1(h1, var("x"))));
          body.push_back(
              s_if(bin(BinOp::kEq, var("op"), num(1)), std::move(then1)));
        }
        body.push_back(make_guard_assign(
            bin(BinOp::kGt, var("op"), num(1)), bp.audit, "r"));
        body.push_back(s_ret(var("r")));
        push(make_fn(flawed, {"v"}, std::move(body), true));
        break;
      }
      {
        std::vector<StmtPtr> body2;
        body2.push_back(s_bug(trap));
        body2.push_back(s_ret(num(0)));
        push(make_fn(bad, {"x"}, std::move(body2), false));
      }
      if (k.size_neutral_fix && k.guard_in_helper) {
        body.push_back(s_pad(kBasePad));
      }
      add_filler(body, "v", k.filler_lines, mix64(seed ^ 0xD157));
      body.push_back(s_let("op", bin(BinOp::kShr, var("v"), num(12))));
      body.push_back(s_let("x", bin(BinOp::kAnd, var("v"), num(4095))));
      if (k.guard_in_helper) {
        body.push_back(
            make_guard(bin(BinOp::kGt, var("op"), num(1)), bp.audit));
      }
      {
        std::vector<StmtPtr> then0;
        then0.push_back(s_ret(call1(h0, var("x"))));
        body.push_back(
            s_if(bin(BinOp::kEq, var("op"), num(0)), std::move(then0)));
        std::vector<StmtPtr> then1;
        then1.push_back(s_ret(call1(h1, var("x"))));
        body.push_back(
            s_if(bin(BinOp::kEq, var("op"), num(1)), std::move(then1)));
      }
      body.push_back(s_ret(call1(bad, var("x"))));
      push(make_fn(flawed, {"v"}, std::move(body), false));
      break;
    }
  }

  // Pass-through call chain between the entry and the flawed function
  // (depth knob): c1 -> c2 -> ... -> flawed. Emitted callee-first.
  std::string next = flawed;
  for (int j = k.helpers - 1; j >= 1; --j) {
    std::string name = pfx + "c" + std::to_string(j);
    std::vector<StmtPtr> body;
    add_filler(body, "x", 1, mix64(seed ^ (0xCA11 + static_cast<u64>(j))));
    body.push_back(s_let("v", call1(next, var("x"))));
    body.push_back(s_ret(var("v")));
    push(make_fn(name, {"x"}, std::move(body), false));
    next = name;
  }
  // `next` now names the first function the entry calls. Reversing gives
  // source order c1, c2, ...; emission above already placed callees first.
  std::reverse(bp.tail.functions.end() -
                   static_cast<std::ptrdiff_t>(std::max(0, k.helpers - 1)),
               bp.tail.functions.end());

  // Syscall entry: account, filler, optional up-front guard, call the
  // chain, propagate the fix's -EINVAL, hash the result.
  {
    std::vector<StmtPtr> body;
    if (k.size_neutral_fix && !k.guard_in_helper) {
      body.push_back(s_pad(kBasePad));
    }
    body.push_back(s_let("t", call0("k_account")));
    add_filler(body, "a1", std::min(k.filler_lines, 3),
               mix64(seed ^ 0xE117));
    if (!k.guard_in_helper) {
      ExprPtr cond =
          k.bug_class == BugClass::kTypeConfusion
              ? bin(BinOp::kGt, bin(BinOp::kShr, var("a1"), num(12)), num(1))
              : bin(BinOp::kGt, var("a1"), num(limit));
      body.push_back(make_guard(std::move(cond), bp.audit));
    }
    body.push_back(s_let("v", call1(next, var("a1"))));
    {
      std::vector<StmtPtr> prop;
      prop.push_back(s_ret(einval_expr()));
      body.push_back(
          s_if(bin(BinOp::kEq, var("v"), einval_expr()), std::move(prop)));
    }
    body.push_back(s_ret(bin(
        BinOp::kAdd,
        bin(BinOp::kAdd, call1("k_hash", var("v")),
            bin(BinOp::kMul, var("t"), num(0))),
        num(1))));
    push(make_fn(bp.entry, {"a1", "a2"}, std::move(body), false));
  }

  bp.guarded_fn = k.guard_in_helper ? flawed : bp.entry;
  return bp;
}

kcc::Function* find_mut(kcc::Module& m, const std::string& name) {
  for (auto& f : m.functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

/// Lines present in `b` but not in `a` (multiset difference) — a cheap,
/// deterministic stand-in for patch LoC.
int diff_line_count(const std::string& a, const std::string& b) {
  std::multiset<std::string> left;
  std::istringstream ia(a);
  for (std::string l; std::getline(ia, l);) left.insert(l);
  int only = 0;
  std::istringstream ib(b);
  for (std::string l; std::getline(ib, l);) {
    auto it = left.find(l);
    if (it != left.end()) {
      left.erase(it);
    } else {
      ++only;
    }
  }
  return only;
}

}  // namespace

const char* bug_class_tag(BugClass c) {
  switch (c) {
    case BugClass::kOobWrite: return "OOB";
    case BugClass::kMissingCheck: return "CHK";
    case BugClass::kTypeConfusion: return "DSP";
  }
  return "?";
}

Result<BugClass> bug_class_from_tag(const std::string& tag) {
  if (tag == "OOB") return BugClass::kOobWrite;
  if (tag == "CHK") return BugClass::kMissingCheck;
  if (tag == "DSP") return BugClass::kTypeConfusion;
  return Status{Errc::kInvalidArgument, "unknown bug class tag: " + tag};
}

void normalize_knobs(SynthKnobs& k) {
  k.filler_lines = std::clamp(k.filler_lines, 0, 8);
  k.helpers = std::clamp(k.helpers, 1, 3);
  // Upper bound keeps the OOB exploit's pre-trap loop well inside the
  // machine probe's instruction budget in the differential oracle.
  k.limit = std::clamp<u64>(k.limit, 8, 8192);
  // A splice needs one non-inline symbol whose fixed body fits the old
  // footprint: inlining smears the diff across callers, and an added
  // global changes the data segment.
  if (k.size_neutral_fix) {
    k.inline_flaw = false;
    k.add_global_fix = false;
  }
  // An inline flaw IS the planted site; the guard must live there.
  if (k.inline_flaw) k.guard_in_helper = true;
}

SynthKnobs knobs_for_seed(BugClass cls, u64 seed) {
  Rng r(mix64(seed ^ (0xC1A55ULL * (static_cast<u64>(cls) + 1))));
  SynthKnobs k;
  k.bug_class = cls;
  k.inline_flaw = r.next_below(3) == 0;
  k.guard_in_helper = r.next_below(3) != 0;
  k.add_global_fix = r.next_below(4) == 0;
  k.size_neutral_fix = r.next_below(4) == 0;
  k.filler_lines = static_cast<int>(r.next_below(6));
  k.helpers = 1 + static_cast<int>(r.next_below(3));
  k.limit = 64ull << r.next_below(6);  // 64 .. 2048
  normalize_knobs(k);
  return k;
}

std::string synth_id(BugClass cls, u64 seed) {
  return std::string("SYNTH-") + bug_class_tag(cls) + "-" + hex16(seed);
}

Result<std::pair<BugClass, u64>> parse_synth_id(const std::string& id) {
  // SYNTH-<TAG>-<16 hex>
  if (id.size() != 6 + 3 + 1 + 16 || id.compare(0, 6, "SYNTH-") != 0 ||
      id[9] != '-') {
    return Status{Errc::kInvalidArgument, "not a synth id: " + id};
  }
  auto cls = bug_class_from_tag(id.substr(6, 3));
  if (!cls) return cls.status();
  u64 seed = 0;
  for (size_t i = 10; i < id.size(); ++i) {
    char c = id[i];
    int nib;
    if (c >= '0' && c <= '9') {
      nib = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nib = c - 'a' + 10;
    } else {
      return Status{Errc::kInvalidArgument, "bad synth id seed: " + id};
    }
    seed = (seed << 4) | static_cast<u64>(nib);
  }
  return std::make_pair(*cls, seed);
}

u64 synth_case_seed(u64 campaign_seed, u32 index) {
  return mix64(campaign_seed +
               (static_cast<u64>(index) + 1) * 0x9e3779b97f4a7c15ULL);
}

Result<SynthCase> make_case(BugClass cls, u64 seed, const SynthOptions& o) {
  return make_case(knobs_for_seed(cls, seed), seed, o);
}

Result<SynthCase> make_case(const SynthKnobs& knobs_in, u64 seed,
                            const SynthOptions& o) {
  SynthCase sc;
  sc.knobs = knobs_in;
  normalize_knobs(sc.knobs);
  if (o.misplant_off_by_one) {
    // The seam mis-plants the numeric fault-site limit, which only exists
    // in the guard-drop shapes: trap-swap derivations (inline or
    // size-neutral) keep the guard itself as the fault, where the limit is
    // the guard constant. Pin the shape so the mis-plant is always live.
    sc.knobs.inline_flaw = false;
    sc.knobs.size_neutral_fix = false;
  }
  sc.seed = seed;
  const SynthKnobs& k = sc.knobs;

  const u64 m = mix64(seed ^ 0x5EED5EEDULL);
  const u8 trap = static_cast<u8>(60 + m % 180);

  Blueprint bp = build_post_tail(k, seed, trap, o);

  // Derive the vulnerable tail by mutating a clone of the fixed one.
  kcc::Module pre = bp.tail.clone();
  kcc::Function* guarded = find_mut(pre, bp.guarded_fn);
  if (guarded == nullptr) {
    return Status{Errc::kInternal,
                  "synth: guarded function missing: " + bp.guarded_fn};
  }
  if (k.size_neutral_fix || k.inline_flaw) {
    // The guard is itself the fault site: keep the compare, swap the
    // rejection for the trap. (Inline flaws can't drop the guard — there is
    // no separate fault statement to fall through to.)
    if (!kcc::trap_einval_guard(*guarded, trap)) {
      return Status{Errc::kInternal, "synth: no guard to trap-swap"};
    }
  } else {
    if (!kcc::drop_einval_guard(*guarded)) {
      return Status{Errc::kInternal, "synth: no guard to drop"};
    }
  }
  if (!bp.audit.empty() && !kcc::drop_global(pre, bp.audit)) {
    return Status{Errc::kInternal, "synth: audit global missing"};
  }

  const std::string base = base_kernel_source();
  auto full = [&](const kcc::Module& tail) {
    return base + "\n" + kcc::to_source(tail);
  };

  if (k.size_neutral_fix) {
    // Pad-equalize against the compiled symbol sizes: the fixed body must
    // fit the vulnerable body's footprint for the enclave's in-place
    // splice. nop == 1 byte, so the adjustment is exact.
    kcc::CompileOptions copts;
    auto pre_img = kcc::compile_source(full(pre), copts);
    if (!pre_img) return pre_img.status();
    auto post_img = kcc::compile_source(full(bp.tail), copts);
    if (!post_img) return post_img.status();
    const kcc::Symbol* ps = pre_img->find_symbol(bp.guarded_fn);
    const kcc::Symbol* qs = post_img->find_symbol(bp.guarded_fn);
    if (ps == nullptr || qs == nullptr) {
      return Status{Errc::kInternal, "synth: guarded symbol not linked"};
    }
    if (qs->size > ps->size) {
      i64 delta = static_cast<i64>(qs->size) - static_cast<i64>(ps->size);
      if (!kcc::set_leading_pad(*guarded, kBasePad + delta)) {
        return Status{Errc::kInternal, "synth: no pad to equalize"};
      }
    }
  }

  CveCase& c = sc.cve;
  c.id = synth_id(k.bug_class, seed);
  c.kernel = "sim-4.4";
  c.trap_code = trap;
  c.syscall_nr = 200 + static_cast<int>((m >> 8) % 1000000);
  c.entry_function = bp.entry;
  c.pre_source = full(pre);
  c.post_source = full(bp.tail);
  c.types = k.inline_flaw ? "2" : "1";
  if (k.add_global_fix) c.types += ",3";

  sc.changed_functions = {bp.guarded_fn};
  sc.added_global = bp.audit;
  c.functions = {bp.guarded_fn};
  if (bp.entry != bp.guarded_fn) c.functions.push_back(bp.entry);
  if (!bp.audit.empty()) c.functions.push_back(bp.audit);

  // Probe inputs. The exploit is the MINIMAL out-of-range input, so an
  // off-by-one mis-plant (SynthOptions seam) is observable.
  u64 benign_small = 3 + ((m >> 16) % 48);
  switch (k.bug_class) {
    case BugClass::kOobWrite:
    case BugClass::kMissingCheck:
      c.exploit_args = {k.limit + 1, 1, 0, 0, 0};
      c.benign_args = {std::min<u64>(benign_small, k.limit - 1), 2, 0, 0, 0};
      break;
    case BugClass::kTypeConfusion: {
      u64 bad_op = 2 + ((m >> 24) % 5);
      u64 x = (m >> 40) % 4095;
      c.exploit_args = {(bad_op << 12) | x, 1, 0, 0, 0};
      c.benign_args = {(((m >> 33) % 2) << 12) | (x ^ 1), 2, 0, 0, 0};
      break;
    }
  }
  c.patch_loc = std::max(
      1, diff_line_count(kcc::to_source(pre), kcc::to_source(bp.tail)));
  return sc;
}

// ---- Oracle stack ----------------------------------------------------------

namespace {

Result<kcc::EvalOutcome> eval_probe(const kcc::Module& m,
                                    const std::string& entry,
                                    const std::vector<u64>& args) {
  // Fresh evaluator per probe: globals must start from their initializers,
  // like the machine probes (which rewrite the data image).
  kcc::AstEvaluator ev(m);
  return ev.call(entry, args);
}

std::vector<u64> args_for(const kcc::Function& entry,
                          const std::array<u64, 5>& a) {
  return std::vector<u64>(a.begin(),
                          a.begin() + static_cast<std::ptrdiff_t>(
                                          std::min<size_t>(entry.params.size(),
                                                           a.size())));
}

/// Evaluator-vs-machine differential for one module under two optimization
/// configs (the PR 4 kcc-surface pattern): oops/trap/value and every
/// global's final state must agree for both the benign and exploit inputs.
Status differential_check(const kcc::Module& mod, const CveCase& c,
                          const std::vector<u64>& exploit,
                          const std::vector<u64>& benign,
                          const char* which) {
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
    auto img = kcc::compile_module(mod, kConfigs[ci]);
    if (!img) {
      return Status{img.status().code(),
                    std::string(which) + " failed to compile (config " +
                        std::to_string(ci) + "): " + img.status().message()};
    }
    const kcc::Symbol* sym = img->find_symbol(c.entry_function);
    if (sym == nullptr) {
      return Status{Errc::kInternal,
                    std::string(which) + ": entry symbol missing"};
    }
    machine::Machine m{16 << 20, 0xA0000, 0x20000};
    KSHOT_RETURN_IF_ERROR(
        m.mem().write(img->text_base, img->text, machine::AccessMode::smm()));
    for (int round = 0; round < 2; ++round) {
      const std::vector<u64>& args = round == 0 ? benign : exploit;
      // Reset the data segment so both worlds start from initializers.
      Bytes data = img->data_image();
      if (!data.empty()) {
        KSHOT_RETURN_IF_ERROR(m.mem().write(img->data_base, data,
                                            machine::AccessMode::smm()));
      }
      auto expect = eval_probe(mod, c.entry_function, args);
      if (!expect) {
        return Status{expect.status().code(),
                      std::string(which) +
                          ": evaluator failed: " + expect.status().message()};
      }
      auto& cpu = m.cpu();
      cpu = machine::CpuState{};
      for (size_t i = 0; i < args.size(); ++i) cpu.regs[1 + i] = args[i];
      cpu.sp() = (12 << 20) - 8;
      KSHOT_RETURN_IF_ERROR(m.mem().write_u64(
          cpu.sp(), machine::kReturnSentinel, machine::AccessMode::normal()));
      cpu.rip = sym->addr;
      constexpr u64 kBudget = 20'000'000;
      auto res = m.run(kBudget);
      bool oops = res.kind == machine::StepKind::kOops;
      if (res.kind != machine::StepKind::kRetTop && !oops) {
        return Status{Errc::kInternal,
                      std::string(which) + ": machine did not complete: " +
                          machine::describe_stop(res, kBudget, cpu.rip)};
      }
      std::ostringstream why;
      if (oops != expect->oops) {
        why << "machine " << (oops ? "oopsed" : "returned") << ", evaluator "
            << (expect->oops ? "oopsed" : "returned");
      } else if (oops && res.info != expect->trap_code) {
        why << "trap " << res.info << " vs evaluator " << expect->trap_code;
      } else if (!oops && cpu.regs[0] != expect->value) {
        why << "value " << cpu.regs[0] << " vs evaluator " << expect->value;
      } else if (!oops) {
        kcc::AstEvaluator ref(mod);
        auto redo = ref.call(c.entry_function, args);
        if (!redo) return redo.status();
        for (const auto& g : mod.globals) {
          const kcc::GlobalSym* gs = img->find_global(g.name);
          auto eg = ref.global(g.name);
          if (gs == nullptr || !eg.is_ok()) continue;
          auto mg = m.mem().read_u64(gs->addr, machine::AccessMode::normal());
          if (mg.is_ok() && *mg != *eg) {
            why << "global " << g.name << " " << *mg << " vs evaluator "
                << *eg;
            break;
          }
        }
      }
      if (!why.str().empty()) {
        return Status{Errc::kInternal,
                      std::string("differential divergence (") + which +
                          ", config " + std::to_string(ci) + ", " +
                          (round == 0 ? "benign" : "exploit") +
                          "): " + why.str()};
      }
    }
  }
  return Status::ok();
}

/// Structural diff confinement: pre and post may differ only in the
/// declared changed functions plus the declared added global.
Status confinement_check(const kcc::Module& pre, const kcc::Module& post,
                         const SynthCase& sc) {
  std::map<std::string, const kcc::Function*> pre_fns, post_fns;
  for (const auto& f : pre.functions) pre_fns[f.name] = &f;
  for (const auto& f : post.functions) post_fns[f.name] = &f;
  std::set<std::string> changed(sc.changed_functions.begin(),
                                sc.changed_functions.end());
  for (const auto& [name, f] : post_fns) {
    auto it = pre_fns.find(name);
    if (it == pre_fns.end()) {
      return Status{Errc::kInternal,
                    "diff confinement: function only in post: " + name};
    }
    bool differs = kcc::to_source(*f) != kcc::to_source(*it->second);
    if (differs && changed.count(name) == 0) {
      return Status{Errc::kInternal,
                    "diff confinement: unplanted change in " + name};
    }
    if (!differs && changed.count(name) != 0) {
      return Status{Errc::kInternal,
                    "diff confinement: declared site unchanged: " + name};
    }
  }
  for (const auto& [name, f] : pre_fns) {
    (void)f;
    if (post_fns.count(name) == 0) {
      return Status{Errc::kInternal,
                    "diff confinement: function only in pre: " + name};
    }
  }
  std::map<std::string, i64> pre_globals;
  for (const auto& g : pre.globals) pre_globals[g.name] = g.init;
  for (const auto& g : post.globals) {
    auto it = pre_globals.find(g.name);
    if (it == pre_globals.end()) {
      if (g.name != sc.added_global) {
        return Status{Errc::kInternal,
                      "diff confinement: undeclared added global: " + g.name};
      }
      continue;
    }
    if (it->second != g.init) {
      return Status{Errc::kInternal,
                    "diff confinement: global initializer changed: " + g.name};
    }
    pre_globals.erase(it);
  }
  if (!pre_globals.empty()) {
    return Status{Errc::kInternal, "diff confinement: global dropped in post: " +
                                       pre_globals.begin()->first};
  }
  return Status::ok();
}

}  // namespace

Status check_case(const SynthCase& sc) {
  const CveCase& c = sc.cve;
  auto pre = kcc::parse(c.pre_source);
  if (!pre) {
    return Status{pre.status().code(),
                  "pre_source does not parse: " + pre.status().message()};
  }
  auto post = kcc::parse(c.post_source);
  if (!post) {
    return Status{post.status().code(),
                  "post_source does not parse: " + post.status().message()};
  }
  const kcc::Function* entry = post->find_function(c.entry_function);
  if (entry == nullptr) {
    return Status{Errc::kInternal, "entry function missing: " +
                                       c.entry_function};
  }
  std::vector<u64> exploit = args_for(*entry, c.exploit_args);
  std::vector<u64> benign = args_for(*entry, c.benign_args);

  // 1. Probe contract on the reference evaluator.
  auto pre_exp = eval_probe(*pre, c.entry_function, exploit);
  if (!pre_exp) return pre_exp.status();
  if (!pre_exp->oops) {
    return Status{Errc::kInternal,
                  "probe contract: exploit did not trap pre-patch (value " +
                      std::to_string(pre_exp->value) + ")"};
  }
  if (pre_exp->trap_code != c.trap_code) {
    return Status{Errc::kInternal,
                  "probe contract: pre-patch trap " +
                      std::to_string(pre_exp->trap_code) + " != planted " +
                      std::to_string(c.trap_code)};
  }
  auto post_exp = eval_probe(*post, c.entry_function, exploit);
  if (!post_exp) return post_exp.status();
  if (post_exp->oops) {
    return Status{Errc::kInternal,
                  "probe contract: exploit still traps post-patch (trap " +
                      std::to_string(post_exp->trap_code) + ")"};
  }
  if (post_exp->value != kEinval) {
    return Status{Errc::kInternal,
                  "probe contract: post-patch exploit returned " +
                      std::to_string(post_exp->value) + ", not -EINVAL"};
  }
  auto pre_ben = eval_probe(*pre, c.entry_function, benign);
  if (!pre_ben) return pre_ben.status();
  auto post_ben = eval_probe(*post, c.entry_function, benign);
  if (!post_ben) return post_ben.status();
  if (pre_ben->oops || post_ben->oops) {
    return Status{Errc::kInternal, "probe contract: benign input trapped"};
  }
  if (pre_ben->value != post_ben->value) {
    return Status{Errc::kInternal,
                  "probe contract: benign value diverged pre " +
                      std::to_string(pre_ben->value) + " vs post " +
                      std::to_string(post_ben->value)};
  }

  // 2. Evaluator-vs-machine differential on both sources.
  KSHOT_RETURN_IF_ERROR(differential_check(*pre, c, exploit, benign, "pre"));
  KSHOT_RETURN_IF_ERROR(
      differential_check(*post, c, exploit, benign, "post"));

  // 3. Structural diff confinement.
  return confinement_check(*pre, *post, sc);
}

// ---- resolve_case (declared in suite.hpp) ----------------------------------

Result<CveCase> resolve_case(const std::string& id) {
  for (const auto& c : all_cases()) {
    if (c.id == id) return c;
  }
  if (id.compare(0, 6, "SYNTH-") == 0) {
    auto parsed = parse_synth_id(id);
    if (!parsed) return parsed.status();
    auto sc = make_case(parsed->first, parsed->second);
    if (!sc) return sc.status();
    return sc->cve;
  }
  return Status{Errc::kNotFound, "unknown CVE id: " + id};
}

// ---- Supersede pair --------------------------------------------------------

Result<SupersedePair> make_supersede_pair(u64 seed) {
  const u64 m = mix64(seed ^ 0x50B3B5EDULL);
  const u8 trap_a = static_cast<u8>(60 + m % 90);
  const u8 trap_b = static_cast<u8>(trap_a + 90);
  const i64 limit_a = 1024, limit_b = 2048;
  const std::string pfx = "sup_" + hex16(seed) + "_";
  const std::string helper = pfx + "helper";
  const std::string entry = pfx + "entry";

  // Cumulative post: guard A in the entry (a1), guard B in the helper (a2);
  // both fault sites stay in place beneath the guards.
  kcc::Module cum;
  {
    std::vector<StmtPtr> body;
    body.push_back(make_guard(bin(BinOp::kGt, var("x"), num(limit_b)), ""));
    std::vector<StmtPtr> fault;
    fault.push_back(s_bug(trap_b));
    body.push_back(
        s_if(bin(BinOp::kGt, var("x"), num(limit_b)), std::move(fault)));
    body.push_back(
        s_ret(bin(BinOp::kAdd, call1("k_hash", var("x")), num(5))));
    cum.functions.push_back(make_fn(helper, {"x"}, std::move(body), false));
  }
  {
    std::vector<StmtPtr> body;
    body.push_back(s_let("t", call0("k_account")));
    body.push_back(make_guard(bin(BinOp::kGt, var("a1"), num(limit_a)), ""));
    std::vector<StmtPtr> fault;
    fault.push_back(s_bug(trap_a));
    body.push_back(
        s_if(bin(BinOp::kGt, var("a1"), num(limit_a)), std::move(fault)));
    body.push_back(s_let("v", call1(helper, var("a2"))));
    {
      std::vector<StmtPtr> prop;
      prop.push_back(s_ret(einval_expr()));
      body.push_back(
          s_if(bin(BinOp::kEq, var("v"), einval_expr()), std::move(prop)));
    }
    body.push_back(s_ret(bin(
        BinOp::kAdd,
        bin(BinOp::kAdd, call1("k_hash", var("a1")), var("v")),
        bin(BinOp::kMul, var("t"), num(0)))));
    cum.functions.push_back(
        make_fn(entry, {"a1", "a2"}, std::move(body), false));
  }

  // Shared vulnerable source: both guards dropped.
  kcc::Module pre = cum.clone();
  if (!kcc::drop_einval_guard(*find_mut(pre, helper)) ||
      !kcc::drop_einval_guard(*find_mut(pre, entry))) {
    return Status{Errc::kInternal, "supersede pair: guard derivation failed"};
  }
  // Partial fix: only guard A (drop the helper's guard from the cumulative).
  kcc::Module part = cum.clone();
  if (!kcc::drop_einval_guard(*find_mut(part, helper))) {
    return Status{Errc::kInternal, "supersede pair: partial derivation failed"};
  }

  const std::string base = base_kernel_source();
  auto full = [&](const kcc::Module& tail) {
    return base + "\n" + kcc::to_source(tail);
  };

  SupersedePair out;
  CveCase c;
  c.kernel = "sim-4.4";
  c.trap_code = trap_a;
  c.syscall_nr = 200 + static_cast<int>((m >> 8) % 1000000);
  c.entry_function = entry;
  c.exploit_args = {static_cast<u64>(limit_a) + 1, 7, 0, 0, 0};
  c.benign_args = {11, 7, 0, 0, 0};
  c.pre_source = full(pre);
  c.types = "1";

  out.partial = c;
  out.partial.id = "SYNTH-SUP-" + hex16(seed) + "-PART";
  out.partial.functions = {entry};
  out.partial.patch_loc = 3;
  out.partial.post_source = full(part);

  out.cumulative = c;
  out.cumulative.id = "SYNTH-SUP-" + hex16(seed) + "-CUM";
  out.cumulative.functions = {entry, helper};
  out.cumulative.patch_loc = 6;
  out.cumulative.post_source = full(cum);

  out.exploit_b = {11, static_cast<u64>(limit_b) + 1, 0, 0, 0};
  out.trap_b = trap_b;
  return out;
}

// ---- Campaign --------------------------------------------------------------

Result<CampaignReport> run_campaign(const CampaignOptions& opts) {
  if (opts.cases == 0) {
    return Status{Errc::kInvalidArgument, "synth campaign: cases must be > 0"};
  }
  if (opts.classes.empty()) {
    return Status{Errc::kInvalidArgument, "synth campaign: no bug classes"};
  }
  struct Slot {
    std::string id;
    SynthKnobs knobs;
    bool ok = false;
    bool live = false;
    std::string detail;
  };
  std::vector<Slot> slots(opts.cases);
  parallel_for(opts.cases, std::max<u32>(1, opts.jobs), [&](u32 i) {
    Slot& s = slots[i];
    BugClass cls = opts.classes[i % opts.classes.size()];
    u64 cs = synth_case_seed(opts.seed, i);
    s.id = synth_id(cls, cs);
    auto sc = make_case(cls, cs, opts.synth);
    if (!sc) {
      s.detail = sc.status().message();
      return;
    }
    s.knobs = sc->knobs;
    Status st = check_case(*sc);
    if (st.is_ok() && opts.live_probe && i < opts.live_cases) {
      s.live = true;
      st = opts.live_probe(*sc);
    }
    if (!st.is_ok()) {
      s.detail = st.message();
      return;
    }
    s.ok = true;
  });

  CampaignReport rep;
  rep.cases = opts.cases;
  struct Tally {
    u32 cases = 0, passed = 0;
  };
  std::map<std::string, Tally> by_class;
  u32 inline_n = 0, global_n = 0, neutral_n = 0, grown_n = 0, live_n = 0;
  std::ostringstream os;
  char seedbuf[32];
  std::snprintf(seedbuf, sizeof(seedbuf), "0x%llx",
                static_cast<unsigned long long>(opts.seed));
  os << "synth campaign: seed=" << seedbuf << " cases=" << opts.cases
     << " classes=";
  for (size_t i = 0; i < opts.classes.size(); ++i) {
    if (i) os << ",";
    os << bug_class_tag(opts.classes[i]);
  }
  os << "\n";
  std::ostringstream failures;
  for (u32 i = 0; i < opts.cases; ++i) {
    const Slot& s = slots[i];
    Tally& t = by_class[bug_class_tag(opts.classes[i % opts.classes.size()])];
    ++t.cases;
    if (s.ok) {
      ++t.passed;
      ++rep.passed;
    } else {
      ++rep.failed;
      failures << "  FAIL " << s.id << ": " << s.detail << "\n";
    }
    if (s.knobs.inline_flaw) ++inline_n;
    if (s.knobs.add_global_fix) ++global_n;
    if (s.knobs.size_neutral_fix) {
      ++neutral_n;
    } else {
      ++grown_n;
    }
    if (s.live) ++live_n;
  }
  for (const auto& [tag, t] : by_class) {
    os << "  " << tag << ": " << t.cases << " cases, " << t.passed
       << " passed\n";
  }
  os << "  shapes: inline=" << inline_n << " global_add=" << global_n
     << " size_neutral=" << neutral_n << " grown=" << grown_n << "\n";
  if (opts.live_cases > 0) os << "  live probes: " << live_n << "\n";
  os << failures.str();
  if (rep.failed == 0) {
    os << "synth: OK (" << rep.passed << "/" << rep.cases << " cases)\n";
  } else {
    os << "synth: FAIL (" << rep.failed << "/" << rep.cases
       << " cases failed)\n";
  }
  rep.report = os.str();
  return rep;
}

}  // namespace kshot::cve
