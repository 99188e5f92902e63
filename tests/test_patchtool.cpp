// Patch toolchain tests: call graphs, the inlining worklist, semantic binary
// diffing (relocation-shift immunity), patch-set construction (relocs, var
// edits, Type classification), and the Fig. 3 package wire format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/byte_io.hpp"
#include "common/rng.hpp"
#include "crypto/simple_hash.hpp"
#include "isa/reloc.hpp"
#include "kcc/compiler.hpp"
#include "kcc/parser.hpp"
#include "patchtool/bindiff.hpp"
#include "patchtool/callgraph.hpp"
#include "patchtool/package.hpp"

namespace kshot::patchtool {
namespace {

kcc::CompileOptions opts() {
  kcc::CompileOptions o;
  o.text_base = 0x100000;
  o.data_base = 0x400000;
  return o;
}

kcc::KernelImage compile(const std::string& src) {
  auto img = kcc::compile_source(src, opts());
  EXPECT_TRUE(img.is_ok()) << img.status().to_string();
  return *img;
}

kcc::Module parse_mod(const std::string& src) {
  auto m = kcc::parse(src);
  EXPECT_TRUE(m.is_ok()) << m.status().to_string();
  return std::move(*m);
}

// ---- Call graphs ----------------------------------------------------------

TEST(CallGraph, SourceEdges) {
  auto m = parse_mod(R"(
fn a(x) { return b(x) + c(x); }
fn b(x) { return c(x); }
fn c(x) { return x; }
)");
  CallGraph g = source_call_graph(m);
  EXPECT_EQ(g["a"], (std::set<std::string>{"b", "c"}));
  EXPECT_EQ(g["b"], (std::set<std::string>{"c"}));
  EXPECT_TRUE(g["c"].empty());
}

TEST(CallGraph, BinaryEdgesMatchSourceWithoutInlining) {
  std::string src = R"(
fn a(x) { return b(x) + c(x); }
fn b(x) { return c(x); }
fn c(x) { return x; }
)";
  auto img = compile(src);
  CallGraph bg = binary_call_graph(img);
  EXPECT_EQ(bg["a"], (std::set<std::string>{"b", "c"}));
  EXPECT_EQ(bg["b"], (std::set<std::string>{"c"}));
}

TEST(CallGraph, InliningCreatesSourceBinaryDivergence) {
  std::string src = R"(
inline fn h(x) { return x * 2; }
fn a(x) { return h(x); }
fn b(x) { return h(x) + 1; }
)";
  auto m = parse_mod(src);
  auto img = compile(src);
  // Source graph sees calls to h; binary graph has no h at all.
  EXPECT_TRUE(source_call_graph(m)["a"].count("h"));
  EXPECT_FALSE(binary_call_graph(img).count("h"));
  EXPECT_EQ(inlined_functions(m, img), std::set<std::string>{"h"});
}

TEST(CallGraph, WorklistImplicatesCallersOfInlined) {
  std::string src = R"(
inline fn h(x) { return x * 2; }
fn a(x) { return h(x); }
fn b(x) { return h(x) + 1; }
fn c(x) { return x; }
)";
  auto m = parse_mod(src);
  auto img = compile(src);
  auto implicated = implicated_functions(m, img, {"h"});
  EXPECT_EQ(implicated, (std::set<std::string>{"a", "b"}));
}

TEST(CallGraph, WorklistHandlesTransitiveInlining) {
  std::string src = R"(
inline fn inner(x) { return x + 1; }
inline fn outer(x) { return inner(x) * 2; }
fn user(x) { return outer(x); }
fn direct(x) { return inner(x); }
)";
  auto m = parse_mod(src);
  auto img = compile(src);
  // Changing `inner` implicates both binary functions.
  auto implicated = implicated_functions(m, img, {"inner"});
  EXPECT_EQ(implicated, (std::set<std::string>{"user", "direct"}));
}

TEST(CallGraph, DirectChangeImplicatesOnlyItself) {
  std::string src = R"(
fn a(x) { return b(x); }
fn b(x) { return x; }
)";
  auto m = parse_mod(src);
  auto img = compile(src);
  EXPECT_EQ(implicated_functions(m, img, {"b"}),
            std::set<std::string>{"b"});
}

TEST(CallGraph, SourceChangedFunctions) {
  auto pre = parse_mod("fn a(x) { return 1; } fn b(x) { return 2; }");
  auto post = parse_mod("fn a(x) { return 1; } fn b(x) { return 3; }");
  EXPECT_EQ(source_changed_functions(pre, post),
            std::set<std::string>{"b"});
}

TEST(CallGraph, AddedAndRemovedFunctionsCountAsChanged) {
  auto pre = parse_mod("fn a(x) { return 1; } fn gone(x) { return 0; }");
  auto post = parse_mod("fn a(x) { return 1; } fn fresh(x) { return 0; }");
  EXPECT_EQ(source_changed_functions(pre, post),
            (std::set<std::string>{"gone", "fresh"}));
}

// ---- Semantic binary diff ----------------------------------------------------

TEST(BinDiff, IdenticalImagesShowNoChanges) {
  std::string src = "fn a(x) { return x + 1; } fn b(x) { return a(x); }";
  auto diff = diff_images(compile(src), compile(src));
  ASSERT_TRUE(diff.is_ok());
  EXPECT_TRUE(diff->changed_functions.empty());
  EXPECT_TRUE(diff->added_functions.empty());
  EXPECT_TRUE(diff->layout_compatible);
}

TEST(BinDiff, RelocationShiftDoesNotCountAsChange) {
  // Growing `a` moves `b` and changes b's call displacement to `c`; the
  // semantic diff must still see b (and c) as unchanged.
  std::string pre = R"(
fn a(x) { return x; }
fn b(x) { return c(x) + 1; }
fn c(x) { return x * 3; }
)";
  std::string post = R"(
fn a(x) { pad(64); return x; }
fn b(x) { return c(x) + 1; }
fn c(x) { return x * 3; }
)";
  auto diff = diff_images(compile(pre), compile(post));
  ASSERT_TRUE(diff.is_ok());
  EXPECT_EQ(diff->changed_functions, std::vector<std::string>{"a"});
}

TEST(BinDiff, GlobalRenumberingIsLayoutIncompatible) {
  // Deleting the first global shifts the second — shared data moved.
  std::string pre = "global g1 = 1; global g2 = 2; fn f() { return g2; }";
  std::string post = "global g2 = 2; fn f() { return g2; }";
  auto diff = diff_images(compile(pre), compile(post));
  ASSERT_TRUE(diff.is_ok());
  EXPECT_FALSE(diff->layout_compatible);
}

TEST(BinDiff, AppendedGlobalIsCompatible) {
  std::string pre = "global g1 = 1; fn f() { return g1; }";
  std::string post =
      "global g1 = 1; global g2 = 9; fn f() { g2 = g1; return g1; }";
  auto diff = diff_images(compile(pre), compile(post));
  ASSERT_TRUE(diff.is_ok());
  EXPECT_TRUE(diff->layout_compatible);
  ASSERT_EQ(diff->added_globals.size(), 1u);
  EXPECT_EQ(diff->added_globals[0].name, "g2");
}

TEST(BinDiff, ModifiedGlobalInitDetected) {
  std::string pre = "global lim = 100; fn f() { return lim; }";
  std::string post = "global lim = 50; fn f() { return lim; }";
  auto diff = diff_images(compile(pre), compile(post));
  ASSERT_TRUE(diff.is_ok());
  ASSERT_EQ(diff->modified_globals.size(), 1u);
  EXPECT_EQ(diff->modified_globals[0].init, 50);
}

// ---- Streaming diff vs. a materializing reference ---------------------------

/// The materializing normalizer functions_equal streams: one normalized
/// record per instruction, with every name copied out of the image.
struct RefInstr {
  isa::Op op;
  u8 a = 0, b = 0;
  i64 imm = 0;
  std::string sym;
  i64 internal_target = 0;
  bool is_internal_branch = false;

  friend bool operator==(const RefInstr&, const RefInstr&) = default;
};

Result<std::vector<RefInstr>> reference_normalize(const kcc::KernelImage& img,
                                                  const kcc::Symbol& sym) {
  auto body_r = img.function_bytes(sym.name);
  if (!body_r) return body_r.status();
  const Bytes& body = *body_r;
  std::vector<RefInstr> out;
  size_t off = 0;
  while (off < body.size()) {
    auto d = isa::decode(ByteSpan(body).subspan(off));
    if (!d) return d.status();
    RefInstr n;
    n.op = d->instr.op;
    n.a = d->instr.a;
    n.b = d->instr.b;
    n.imm = d->instr.imm;
    if (isa::is_rel32_branch(d->instr.op)) {
      i64 target_off = static_cast<i64>(off + d->len) + d->instr.imm;
      if (target_off >= 0 && target_off <= static_cast<i64>(body.size())) {
        n.is_internal_branch = true;
        n.internal_target = target_off;
      } else {
        const kcc::Symbol* callee =
            img.symbol_at(sym.addr + static_cast<u64>(target_off));
        n.sym = callee ? callee->name : "<unknown>";
      }
      n.imm = 0;
    } else if (d->instr.op == isa::Op::kLoadG ||
               d->instr.op == isa::Op::kStoreG) {
      for (const auto& g : img.globals) {
        if (g.addr == static_cast<u64>(d->instr.imm)) {
          n.sym = g.name;
          n.imm = 0;
          break;
        }
      }
    }
    out.push_back(std::move(n));
    off += d->len;
  }
  return out;
}

Result<bool> reference_equal(const kcc::KernelImage& pre,
                             const kcc::KernelImage& post,
                             const std::string& name) {
  auto na = reference_normalize(pre, *pre.find_symbol(name));
  if (!na) return na.status();
  auto nb = reference_normalize(post, *post.find_symbol(name));
  if (!nb) return nb.status();
  return *na == *nb;
}

/// Checks functions_equal against the reference (verdict, or error code and
/// message) and returns the streaming result.
Result<bool> expect_matches_reference(const kcc::KernelImage& pre,
                                      const kcc::KernelImage& post,
                                      const std::string& name = "target") {
  auto got = functions_equal(pre, post, name);
  auto want = reference_equal(pre, post, name);
  EXPECT_EQ(got.is_ok(), want.is_ok());
  if (got.is_ok() && want.is_ok()) {
    EXPECT_EQ(*got, *want);
  } else if (!got.is_ok() && !want.is_ok()) {
    EXPECT_EQ(got.status().to_string(), want.status().to_string());
  }
  return got;
}

/// A seeded kernel: `target` branches internally, calls `helper`, and
/// reads and writes globals; `lead` sits between the helper and `target`,
/// so resizing it moves target's call displacement.
struct StreamSrc {
  explicit StreamSrc(u64 seed) {
    Rng rng(seed);
    cmp = static_cast<i64>(rng.next_range(1, 200));
    add = static_cast<i64>(rng.next_range(1, 1000));
    mul = static_cast<i64>(rng.next_range(2, 9));
    lead_pad = static_cast<u32>(rng.next_range(1, 32));
  }

  std::string render() const {
    std::string globals = swap_globals ? "global g2 = 2; global g1 = 1;\n"
                                       : "global g1 = 1; global g2 = 2;\n";
    return globals + "fn " + helper + "(a) { return a * " +
           std::to_string(mul) + "; }\nfn lead(a) { pad(" +
           std::to_string(lead_pad) + "); return a; }\n" +
           "fn target(a) { if (a > " + std::to_string(cmp) + ") { a = a + " +
           std::to_string(add) + "; } " + written + " = a; return " + helper +
           "(a) + g2; }\n";
  }

  i64 cmp = 0, add = 0, mul = 0;
  u32 lead_pad = 0;
  std::string helper = "helper_x";
  std::string written = "g1";
  bool swap_globals = false;
};

constexpr u64 kStreamSeeds = 8;

Bytes target_bytes(const kcc::KernelImage& img) {
  auto b = img.function_bytes("target");
  EXPECT_TRUE(b.is_ok()) << b.status().to_string();
  return b.is_ok() ? *b : Bytes{};
}

/// {offset, length} of each instruction of `target`.
std::vector<std::pair<size_t, size_t>> target_instrs(
    const kcc::KernelImage& img) {
  Bytes body = target_bytes(img);
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t off = 0; off < body.size();) {
    auto d = isa::decode(ByteSpan(body).subspan(off));
    EXPECT_TRUE(d.is_ok()) << d.status().to_string();
    if (!d.is_ok()) break;
    out.emplace_back(off, d->len);
    off += d->len;
  }
  return out;
}

kcc::Symbol& target_sym(kcc::KernelImage& img) {
  for (auto& s : img.symbols) {
    if (s.name == "target") return s;
  }
  ADD_FAILURE() << "no target symbol";
  return img.symbols.front();
}

TEST(BinDiffStream, ImmediateChanged) {
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    StreamSrc src(seed);
    auto pre = compile(src.render());
    src.add += 1;
    auto post = compile(src.render());
    auto eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_FALSE(*eq) << "seed " << seed;
  }
}

TEST(BinDiffStream, CalleeRenamedSameBytes) {
  // Byte-identical bodies whose rel32 call lands on a differently named
  // symbol: normalization folds in the callee name, so they differ.
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    StreamSrc src(seed);
    auto pre = compile(src.render());
    src.helper = "helper_y";
    auto post = compile(src.render());
    ASSERT_EQ(target_bytes(pre), target_bytes(post));
    auto eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_FALSE(*eq) << "seed " << seed;
  }
}

TEST(BinDiffStream, GlobalSwapped) {
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    // The store now hits the other global: different name, different
    // address.
    StreamSrc src(seed);
    auto pre = compile(src.render());
    src.written = "g2";
    auto post = compile(src.render());
    auto eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_FALSE(*eq) << "seed " << seed;

    // The two globals trade addresses: every access resolves to the same
    // name, so only the raw addresses differ.
    src.written = "g1";
    src.swap_globals = true;
    auto swapped = compile(src.render());
    ASSERT_NE(target_bytes(pre), target_bytes(swapped));
    eq = expect_matches_reference(pre, swapped);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_TRUE(*eq) << "seed " << seed;
  }
}

TEST(BinDiffStream, UnresolvedGlobalKeepsRawAddress) {
  // A load from an address no global lives at compares its raw immediate.
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    StreamSrc src(seed);
    auto pre = compile(src.render());
    auto post = pre;
    pre.globals.clear();
    post.globals.clear();
    auto eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_TRUE(*eq);
    src.written = "g2";
    post = compile(src.render());
    post.globals.clear();
    eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_FALSE(*eq) << "seed " << seed;
  }
}

TEST(BinDiffStream, InternalBranchTargetMoved) {
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    StreamSrc src(seed);
    auto pre = compile(src.render());
    const kcc::Symbol& sym = target_sym(pre);
    auto sites = isa::scan_rel32(target_bytes(pre));
    ASSERT_TRUE(sites.is_ok()) << sites.status().to_string();
    auto it = std::find_if(sites->begin(), sites->end(),
                           [](const isa::Rel32Site& s) { return s.internal; });
    ASSERT_NE(it, sites->end()) << "seed " << seed;
    // Move the landing point anywhere else inside [0, size], both ends
    // included (a branch to the end is still internal).
    Rng rng(seed);
    i64 to = static_cast<i64>(rng.next_below(sym.size + 1));
    if (to == it->target_off) to = to == 0 ? 1 : to - 1;
    for (i64 target : {to, i64{0}, static_cast<i64>(sym.size)}) {
      if (target == it->target_off) continue;
      auto post = pre;
      const u64 rel_at = sym.addr - post.text_base + it->rel_off;
      const i32 rel = static_cast<i32>(it->rel + (target - it->target_off));
      std::memcpy(post.text.data() + rel_at, &rel, sizeof(rel));
      auto eq = expect_matches_reference(pre, post);
      ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
      EXPECT_FALSE(*eq) << "seed " << seed << " target " << target;
    }
  }
}

TEST(BinDiffStream, BranchBoundsAreInclusive) {
  // A branch to offset 0 or to the body's end is internal, so it compares
  // by offset even where the symbol table around it differs.
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    StreamSrc src(seed);
    auto img = compile(src.render());
    const kcc::Symbol sym = target_sym(img);
    auto sites = isa::scan_rel32(target_bytes(img));
    ASSERT_TRUE(sites.is_ok()) << sites.status().to_string();
    auto it = std::find_if(sites->begin(), sites->end(),
                           [](const isa::Rel32Site& s) { return s.internal; });
    ASSERT_NE(it, sites->end()) << "seed " << seed;
    auto branch_to = [&](i64 target) {
      auto out = img;
      const i32 rel = static_cast<i32>(it->rel + (target - it->target_off));
      std::memcpy(out.text.data() + (sym.addr - out.text_base) + it->rel_off,
                  &rel, sizeof(rel));
      return out;
    };

    // At the end: a symbol starting right there differs by name.
    auto pre = branch_to(sym.size);
    auto post = pre;
    pre.symbols.push_back({"tail_x", sym.addr + sym.size, 16, false});
    post.symbols.push_back({"tail_y", sym.addr + sym.size, 16, false});
    auto eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_TRUE(*eq) << "seed " << seed;

    // At 0: a symbol listed first that covers the body differs by name.
    pre = branch_to(0);
    post = pre;
    post.symbols.insert(post.symbols.begin(),
                        {"shadow", sym.addr, sym.size, false});
    eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_TRUE(*eq) << "seed " << seed;
  }
}

TEST(BinDiffStream, UnresolvedCalleeIsUnknown) {
  // A call that lands in no symbol normalizes to the name "<unknown>".
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    StreamSrc src(seed);
    auto img = compile(src.render());
    auto helper = std::find_if(
        img.symbols.begin(), img.symbols.end(),
        [&](const kcc::Symbol& s) { return s.name == src.helper; });
    ASSERT_NE(helper, img.symbols.end());
    auto unresolved = img;
    unresolved.symbols.erase(unresolved.symbols.begin() +
                             (helper - img.symbols.begin()));
    auto named_unknown = img;
    named_unknown.symbols[static_cast<size_t>(helper - img.symbols.begin())]
        .name = "<unknown>";

    auto eq = expect_matches_reference(unresolved, named_unknown);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_TRUE(*eq) << "seed " << seed;
    eq = expect_matches_reference(unresolved, img);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_FALSE(*eq) << "seed " << seed;
  }
}

TEST(BinDiffStream, PureRelocationShiftUnchanged) {
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    StreamSrc src(seed);
    auto pre = compile(src.render());
    src.lead_pad += 32;
    auto post = compile(src.render());
    ASSERT_NE(target_sym(pre).addr, target_sym(post).addr);
    ASSERT_NE(target_bytes(pre), target_bytes(post));  // call rel32 moved
    auto eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_TRUE(*eq) << "seed " << seed;
    auto diff = diff_images(pre, post);
    ASSERT_TRUE(diff.is_ok());
    EXPECT_EQ(diff->changed_functions, std::vector<std::string>{"lead"});
  }
}

TEST(BinDiffStream, BodyLengthChanged) {
  // Dropping the last instruction leaves a common prefix of different
  // length, in either direction.
  for (u64 seed = 1; seed <= kStreamSeeds; ++seed) {
    StreamSrc src(seed);
    auto pre = compile(src.render());
    auto post = pre;
    target_sym(post).size = static_cast<u32>(target_instrs(pre).back().first);
    auto eq = expect_matches_reference(pre, post);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_FALSE(*eq) << "seed " << seed;
    eq = expect_matches_reference(post, pre);
    ASSERT_TRUE(eq.is_ok()) << eq.status().to_string();
    EXPECT_FALSE(*eq) << "seed " << seed;
  }
}

TEST(BinDiffStream, DecodeErrorAfterDifferenceStillFails) {
  // The bodies differ at the changed immediate, yet a bad opcode at the end
  // of the post body is still an error.
  StreamSrc src(3);
  auto pre = compile(src.render());
  src.add += 1;
  auto post = compile(src.render());
  ASSERT_FALSE(*functions_equal(pre, post, "target"));
  const kcc::Symbol& post_sym = target_sym(post);
  post.text[post_sym.addr - post.text_base + post_sym.size - 1] = 0xFF;
  auto eq = expect_matches_reference(pre, post);
  ASSERT_FALSE(eq.is_ok());
  EXPECT_EQ(eq.status().code(), Errc::kInvalidArgument);  // unknown opcode
}

TEST(BinDiffStream, PreBodyErrorWins) {
  // The post body fails on its first byte; the pre body only at its end,
  // where its last multi-byte instruction is cut short. Pre's error wins.
  StreamSrc src(4);
  auto pre = compile(src.render());
  auto post = pre;
  const kcc::Symbol& post_sym = target_sym(post);
  post.text[post_sym.addr - post.text_base] = 0xFF;
  auto instrs = target_instrs(pre);
  auto last_long = std::find_if(instrs.rbegin(), instrs.rend(),
                                [](const auto& i) { return i.second > 1; });
  ASSERT_NE(last_long, instrs.rend());
  ASSERT_GT(last_long->first, 0u);
  target_sym(pre).size = static_cast<u32>(last_long->first + 1);
  auto eq = expect_matches_reference(pre, post);
  ASSERT_FALSE(eq.is_ok());
  EXPECT_EQ(eq.status().code(), Errc::kOutOfRange);  // truncated, from pre
}

TEST(BinDiffStream, BodyOutsideTextRejected) {
  StreamSrc src(5);
  auto pre = compile(src.render());
  auto post = pre;
  target_sym(post).size = static_cast<u32>(post.text.size());
  auto eq = functions_equal(pre, post, "target");
  ASSERT_FALSE(eq.is_ok());
  EXPECT_EQ(eq.status().code(), Errc::kOutOfRange);
  target_sym(post).addr = post.text_base - 16;
  target_sym(post).size = 8;
  EXPECT_FALSE(functions_equal(post, pre, "target").is_ok());
}

// ---- build_patchset -----------------------------------------------------------

TEST(BuildPatch, SimpleFunctionChange) {
  std::string pre = "fn f(a) { return a + 1; } fn g(a) { return f(a); }";
  std::string post = "fn f(a) { return a + 2; } fn g(a) { return f(a); }";
  auto set = build_patchset(compile(pre), compile(post), {"CVE-TEST", {"f"}});
  ASSERT_TRUE(set.is_ok()) << set.status().to_string();
  ASSERT_EQ(set->patches.size(), 1u);
  const FunctionPatch& p = set->patches[0];
  EXPECT_EQ(p.name, "f");
  EXPECT_EQ(p.type, PatchType::kType1);
  EXPECT_EQ(p.taddr, compile(pre).find_symbol("f")->addr);
  EXPECT_EQ(p.ftrace_off, 5);
  EXPECT_FALSE(p.code.empty());
  EXPECT_TRUE(p.relocs.empty());  // f calls nothing external
}

TEST(BuildPatch, ExternalCallGetsReloc) {
  std::string pre = R"(
fn helper(a) { return a * 2; }
fn f(a) { return helper(a) + 1; }
)";
  std::string post = R"(
fn helper(a) { return a * 2; }
fn f(a) { return helper(a) + 2; }
)";
  auto pre_img = compile(pre);
  auto set = build_patchset(pre_img, compile(post), {"CVE-TEST", {"f"}});
  ASSERT_TRUE(set.is_ok()) << set.status().to_string();
  ASSERT_EQ(set->patches.size(), 1u);
  ASSERT_EQ(set->patches[0].relocs.size(), 1u);
  const RelocEntry& r = set->patches[0].relocs[0];
  EXPECT_EQ(r.patch_index, -1);
  EXPECT_EQ(r.target, pre_img.find_symbol("helper")->addr);
}

TEST(BuildPatch, IntraSetCallUsesPatchIndex) {
  std::string pre = R"(
fn callee(a) { return a; }
fn caller(a) { return callee(a) + 1; }
)";
  std::string post = R"(
fn callee(a) { return a + 5; }
fn caller(a) { return callee(a) + 2; }
)";
  auto set = build_patchset(compile(pre), compile(post),
                            {"CVE-TEST", {"callee", "caller"}});
  ASSERT_TRUE(set.is_ok());
  ASSERT_EQ(set->patches.size(), 2u);
  // caller's call to callee must reference the patched copy.
  const FunctionPatch* caller = nullptr;
  for (const auto& p : set->patches) {
    if (p.name == "caller") caller = &p;
  }
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->relocs.size(), 1u);
  EXPECT_GE(caller->relocs[0].patch_index, 0);
  EXPECT_EQ(set->patches[static_cast<size_t>(caller->relocs[0].patch_index)]
                .name,
            "callee");
}

TEST(BuildPatch, AddedFunctionHasNoTrampolineTarget) {
  std::string pre = "fn f(a) { return a; }";
  std::string post = R"(
fn new_helper(a) { return a * 7; }
fn f(a) { return new_helper(a); }
)";
  auto set = build_patchset(compile(pre), compile(post), {"CVE-TEST", {"f"}});
  ASSERT_TRUE(set.is_ok()) << set.status().to_string();
  ASSERT_EQ(set->patches.size(), 2u);
  const FunctionPatch* added = nullptr;
  for (const auto& p : set->patches) {
    if (p.name == "new_helper") added = &p;
  }
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->taddr, 0u);
}

TEST(BuildPatch, Type2ClassificationFromSourceChanged) {
  std::string pre = R"(
inline fn h(x) { return x; }
fn user(a) { return h(a); }
)";
  std::string post = R"(
inline fn h(x) { return x + 1; }
fn user(a) { return h(a); }
)";
  // Only `h` changed at source level; `user` changed in the binary.
  auto set = build_patchset(compile(pre), compile(post), {"CVE-TEST", {"h"}});
  ASSERT_TRUE(set.is_ok());
  ASSERT_EQ(set->patches.size(), 1u);
  EXPECT_EQ(set->patches[0].name, "user");
  EXPECT_EQ(set->patches[0].type, PatchType::kType2);
}

TEST(BuildPatch, Type3ClassificationAndVarEdits) {
  std::string pre = "global lim = 100; fn f(a) { return lim + a; }";
  std::string post =
      "global lim = 50; global extra = 7; fn f(a) { extra = a; return lim + a; }";
  auto set = build_patchset(compile(pre), compile(post), {"CVE-TEST", {"f"}});
  ASSERT_TRUE(set.is_ok()) << set.status().to_string();
  ASSERT_EQ(set->patches.size(), 1u);
  EXPECT_EQ(set->patches[0].type, PatchType::kType3);
  ASSERT_EQ(set->patches[0].var_edits.size(), 2u);
  // One init for `extra`, one set for `lim`.
  int inits = 0, sets = 0;
  for (const auto& v : set->patches[0].var_edits) {
    if (v.kind == VarEdit::Kind::kInit) ++inits;
    if (v.kind == VarEdit::Kind::kSet) ++sets;
  }
  EXPECT_EQ(inits, 1);
  EXPECT_EQ(sets, 1);
}

TEST(BuildPatch, LayoutIncompatibleRejected) {
  std::string pre = "global a = 1; global b = 2; fn f() { return b; }";
  std::string post = "global b = 2; fn f() { return b; }";
  auto set = build_patchset(compile(pre), compile(post), {"CVE-TEST", {"f"}});
  ASSERT_FALSE(set.is_ok());
  EXPECT_EQ(set.status().code(), Errc::kUnsupported);
}

// ---- Package wire format ---------------------------------------------------------

PatchSet sample_set() {
  PatchSet set;
  set.id = "CVE-0000-0001";
  set.kernel_version = "sim-4.4";
  FunctionPatch p;
  p.sequence = 0;
  p.name = "target_fn";
  p.type = PatchType::kType1;
  p.taddr = 0x100040;
  p.paddr = 0x1900000;
  p.ftrace_off = 5;
  p.code = {0x0F, 0x1F, 0x44, 0x00, 0x00, 0x11, 0x00, 42, 0, 0, 0, 0xC3};
  p.relocs.push_back({7, -1, 0x100200});
  p.var_edits.push_back({0x400010, 99, VarEdit::Kind::kSet});
  set.patches.push_back(std::move(p));
  return set;
}

TEST(Package, RoundTrip) {
  PatchSet set = sample_set();
  Bytes wire = serialize_patchset(set, PatchOp::kPatch);
  auto parsed = parse_patchset(wire);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->id, set.id);
  EXPECT_EQ(parsed->kernel_version, set.kernel_version);
  ASSERT_EQ(parsed->patches.size(), 1u);
  const FunctionPatch& p = parsed->patches[0];
  EXPECT_EQ(p.name, "target_fn");
  EXPECT_EQ(p.op, PatchOp::kPatch);
  EXPECT_EQ(p.taddr, 0x100040u);
  EXPECT_EQ(p.paddr, 0x1900000u);
  EXPECT_EQ(p.ftrace_off, 5);
  EXPECT_EQ(p.code, set.patches[0].code);
  EXPECT_EQ(p.relocs, set.patches[0].relocs);
  EXPECT_EQ(p.var_edits, set.patches[0].var_edits);
}

TEST(Package, OpOverride) {
  Bytes wire = serialize_patchset(sample_set(), PatchOp::kRollback);
  auto parsed = parse_patchset(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->patches[0].op, PatchOp::kRollback);
}

TEST(Package, FnHeaderIs42Bytes) {
  // The paper-visible constant.
  EXPECT_EQ(kFnHeaderBytes, 42u);
  // Header bytes = 2+1+1+8+8+4+2+2+2+4+8.
  EXPECT_EQ(2 + 1 + 1 + 8 + 8 + 4 + 2 + 2 + 2 + 4 + 8,
            static_cast<int>(kFnHeaderBytes));
}

TEST(Package, BadMagicRejected) {
  Bytes wire = serialize_patchset(sample_set(), PatchOp::kPatch);
  wire[0] ^= 0xFF;
  auto parsed = parse_patchset(wire);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), Errc::kIntegrityFailure);
}

TEST(Package, TruncationRejected) {
  Bytes wire = serialize_patchset(sample_set(), PatchOp::kPatch);
  for (size_t keep : {4ul, 12ul, 44ul, wire.size() - 1}) {
    Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(parse_patchset(cut).is_ok()) << "kept " << keep;
  }
}

class PackageCorruption : public ::testing::TestWithParam<size_t> {};

TEST_P(PackageCorruption, AnyFlippedByteIsDetected) {
  Bytes wire = serialize_patchset(sample_set(), PatchOp::kPatch);
  size_t pos = GetParam() % wire.size();
  // Skip the leading magic/count plumbing fields whose corruption is
  // reported differently; everything from the digest onwards must be caught
  // by digest verification.
  wire[12 + pos % (wire.size() - 12)] ^= 0x01;
  EXPECT_FALSE(parse_patchset(wire).is_ok());
}

INSTANTIATE_TEST_SUITE_P(Offsets, PackageCorruption,
                         ::testing::Values(0, 1, 5, 13, 21, 34, 47, 55, 63,
                                           71, 89, 97, 101, 113));

TEST(Package, TrailingGarbageRejected) {
  Bytes wire = serialize_patchset(sample_set(), PatchOp::kPatch);
  wire.push_back(0);
  EXPECT_FALSE(parse_patchset(wire).is_ok());
}

TEST(Package, MultiFunctionRoundTrip) {
  PatchSet set = sample_set();
  FunctionPatch q;
  q.sequence = 1;
  q.name = "second_fn";
  q.type = PatchType::kType2;
  q.taddr = 0;  // added function
  q.code = Bytes(1000, 0x90);
  q.relocs.push_back({1, 0, 0});
  set.patches.push_back(q);
  Bytes wire = serialize_patchset(set, PatchOp::kPatch);
  auto parsed = parse_patchset(wire);
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->patches.size(), 2u);
  EXPECT_EQ(parsed->patches[1].name, "second_fn");
  EXPECT_EQ(parsed->patches[1].code.size(), 1000u);
  EXPECT_EQ(parsed->patches[1].relocs[0].patch_index, 0);
}

// ---- Counts the parser has not yet checked against the wire -----------------

// A v1 package wire with a valid digest over `entries` whose set header
// claims `count` functions.
Bytes forged_package(u16 count, const Bytes& entries) {
  crypto::Digest256 digest = package_digest(entries);
  ByteWriter w;
  w.put_u32(kPackageMagic);
  w.put_u16(kPackageVersion);
  w.put_u16(count);
  w.put_u32(static_cast<u32>(entries.size()));
  w.put_bytes(ByteSpan(digest.data(), digest.size()));
  w.put_bytes(entries);
  return w.take();
}

TEST(PackageView, ForgedFunctionCountDoesNotSizeTheArena) {
  // Empty id and kernel version, then two bytes: too few for any header.
  Bytes wire = forged_package(0xFFFF, Bytes{0, 0, 0, 0});
  ASSERT_EQ(wire.size(), 48u);
  Arena arena;
  auto view = parse_patchset_view(wire, arena);
  ASSERT_FALSE(view.is_ok());
  EXPECT_EQ(view.status().message(), "truncated function header");
  EXPECT_LE(arena.bytes_allocated(), 4096u);
}

TEST(PackageView, ForgedRelocCountDoesNotSizeTheArena) {
  ByteWriter e;
  e.put_string8("");  // id
  e.put_string8("");  // kernel version
  e.put_u16(0);       // sequence
  e.put_u8(static_cast<u8>(PatchOp::kPatch));
  e.put_u8(static_cast<u8>(PatchType::kType1));
  e.put_u64(0x100040);  // taddr
  e.put_u64(0);         // paddr
  e.put_u32(0);         // code size
  e.put_u16(5);         // ftrace_off
  e.put_u16(0xFFFF);    // nreloc, with 15 bytes left: not even one reloc
  e.put_u16(0);         // nvar
  e.put_u32(crypto::crc32(ByteSpan{}));
  e.put_u64(crypto::sdbm(to_bytes("f")));
  e.put_string8("f");
  e.put_zeros(15);
  Bytes wire = forged_package(1, e.take());
  Arena arena;
  auto view = parse_patchset_view(wire, arena);
  ASSERT_FALSE(view.is_ok());
  EXPECT_EQ(view.status().message(), "truncated reloc");
  EXPECT_LE(arena.bytes_allocated(), 4096u);
}

// ---- Batch envelope framing -------------------------------------------------

Bytes batch_header(u32 magic, u32 count) {
  ByteWriter w;
  w.put_u32(magic);
  w.put_u32(count);
  return w.take();
}

void expect_batch_rejected(const Bytes& wire, const std::string& message) {
  auto pkgs = parse_batch_view(wire);
  ASSERT_FALSE(pkgs.is_ok());
  EXPECT_EQ(pkgs.status().code(), Errc::kIntegrityFailure);
  EXPECT_EQ(pkgs.status().message(), message);
}

TEST(BatchEnvelope, InnerWiresAreSpansIntoTheEnvelope) {
  Bytes a = serialize_patchset(sample_set(), PatchOp::kPatch);
  Bytes b = Bytes(7, 0xAB);
  Bytes wire = serialize_batch({a, b});
  auto pkgs = parse_batch_view(wire);
  ASSERT_TRUE(pkgs.is_ok()) << pkgs.status().to_string();
  ASSERT_EQ(pkgs->size(), 2u);
  EXPECT_EQ(Bytes((*pkgs)[0].begin(), (*pkgs)[0].end()), a);
  EXPECT_EQ(Bytes((*pkgs)[1].begin(), (*pkgs)[1].end()), b);
  EXPECT_EQ((*pkgs)[0].data(), wire.data() + 12);
  EXPECT_EQ((*pkgs)[1].data(), wire.data() + 12 + a.size() + 4);
}

TEST(BatchEnvelope, BadMagicRejected) {
  Bytes wire = serialize_batch({Bytes(5, 1)});
  wire[0] ^= 0xFF;
  expect_batch_rejected(wire, "bad batch magic");
}

TEST(BatchEnvelope, ZeroCountRejected) {
  expect_batch_rejected(batch_header(kBatchMagic, 0), "bad batch count");
}

TEST(BatchEnvelope, CountAboveMaxRejected) {
  std::vector<Bytes> pkgs(kMaxBatchPackages + 1, Bytes(5, 1));
  expect_batch_rejected(serialize_batch(pkgs), "bad batch count");
  pkgs.pop_back();
  EXPECT_TRUE(parse_batch_view(serialize_batch(pkgs)).is_ok());
}

TEST(BatchEnvelope, ZeroLengthEntryRejected) {
  expect_batch_rejected(serialize_batch({Bytes(5, 1), Bytes{}}),
                        "truncated batch entry");
}

TEST(BatchEnvelope, EntryLongerThanTheRestRejected) {
  ByteWriter w;
  w.put_bytes(batch_header(kBatchMagic, 1));
  w.put_u32(10);
  w.put_bytes(Bytes(9, 1));
  expect_batch_rejected(w.take(), "truncated batch entry");
}

TEST(BatchEnvelope, TrailingBytesRejected) {
  Bytes wire = serialize_batch({Bytes(5, 1)});
  wire.push_back(0);
  expect_batch_rejected(wire, "trailing bytes in batch");
}

TEST(BatchEnvelope, EveryProperPrefixRejected) {
  Bytes wire = serialize_batch(
      {serialize_patchset(sample_set(), PatchOp::kPatch), Bytes(3, 7)});
  ASSERT_TRUE(parse_batch_view(wire).is_ok());
  for (size_t keep = 0; keep < wire.size(); ++keep) {
    Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(keep));
    auto pkgs = parse_batch_view(cut);
    ASSERT_FALSE(pkgs.is_ok()) << "prefix of " << keep << " bytes parsed";
    EXPECT_EQ(pkgs.status().code(), Errc::kIntegrityFailure) << keep;
  }
}

// ---- Serializer properties over random sets --------------------------------

PatchSet random_set(Rng& rng) {
  PatchSet set;
  set.id = "CVE-" + std::to_string(2000 + rng.next_below(30)) + "-" +
           std::to_string(rng.next_below(10000));
  set.kernel_version = rng.next_below(2) ? "sim-4.4" : "";
  size_t nfns = 1 + rng.next_below(4);
  for (size_t i = 0; i < nfns; ++i) {
    FunctionPatch p;
    p.sequence = static_cast<u16>(i);
    p.op = rng.next_below(2) ? PatchOp::kPatch : PatchOp::kRollback;
    p.type = static_cast<PatchType>(1 + rng.next_below(3));
    if (rng.next_below(8)) p.name = "fn_" + std::to_string(rng.next_below(100));
    p.taddr = rng.next_below(2) ? rng.next() : 0;
    p.paddr = rng.next();
    p.ftrace_off = static_cast<u16>(rng.next_below(3) ? 5 : rng.next_below(64));
    p.code = rng.next_bytes(rng.next_below(300));
    size_t nrel = rng.next_below(3);
    for (size_t r = 0; r < nrel; ++r) {
      p.relocs.push_back({static_cast<u32>(rng.next_below(1 << 20)),
                          rng.next_below(2) ? static_cast<i32>(
                                                  rng.next_below(nfns))
                                            : -1,
                          rng.next()});
    }
    size_t nvar = rng.next_below(3);
    for (size_t v = 0; v < nvar; ++v) {
      p.var_edits.push_back({rng.next(), rng.next(),
                             rng.next_below(2) ? VarEdit::Kind::kInit
                                               : VarEdit::Kind::kSet});
    }
    set.patches.push_back(std::move(p));
  }
  return set;
}

TEST(PackageProperty, ParseOfSerializeIsIdentity) {
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 25; ++round) {
    PatchSet set = random_set(rng);
    Bytes wire = serialize_patchset_raw(set);
    auto parsed = parse_patchset(wire);
    ASSERT_TRUE(parsed.is_ok())
        << "round " << round << ": " << parsed.status().to_string();
    EXPECT_EQ(*parsed, set) << "round " << round;
    // Serialization is canonical: re-serializing the parse is byte-stable.
    EXPECT_EQ(serialize_patchset_raw(*parsed), wire) << "round " << round;
  }
}

TEST(PackageProperty, EveryTruncationRejectedWithStatus) {
  Rng rng(0xDECADE);
  for (int round = 0; round < 5; ++round) {
    PatchSet set = random_set(rng);
    Bytes wire = serialize_patchset_raw(set);
    for (size_t keep = 0; keep < wire.size(); ++keep) {
      Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(keep));
      auto parsed = parse_patchset(cut);
      ASSERT_FALSE(parsed.is_ok())
          << "round " << round << ": prefix of " << keep << "/" << wire.size()
          << " bytes parsed";
      EXPECT_NE(parsed.status().code(), Errc::kOk);
      EXPECT_FALSE(parsed.status().message().empty())
          << "silent rejection at keep=" << keep;
    }
  }
}

}  // namespace
}  // namespace kshot::patchtool
