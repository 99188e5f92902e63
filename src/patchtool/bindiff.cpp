#include "patchtool/bindiff.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

#include "isa/isa.hpp"
#include "isa/reloc.hpp"

namespace kshot::patchtool {

namespace {

/// The comparison key of one instruction, its position-dependent fields
/// normalized: an internal branch keeps its function-relative target in
/// `imm`, an external one the callee's name in `sym`, and an absolute global
/// access the global's name (or its raw address if no global lives there).
struct InstrKey {
  isa::Op op = isa::Op::kNop;
  u8 a = 0, b = 0;
  bool internal_branch = false;
  i64 imm = 0;
  std::string_view sym;  // a name owned by the image, never a copy

  friend bool operator==(const InstrKey&, const InstrKey&) = default;
};

/// Decodes one function body an instruction at a time, in place in the
/// image's text.
class BodyCursor {
 public:
  BodyCursor(const kcc::KernelImage& img, u64 addr, ByteSpan body)
      : img_(img), addr_(addr), body_(body) {}

  [[nodiscard]] bool at_end() const { return off_ >= body_.size(); }

  /// Decodes the next instruction into `out`; false on a decode fault.
  bool next(InstrKey& out) {
    isa::Decoded d;
    if (!step(d)) return false;
    out = {d.instr.op, d.instr.a, d.instr.b, false, d.instr.imm, {}};
    if (isa::is_rel32_branch(d.instr.op)) {
      i64 target_off = static_cast<i64>(off_) + d.instr.imm;
      out.imm = 0;
      if (target_off >= 0 && target_off <= static_cast<i64>(body_.size())) {
        out.internal_branch = true;
        out.imm = target_off;
      } else {
        const kcc::Symbol* callee =
            img_.symbol_at(addr_ + static_cast<u64>(target_off));
        out.sym = callee ? std::string_view(callee->name) : "<unknown>";
      }
    } else if (d.instr.op == isa::Op::kLoadG ||
               d.instr.op == isa::Op::kStoreG) {
      for (const auto& g : img_.globals) {
        if (g.addr == static_cast<u64>(d.instr.imm)) {
          out.sym = g.name;
          out.imm = 0;
          break;
        }
      }
    }
    return true;
  }

  /// Decodes the rest of the body without normalizing it; the fault, if
  /// any, as a Status.
  Status drain() {
    isa::Decoded d;
    while (!at_end() && step(d)) {
    }
    if (fault_) return {fault_->code, fault_->message};
    return Status::ok();
  }

 private:
  bool step(isa::Decoded& d) {
    fault_ = isa::decode_into(body_.data() + off_, body_.size() - off_, d);
    if (fault_) return false;
    off_ += d.len;
    return true;
  }

  const kcc::KernelImage& img_;
  u64 addr_;  // the function's entry address
  ByteSpan body_;
  size_t off_ = 0;
  const isa::DecodeFault* fault_ = nullptr;
};

}  // namespace

Result<bool> functions_equal(const kcc::KernelImage& pre,
                             const kcc::KernelImage& post,
                             const std::string& name) {
  const kcc::Symbol* a = pre.find_symbol(name);
  const kcc::Symbol* b = post.find_symbol(name);
  if (a == nullptr || b == nullptr) {
    return Status{Errc::kNotFound, "function missing from an image: " + name};
  }
  auto body_a = pre.function_span(*a);
  if (!body_a) return body_a.status();
  auto body_b = post.function_span(*b);
  if (!body_b) return body_b.status();

  BodyCursor ca(pre, a->addr, *body_a);
  BodyCursor cb(post, b->addr, *body_b);
  bool differ = false;
  while (!differ && !ca.at_end() && !cb.at_end()) {
    InstrKey x, y;
    if (!ca.next(x) || !cb.next(y)) break;  // the drains report the fault
    differ = x != y;
  }
  const bool equal = !differ && ca.at_end() && cb.at_end();
  KSHOT_RETURN_IF_ERROR(ca.drain());
  KSHOT_RETURN_IF_ERROR(cb.drain());
  return equal;
}

Result<DiffResult> diff_images(const kcc::KernelImage& pre,
                               const kcc::KernelImage& post) {
  DiffResult out;
  for (const auto& s : post.symbols) {
    if (!pre.find_symbol(s.name)) {
      out.added_functions.push_back(s.name);
      continue;
    }
    auto eq = functions_equal(pre, post, s.name);
    if (!eq) return eq.status();
    if (!*eq) out.changed_functions.push_back(s.name);
  }
  for (const auto& s : pre.symbols) {
    if (!post.find_symbol(s.name)) out.removed_functions.push_back(s.name);
  }

  // Globals: shared globals must keep their addresses (8-byte slots in
  // declaration order); anything else is a layout-incompatible change.
  for (const auto& g : post.globals) {
    const kcc::GlobalSym* old = pre.find_global(g.name);
    if (old == nullptr) {
      if (g.addr < pre.data_base + pre.data_size()) {
        // New global did not land in slack space: prefix shifted.
        out.layout_compatible = false;
      }
      out.added_globals.push_back(g);
    } else {
      if (old->addr != g.addr) out.layout_compatible = false;
      if (old->init != g.init) out.modified_globals.push_back(g);
    }
  }
  return out;
}

Result<PatchSet> build_patchset(const kcc::KernelImage& pre,
                                const kcc::KernelImage& post,
                                const BuildPatchOptions& opts) {
  auto diff_r = diff_images(pre, post);
  if (!diff_r) return diff_r.status();
  DiffResult& diff = *diff_r;

  if (!diff.layout_compatible) {
    return Status{Errc::kUnsupported,
                  "patch changes shared data layout (paper Type 3 limit)"};
  }

  PatchSet set;
  set.id = opts.id;
  set.kernel_version = pre.version;

  std::set<std::string> source_changed(opts.source_changed.begin(),
                                       opts.source_changed.end());
  bool any_global_change =
      !diff.added_globals.empty() || !diff.modified_globals.empty();

  // Deterministic order: changed functions first (image order), then added.
  std::vector<std::string> fn_order;
  for (const auto& s : post.symbols) {
    if (std::find(diff.changed_functions.begin(), diff.changed_functions.end(),
                  s.name) != diff.changed_functions.end()) {
      fn_order.push_back(s.name);
    }
  }
  for (const auto& s : post.symbols) {
    if (std::find(diff.added_functions.begin(), diff.added_functions.end(),
                  s.name) != diff.added_functions.end()) {
      fn_order.push_back(s.name);
    }
  }

  std::map<std::string, int> patch_index;
  for (size_t i = 0; i < fn_order.size(); ++i) {
    patch_index[fn_order[i]] = static_cast<int>(i);
  }

  for (size_t i = 0; i < fn_order.size(); ++i) {
    const std::string& name = fn_order[i];
    const kcc::Symbol* post_sym = post.find_symbol(name);
    const kcc::Symbol* pre_sym = pre.find_symbol(name);

    FunctionPatch p;
    p.sequence = static_cast<u16>(i);
    p.op = PatchOp::kPatch;
    p.name = name;
    p.taddr = pre_sym ? pre_sym->addr : 0;
    p.ftrace_off = (pre_sym && pre_sym->traced) ? 5 : 0;
    auto body = post.function_bytes(name);
    if (!body) return body.status();
    p.code = std::move(*body);

    // Classify (paper §V-A / §VI-B): global edits dominate, then inlining.
    if (any_global_change) {
      p.type = PatchType::kType3;
    } else if (!source_changed.empty() && !source_changed.count(name)) {
      p.type = PatchType::kType2;
    } else {
      p.type = PatchType::kType1;
    }

    // External rel32 fixups.
    auto sites = isa::scan_rel32(p.code);
    if (!sites) return sites.status();
    for (const auto& s : *sites) {
      if (s.internal) continue;
      u64 post_target = post_sym->addr + static_cast<u64>(s.target_off);
      const kcc::Symbol* callee = post.symbol_at(post_target);
      if (callee == nullptr) {
        return Status{Errc::kInternal,
                      "unresolved external branch in " + name};
      }
      RelocEntry r;
      r.offset = static_cast<u32>(s.rel_off);
      auto idx = patch_index.find(callee->name);
      if (idx != patch_index.end()) {
        // Callee is itself in the patch set: bind to its mem_X copy.
        r.patch_index = idx->second;
      } else {
        const kcc::Symbol* running = pre.find_symbol(callee->name);
        if (running == nullptr) {
          return Status{Errc::kUnsupported,
                        "patched code calls function absent from the "
                        "running kernel: " +
                            callee->name};
        }
        r.target = running->addr;
      }
      p.relocs.push_back(r);
    }
    set.patches.push_back(std::move(p));
  }

  // Global-variable edits ride on the first patch entry (they are applied
  // once, before any trampoline is installed).
  if (!set.patches.empty()) {
    for (const auto& g : diff.added_globals) {
      set.patches[0].var_edits.push_back(
          {g.addr, static_cast<u64>(g.init), VarEdit::Kind::kInit});
    }
    for (const auto& g : diff.modified_globals) {
      set.patches[0].var_edits.push_back(
          {g.addr, static_cast<u64>(g.init), VarEdit::Kind::kSet});
    }
  } else if (any_global_change) {
    return Status{Errc::kUnsupported,
                  "data-only patches need at least one code change"};
  }

  return set;
}

}  // namespace kshot::patchtool
