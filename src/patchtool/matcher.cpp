#include "patchtool/matcher.hpp"

#include <algorithm>

#include "crypto/simple_hash.hpp"
#include "isa/isa.hpp"
#include "patchtool/callgraph.hpp"

namespace kshot::patchtool {

namespace {

/// Serializes a function body with position-dependent fields masked.
Bytes normalized_bytes(const kcc::KernelImage& img, const kcc::Symbol& sym) {
  auto body_r = img.function_bytes(sym.name);
  if (!body_r) return {};
  const Bytes& body = *body_r;

  Bytes out;
  size_t off = 0;
  while (off < body.size()) {
    auto d = isa::decode(ByteSpan(body).subspan(off));
    if (!d) break;
    out.push_back(static_cast<u8>(d->instr.op));
    out.push_back(d->instr.a);
    out.push_back(d->instr.b);
    bool positional = isa::is_rel32_branch(d->instr.op) ||
                      d->instr.op == isa::Op::kLoadG ||
                      d->instr.op == isa::Op::kStoreG;
    if (!positional) {
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<u8>(d->instr.imm >> (8 * i)));
      }
    } else if (isa::is_rel32_branch(d->instr.op)) {
      // Keep only whether the branch is function-internal (shape) and, for
      // internal ones, its relative landing offset.
      i64 target = static_cast<i64>(off + d->len) + d->instr.imm;
      bool internal =
          target >= 0 && target <= static_cast<i64>(body.size());
      out.push_back(internal ? 1 : 0);
      if (internal) {
        for (int i = 0; i < 4; ++i) {
          out.push_back(static_cast<u8>(target >> (8 * i)));
        }
      }
    }
    off += d->len;
  }
  return out;
}

}  // namespace

u64 function_signature(const kcc::KernelImage& img, const std::string& name) {
  const kcc::Symbol* sym = img.find_symbol(name);
  if (sym == nullptr) return 0;
  return crypto::fnv1a(normalized_bytes(img, *sym));
}

MatchResult match_functions(const kcc::KernelImage& pre,
                            const kcc::KernelImage& post) {
  MatchResult result;

  // Bucket pre functions by signature.
  std::map<u64, std::vector<std::string>> pre_by_sig;
  for (const auto& sym : pre.symbols) {
    pre_by_sig[function_signature(pre, sym.name)].push_back(sym.name);
  }
  CallGraph pre_cg = binary_call_graph(pre);
  CallGraph post_cg = binary_call_graph(post);

  std::map<std::string, bool> pre_taken;
  for (const auto& sym : post.symbols) {
    auto bucket = pre_by_sig.find(function_signature(post, sym.name));
    if (bucket == pre_by_sig.end()) {
      result.unmatched.push_back(sym.name);
      continue;
    }
    // Collect untaken candidates.
    std::vector<std::string> candidates;
    for (const auto& cand : bucket->second) {
      if (!pre_taken[cand]) candidates.push_back(cand);
    }
    if (candidates.empty()) {
      result.unmatched.push_back(sym.name);
      continue;
    }
    std::string chosen;
    if (candidates.size() == 1) {
      chosen = candidates[0];
    } else {
      // Refine by call-graph out-degree, then by layout order.
      size_t want = post_cg[sym.name].size();
      std::stable_sort(candidates.begin(), candidates.end(),
                       [&](const std::string& a, const std::string& b) {
                         size_t da = pre_cg[a].size(), db = pre_cg[b].size();
                         auto da_diff = da > want ? da - want : want - da;
                         auto db_diff = db > want ? db - want : want - db;
                         return da_diff < db_diff;
                       });
      chosen = candidates[0];
      result.ambiguous.push_back(sym.name);
    }
    pre_taken[chosen] = true;
    result.matches[sym.name] = chosen;
  }
  return result;
}

}  // namespace kshot::patchtool
