// Binary function matching without symbol names, in the spirit of
// iBinHunt/FIBER (paper §V-A / §VII-B): when the running kernel's symbol
// table is stripped or untrusted, patched functions are aligned to the
// binary by normalized instruction signatures — opcode/operand sequences
// with position-dependent fields (rel32 displacements, absolute global
// addresses) masked out — refined by call-graph degree when signatures
// collide.
#pragma once

#include <map>
#include <string>

#include "common/status.hpp"
#include "kcc/image.hpp"

namespace kshot::patchtool {

/// Normalized signature of one function body (stable across relocation).
u64 function_signature(const kcc::KernelImage& img, const std::string& name);

struct MatchResult {
  /// post-image function name -> pre-image function name.
  std::map<std::string, std::string> matches;
  std::vector<std::string> unmatched;  // post functions with no counterpart
  std::vector<std::string> ambiguous;  // resolved by call-graph refinement
};

/// Aligns the functions of `post` with those of `pre` using signatures and
/// call-graph out-degree. Designed for images built from related sources
/// (the pre/post pair of a patch).
MatchResult match_functions(const kcc::KernelImage& pre,
                            const kcc::KernelImage& post);

}  // namespace kshot::patchtool
