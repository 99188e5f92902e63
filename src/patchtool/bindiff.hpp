// Binary diffing between pre- and post-patch kernel images, in the spirit of
// iBinHunt/FIBER (paper §V-A): functions are matched by symbol and compared
// *semantically* — rel32 branch targets are normalized (internal branches to
// function-relative offsets, external calls to callee symbol names) so pure
// relocation shifts caused by resized neighbours do not count as changes.
#pragma once

#include "kcc/image.hpp"
#include "patchtool/patch.hpp"

namespace kshot::patchtool {

struct DiffResult {
  std::vector<std::string> changed_functions;  // present in both, body differs
  std::vector<std::string> added_functions;
  std::vector<std::string> removed_functions;
  std::vector<kcc::GlobalSym> added_globals;
  std::vector<kcc::GlobalSym> modified_globals;  // init value changed
  /// False if a global shared between the images moved or shrank — the
  /// "complex data structure change" the paper excludes (§VI-A, §VIII).
  bool layout_compatible = true;
};

/// Structural diff of two images built with the same options.
Result<DiffResult> diff_images(const kcc::KernelImage& pre,
                               const kcc::KernelImage& post);

/// Semantic equality of one function across the two images. The two bodies
/// are decoded in lockstep straight out of each image's text and compared
/// one normalized instruction at a time, so nothing is materialized. A body
/// that fails to decode is an error even after a difference was found (the
/// pre body's error wins), so the bodies are always decoded to their ends.
Result<bool> functions_equal(const kcc::KernelImage& pre,
                             const kcc::KernelImage& post,
                             const std::string& name);

struct BuildPatchOptions {
  std::string id;  // e.g. the CVE number
  /// Functions changed at the *source* level (used for Type 1 vs Type 2
  /// classification; a binary-changed function that was not source-changed
  /// was implicated by inlining).
  std::vector<std::string> source_changed;
};

/// Produces a deployable PatchSet from the image diff: extracts post-patch
/// bodies, records external rel32 fixups (absolute running-kernel targets or
/// intra-patch-set references), emits global-variable edits, and classifies
/// each function patch as Type 1/2/3. Fails on layout-incompatible diffs.
Result<PatchSet> build_patchset(const kcc::KernelImage& pre,
                                const kcc::KernelImage& post,
                                const BuildPatchOptions& opts);

}  // namespace kshot::patchtool
