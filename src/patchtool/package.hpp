// Wire format of the patch package exchanged between the patch server, the
// SGX enclave, and the SMM handler — the structure of paper Fig. 3. Each
// function carries exactly 42 bytes of header (§VI-C3: "each function
// requires 42 bytes of header data in the transmitted patch package"):
//
//   offset  field        size
//   0       sequence     u16
//   2       opt          u8    (1 = patch, 2 = rollback)
//   3       type         u8    (1/2/3)
//   4       taddr        u64   target entry in the running kernel
//   12      paddr        u64   destination in mem_X (0 until preprocessing)
//   20      size         u32   code payload bytes
//   24      ftrace_off   u16   5 if the target begins with the ftrace pad
//   26      nreloc       u16
//   28      nvar         u16
//   30      payload_crc  u32   CRC-32 of the code payload
//   34      name_hash    u64   SDBM hash of the symbol name
//   42      --- end of header ---
//
// The package set prepends a set header with a SHA-256 digest over all
// entries; the SMM handler recomputes it before applying anything (§V-C).
#pragma once

#include <span>
#include <string_view>

#include "common/arena.hpp"
#include "common/status.hpp"
#include "crypto/sha256.hpp"
#include "patchtool/patch.hpp"

namespace kshot::patchtool {

inline constexpr u32 kPackageMagic = 0x5448534B;  // "KSHT"
inline constexpr u16 kPackageVersion = 1;
/// Wire v2 = v1 + patch-stack lifecycle data. After the kernel-version
/// string: u8 ndep + ndep string8 ids, u8 nsup + nsup string8 ids. After
/// each function's name string8: u8 flags (bit0 = in-place splice) and
/// u32 old_size. The serializer only emits v2 when the set actually carries
/// lifecycle data, so every pre-existing package stays byte-identical.
inline constexpr u16 kPackageVersionLifecycle = 2;
inline constexpr size_t kFnHeaderBytes = 42;

/// Serializes a patch set, overriding every entry's op with `op` (the same
/// set is shipped with kPatch and replayed with kRollback).
Bytes serialize_patchset(const PatchSet& set, PatchOp op);

/// Serializes a patch set preserving each entry's own op field. The normal
/// pipeline never mixes ops within one package; this exists so tests and
/// adversarial harnesses can craft such packages and assert they are
/// rejected at the SMM boundary.
Bytes serialize_patchset_raw(const PatchSet& set);

/// parse_patchset_view over a local arena, copied into an owned PatchSet
/// by to_patchset. It has no checks of its own, so it accepts and rejects
/// exactly what the SMM handler does, with the same Status.
Result<PatchSet> parse_patchset(ByteSpan wire);

// ---- Zero-copy views ------------------------------------------------------
// Borrowed-span mirror of FunctionPatch/PatchSet. Strings and code payloads
// point straight into the parsed wire; the structured tables (relocs,
// var_edits, patches) are materialized into a caller-owned Arena because the
// wire stores them unaligned. Ownership rule (DESIGN.md §15): a view is
// valid only while BOTH the wire buffer and the arena outlive it — consumers
// that keep patch bodies past the parse (installed-patch bookkeeping) must
// retain the envelope buffer itself, not copy out of it.

struct FunctionPatchView {
  u16 sequence = 0;
  PatchOp op = PatchOp::kPatch;
  PatchType type = PatchType::kType1;
  std::string_view name;
  u64 taddr = 0;
  u64 paddr = 0;
  u16 ftrace_off = 0;
  ByteSpan code;
  std::span<const RelocEntry> relocs;
  std::span<const VarEdit> var_edits;
  bool splice = false;
  u32 old_size = 0;

  [[nodiscard]] size_t payload_bytes() const {
    return code.size() + relocs.size() * 16 + var_edits.size() * 17;
  }
};

struct PatchSetView {
  std::string_view id;
  std::string_view kernel_version;
  std::span<const std::string_view> depends;
  std::span<const std::string_view> supersedes;
  std::span<const FunctionPatchView> patches;

  [[nodiscard]] size_t total_code_bytes() const {
    size_t n = 0;
    for (const auto& p : patches) n += p.code.size();
    return n;
  }
  [[nodiscard]] bool has_lifecycle() const {
    if (!depends.empty() || !supersedes.empty()) return true;
    for (const auto& p : patches) {
      if (p.splice || p.old_size != 0) return true;
    }
    return false;
  }
};

/// The package parser. Fully verifies a package (magic, version, set
/// digest, per-function name hashes and CRCs) and returns kIntegrityFailure
/// on any mismatch. Names and code stay borrowed from `wire`; the view
/// tables live in `arena`, each capped at what the wire's remaining bytes
/// can hold, so a forged count never sizes an allocation. The returned view
/// dangles if `wire`'s backing buffer or `arena` dies first.
Result<PatchSetView> parse_patchset_view(ByteSpan wire, Arena& arena);

/// Copies a view into an owned PatchSet, for consumers that rewrite the set
/// (the enclave's preprocess).
PatchSet to_patchset(const PatchSetView& view);

/// The set digest stored in (and checked against) the set header.
crypto::Digest256 package_digest(ByteSpan wire_after_digest);

// ---- Batch envelope -------------------------------------------------------
// A batched SMM session stages N ordinary packages inside one sealed blob:
//
//   u32 kBatchMagic ("KSHB") || u32 count || (u32 len || package bytes) * N
//
// Each inner package keeps its own digest/CRC protection; the envelope adds
// no crypto of its own because the whole blob is already sealed under the
// session key. The SMM handler applies the envelope all-or-nothing with one
// rollback unit per inner package.

inline constexpr u32 kBatchMagic = 0x4248534B;  // "KSHB"
inline constexpr u32 kMaxBatchPackages = 64;

/// Wraps already-serialized packages into a batch envelope.
Bytes serialize_batch(const std::vector<Bytes>& packages);

/// Splits a batch envelope into its inner package wires, each a borrowed
/// span into `wire`. Structural validation only (magic, count bounds,
/// length framing); each inner wire still needs parse_patchset_view.
Result<std::vector<ByteSpan>> parse_batch_view(ByteSpan wire);

/// True if `wire` starts with the batch envelope magic.
bool is_batch_wire(ByteSpan wire);

}  // namespace kshot::patchtool
