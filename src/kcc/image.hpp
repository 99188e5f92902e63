// The binary kernel image produced by kcc: linked text, symbol table, global
// variable layout, and provenance. The patch server builds two of these
// (pre- and post-patch) and the patch toolchain diffs them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace kshot::kcc {

/// A linked function symbol.
struct Symbol {
  std::string name;
  u64 addr = 0;   // absolute address of the function entry
  u32 size = 0;   // linked size in bytes (without alignment padding)
  bool traced = false;  // starts with the 5-byte ftrace pad
};

/// A linked global variable (8 bytes each, laid out in declaration order).
struct GlobalSym {
  std::string name;
  u64 addr = 0;
  i64 init = 0;
};

class KernelImage {
 public:
  u64 text_base = 0;
  u64 data_base = 0;
  Bytes text;                     // linked code, starting at text_base
  std::vector<Symbol> symbols;    // in layout order
  std::vector<GlobalSym> globals; // in declaration order
  std::string version;            // e.g. "sim-3.14" / "sim-4.4"

  [[nodiscard]] const Symbol* find_symbol(const std::string& name) const;
  [[nodiscard]] const GlobalSym* find_global(const std::string& name) const;

  /// The symbol containing `addr`, if any.
  [[nodiscard]] const Symbol* symbol_at(u64 addr) const;

  /// View of the linked bytes of `sym` inside `text`; fails if they do not
  /// lie inside it.
  [[nodiscard]] Result<ByteSpan> function_span(const Symbol& sym) const;

  /// Copy of the linked bytes of one function.
  [[nodiscard]] Result<Bytes> function_bytes(const std::string& name) const;

  /// Serialized initial data segment (8 bytes per global, declaration order).
  [[nodiscard]] Bytes data_image() const;

  /// Size in bytes of the data segment.
  [[nodiscard]] size_t data_size() const { return globals.size() * 8; }

  /// SHA-256 over text + data + bases, identifying this exact build.
  [[nodiscard]] crypto::Digest256 measurement() const;
};

}  // namespace kshot::kcc
