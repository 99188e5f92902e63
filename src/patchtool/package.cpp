#include "patchtool/package.hpp"

#include "common/byte_io.hpp"
#include "crypto/hmac.hpp"
#include "crypto/simple_hash.hpp"

namespace kshot::patchtool {

namespace {

void put_string8(ByteWriter& w, const std::string& s) {
  w.put_u8(static_cast<u8>(std::min<size_t>(s.size(), 255)));
  w.put_bytes(to_bytes(s.substr(0, 255)));
}

Result<std::string> get_string8(ByteReader& r) {
  auto len = r.get_u8();
  if (!len) return len.status();
  auto bytes = r.get_bytes(*len);
  if (!bytes) return bytes.status();
  return std::string(bytes->begin(), bytes->end());
}

Result<std::string_view> get_string8_view(ByteReader& r) {
  auto len = r.get_u8();
  if (!len) return len.status();
  auto bytes = r.get_span(*len);
  if (!bytes) return bytes.status();
  return std::string_view(reinterpret_cast<const char*>(bytes->data()),
                          bytes->size());
}

Bytes serialize_entries(const PatchSet& set, const PatchOp* override_op,
                        u16 version) {
  ByteWriter w;
  put_string8(w, set.id);
  put_string8(w, set.kernel_version);
  if (version >= kPackageVersionLifecycle) {
    w.put_u8(static_cast<u8>(std::min<size_t>(set.depends.size(), 255)));
    for (size_t i = 0; i < std::min<size_t>(set.depends.size(), 255); ++i) {
      put_string8(w, set.depends[i]);
    }
    w.put_u8(static_cast<u8>(std::min<size_t>(set.supersedes.size(), 255)));
    for (size_t i = 0; i < std::min<size_t>(set.supersedes.size(), 255); ++i) {
      put_string8(w, set.supersedes[i]);
    }
  }
  for (const auto& p : set.patches) {
    // 42-byte header (see file comment).
    w.put_u16(p.sequence);
    w.put_u8(static_cast<u8>(override_op ? *override_op : p.op));
    w.put_u8(static_cast<u8>(p.type));
    w.put_u64(p.taddr);
    w.put_u64(p.paddr);
    w.put_u32(static_cast<u32>(p.code.size()));
    w.put_u16(p.ftrace_off);
    w.put_u16(static_cast<u16>(p.relocs.size()));
    w.put_u16(static_cast<u16>(p.var_edits.size()));
    w.put_u32(crypto::crc32(p.code));
    w.put_u64(crypto::sdbm(to_bytes(p.name)));
    // Trailer: diagnostics + variable-size payloads.
    put_string8(w, p.name);
    if (version >= kPackageVersionLifecycle) {
      w.put_u8(p.splice ? 1 : 0);
      w.put_u32(p.old_size);
    }
    for (const auto& rel : p.relocs) {
      w.put_u32(rel.offset);
      w.put_u32(static_cast<u32>(rel.patch_index));
      w.put_u64(rel.target);
    }
    for (const auto& v : p.var_edits) {
      w.put_u64(v.addr);
      w.put_u64(v.value);
      w.put_u8(static_cast<u8>(v.kind));
    }
    w.put_bytes(p.code);
  }
  return w.take();
}

}  // namespace

crypto::Digest256 package_digest(ByteSpan wire_after_digest) {
  return crypto::sha256(wire_after_digest);
}

namespace {

Bytes wrap_entries(const PatchSet& set, Bytes entries, u16 version) {
  crypto::Digest256 digest = package_digest(entries);

  ByteWriter w;
  w.put_u32(kPackageMagic);
  w.put_u16(version);
  w.put_u16(static_cast<u16>(set.patches.size()));
  w.put_u32(static_cast<u32>(entries.size()));
  w.put_bytes(ByteSpan(digest.data(), digest.size()));
  w.put_bytes(entries);
  return w.take();
}

u16 wire_version_for(const PatchSet& set) {
  return set.has_lifecycle() ? kPackageVersionLifecycle : kPackageVersion;
}

}  // namespace

Bytes serialize_patchset(const PatchSet& set, PatchOp op) {
  u16 v = wire_version_for(set);
  return wrap_entries(set, serialize_entries(set, &op, v), v);
}

Bytes serialize_patchset_raw(const PatchSet& set) {
  u16 v = wire_version_for(set);
  return wrap_entries(set, serialize_entries(set, nullptr, v), v);
}

Result<PatchOp> peek_op(ByteSpan wire) {
  ByteReader r(wire);
  auto magic = r.get_u32();
  if (!magic || *magic != kPackageMagic) {
    return Status{Errc::kIntegrityFailure, "bad package magic"};
  }
  auto version = r.get_u16();
  if (!version ||
      (*version != kPackageVersion && *version != kPackageVersionLifecycle)) {
    return Status{Errc::kIntegrityFailure, "unsupported package version"};
  }
  // Skip count/size/digest, id and kernel version strings.
  if (!r.skip(2 + 4 + 32).is_ok()) {
    return Status{Errc::kOutOfRange, "truncated package"};
  }
  ByteReader r2 = r;
  auto id = get_string8(r2);
  if (!id) return id.status();
  auto kver = get_string8(r2);
  if (!kver) return kver.status();
  if (*version >= kPackageVersionLifecycle) {
    // Skip the depends / supersedes id lists.
    for (int list = 0; list < 2; ++list) {
      auto n = r2.get_u8();
      if (!n) return n.status();
      for (u8 k = 0; k < *n; ++k) {
        auto s = get_string8(r2);
        if (!s) return s.status();
      }
    }
  }
  KSHOT_RETURN_IF_ERROR(r2.skip(2));  // sequence
  auto op = r2.get_u8();
  if (!op) return op.status();
  if (*op != 1 && *op != 2) {
    return Status{Errc::kIntegrityFailure, "bad op field"};
  }
  return static_cast<PatchOp>(*op);
}

Result<PatchSet> parse_patchset(ByteSpan wire) {
  ByteReader r(wire);
  auto magic = r.get_u32();
  if (!magic || *magic != kPackageMagic) {
    return Status{Errc::kIntegrityFailure, "bad package magic"};
  }
  auto version = r.get_u16();
  if (!version ||
      (*version != kPackageVersion && *version != kPackageVersionLifecycle)) {
    return Status{Errc::kIntegrityFailure, "unsupported package version"};
  }
  const bool v2 = *version == kPackageVersionLifecycle;
  auto count = r.get_u16();
  if (!count) return count.status();
  auto entries_size = r.get_u32();
  if (!entries_size) return entries_size.status();
  auto digest_bytes = r.get_bytes(32);
  if (!digest_bytes) return digest_bytes.status();
  auto entries = r.get_span(*entries_size);
  if (!entries) return Status{Errc::kIntegrityFailure, "truncated package"};
  if (!r.exhausted()) {
    return Status{Errc::kIntegrityFailure, "trailing bytes after package"};
  }

  crypto::Digest256 stored;
  std::copy(digest_bytes->begin(), digest_bytes->end(), stored.begin());
  if (!crypto::digest_equal(stored, package_digest(*entries))) {
    return Status{Errc::kIntegrityFailure, "package digest mismatch"};
  }

  ByteReader er(*entries);
  PatchSet set;
  auto id = get_string8(er);
  if (!id) return id.status();
  set.id = std::move(*id);
  auto kver = get_string8(er);
  if (!kver) return kver.status();
  set.kernel_version = std::move(*kver);
  if (v2) {
    auto ndep = er.get_u8();
    if (!ndep) return ndep.status();
    for (u8 k = 0; k < *ndep; ++k) {
      auto dep = get_string8(er);
      if (!dep) return dep.status();
      set.depends.push_back(std::move(*dep));
    }
    auto nsup = er.get_u8();
    if (!nsup) return nsup.status();
    for (u8 k = 0; k < *nsup; ++k) {
      auto sup = get_string8(er);
      if (!sup) return sup.status();
      set.supersedes.push_back(std::move(*sup));
    }
  }

  for (u16 i = 0; i < *count; ++i) {
    FunctionPatch p;
    auto seq = er.get_u16();
    auto op = er.get_u8();
    auto type = er.get_u8();
    auto taddr = er.get_u64();
    auto paddr = er.get_u64();
    auto size = er.get_u32();
    auto ftrace_off = er.get_u16();
    auto nreloc = er.get_u16();
    auto nvar = er.get_u16();
    auto crc = er.get_u32();
    auto name_hash = er.get_u64();
    if (!seq || !op || !type || !taddr || !paddr || !size || !ftrace_off ||
        !nreloc || !nvar || !crc || !name_hash) {
      return Status{Errc::kIntegrityFailure, "truncated function header"};
    }
    if (*op != 1 && *op != 2) {
      return Status{Errc::kIntegrityFailure, "bad op field"};
    }
    if (*type < 1 || *type > 3) {
      return Status{Errc::kIntegrityFailure, "bad type field"};
    }
    p.sequence = *seq;
    p.op = static_cast<PatchOp>(*op);
    p.type = static_cast<PatchType>(*type);
    p.taddr = *taddr;
    p.paddr = *paddr;
    p.ftrace_off = *ftrace_off;

    auto name = get_string8(er);
    if (!name) return name.status();
    p.name = std::move(*name);
    if (crypto::sdbm(to_bytes(p.name)) != *name_hash) {
      return Status{Errc::kIntegrityFailure, "name hash mismatch"};
    }
    if (v2) {
      auto flags = er.get_u8();
      if (!flags) return flags.status();
      if (*flags > 1) {
        return Status{Errc::kIntegrityFailure, "bad function flags"};
      }
      p.splice = (*flags & 1) != 0;
      auto old_size = er.get_u32();
      if (!old_size) return old_size.status();
      p.old_size = *old_size;
      if (p.splice && p.taddr == 0) {
        return Status{Errc::kIntegrityFailure, "splice without target"};
      }
      if (p.splice && p.paddr != 0) {
        return Status{Errc::kIntegrityFailure, "splice with mem_X paddr"};
      }
    }
    for (u16 k = 0; k < *nreloc; ++k) {
      auto off = er.get_u32();
      auto idx = er.get_u32();
      auto target = er.get_u64();
      if (!off || !idx || !target) {
        return Status{Errc::kIntegrityFailure, "truncated reloc"};
      }
      p.relocs.push_back(
          {*off, static_cast<i32>(*idx), *target});
    }
    for (u16 k = 0; k < *nvar; ++k) {
      auto addr = er.get_u64();
      auto value = er.get_u64();
      auto kind = er.get_u8();
      if (!addr || !value || !kind) {
        return Status{Errc::kIntegrityFailure, "truncated var edit"};
      }
      if (*kind != 1 && *kind != 2) {
        return Status{Errc::kIntegrityFailure, "bad var edit kind"};
      }
      p.var_edits.push_back(
          {*addr, *value, static_cast<VarEdit::Kind>(*kind)});
    }
    auto code = er.get_bytes(*size);
    if (!code) return Status{Errc::kIntegrityFailure, "truncated code"};
    p.code = std::move(*code);
    if (crypto::crc32(p.code) != *crc) {
      return Status{Errc::kIntegrityFailure, "function payload CRC mismatch"};
    }
    set.patches.push_back(std::move(p));
  }
  if (!er.exhausted()) {
    return Status{Errc::kIntegrityFailure, "trailing bytes in package"};
  }
  return set;
}

Result<PatchSetView> parse_patchset_view(ByteSpan wire, Arena& arena) {
  // Mirrors parse_patchset check for check — including the exact Status
  // messages — so a package is accepted/rejected identically by both
  // parsers and the fuzz harness's reference model predicts SMM verdicts.
  ByteReader r(wire);
  auto magic = r.get_u32();
  if (!magic || *magic != kPackageMagic) {
    return Status{Errc::kIntegrityFailure, "bad package magic"};
  }
  auto version = r.get_u16();
  if (!version ||
      (*version != kPackageVersion && *version != kPackageVersionLifecycle)) {
    return Status{Errc::kIntegrityFailure, "unsupported package version"};
  }
  const bool v2 = *version == kPackageVersionLifecycle;
  auto count = r.get_u16();
  if (!count) return count.status();
  auto entries_size = r.get_u32();
  if (!entries_size) return entries_size.status();
  auto digest_bytes = r.get_span(32);
  if (!digest_bytes) return digest_bytes.status();
  auto entries = r.get_span(*entries_size);
  if (!entries) return Status{Errc::kIntegrityFailure, "truncated package"};
  if (!r.exhausted()) {
    return Status{Errc::kIntegrityFailure, "trailing bytes after package"};
  }

  crypto::Digest256 stored;
  std::copy(digest_bytes->begin(), digest_bytes->end(), stored.begin());
  if (!crypto::digest_equal(stored, package_digest(*entries))) {
    return Status{Errc::kIntegrityFailure, "package digest mismatch"};
  }

  ByteReader er(*entries);
  PatchSetView set;
  auto id = get_string8_view(er);
  if (!id) return id.status();
  set.id = *id;
  auto kver = get_string8_view(er);
  if (!kver) return kver.status();
  set.kernel_version = *kver;
  if (v2) {
    for (int list = 0; list < 2; ++list) {
      auto n = er.get_u8();
      if (!n) return n.status();
      std::string_view* ids = arena.alloc_array<std::string_view>(*n);
      for (u8 k = 0; k < *n; ++k) {
        auto s = get_string8_view(er);
        if (!s) return s.status();
        ids[k] = *s;
      }
      auto span = std::span<const std::string_view>(ids, *n);
      if (list == 0) {
        set.depends = span;
      } else {
        set.supersedes = span;
      }
    }
  }

  FunctionPatchView* patches = arena.alloc_array<FunctionPatchView>(*count);
  for (u16 i = 0; i < *count; ++i) {
    FunctionPatchView& p = patches[i];
    auto seq = er.get_u16();
    auto op = er.get_u8();
    auto type = er.get_u8();
    auto taddr = er.get_u64();
    auto paddr = er.get_u64();
    auto size = er.get_u32();
    auto ftrace_off = er.get_u16();
    auto nreloc = er.get_u16();
    auto nvar = er.get_u16();
    auto crc = er.get_u32();
    auto name_hash = er.get_u64();
    if (!seq || !op || !type || !taddr || !paddr || !size || !ftrace_off ||
        !nreloc || !nvar || !crc || !name_hash) {
      return Status{Errc::kIntegrityFailure, "truncated function header"};
    }
    if (*op != 1 && *op != 2) {
      return Status{Errc::kIntegrityFailure, "bad op field"};
    }
    if (*type < 1 || *type > 3) {
      return Status{Errc::kIntegrityFailure, "bad type field"};
    }
    p.sequence = *seq;
    p.op = static_cast<PatchOp>(*op);
    p.type = static_cast<PatchType>(*type);
    p.taddr = *taddr;
    p.paddr = *paddr;
    p.ftrace_off = *ftrace_off;

    auto name = get_string8_view(er);
    if (!name) return name.status();
    p.name = *name;
    if (crypto::sdbm(ByteSpan(reinterpret_cast<const u8*>(p.name.data()),
                              p.name.size())) != *name_hash) {
      return Status{Errc::kIntegrityFailure, "name hash mismatch"};
    }
    if (v2) {
      auto flags = er.get_u8();
      if (!flags) return flags.status();
      if (*flags > 1) {
        return Status{Errc::kIntegrityFailure, "bad function flags"};
      }
      p.splice = (*flags & 1) != 0;
      auto old_size = er.get_u32();
      if (!old_size) return old_size.status();
      p.old_size = *old_size;
      if (p.splice && p.taddr == 0) {
        return Status{Errc::kIntegrityFailure, "splice without target"};
      }
      if (p.splice && p.paddr != 0) {
        return Status{Errc::kIntegrityFailure, "splice with mem_X paddr"};
      }
    }
    RelocEntry* relocs = arena.alloc_array<RelocEntry>(*nreloc);
    for (u16 k = 0; k < *nreloc; ++k) {
      auto off = er.get_u32();
      auto idx = er.get_u32();
      auto target = er.get_u64();
      if (!off || !idx || !target) {
        return Status{Errc::kIntegrityFailure, "truncated reloc"};
      }
      relocs[k] = {*off, static_cast<i32>(*idx), *target};
    }
    p.relocs = std::span<const RelocEntry>(relocs, *nreloc);
    VarEdit* vars = arena.alloc_array<VarEdit>(*nvar);
    for (u16 k = 0; k < *nvar; ++k) {
      auto addr = er.get_u64();
      auto value = er.get_u64();
      auto kind = er.get_u8();
      if (!addr || !value || !kind) {
        return Status{Errc::kIntegrityFailure, "truncated var edit"};
      }
      if (*kind != 1 && *kind != 2) {
        return Status{Errc::kIntegrityFailure, "bad var edit kind"};
      }
      vars[k] = {*addr, *value, static_cast<VarEdit::Kind>(*kind)};
    }
    p.var_edits = std::span<const VarEdit>(vars, *nvar);
    auto code = er.get_span(*size);
    if (!code) return Status{Errc::kIntegrityFailure, "truncated code"};
    p.code = *code;
    if (crypto::crc32(p.code) != *crc) {
      return Status{Errc::kIntegrityFailure, "function payload CRC mismatch"};
    }
  }
  if (!er.exhausted()) {
    return Status{Errc::kIntegrityFailure, "trailing bytes in package"};
  }
  set.patches = std::span<const FunctionPatchView>(patches, *count);
  return set;
}

Bytes serialize_batch(const std::vector<Bytes>& packages) {
  ByteWriter w;
  w.put_u32(kBatchMagic);
  w.put_u32(static_cast<u32>(packages.size()));
  for (const Bytes& pkg : packages) {
    w.put_u32(static_cast<u32>(pkg.size()));
    w.put_bytes(pkg);
  }
  return w.take();
}

Result<std::vector<Bytes>> parse_batch(ByteSpan wire) {
  ByteReader r(wire);
  auto magic = r.get_u32();
  if (!magic || *magic != kBatchMagic) {
    return Status{Errc::kIntegrityFailure, "bad batch magic"};
  }
  auto count = r.get_u32();
  if (!count || *count == 0 || *count > kMaxBatchPackages) {
    return Status{Errc::kIntegrityFailure, "bad batch count"};
  }
  std::vector<Bytes> out;
  out.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto len = r.get_u32();
    if (!len || *len == 0 || *len > r.remaining()) {
      return Status{Errc::kIntegrityFailure, "truncated batch entry"};
    }
    auto pkg = r.get_bytes(*len);
    if (!pkg) return Status{Errc::kIntegrityFailure, "truncated batch entry"};
    out.push_back(std::move(*pkg));
  }
  if (!r.exhausted()) {
    return Status{Errc::kIntegrityFailure, "trailing bytes in batch"};
  }
  return out;
}

Result<std::vector<ByteSpan>> parse_batch_view(ByteSpan wire) {
  ByteReader r(wire);
  auto magic = r.get_u32();
  if (!magic || *magic != kBatchMagic) {
    return Status{Errc::kIntegrityFailure, "bad batch magic"};
  }
  auto count = r.get_u32();
  if (!count || *count == 0 || *count > kMaxBatchPackages) {
    return Status{Errc::kIntegrityFailure, "bad batch count"};
  }
  std::vector<ByteSpan> out;
  out.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto len = r.get_u32();
    if (!len || *len == 0 || *len > r.remaining()) {
      return Status{Errc::kIntegrityFailure, "truncated batch entry"};
    }
    auto pkg = r.get_span(*len);
    if (!pkg) return Status{Errc::kIntegrityFailure, "truncated batch entry"};
    out.push_back(*pkg);
  }
  if (!r.exhausted()) {
    return Status{Errc::kIntegrityFailure, "trailing bytes in batch"};
  }
  return out;
}

bool is_batch_wire(ByteSpan wire) {
  ByteReader r(wire);
  auto magic = r.get_u32();
  return magic && *magic == kBatchMagic;
}

}  // namespace kshot::patchtool
