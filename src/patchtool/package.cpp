#include "patchtool/package.hpp"

#include "common/byte_io.hpp"
#include "crypto/hmac.hpp"
#include "crypto/simple_hash.hpp"

namespace kshot::patchtool {

namespace {

Bytes serialize_entries(const PatchSet& set, const PatchOp* override_op,
                        u16 version) {
  ByteWriter w;
  w.put_string8(set.id);
  w.put_string8(set.kernel_version);
  if (version >= kPackageVersionLifecycle) {
    w.put_u8(static_cast<u8>(std::min<size_t>(set.depends.size(), 255)));
    for (size_t i = 0; i < std::min<size_t>(set.depends.size(), 255); ++i) {
      w.put_string8(set.depends[i]);
    }
    w.put_u8(static_cast<u8>(std::min<size_t>(set.supersedes.size(), 255)));
    for (size_t i = 0; i < std::min<size_t>(set.supersedes.size(), 255); ++i) {
      w.put_string8(set.supersedes[i]);
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
    w.put_string8(p.name);
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

// Arena table for `count` wire entries of at least `min_bytes` each, capped
// at what the bytes left in `r` can hold. The parser fills an entry only
// after reading all of it, so a forged count fails its reads before it
// passes the cap, and it never sizes an allocation.
template <typename T>
T* alloc_table(Arena& arena, size_t count, const ByteReader& r,
               size_t min_bytes) {
  return arena.alloc_array<T>(std::min(count, r.remaining() / min_bytes));
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

Result<PatchSetView> parse_patchset_view(ByteSpan wire, Arena& arena) {
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
  auto id = er.get_string8();
  if (!id) return id.status();
  set.id = *id;
  auto kver = er.get_string8();
  if (!kver) return kver.status();
  set.kernel_version = *kver;
  if (v2) {
    for (int list = 0; list < 2; ++list) {
      auto n = er.get_u8();
      if (!n) return n.status();
      auto* ids = alloc_table<std::string_view>(arena, *n, er, 1);
      for (u8 k = 0; k < *n; ++k) {
        auto s = er.get_string8();
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

  // A function is at least its header and the name's length byte.
  auto* patches =
      alloc_table<FunctionPatchView>(arena, *count, er, kFnHeaderBytes + 1);
  for (u16 i = 0; i < *count; ++i) {
    FunctionPatchView p;
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

    auto name = er.get_string8();
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
    auto* relocs = alloc_table<RelocEntry>(arena, *nreloc, er, 16);
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
    auto* vars = alloc_table<VarEdit>(arena, *nvar, er, 17);
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
    patches[i] = p;
  }
  if (!er.exhausted()) {
    return Status{Errc::kIntegrityFailure, "trailing bytes in package"};
  }
  set.patches = std::span<const FunctionPatchView>(patches, *count);
  return set;
}

PatchSet to_patchset(const PatchSetView& view) {
  PatchSet set;
  set.id = view.id;
  set.kernel_version = view.kernel_version;
  set.depends.assign(view.depends.begin(), view.depends.end());
  set.supersedes.assign(view.supersedes.begin(), view.supersedes.end());
  set.patches.reserve(view.patches.size());
  for (const FunctionPatchView& v : view.patches) {
    FunctionPatch& p = set.patches.emplace_back();
    p.sequence = v.sequence;
    p.op = v.op;
    p.type = v.type;
    p.name = v.name;
    p.taddr = v.taddr;
    p.paddr = v.paddr;
    p.ftrace_off = v.ftrace_off;
    p.code.assign(v.code.begin(), v.code.end());
    p.relocs.assign(v.relocs.begin(), v.relocs.end());
    p.var_edits.assign(v.var_edits.begin(), v.var_edits.end());
    p.splice = v.splice;
    p.old_size = v.old_size;
  }
  return set;
}

Result<PatchSet> parse_patchset(ByteSpan wire) {
  Arena arena;
  auto view = parse_patchset_view(wire, arena);
  if (!view) return view.status();
  return to_patchset(*view);
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
