#include "core/kshot_enclave.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/byte_io.hpp"
#include "common/log.hpp"
#include "crypto/simple_hash.hpp"
#include "isa/reloc.hpp"

namespace kshot::core {

namespace {
// EPC internal layout: two package regions after a header page.
constexpr u64 kRawRegion = 0;
constexpr u64 kProcessedRegion = 1;
constexpr u64 kRegionHeader = 0x1000;

Bytes identity_blob(const kernel::OsInfo& os) {
  ByteWriter w;
  w.put_bytes(to_bytes(std::string("kshot-enclave-v1:")));
  w.put_bytes(to_bytes(os.version));
  return w.take();
}
}  // namespace

Bytes ReservedGeometry::serialize() const {
  ByteWriter w;
  w.put_u64(mem_x_base);
  w.put_u64(mem_x_size);
  w.put_u64(mem_w_size);
  return w.take();
}

Result<ReservedGeometry> ReservedGeometry::deserialize(ByteSpan wire) {
  ByteReader r(wire);
  ReservedGeometry g;
  auto a = r.get_u64();
  auto b = r.get_u64();
  auto c = r.get_u64();
  if (!a || !b || !c) return Status{Errc::kOutOfRange, "truncated geometry"};
  g.mem_x_base = *a;
  g.mem_x_size = *b;
  g.mem_w_size = *c;
  return g;
}

Bytes PackageStats::serialize() const {
  ByteWriter w;
  w.put_u32(functions);
  w.put_u32(code_bytes);
  w.put_u32(package_bytes);
  return w.take();
}

Result<PackageStats> PackageStats::deserialize(ByteSpan wire) {
  ByteReader r(wire);
  PackageStats s;
  auto a = r.get_u32();
  auto b = r.get_u32();
  auto c = r.get_u32();
  if (!a || !b || !c) return Status{Errc::kOutOfRange, "truncated stats"};
  s.functions = *a;
  s.code_bytes = *b;
  s.package_bytes = *c;
  return s;
}

KshotEnclave::KshotEnclave(kernel::OsInfo os, u64 entropy_seed)
    : sgx::Enclave("kshot-prep", identity_blob(os)),
      os_(std::move(os)),
      rng_(entropy_seed) {}

// ---- typed wrappers -------------------------------------------------------

Status KshotEnclave::initialize(const ReservedGeometry& geom) {
  auto r = ecall(kEcallInitialize, geom.serialize());
  return r.is_ok() ? Status::ok() : r.status();
}

Result<Bytes> KshotEnclave::begin_fetch(const std::string& patch_id,
                                        netsim::PatchRequest::Op op) {
  ByteWriter w;
  w.put_u8(static_cast<u8>(op));
  w.put_bytes(to_bytes(patch_id));
  return ecall(kEcallBeginFetch, w.bytes());
}

Result<PackageStats> KshotEnclave::finish_fetch(ByteSpan response_wire) {
  auto r = ecall(kEcallFinishFetch, response_wire);
  if (!r) return r.status();
  return PackageStats::deserialize(*r);
}

Result<PackageStats> KshotEnclave::preprocess() {
  auto r = ecall(kEcallPreprocess, {});
  if (!r) return r.status();
  return PackageStats::deserialize(*r);
}

Result<Bytes> KshotEnclave::seal_for_smm(const crypto::X25519Key& smm_pub) {
  return ecall(kEcallSeal, ByteSpan(smm_pub.data(), smm_pub.size()));
}

Result<Bytes> KshotEnclave::begin_seal_chunked(const crypto::X25519Key& smm_pub,
                                               u32 max_chunk_plain_bytes) {
  ByteWriter w;
  w.put_bytes(ByteSpan(smm_pub.data(), smm_pub.size()));
  w.put_u32(max_chunk_plain_bytes);
  return ecall(kEcallBeginSealChunked, w.bytes());
}

Result<Bytes> KshotEnclave::get_chunk(u32 index) {
  ByteWriter w;
  w.put_u32(index);
  return ecall(kEcallGetChunk, w.bytes());
}

Status KshotEnclave::batch_reset() {
  auto r = ecall(kEcallBatchReset, {});
  return r.is_ok() ? Status::ok() : r.status();
}

Status KshotEnclave::batch_add() {
  auto r = ecall(kEcallBatchAdd, {});
  return r.is_ok() ? Status::ok() : r.status();
}

Result<Bytes> KshotEnclave::seal_batch_for_smm(
    const crypto::X25519Key& smm_pub) {
  return ecall(kEcallSealBatch, ByteSpan(smm_pub.data(), smm_pub.size()));
}

Status KshotEnclave::set_lifecycle(const std::vector<std::string>& depends,
                                   const std::vector<std::string>& supersedes,
                                   bool allow_splice,
                                   const std::vector<OldSizeEntry>& old_sizes) {
  if (depends.size() > 255 || supersedes.size() > 255) {
    return {Errc::kInvalidArgument, "too many lifecycle ids"};
  }
  ByteWriter w;
  auto put_string8 = [&w](const std::string& s) {
    size_t n = std::min<size_t>(s.size(), 255);
    w.put_u8(static_cast<u8>(n));
    w.put_bytes(ByteSpan(reinterpret_cast<const u8*>(s.data()), n));
  };
  w.put_u8(static_cast<u8>(depends.size()));
  for (const auto& d : depends) put_string8(d);
  w.put_u8(static_cast<u8>(supersedes.size()));
  for (const auto& s : supersedes) put_string8(s);
  w.put_u8(allow_splice ? 1 : 0);
  w.put_u16(static_cast<u16>(std::min<size_t>(old_sizes.size(), 65535)));
  for (const auto& e : old_sizes) {
    w.put_u64(e.name_hash);
    w.put_u32(e.old_size);
  }
  auto r = ecall(kEcallSetLifecycle, w.bytes());
  return r.is_ok() ? Status::ok() : r.status();
}

Status KshotEnclave::set_mem_x_map(const std::vector<FreeExtent>& free_extents) {
  ByteWriter w;
  w.put_u32(static_cast<u32>(free_extents.size()));
  for (const auto& e : free_extents) {
    w.put_u64(e.base);
    w.put_u64(e.len);
  }
  auto r = ecall(kEcallSetMemXMap, w.bytes());
  return r.is_ok() ? Status::ok() : r.status();
}

u64 KshotEnclave::mem_x_cursor() const {
  u64 free = 0;
  for (const auto& e : memx_free_) free += e.len;
  return geom_.mem_x_size - free;
}

void KshotEnclave::reset_mem_x_cursor() {
  memx_free_.clear();
  if (geom_.mem_x_size != 0) {
    memx_free_.push_back({geom_.mem_x_base, geom_.mem_x_size});
  }
}

void KshotEnclave::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    c_prep_hits_ = nullptr;
    c_prep_misses_ = nullptr;
    return;
  }
  c_prep_hits_ = &metrics->counter("enclave.prep_hits");
  c_prep_misses_ = &metrics->counter("enclave.prep_misses");
}

// ---- ECALL dispatch --------------------------------------------------------

Result<Bytes> KshotEnclave::handle_ecall(int fn, ByteSpan input) {
  if (!trace_) return dispatch_ecall(fn, input);
  const char* name = "ecall";
  switch (fn) {
    case kEcallInitialize: name = "initialize"; break;
    case kEcallBeginFetch: name = "begin_fetch"; break;
    case kEcallFinishFetch: name = "finish_fetch"; break;
    case kEcallPreprocess: name = "preprocess"; break;
    case kEcallSeal: name = "seal"; break;
    case kEcallBeginSealChunked: name = "begin_seal_chunked"; break;
    case kEcallGetChunk: name = "get_chunk"; break;
    case kEcallBatchReset: name = "batch_reset"; break;
    case kEcallBatchAdd: name = "batch_add"; break;
    case kEcallSealBatch: name = "seal_batch"; break;
    case kEcallSetLifecycle: name = "set_lifecycle"; break;
    case kEcallSetMemXMap: name = "set_mem_x_map"; break;
  }
  auto t0 = std::chrono::steady_clock::now();
  u64 c0 = vclock_ ? vclock_() : 0;
  auto result = dispatch_ecall(fn, input);
  double wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  trace_->complete("enclave", name, trace_target_, c0,
                   vclock_ ? vclock_() : c0, wall_us,
                   {{"ok", result.is_ok() ? "1" : "0"}});
  return result;
}

Result<Bytes> KshotEnclave::dispatch_ecall(int fn, ByteSpan input) {
  switch (fn) {
    case kEcallInitialize: {
      auto g = ReservedGeometry::deserialize(input);
      if (!g) return g.status();
      geom_ = *g;
      initialized_ = true;
      reset_mem_x_cursor();
      return Bytes{};
    }
    case kEcallBeginFetch:
      return do_begin_fetch(input);
    case kEcallFinishFetch:
      return do_finish_fetch(input);
    case kEcallPreprocess:
      return do_preprocess();
    case kEcallSeal:
      return do_seal(input);
    case kEcallBeginSealChunked:
      return do_begin_seal_chunked(input);
    case kEcallGetChunk:
      return do_get_chunk(input);
    case kEcallBatchReset:
      batch_pkgs_.clear();
      return Bytes{};
    case kEcallBatchAdd:
      return do_batch_add();
    case kEcallSealBatch:
      return do_seal_batch(input);
    case kEcallSetLifecycle:
      return do_set_lifecycle(input);
    case kEcallSetMemXMap:
      return do_set_mem_x_map(input);
    default:
      return Status{Errc::kInvalidArgument, "unknown ecall"};
  }
}

Result<Bytes> KshotEnclave::do_begin_fetch(ByteSpan input) {
  if (!initialized_) {
    return Status{Errc::kFailedPrecondition, "enclave not initialized"};
  }
  ByteReader r(input);
  auto op = r.get_u8();
  if (!op || (*op != 1 && *op != 2)) {
    return Status{Errc::kInvalidArgument, "bad fetch op"};
  }
  auto id_bytes = r.get_bytes(r.remaining());
  std::string patch_id(id_bytes->begin(), id_bytes->end());

  // Fresh DH key per fetch; the attestation report binds the public key so
  // the server knows it is talking to this enclave, not a MITM.
  server_session_ = crypto::dh_generate(rng_);
  netsim::PatchRequest req;
  req.op = static_cast<netsim::PatchRequest::Op>(*op);
  req.patch_id = patch_id;
  req.os = os_;
  req.client_pub = server_session_.public_key;
  req.attestation = create_report(
      ByteSpan(server_session_.public_key.data(),
               server_session_.public_key.size()));
  fetch_in_flight_ = true;
  return req.serialize();
}

Result<Bytes> KshotEnclave::do_finish_fetch(ByteSpan input) {
  if (!fetch_in_flight_) {
    return Status{Errc::kFailedPrecondition, "no fetch in flight"};
  }
  fetch_in_flight_ = false;

  auto resp = netsim::PatchResponse::deserialize(input);
  if (!resp) return resp.status();

  crypto::X25519Key shared =
      crypto::dh_shared(server_session_.private_key, resp->server_pub);
  crypto::Key256 session = crypto::derive_key(
      ByteSpan(shared.data(), shared.size()), "server-enclave");

  // Zero-copy open: decrypt in place inside the response's own envelope
  // buffer, then validate through borrowed views. The only copy left on this
  // path is the EPC store, which is a real data movement in the model.
  auto box = crypto::SealedBoxView::deserialize(
      MutByteSpan(resp->sealed_package.data(), resp->sealed_package.size()));
  if (!box) return box.status();
  auto plain = crypto::open_in_place(session, *box);
  if (!plain) return plain.status();
  ByteSpan package(plain->data(), plain->size());

  // Integrity check #1 (network transmission errors / tampering): full
  // package validation before anything is kept.
  fetch_arena_.reset();
  auto set = patchtool::parse_patchset_view(package, fetch_arena_);
  if (!set) return set.status();

  KSHOT_RETURN_IF_ERROR(store_package(kRawRegion, package));
  raw_size_ = package.size();
  processed_size_ = 0;

  PackageStats stats;
  stats.functions = static_cast<u32>(set->patches.size());
  stats.code_bytes = static_cast<u32>(set->total_code_bytes());
  stats.package_bytes = static_cast<u32>(package.size());
  return stats.serialize();
}

Result<Bytes> KshotEnclave::do_preprocess() {
  if (raw_size_ == 0) {
    return Status{Errc::kFailedPrecondition, "no package fetched"};
  }
  auto raw = load_package(kRawRegion);
  if (!raw) return raw.status();
  auto set_r = patchtool::parse_patchset(*raw);
  if (!set_r) return set_r.status();
  patchtool::PatchSet set = std::move(*set_r);
  patchtool::PatchOp op = set.patches.empty()
                              ? patchtool::PatchOp::kPatch
                              : set.patches[0].op;

  // 0. Consume pending lifecycle directives (single-shot): stamp the
  //    depends/supersedes lists, and mark as in-place splices the functions
  //    whose new body fits the old footprint. A splice is laid out at its
  //    kernel-text address — no mem_X slot, no trampoline.
  if (lifecycle_pending_) {
    lifecycle_pending_ = false;
    set.depends = std::move(pending_depends_);
    set.supersedes = std::move(pending_supersedes_);
    if (pending_allow_splice_) {
      for (auto& p : set.patches) {
        auto it = pending_old_sizes_.find(crypto::sdbm(to_bytes(p.name)));
        if (it != pending_old_sizes_.end() && p.taddr != 0 &&
            it->second != 0 && p.code.size() <= it->second) {
          p.splice = true;
          p.old_size = it->second;
        }
      }
    }
    pending_depends_.clear();
    pending_supersedes_.clear();
    pending_allow_splice_ = false;
    pending_old_sizes_.clear();
  }

  // 1. Lay the patched functions out in mem_X (paper §V-C: p1 at the base,
  //    p_i at p_{i-1}.paddr + p_{i-1}.size), 16-byte aligned, first-fit
  //    into the free-extent map, so reclaimed gaps (set_mem_x_map) are
  //    reused. Spliced functions take no slot: their body lands over the
  //    old function in kernel text.
  for (auto& p : set.patches) {
    if (p.splice) {
      p.paddr = 0;
      continue;
    }
    bool placed = false;
    for (auto& e : memx_free_) {
      u64 aligned = (e.base + 15) & ~u64{15};
      u64 pad = aligned - e.base;
      if (pad <= e.len && p.code.size() <= e.len - pad) {
        p.paddr = aligned;
        u64 consumed = pad + p.code.size();
        e.base += consumed;
        e.len -= consumed;
        placed = true;
        break;
      }
    }
    if (!placed) {
      return Status{Errc::kResourceExhausted,
                    "mem_X exhausted (no free extent fits)"};
    }
  }

  // 2. Branch replacement: rewrite every external rel32 for the new home.
  //    Intra-patch-set references resolve to the callee's mem_X body. The
  //    rewrite is memoized content-addressed: the key covers the original
  //    code, its layout address, and every resolved target, so the cached
  //    body is valid exactly when the transformation inputs repeat (e.g. a
  //    re-preprocess of the same package at the same mem_X layout).
  for (auto& p : set.patches) {
    // A spliced body runs from the old function's address, so rel32 fixups
    // are computed against taddr, not a mem_X slot.
    const u64 reloc_base = p.splice ? p.taddr : p.paddr;
    std::vector<u64> targets;
    targets.reserve(p.relocs.size());
    for (const auto& rel : p.relocs) {
      u64 target;
      if (rel.patch_index >= 0) {
        if (static_cast<size_t>(rel.patch_index) >= set.patches.size()) {
          return Status{Errc::kIntegrityFailure, "bad intra-set reloc"};
        }
        const auto& callee = set.patches[rel.patch_index];
        // A spliced callee's body lives at its kernel-text address.
        u64 callee_base = callee.splice ? callee.taddr : callee.paddr;
        target = callee_base + callee.ftrace_off;
      } else {
        target = rel.target;
      }
      if (rel.offset + 4 > p.code.size()) {
        return Status{Errc::kIntegrityFailure, "reloc outside code"};
      }
      targets.push_back(target);
    }

    ByteWriter keybuf;
    keybuf.put_bytes(p.code);
    keybuf.put_u64(reloc_base);
    for (size_t k = 0; k < p.relocs.size(); ++k) {
      keybuf.put_u32(p.relocs[k].offset);
      keybuf.put_u64(targets[k]);
    }
    u64 key = crypto::fnv1a(keybuf.bytes());
    auto hit = prep_cache_.find(key);
    if (hit != prep_cache_.end()) {
      p.code = hit->second;
      if (c_prep_hits_) c_prep_hits_->inc();
    } else {
      for (size_t k = 0; k < p.relocs.size(); ++k) {
        isa::retarget_rel32(MutByteSpan(p.code), p.relocs[k].offset,
                            reloc_base, targets[k]);
      }
      prep_cache_.emplace(key, p.code);
      if (c_prep_misses_) c_prep_misses_->inc();
    }
    p.relocs.clear();  // fixups are baked into the code now
  }

  Bytes processed = patchtool::serialize_patchset(set, op);
  KSHOT_RETURN_IF_ERROR(store_package(kProcessedRegion, processed));
  processed_size_ = processed.size();

  PackageStats stats;
  stats.functions = static_cast<u32>(set.patches.size());
  stats.code_bytes = static_cast<u32>(set.total_code_bytes());
  stats.package_bytes = static_cast<u32>(processed.size());
  return stats.serialize();
}

Result<Bytes> KshotEnclave::seal_blob_for(ByteSpan smm_pub_bytes,
                                          const Bytes& plain) {
  if (smm_pub_bytes.size() != 32) {
    return Status{Errc::kInvalidArgument, "expected 32-byte SMM public key"};
  }
  crypto::X25519Key smm_pub;
  std::memcpy(smm_pub.data(), smm_pub_bytes.data(), 32);

  // Fresh enclave-side key for the SGX<->SMM session too.
  crypto::DhKeyPair smm_session = crypto::dh_generate(rng_);
  crypto::X25519Key shared =
      crypto::dh_shared(smm_session.private_key, smm_pub);
  crypto::Key256 key = crypto::derive_key(
      ByteSpan(shared.data(), shared.size()), "sgx-smm");
  crypto::Nonce96 nonce{};
  rng_.fill(MutByteSpan(nonce.data(), nonce.size()));

  // Single-buffer build: pub || nonce || len || ciphertext || mac, with the
  // plaintext placed once and encrypted in place (no intermediate SealedBox
  // or serialize() copy). Bytes are identical to seal().serialize().
  constexpr size_t kPub = 32;
  constexpr size_t kHdr = sizeof(crypto::Nonce96) + 4;
  constexpr size_t kMac = sizeof(crypto::Digest256);
  Bytes out(kPub + kHdr + plain.size() + kMac);
  std::memcpy(out.data(), smm_session.public_key.data(), kPub);
  std::memcpy(out.data() + kPub + kHdr, plain.data(), plain.size());
  KSHOT_RETURN_IF_ERROR(crypto::seal_in_place(
      key, nonce, MutByteSpan(out.data() + kPub, out.size() - kPub),
      plain.size()));
  return out;
}

Result<Bytes> KshotEnclave::do_seal(ByteSpan input) {
  if (processed_size_ == 0) {
    return Status{Errc::kFailedPrecondition, "nothing preprocessed"};
  }
  if (processed_size_ + 64 > geom_.mem_w_size) {
    return Status{Errc::kResourceExhausted,
                  "package exceeds mem_W; use chunked staging"};
  }
  auto processed = load_package(kProcessedRegion);
  if (!processed) return processed.status();
  return seal_blob_for(input, *processed);
}

Result<Bytes> KshotEnclave::do_batch_add() {
  if (processed_size_ == 0) {
    return Status{Errc::kFailedPrecondition, "nothing preprocessed"};
  }
  if (batch_pkgs_.size() >= patchtool::kMaxBatchPackages) {
    return Status{Errc::kResourceExhausted, "batch accumulator full"};
  }
  auto processed = load_package(kProcessedRegion);
  if (!processed) return processed.status();
  batch_pkgs_.push_back(std::move(*processed));
  return Bytes{};
}

Result<Bytes> KshotEnclave::do_seal_batch(ByteSpan input) {
  if (batch_pkgs_.empty()) {
    return Status{Errc::kFailedPrecondition, "empty batch"};
  }
  Bytes envelope = patchtool::serialize_batch(batch_pkgs_);
  if (envelope.size() + 64 > geom_.mem_w_size) {
    return Status{Errc::kResourceExhausted,
                  "batch envelope exceeds mem_W"};
  }
  return seal_blob_for(input, envelope);
}

Result<Bytes> KshotEnclave::do_set_lifecycle(ByteSpan input) {
  if (!initialized_) {
    return Status{Errc::kFailedPrecondition, "enclave not initialized"};
  }
  ByteReader r(input);
  auto get_string8 = [&r]() -> Result<std::string> {
    auto n = r.get_u8();
    if (!n) return n.status();
    auto b = r.get_bytes(*n);
    if (!b) return b.status();
    return std::string(b->begin(), b->end());
  };
  std::vector<std::string> depends;
  std::vector<std::string> supersedes;
  auto ndep = r.get_u8();
  if (!ndep) return Status{Errc::kOutOfRange, "truncated lifecycle wire"};
  for (u8 i = 0; i < *ndep; ++i) {
    auto s = get_string8();
    if (!s) return s.status();
    depends.push_back(std::move(*s));
  }
  auto nsup = r.get_u8();
  if (!nsup) return Status{Errc::kOutOfRange, "truncated lifecycle wire"};
  for (u8 i = 0; i < *nsup; ++i) {
    auto s = get_string8();
    if (!s) return s.status();
    supersedes.push_back(std::move(*s));
  }
  auto allow_splice = r.get_u8();
  auto nold = r.get_u16();
  if (!allow_splice || !nold || *allow_splice > 1) {
    return Status{Errc::kOutOfRange, "truncated lifecycle wire"};
  }
  std::map<u64, u32> old_sizes;
  for (u16 i = 0; i < *nold; ++i) {
    auto h = r.get_u64();
    auto sz = r.get_u32();
    if (!h || !sz) return Status{Errc::kOutOfRange, "truncated lifecycle wire"};
    old_sizes[*h] = *sz;
  }
  pending_depends_ = std::move(depends);
  pending_supersedes_ = std::move(supersedes);
  pending_allow_splice_ = *allow_splice != 0;
  pending_old_sizes_ = std::move(old_sizes);
  lifecycle_pending_ = true;
  return Bytes{};
}

Result<Bytes> KshotEnclave::do_set_mem_x_map(ByteSpan input) {
  if (!initialized_) {
    return Status{Errc::kFailedPrecondition, "enclave not initialized"};
  }
  ByteReader r(input);
  auto count = r.get_u32();
  if (!count) return Status{Errc::kOutOfRange, "truncated extent map"};
  std::vector<FreeExtent> extents;
  extents.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto base = r.get_u64();
    auto len = r.get_u64();
    if (!base || !len) {
      return Status{Errc::kOutOfRange, "truncated extent map"};
    }
    // Every extent must sit inside the reserved mem_X window (overflow-safe).
    if (*base < geom_.mem_x_base ||
        *base - geom_.mem_x_base > geom_.mem_x_size ||
        *len > geom_.mem_x_size - (*base - geom_.mem_x_base)) {
      return Status{Errc::kOutOfRange, "extent outside mem_X"};
    }
    if (*len != 0) extents.push_back({*base, *len});
  }
  memx_free_ = std::move(extents);
  return Bytes{};
}

Result<Bytes> KshotEnclave::do_begin_seal_chunked(ByteSpan input) {
  if (processed_size_ == 0) {
    return Status{Errc::kFailedPrecondition, "nothing preprocessed"};
  }
  ByteReader r(input);
  auto pub_bytes = r.get_bytes(32);
  auto max_plain = r.get_u32();
  if (!pub_bytes || !max_plain || *max_plain < 256) {
    return Status{Errc::kInvalidArgument, "bad chunking parameters"};
  }
  crypto::X25519Key smm_pub;
  std::memcpy(smm_pub.data(), pub_bytes->data(), 32);

  crypto::DhKeyPair session = crypto::dh_generate(rng_);
  crypto::X25519Key shared = crypto::dh_shared(session.private_key, smm_pub);
  chunk_key_ = crypto::derive_key(ByteSpan(shared.data(), shared.size()),
                                  "sgx-smm-stream");
  chunk_plain_bytes_ = *max_plain - 8;  // room for the {index,total} header
  chunk_count_ = static_cast<u32>(
      (processed_size_ + chunk_plain_bytes_ - 1) / chunk_plain_bytes_);
  chunking_ = true;

  ByteWriter out;
  out.put_bytes(
      ByteSpan(session.public_key.data(), session.public_key.size()));
  out.put_u32(chunk_count_);
  return out.take();
}

Result<Bytes> KshotEnclave::do_get_chunk(ByteSpan input) {
  if (!chunking_) {
    return Status{Errc::kFailedPrecondition, "chunking not set up"};
  }
  ByteReader r(input);
  auto index = r.get_u32();
  if (!index || *index >= chunk_count_) {
    return Status{Errc::kInvalidArgument, "bad chunk index"};
  }
  auto processed = load_package(kProcessedRegion);
  if (!processed) return processed.status();

  u64 off = static_cast<u64>(*index) * chunk_plain_bytes_;
  u64 len = std::min<u64>(chunk_plain_bytes_, processed->size() - off);

  // Authenticated chunk header + payload slice.
  ByteWriter plain;
  plain.put_u32(*index);
  plain.put_u32(chunk_count_);
  plain.put_bytes(ByteSpan(*processed).subspan(off, len));

  // Nonce: per-chunk, derived from the index — never reused under this
  // stream's fresh key.
  crypto::Nonce96 nonce{};
  store_u32(nonce.data(), *index);
  nonce[11] = 0x5C;  // stream-mode domain separator
  return crypto::seal(chunk_key_, nonce, plain.bytes()).serialize();
}

// ---- EPC package storage ----------------------------------------------------

Status KshotEnclave::store_package(u64 region, ByteSpan data) {
  u64 half = (epc_size() - kRegionHeader) / 2;
  if (data.size() + 8 > half) {
    return {Errc::kResourceExhausted, "package exceeds EPC region"};
  }
  u64 base = kRegionHeader + region * half;
  ByteWriter w;
  w.put_u64(data.size());
  w.put_bytes(data);
  return epc_write(base, w.bytes());
}

Result<Bytes> KshotEnclave::load_package(u64 region) const {
  u64 half = (epc_size() - kRegionHeader) / 2;
  u64 base = kRegionHeader + region * half;
  auto hdr = epc_read(base, 8);
  if (!hdr) return hdr.status();
  u64 size = load_u64(hdr->data());
  if (size == 0 || size > half - 8) {
    return Status{Errc::kInternal, "corrupt EPC package header"};
  }
  return epc_read(base + 8, size);
}

}  // namespace kshot::core
