#include "netsim/patch_server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/hex.hpp"
#include "common/log.hpp"
#include "kcc/parser.hpp"
#include "patchtool/callgraph.hpp"
#include "patchtool/package.hpp"

namespace kshot::netsim {

namespace {

// Every field of CompileOptions goes into the cache key: two targets whose
// builds differ in any way must never share an image or patch set.
std::string options_key(const kcc::CompileOptions& o) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llx:%llx:%d%d%d:",
                static_cast<unsigned long long>(o.text_base),
                static_cast<unsigned long long>(o.data_base),
                o.enable_inlining ? 1 : 0, o.enable_ftrace ? 1 : 0,
                o.enable_constfold ? 1 : 0);
  return std::string(buf) + o.version;
}

}  // namespace

PatchServer::PatchServer(const sgx::SgxRuntime* attestation_verifier,
                         u64 key_seed, obs::MetricsRegistry* metrics)
    : rng_(key_seed), metrics_(metrics) {
  if (attestation_verifier != nullptr) {
    verifiers_.push_back(attestation_verifier);
  }
  if (!metrics_) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  c_patchset_hits_ = &metrics_->counter("server.patchset_hits");
  c_patchset_misses_ = &metrics_->counter("server.patchset_misses");
  c_image_hits_ = &metrics_->counter("server.image_hits");
  c_image_misses_ = &metrics_->counter("server.image_misses");
  c_rejected_ = &metrics_->counter("server.rejected");
}

void PatchServer::add_verifier(const sgx::SgxRuntime* verifier) {
  if (verifier == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto* v : verifiers_) {
    if (v == verifier) return;
  }
  verifiers_.push_back(verifier);
}

void PatchServer::add_patch(PatchSource src) {
  std::lock_guard<std::mutex> lock(mu_);
  patches_.emplace(src.id, std::move(src));  // first registration wins
}

bool PatchServer::has_patch(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return patches_.count(id) > 0;
}

u64 PatchServer::rejected_requests() const { return c_rejected_->value(); }

BuildCacheStats PatchServer::cache_stats() const {
  BuildCacheStats s;
  s.patchset_hits = c_patchset_hits_->value();
  s.patchset_misses = c_patchset_misses_->value();
  s.image_hits = c_image_hits_->value();
  s.image_misses = c_image_misses_->value();
  return s;
}

Result<PatchSource> PatchServer::find_source(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = patches_.find(id);
  if (it == patches_.end()) return Status{Errc::kNotFound, "unknown patch"};
  return it->second;
}

kcc::CompileOptions PatchServer::options_for(const kernel::OsInfo& os,
                                             const std::string& ver) const {
  kcc::CompileOptions opts;
  opts.text_base = os.text_base;
  opts.data_base = os.data_base;
  opts.enable_ftrace = os.ftrace;
  opts.enable_inlining = true;
  opts.version = ver;
  return opts;
}

Result<kcc::KernelImage> PatchServer::image_for(
    const std::string& id, bool post, const kcc::CompileOptions& o) const {
  auto src = find_source(id);
  if (!src) return src.status();

  std::string key =
      id + (post ? ":post:" : ":pre:") + options_key(o);
  std::promise<Result<kcc::KernelImage>> promise;
  std::shared_future<Result<kcc::KernelImage>> fut;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = image_cache_.find(key);
    if (it != image_cache_.end()) {
      c_image_hits_->inc();
      fut = it->second;
    } else {
      c_image_misses_->inc();
      builder = true;
      fut = promise.get_future().share();
      image_cache_.emplace(key, fut);
    }
  }
  if (trace_) {
    trace_->instant("netsim", builder ? "image_cache_miss" : "image_cache_hit",
                    obs::kSharedTarget, 0, {{"key", key}});
  }
  if (builder) {
    auto t0 = std::chrono::steady_clock::now();
    promise.set_value(kcc::compile_source(
        post ? src->post_source : src->pre_source, o));
    if (trace_) {
      double wall_us = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      trace_->complete("netsim", "compile", obs::kSharedTarget, 0, 0, wall_us,
                       {{"key", key}});
    }
  }
  return fut.get();
}

Result<kcc::KernelImage> PatchServer::build_pre_image(
    const std::string& id, const kcc::CompileOptions& o) const {
  return image_for(id, /*post=*/false, o);
}

Result<kcc::KernelImage> PatchServer::build_post_image(
    const std::string& id, const kcc::CompileOptions& o) const {
  return image_for(id, /*post=*/true, o);
}

Result<patchtool::PatchSet> PatchServer::build_patchset(
    const std::string& id, const kernel::OsInfo& os) const {
  auto src = find_source(id);
  if (!src) return src.status();

  kcc::CompileOptions opts = options_for(os, src->kernel_version);
  std::string key = id + ":" + src->kernel_version + ":" + options_key(opts) +
                    ":" +
                    to_hex(ByteSpan(os.measurement.data(),
                                    os.measurement.size()));
  std::promise<Result<patchtool::PatchSet>> promise;
  std::shared_future<Result<patchtool::PatchSet>> fut;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = patchset_cache_.find(key);
    if (it != patchset_cache_.end()) {
      c_patchset_hits_->inc();
      fut = it->second;
    } else {
      c_patchset_misses_->inc();
      builder = true;
      fut = promise.get_future().share();
      patchset_cache_.emplace(key, fut);
    }
  }
  if (trace_) {
    trace_->instant("netsim",
                    builder ? "patchset_cache_miss" : "patchset_cache_hit",
                    obs::kSharedTarget, 0, {{"key", key}});
  }
  if (!builder) return fut.get();

  auto build = [&]() -> Result<patchtool::PatchSet> {
    auto pre = image_for(id, /*post=*/false, opts);
    if (!pre) return pre.status();
    auto post = image_for(id, /*post=*/true, opts);
    if (!post) return post.status();

    // Compatibility: the rebuilt pre image must be the binary the target
    // runs.
    if (!crypto::digest_equal(pre->measurement(), os.measurement)) {
      return Status{Errc::kFailedPrecondition,
                    "target kernel does not match server rebuild (version/"
                    "config drift)"};
    }

    auto pre_mod = kcc::parse(src->pre_source);
    if (!pre_mod) return pre_mod.status();
    auto post_mod = kcc::parse(src->post_source);
    if (!post_mod) return post_mod.status();

    patchtool::BuildPatchOptions bopts;
    bopts.id = id;
    auto changed = patchtool::source_changed_functions(*pre_mod, *post_mod);
    bopts.source_changed.assign(changed.begin(), changed.end());

    return patchtool::build_patchset(*pre, *post, bopts);
  };
  promise.set_value(build());
  return fut.get();
}

Result<Bytes> PatchServer::handle_request(ByteSpan request_wire) {
  auto reject = [this](Status why) -> Result<Bytes> {
    c_rejected_->inc();
    if (trace_) {
      trace_->instant("netsim", "request_rejected", obs::kSharedTarget, 0,
                      {{"why", std::string(why.message())}});
    }
    return why;
  };
  metrics_->counter("server.requests").inc();
  auto req_t0 = std::chrono::steady_clock::now();

  auto req_r = PatchRequest::deserialize(request_wire);
  if (!req_r) return reject(req_r.status());
  const PatchRequest& req = *req_r;

  // 1. Attestation: the report must verify against one of the provisioned
  //    platforms and must bind the DH key.
  std::vector<const sgx::SgxRuntime*> verifiers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    verifiers = verifiers_;
  }
  bool attested = false;
  for (const auto* v : verifiers) {
    if (v != nullptr && v->verify_report(req.attestation)) {
      attested = true;
      break;
    }
  }
  if (!attested) {
    return reject({Errc::kPermissionDenied, "enclave attestation failed"});
  }
  if (std::memcmp(req.attestation.report_data.data(), req.client_pub.data(),
                  req.client_pub.size()) != 0) {
    return reject({Errc::kPermissionDenied,
                   "attestation does not bind the session key"});
  }

  // 2. Build the patch set (single-flight cached across the fleet).
  auto set = build_patchset(req.patch_id, req.os);
  if (!set) return reject(set.status());
  patchtool::PatchOp op = req.op == PatchRequest::Op::kFetchRollback
                              ? patchtool::PatchOp::kRollback
                              : patchtool::PatchOp::kPatch;
  Bytes package = patchtool::serialize_patchset(*set, op);

  // 3. Seal under the DH session key. The RNG is shared mutable state, so
  //    the draw happens under the lock; which request gets which ephemeral
  //    key is scheduling-dependent, but every key works for every client.
  crypto::DhKeyPair server_keys;
  crypto::Nonce96 nonce{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    server_keys = crypto::dh_generate(rng_);
    rng_.fill(MutByteSpan(nonce.data(), nonce.size()));
  }
  crypto::X25519Key shared =
      crypto::dh_shared(server_keys.private_key, req.client_pub);
  if (crypto::dh_shared_is_zero(shared)) {
    return reject({Errc::kPermissionDenied,
                   "client public key is a low-order point"});
  }
  crypto::Key256 session = crypto::derive_key(
      ByteSpan(shared.data(), shared.size()), "server-enclave");

  PatchResponse resp;
  resp.server_pub = server_keys.public_key;
  // Seal into the wire buffer itself: nonce || len || ciphertext || mac,
  // with the package encrypted in place. Bytes equal seal().serialize().
  constexpr size_t kHdr = sizeof(crypto::Nonce96) + 4;
  Bytes& wire = resp.sealed_package;
  wire.resize(kHdr + package.size() + sizeof(crypto::Digest256));
  std::memcpy(wire.data() + kHdr, package.data(), package.size());
  KSHOT_RETURN_IF_ERROR(crypto::seal_in_place(
      session, nonce, MutByteSpan(wire.data(), wire.size()), package.size()));

  KSHOT_LOG(kInfo, "server") << "served " << req.patch_id << " ("
                             << package.size() << " bytes, "
                             << set->patches.size() << " functions)";
  if (trace_) {
    double wall_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - req_t0)
                         .count();
    trace_->complete("netsim", "handle_request", obs::kSharedTarget, 0, 0,
                     wall_us, {{"id", req.patch_id}});
  }
  metrics_->histogram("server.package_bytes").observe(
      static_cast<double>(package.size()));
  return resp.serialize();
}

}  // namespace kshot::netsim
