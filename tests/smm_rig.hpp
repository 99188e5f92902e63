// A bare machine + SMM handler with an attacker in place of the enclave: the
// attacker knows the handshake, so it can seal arbitrary packages under a
// valid session key. Everything past the MAC must hold up on content checks
// alone.
#pragma once

#include <gtest/gtest.h>

#include "core/mailbox.hpp"
#include "core/smm_handler.hpp"
#include "crypto/aead.hpp"
#include "crypto/x25519.hpp"
#include "obs/metrics.hpp"
#include "patchtool/package.hpp"

namespace kshot::test {

struct SmmRig {
  explicit SmmRig(kernel::MemoryLayout layout)
      : lay(layout),
        m(lay.mem_bytes, lay.smram_base, lay.smram_size, 0x7E57),
        handler(lay, 0x7E57, &metrics) {
    EXPECT_TRUE(m.set_smm_handler([this](machine::Machine& mm) {
                   handler.on_smi(mm);
                 }).is_ok());
  }

  /// A sealed envelope and the public key the attacker sealed it with: what
  /// the helper app would put in mem_W and the mailbox's enclave_pub.
  struct Staging {
    Bytes sealed;
    crypto::X25519Key enclave_pub{};
  };

  /// Raises kBeginSession and returns the handler's fresh public key.
  crypto::X25519Key begin_session() {
    core::Mailbox mbox(m.mem(), lay.mem_rw_base(),
                       machine::AccessMode::normal());
    EXPECT_TRUE(mbox.write_command(core::SmmCommand::kBeginSession).is_ok());
    m.trigger_smi();
    auto smm_pub = mbox.read_smm_pub();
    EXPECT_TRUE(smm_pub.is_ok());
    return smm_pub.is_ok() ? *smm_pub : crypto::X25519Key{};
  }

  /// Opens a session and seals `wire` under its "sgx-smm" key.
  Staging seal(const Bytes& wire) {
    const crypto::X25519Key smm_pub = begin_session();
    Rng rng(0xBAD5EED);
    auto keys = crypto::dh_generate(rng);
    auto shared = crypto::dh_shared(keys.private_key, smm_pub);
    auto key =
        crypto::derive_key(ByteSpan(shared.data(), shared.size()), "sgx-smm");
    crypto::Nonce96 nonce{};
    rng.fill(MutByteSpan(nonce.data(), nonce.size()));
    return {crypto::seal(key, nonce, wire).serialize(), keys.public_key};
  }

  /// Writes `s` verbatim into mem_W and the mailbox, raises `cmd` and
  /// returns the SMM status word.
  core::SmmStatus stage(
      const Staging& s, core::SmmCommand cmd = core::SmmCommand::kApplyPatch) {
    const auto mode = machine::AccessMode::normal();
    core::Mailbox mbox(m.mem(), lay.mem_rw_base(), mode);
    EXPECT_TRUE(m.mem().write(lay.mem_w_base(), s.sealed, mode).is_ok());
    EXPECT_TRUE(mbox.write_enclave_pub(s.enclave_pub).is_ok());
    EXPECT_TRUE(mbox.write_staged_size(s.sealed.size()).is_ok());
    EXPECT_TRUE(mbox.write_command(cmd).is_ok());
    m.trigger_smi();
    auto st = mbox.read_status();
    EXPECT_TRUE(st.is_ok());
    return st.is_ok() ? *st : core::SmmStatus::kOk;
  }

  /// Runs the full staging handshake for `wire` and returns the SMM status
  /// word after the `cmd` SMI (kApplyPatch, or kApplyBatch for a batch
  /// envelope).
  core::SmmStatus deliver(
      const Bytes& wire,
      core::SmmCommand cmd = core::SmmCommand::kApplyPatch) {
    return stage(seal(wire), cmd);
  }

  kernel::MemoryLayout lay;
  machine::Machine m;
  obs::MetricsRegistry metrics;
  core::SmmPatchHandler handler;
};

inline patchtool::FunctionPatch make_entry(const char* name, u64 taddr,
                                           u64 paddr, size_t code_bytes = 32) {
  patchtool::FunctionPatch p;
  p.name = name;
  p.taddr = taddr;
  p.paddr = paddr;
  p.code = Bytes(code_bytes, 0x90);
  return p;
}

}  // namespace kshot::test
