// Streaming (chunked) staging tests: packages larger than mem_W cross the
// reserved region in pieces, each chunk authenticated and order-enforced,
// with the patch applying atomically after the final chunk.
#include <gtest/gtest.h>

#include "testbed/testbed.hpp"

namespace kshot::core {
namespace {

using testbed::Testbed;

TEST(Chunked, SmallPatchManyChunks) {
  // Force a small patch through tiny chunks to exercise the protocol.
  const auto& c = cve::find_case("CVE-2016-7914");  // ~15KB patch
  auto tb = Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  Testbed& t = **tb;

  u64 smis_before = t.machine().smi_count();
  auto rep = t.kshot().live_patch_chunked(c.id, 2048);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success)
      << "status " << static_cast<u64>(rep->smm_status);
  // Session SMI + one SMI per chunk (>= 8 chunks for ~15KB at 2KB).
  EXPECT_GT(t.machine().smi_count() - smis_before, 8u);

  auto exploit = t.run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_FALSE(exploit->oops);
  auto benign = t.run_benign();
  ASSERT_TRUE(benign.is_ok());
  EXPECT_FALSE(benign->oops);
}

TEST(Chunked, PatchLargerThanMemW) {
  // The headline case: a patch whose sealed package exceeds the whole mem_W
  // staging area, which the single-shot path must reject and the chunked
  // path must deliver.
  size_t target = 8 << 20;  // 8 MB patch
  cve::CveCase c = testbed::make_size_sweep_case(target);
  testbed::TestbedOptions opts;
  // Text segment big enough to hold the function, but a staging area
  // deliberately smaller than the package.
  opts.layout = kernel::MemoryLayout::for_size_sweep();
  opts.layout.mem_w_size = (4 << 20) - opts.layout.mem_rw_size;
  auto tb = Testbed::boot(c, opts);
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  Testbed& t = **tb;

  // Single-shot refuses: the package cannot fit mem_W.
  auto single = t.kshot().live_patch(c.id);
  EXPECT_FALSE(single.is_ok() && single->success);

  // Chunked succeeds.
  auto rep = t.kshot().live_patch_chunked(c.id, 1 << 20);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success)
      << "status " << static_cast<u64>(rep->smm_status);
  EXPECT_GT(rep->stats.code_bytes, target / 2);

  auto exploit = t.run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_FALSE(exploit->oops);
}

TEST(Chunked, RollbackWorksAfterChunkedApply) {
  const auto& c = cve::find_case("CVE-2016-7914");
  auto tb = Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  Testbed& t = **tb;
  ASSERT_TRUE(t.kshot().live_patch_chunked(c.id, 4096)->success);
  ASSERT_TRUE(t.kshot().rollback()->success);
  auto exploit = t.run_exploit();
  ASSERT_TRUE(exploit.is_ok());
  EXPECT_TRUE(exploit->oops);
}

TEST(Chunked, ChunkWithoutSessionRejected) {
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  Testbed& t = **tb;
  Mailbox mbox(t.machine().mem(), t.kernel().layout().mem_rw_base(),
               machine::AccessMode::normal());
  ASSERT_TRUE(mbox.write_staged_size(1024).is_ok());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kStageChunk).is_ok());
  t.machine().trigger_smi();
  EXPECT_EQ(*mbox.read_status(), SmmStatus::kNoSession);
}

TEST(Chunked, ReplayedChunkRejected) {
  // Re-staging chunk 0's ciphertext when chunk 1 is expected must fail the
  // nonce/order check and abort the stream.
  const auto& c = cve::find_case("CVE-2016-7914");
  auto tb = Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  Testbed& t = **tb;
  const auto& lay = t.kernel().layout();
  Mailbox mbox(t.machine().mem(), lay.mem_rw_base(),
               machine::AccessMode::normal());
  auto& enclave = t.kshot().enclave();

  // Manual pipeline up to chunk staging.
  auto req = enclave.begin_fetch(c.id, netsim::PatchRequest::Op::kFetchPatch);
  ASSERT_TRUE(req.is_ok());
  auto resp = t.server().handle_request(*req);
  ASSERT_TRUE(resp.is_ok());
  ASSERT_TRUE(enclave.finish_fetch(*resp).is_ok());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kBeginSession).is_ok());
  t.machine().trigger_smi();
  auto smm_pub = mbox.read_smm_pub();
  ASSERT_TRUE(enclave.preprocess().is_ok());
  auto setup = enclave.begin_seal_chunked(*smm_pub, 2048);
  ASSERT_TRUE(setup.is_ok());
  crypto::X25519Key pub;
  std::copy(setup->begin(), setup->begin() + 32, pub.begin());
  ASSERT_TRUE(mbox.write_enclave_pub(pub).is_ok());

  auto chunk0 = enclave.get_chunk(0);
  ASSERT_TRUE(chunk0.is_ok());
  auto stage = [&](const Bytes& chunk) {
    EXPECT_TRUE(t.machine()
                    .mem()
                    .write(lay.mem_w_base(), chunk,
                           machine::AccessMode::normal())
                    .is_ok());
    EXPECT_TRUE(mbox.write_staged_size(chunk.size()).is_ok());
    EXPECT_TRUE(mbox.write_command(SmmCommand::kStageChunk).is_ok());
    t.machine().trigger_smi();
    return *mbox.read_status();
  };

  EXPECT_EQ(stage(*chunk0), SmmStatus::kChunkAccepted);
  // Attack: replay chunk 0 instead of sending chunk 1.
  EXPECT_EQ(stage(*chunk0), SmmStatus::kChunkOutOfOrder);
  // The stream was aborted: even the right chunk is now rejected (the
  // session key was consumed; a fresh session is required).
  auto chunk1 = enclave.get_chunk(1);
  ASSERT_TRUE(chunk1.is_ok());
  EXPECT_EQ(stage(*chunk1), SmmStatus::kNoSession);
  EXPECT_EQ(t.kshot().handler().patches_applied(), 0u);
}

TEST(Chunked, TamperedChunkAbortsStream) {
  const auto& c = cve::find_case("CVE-2016-7914");
  auto tb = Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  Testbed& t = **tb;
  const auto& lay = t.kernel().layout();
  Mailbox mbox(t.machine().mem(), lay.mem_rw_base(),
               machine::AccessMode::normal());
  auto& enclave = t.kshot().enclave();

  auto req = enclave.begin_fetch(c.id, netsim::PatchRequest::Op::kFetchPatch);
  auto resp = t.server().handle_request(*req);
  ASSERT_TRUE(enclave.finish_fetch(*resp).is_ok());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kBeginSession).is_ok());
  t.machine().trigger_smi();
  auto smm_pub = mbox.read_smm_pub();
  ASSERT_TRUE(enclave.preprocess().is_ok());
  auto setup = enclave.begin_seal_chunked(*smm_pub, 2048);
  crypto::X25519Key pub;
  std::copy(setup->begin(), setup->begin() + 32, pub.begin());
  ASSERT_TRUE(mbox.write_enclave_pub(pub).is_ok());

  auto chunk0 = enclave.get_chunk(0);
  Bytes tampered = *chunk0;
  tampered[tampered.size() / 2] ^= 0x01;
  ASSERT_TRUE(t.machine()
                  .mem()
                  .write(lay.mem_w_base(), tampered,
                         machine::AccessMode::normal())
                  .is_ok());
  ASSERT_TRUE(mbox.write_staged_size(tampered.size()).is_ok());
  ASSERT_TRUE(mbox.write_command(SmmCommand::kStageChunk).is_ok());
  t.machine().trigger_smi();
  EXPECT_EQ(*mbox.read_status(), SmmStatus::kMacFailure);
  EXPECT_EQ(t.kshot().handler().patches_applied(), 0u);
}

TEST(Chunked, BadChunkSizeRejected) {
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  EXPECT_FALSE((*tb)->kshot().live_patch_chunked(c.id, 16).is_ok());
  EXPECT_FALSE(
      (*tb)->kshot()
          .live_patch_chunked(c.id,
                              static_cast<u32>(
                                  (*tb)->kernel().layout().mem_w_size))
          .is_ok());
  // chunk_bytes + 64 must not wrap in u32 and slip past the mem_W bound.
  EXPECT_FALSE((*tb)->kshot().live_patch_chunked(c.id, 0xFFFFFFF0u).is_ok());
}

}  // namespace
}  // namespace kshot::core
