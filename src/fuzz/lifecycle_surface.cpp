// Lifecycle surface: fuzzes the patch-stack state machine that PR 8 added
// to the SMM handler — supersede retirement, dependency-fenced out-of-order
// revert, LIFO rollback, and the kQueryApplied introspection blob. Where
// the package surface throws hostile *wires* at one apply, this surface
// throws hostile *op sequences* at the applied-set bookkeeping: every case
// is a schedule of apply/supersede/revert/rollback ops driven through real
// SMI sessions against a fresh rig.
//
// The oracle keeps an independent reference model of the applied stack
// (units, provides/depends hashes, per-function write windows, mem_X
// occupancy) and checks three things after every op: the SMM status matches
// the model's prediction, the kQueryApplied blob is byte-identical to the
// blob the model would emit, and — after draining the stack with rollbacks
// at the end — all memory outside SMRAM/mailbox/mem_W/mem_X is
// byte-identical to the pre-run snapshot (reverted bodies legitimately stay
// behind in mem_X; nothing points at them).
#include <cstring>
#include <sstream>

#include "common/byte_io.hpp"
#include "common/hex.hpp"
#include "core/smm_handler.hpp"
#include "crypto/aead.hpp"
#include "crypto/simple_hash.hpp"
#include "fuzz/fuzz.hpp"
#include "machine/machine.hpp"
#include "patchtool/package.hpp"

namespace kshot::fuzz {

namespace {

using core::SmmCommand;
using core::SmmStatus;
using patchtool::FunctionPatch;
using patchtool::PatchSet;
using patchtool::PatchType;

constexpr u64 kRigSeed = 0x7E58;
constexpr u64 kAttackerSeed = 0xBAD5EED;

/// Op vocabulary: a case is a flat sequence of (op, arg) byte pairs. An
/// odd-length or oversize wire is structurally invalid and rejected without
/// booting a rig, so execute() stays cheap on garbage.
enum class Op : u8 {
  kApplyBase = 0,  // apply "U<k>"        k = arg % 4
  kApplySup = 1,   // apply "S<k>" superseding "U<k>"; arg & 4 → splice form
  kApplyDep = 2,   // apply "D<k>" depending on "U<k>"
  kRevert = 3,     // kRevertPatch targeting ids[arg % 12]
  kRollback = 4,   // kRollback (LIFO pop)
};
constexpr size_t kMaxOps = 32;

/// Same compact 2 MB layout as the package surface: cheap full-memory
/// snapshots keep the final byte-exact oracle affordable per case.
kernel::MemoryLayout fuzz_layout() {
  kernel::MemoryLayout lay;
  lay.mem_bytes = 0x20'0000;
  lay.smram_base = 0xA0000;
  lay.smram_size = 0x20000;
  lay.text_base = 0x10'0000;
  lay.text_max = 0x2'0000;
  lay.data_base = 0x14'0000;
  lay.data_max = 0x8000;
  lay.stacks_base = 0x14'8000;
  lay.stack_size = 0x1000;
  lay.max_threads = 4;
  lay.module_base = 0x15'0000;
  lay.module_size = 0x8000;
  lay.reserved_base = 0x16'0000;
  lay.mem_rw_size = 0x1000;
  lay.mem_w_size = 0x1'0000;
  lay.mem_x_size = 0x2'0000;
  lay.epc_base = 0x1A'0000;
  lay.epc_size = 0x1'0000;
  return lay;
}

/// Fixed, collision-free geometry per family: U/S/D slots never alias each
/// other, so the only window overlaps a schedule can produce are the
/// *semantic* ones (re-applying a live id, splicing over a live
/// trampoline) — exactly the cases the stack manager must referee.
u64 base_taddr(const kernel::MemoryLayout& lay, u8 k) {
  return lay.text_base + 0x400 * (u64{k} + 1);
}
u64 dep_taddr(const kernel::MemoryLayout& lay, u8 k) {
  return lay.text_base + 0x1'0000 + 0x400 * u64{k};
}

/// The revert op's 12-entry target table: every id any schedule can mint.
std::string revert_target_id(u8 arg) {
  static const char* kFam[3] = {"U", "S", "D"};
  u8 i = arg % 12;
  return std::string(kFam[i / 4]) + std::to_string(i % 4);
}

/// Deterministic body bytes so mem_X contents are nontrivial and the final
/// memory compare can catch a body written to the wrong slot.
Bytes body_bytes(char fam, u8 k, size_t n) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<u8>((static_cast<size_t>(fam) * 131 + k * 17 + i * 7) &
                           0xFF);
  }
  return b;
}

/// Builds the patch set an apply-family op stands for. All geometry is
/// valid by construction; the handler's verdict depends only on lifecycle
/// state (dependencies, supersede resolution, window overlaps).
PatchSet op_patchset(const kernel::MemoryLayout& lay, Op op, u8 arg) {
  u8 k = arg % 4;
  PatchSet set;
  set.kernel_version = "sim-4.4";
  FunctionPatch p;
  p.sequence = 0;
  p.type = PatchType::kType1;
  switch (op) {
    case Op::kApplyBase:
      set.id = "U" + std::to_string(k);
      p.name = "ufn" + std::to_string(k);
      p.taddr = base_taddr(lay, k);
      p.paddr = lay.mem_x_base() + 0x400 * u64{k};
      p.code = body_bytes('U', k, 32 + 8 * size_t{k});
      break;
    case Op::kApplySup:
      set.id = "S" + std::to_string(k);
      set.supersedes.push_back("U" + std::to_string(k));
      p.name = "sfn" + std::to_string(k);
      if (arg & 4) {
        // Splice form: the cumulative body lands in place over U<k>'s entry
        // (legal only because the supersede retires U<k>'s trampoline — or
        // because nothing is installed there at all).
        p.splice = true;
        p.taddr = base_taddr(lay, k);
        p.old_size = 48;
        p.code = body_bytes('S', k, 40);
      } else {
        p.taddr = base_taddr(lay, k);
        p.paddr = lay.mem_x_base() + 0x8000 + 0x400 * u64{k};
        p.code = body_bytes('S', k, 48);
      }
      break;
    case Op::kApplyDep:
      set.id = "D" + std::to_string(k);
      set.depends.push_back("U" + std::to_string(k));
      p.name = "dfn" + std::to_string(k);
      p.taddr = dep_taddr(lay, k);
      p.paddr = lay.mem_x_base() + 0x1'0000 + 0x400 * u64{k};
      p.code = body_bytes('D', k, 24);
      break;
    default:
      break;
  }
  set.patches.push_back(std::move(p));
  return set;
}

// ---- Reference model ---------------------------------------------------------

struct ModelFunc {
  u64 taddr = 0;
  u64 paddr = 0;
  u32 code_size = 0;
  u16 ftrace_off = 0;
  bool spliced = false;
};

struct ModelUnit {
  std::string id;
  std::string kernel_version;
  u64 id_hash = 0;
  u64 seq = 0;
  std::vector<u64> provides;
  std::vector<u64> depends;
  std::vector<ModelFunc> funcs;  // in apply order within the unit
};

struct RefWindow {
  u64 addr = 0;
  u64 len = 0;
};

bool overlaps(const RefWindow& a, const RefWindow& b) {
  return a.addr < b.addr + b.len && b.addr < a.addr + a.len;
}

void func_windows(const ModelFunc& f, std::vector<RefWindow>& out) {
  if (f.spliced) {
    if (f.code_size != 0) out.push_back({f.taddr, f.code_size});
    return;
  }
  if (f.code_size != 0) out.push_back({f.paddr, f.code_size});
  if (f.taddr != 0) out.push_back({f.taddr + f.ftrace_off, 5});
}

/// Mirror of apply_parsed's lifecycle contract: supersede resolution by
/// exact id, dependency fence over the union of applied provides, window
/// validation against the non-retired installed set, then commit (erase
/// retired, inherit provides, append the new unit with the next seq).
class StackModel {
 public:
  SmmStatus apply(const PatchSet& set) {
    std::vector<size_t> superseded;
    for (const auto& sid : set.supersedes) {
      for (size_t u = 0; u < units_.size(); ++u) {
        if (units_[u].id == sid) {
          superseded.push_back(u);
          break;
        }
      }
    }
    std::sort(superseded.begin(), superseded.end());
    superseded.erase(std::unique(superseded.begin(), superseded.end()),
                     superseded.end());
    for (const auto& dep : set.depends) {
      u64 h = crypto::sdbm(to_bytes(dep));
      bool found = false;
      for (const auto& u : units_) {
        for (u64 pv : u.provides) {
          if (pv == h) found = true;
        }
      }
      if (!found) return SmmStatus::kMissingDependency;
    }
    std::vector<RefWindow> mine;
    std::vector<ModelFunc> funcs;
    for (const auto& p : set.patches) {
      ModelFunc f;
      f.taddr = p.taddr;
      f.paddr = p.paddr;
      f.code_size = static_cast<u32>(p.code.size());
      f.ftrace_off = p.ftrace_off;
      f.spliced = p.splice;
      func_windows(f, mine);
      funcs.push_back(f);
    }
    std::vector<RefWindow> live;
    for (size_t u = 0; u < units_.size(); ++u) {
      if (std::find(superseded.begin(), superseded.end(), u) !=
          superseded.end()) {
        continue;
      }
      for (const auto& f : units_[u].funcs) func_windows(f, live);
    }
    for (size_t i = 0; i < mine.size(); ++i) {
      for (size_t j = i + 1; j < mine.size(); ++j) {
        if (overlaps(mine[i], mine[j])) return SmmStatus::kBadPackage;
      }
      for (const auto& w : live) {
        if (overlaps(mine[i], w)) return SmmStatus::kBadPackage;
      }
    }
    std::vector<u64> inherited;
    for (auto it = superseded.rbegin(); it != superseded.rend(); ++it) {
      inherited.insert(inherited.end(), units_[*it].provides.begin(),
                       units_[*it].provides.end());
      units_.erase(units_.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    ModelUnit unit;
    unit.id = set.id;
    unit.kernel_version = set.kernel_version;
    unit.id_hash = crypto::sdbm(to_bytes(set.id));
    unit.funcs = std::move(funcs);
    unit.provides.push_back(unit.id_hash);
    unit.provides.insert(unit.provides.end(), inherited.begin(),
                         inherited.end());
    std::sort(unit.provides.begin(), unit.provides.end());
    unit.provides.erase(
        std::unique(unit.provides.begin(), unit.provides.end()),
        unit.provides.end());
    for (const auto& dep : set.depends) {
      unit.depends.push_back(crypto::sdbm(to_bytes(dep)));
    }
    unit.seq = ++seq_counter_;
    units_.push_back(std::move(unit));
    return SmmStatus::kOk;
  }

  SmmStatus revert(u64 id_hash) {
    size_t idx = units_.size();
    for (size_t u = 0; u < units_.size(); ++u) {
      if (units_[u].id_hash == id_hash) {
        idx = u;
        break;
      }
    }
    if (idx == units_.size()) return SmmStatus::kNothingToRollback;
    for (size_t u = 0; u < units_.size(); ++u) {
      if (u == idx) continue;
      for (u64 dep : units_[u].depends) {
        for (u64 pv : units_[idx].provides) {
          if (dep == pv) return SmmStatus::kRevertBlocked;
        }
      }
    }
    units_.erase(units_.begin() + static_cast<std::ptrdiff_t>(idx));
    return SmmStatus::kOk;
  }

  SmmStatus rollback() {
    if (units_.empty()) return SmmStatus::kNothingToRollback;
    units_.pop_back();
    return SmmStatus::kOk;
  }

  /// Byte-identical rebuild of the handler's kQueryApplied blob from model
  /// state alone.
  Bytes expected_query_blob(const kernel::MemoryLayout& lay) const {
    ByteWriter w;
    w.put_u32(core::kQueryMagic);
    w.put_u32(static_cast<u32>(units_.size()));
    auto put_string8 = [&w](const std::string& s) {
      size_t n = std::min<size_t>(s.size(), 255);
      w.put_u8(static_cast<u8>(n));
      w.put_bytes(ByteSpan(reinterpret_cast<const u8*>(s.data()), n));
    };
    for (const auto& u : units_) {
      put_string8(u.id);
      put_string8(u.kernel_version);
      w.put_u64(u.seq);
      w.put_u64(u.id_hash);
      w.put_u32(static_cast<u32>(u.funcs.size()));
      u32 code_bytes = 0;
      u8 spliced = 0;
      for (const auto& f : u.funcs) {
        code_bytes += f.code_size;
        if (f.spliced) ++spliced;
      }
      w.put_u32(code_bytes);
      w.put_u8(spliced);
    }
    std::vector<RefWindow> extents;
    u64 used = 0;
    for (const auto& u : units_) {
      for (const auto& f : u.funcs) {
        if (f.spliced) continue;
        used += f.code_size;
        if (f.code_size != 0) extents.push_back({f.paddr, f.code_size});
      }
    }
    std::sort(extents.begin(), extents.end(),
              [](const RefWindow& a, const RefWindow& b) {
                return a.addr < b.addr;
              });
    w.put_u64(used);
    w.put_u64(lay.mem_x_size - used);
    w.put_u32(static_cast<u32>(extents.size()));
    for (const auto& e : extents) {
      w.put_u64(e.addr);
      w.put_u64(e.len);
    }
    return w.take();
  }

  [[nodiscard]] size_t size() const { return units_.size(); }

 private:
  std::vector<ModelUnit> units_;
  u64 seq_counter_ = 0;
};

// ---- Surface -----------------------------------------------------------------

class LifecycleSurface final : public Surface {
 public:
  const char* name() const override { return "lifecycle"; }

  Bytes generate(Rng& rng) override;
  Verdict execute(ByteSpan encoded) override;
  std::vector<Bytes> shrink_candidates(ByteSpan encoded, Rng& rng) override;
  std::string describe(ByteSpan encoded) const override;

 private:
  kernel::MemoryLayout lay_ = fuzz_layout();
};

Bytes LifecycleSurface::generate(Rng& rng) {
  if (rng.next_below(16) == 0) {
    // Structural garbage: odd lengths and oversize schedules must reject
    // cleanly without booting a rig.
    return rng.next_bytes(1 + rng.next_below(2 * kMaxOps + 8));
  }
  size_t n = 1 + rng.next_below(10);
  Bytes b;
  b.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    b.push_back(static_cast<u8>(rng.next_below(5)));
    // Small args keep schedules colliding on the same ids (that is where
    // the lifecycle logic lives); occasional full-range args exercise the
    // modular decoding and the whole revert table.
    b.push_back(static_cast<u8>(rng.next_below(2) ? rng.next_below(16)
                                                  : rng.next_below(256)));
  }
  return b;
}

Surface::Verdict LifecycleSurface::execute(ByteSpan encoded) {
  Verdict v;
  auto fail = [&](const char* oracle, std::string detail) {
    if (!v.failure) v.failure = {std::string(oracle), std::move(detail)};
  };

  if (encoded.empty() || encoded.size() % 2 != 0 ||
      encoded.size() > 2 * kMaxOps) {
    v.kind = Verdict::Kind::kRejected;
    return v;
  }

  obs::MetricsRegistry metrics;
  machine::Machine m(lay_.mem_bytes, lay_.smram_base, lay_.smram_size,
                     kRigSeed);
  core::SmmPatchHandler handler(lay_, kRigSeed, &metrics);
  if (!m.set_smm_handler(
           [&handler](machine::Machine& mm) { handler.on_smi(mm); })
           .is_ok()) {
    fail("rig", "set_smm_handler failed");
    return v;
  }
  auto fill = [&](PhysAddr base, size_t len) {
    u8* p = m.mem().raw(base, len);
    for (size_t i = 0; i < len; ++i) {
      p[i] = static_cast<u8>((base + i) * 0x9E37u >> 8);
    }
  };
  fill(lay_.text_base, lay_.text_max);
  fill(lay_.data_base, lay_.data_max);

  const auto mode = machine::AccessMode::normal();
  core::Mailbox mbox(m.mem(), lay_.mem_rw_base(), mode);
  Rng arng(kAttackerSeed);

  // Pre-run snapshot: after the final drain, everything outside
  // SMRAM/mailbox/mem_W/mem_X must come back to exactly this.
  Bytes snapshot(m.mem().raw(0, lay_.mem_bytes),
                 m.mem().raw(0, lay_.mem_bytes) + lay_.mem_bytes);

  StackModel model;
  bool applied_any = false;

  auto smi_status = [&](SmmCommand cmd) -> Result<SmmStatus> {
    mbox.write_command(cmd);
    m.trigger_smi();
    auto st = mbox.read_status();
    auto back = mbox.read_command();
    if (!back || *back != SmmCommand::kIdle) {
      fail("command-not-reset", "command word not reset to kIdle after SMI");
    }
    return st;
  };

  // One full helper handshake per apply op: fresh session keys, fresh
  // nonce, package sealed under the derived "sgx-smm" key.
  auto run_apply = [&](const PatchSet& set) -> Result<SmmStatus> {
    auto st = smi_status(SmmCommand::kBeginSession);
    if (!st || *st != SmmStatus::kOk) {
      fail("rig", "begin_session failed");
      return Status{Errc::kInternal, "begin_session"};
    }
    auto smm_pub = mbox.read_smm_pub();
    if (!smm_pub) {
      fail("rig", "smm pub unreadable after kBeginSession");
      return smm_pub.status();
    }
    auto keys = crypto::dh_generate(arng);
    auto shared = crypto::dh_shared(keys.private_key, *smm_pub);
    auto key = crypto::derive_key(ByteSpan(shared.data(), shared.size()),
                                  "sgx-smm");
    crypto::Nonce96 nonce{};
    arng.fill(MutByteSpan(nonce.data(), nonce.size()));
    Bytes wire = patchtool::serialize_patchset_raw(set);
    Bytes sealed = crypto::seal(key, nonce, wire).serialize();
    m.mem().write(lay_.mem_w_base(), sealed, mode);
    mbox.write_enclave_pub(keys.public_key);
    mbox.write_staged_size(sealed.size());
    return smi_status(SmmCommand::kApplyPatch);
  };

  // Query oracle: the handler's blob must match the model's byte-for-byte.
  auto check_query = [&](size_t op_idx) {
    auto st = smi_status(SmmCommand::kQueryApplied);
    if (!st || *st != SmmStatus::kOk) {
      fail("query-status",
           "op " + std::to_string(op_idx) + ": kQueryApplied returned " +
               (st ? core::smm_status_name(*st) : "<unreadable>"));
      return;
    }
    auto size = mbox.read_query_size();
    if (!size) {
      fail("query-size", "query size unreadable");
      return;
    }
    auto blob = m.mem().read_bytes(
        lay_.mem_rw_base() + core::MailboxLayout::kQueryBlob, *size, mode);
    if (!blob) {
      fail("query-blob", "query blob unreadable");
      return;
    }
    Bytes expect = model.expected_query_blob(lay_);
    if (*blob != expect) {
      size_t at = 0;
      while (at < blob->size() && at < expect.size() &&
             (*blob)[at] == expect[at]) {
        ++at;
      }
      fail("query-model",
           "op " + std::to_string(op_idx) + ": blob diverges at offset " +
               std::to_string(at) + " (got " + std::to_string(blob->size()) +
               " bytes, expected " + std::to_string(expect.size()) + ")");
    }
  };

  for (size_t i = 0; i + 1 < encoded.size() && !v.failure; i += 2) {
    Op op = static_cast<Op>(encoded[i] % 5);
    u8 arg = encoded[i + 1];
    SmmStatus predicted;
    Result<SmmStatus> observed = SmmStatus::kOk;
    switch (op) {
      case Op::kApplyBase:
      case Op::kApplySup:
      case Op::kApplyDep: {
        PatchSet set = op_patchset(lay_, op, arg);
        predicted = model.apply(set);
        observed = run_apply(set);
        if (predicted == SmmStatus::kOk) applied_any = true;
        break;
      }
      case Op::kRevert: {
        u64 h = crypto::sdbm(to_bytes(revert_target_id(arg)));
        predicted = model.revert(h);
        mbox.write_revert_target(h);
        observed = smi_status(SmmCommand::kRevertPatch);
        break;
      }
      case Op::kRollback:
        predicted = model.rollback();
        observed = smi_status(SmmCommand::kRollback);
        break;
    }
    if (v.failure) break;
    if (!observed) {
      fail("status-unreadable",
           "op " + std::to_string(i / 2) + ": status word unreadable");
      break;
    }
    if (*observed != predicted) {
      fail("status-mismatch",
           "op " + std::to_string(i / 2) + ": expected " +
               core::smm_status_name(predicted) + " got " +
               core::smm_status_name(*observed));
      break;
    }
    check_query(i / 2);
  }

  // Final drain: LIFO rollback never blocks (dependents always sit above
  // what they depend on), so the stack must empty in exactly model.size()
  // pops and then report kNothingToRollback.
  if (!v.failure) {
    size_t pops = model.size();
    for (size_t i = 0; i < pops && !v.failure; ++i) {
      SmmStatus predicted = model.rollback();
      auto st = smi_status(SmmCommand::kRollback);
      if (!st || *st != predicted) {
        fail("drain-status",
             "drain pop " + std::to_string(i) + ": expected " +
                 core::smm_status_name(predicted) + " got " +
                 (st ? core::smm_status_name(*st) : "<unreadable>"));
      }
    }
    if (!v.failure) {
      auto st = smi_status(SmmCommand::kRollback);
      if (!st || *st != SmmStatus::kNothingToRollback) {
        fail("drain-exhausted",
             std::string("expected nothing-to-rollback got ") +
                 (st ? core::smm_status_name(*st) : "<unreadable>"));
      }
    }
  }

  // After the drain every trampoline and spliced body has been restored;
  // kernel text, data, and all other memory outside SMRAM, the mailbox,
  // mem_W (staged envelopes) and mem_X (abandoned bodies) must be
  // byte-identical to the pre-run snapshot.
  if (!v.failure) {
    u64 memw_base = lay_.mem_w_base();
    u64 memx_base = lay_.mem_x_base();
    const u8* cur = m.mem().raw(0, lay_.mem_bytes);
    for (size_t i = 0; i < lay_.mem_bytes; ++i) {
      if (i >= lay_.smram_base && i < lay_.smram_base + lay_.smram_size) {
        continue;
      }
      if (i >= lay_.mem_rw_base() &&
          i < lay_.mem_rw_base() + lay_.mem_rw_size) {
        continue;
      }
      if (i >= memw_base && i < memw_base + lay_.mem_w_size) continue;
      if (i >= memx_base && i < memx_base + lay_.mem_x_size) continue;
      if (cur[i] != snapshot[i]) {
        std::ostringstream os;
        os << "memory differs at 0x" << std::hex << i << " after drain";
        fail("drain-memory", os.str());
        break;
      }
    }
  }

  v.kind = applied_any && !v.failure ? Verdict::Kind::kAccepted
                                     : Verdict::Kind::kRejected;
  return v;
}

std::vector<Bytes> LifecycleSurface::shrink_candidates(ByteSpan encoded,
                                                       Rng& rng) {
  (void)rng;
  std::vector<Bytes> out;
  if (encoded.size() % 2 != 0) {
    // Structurally invalid wire: shrink toward the smallest odd wire.
    if (encoded.size() > 1) out.emplace_back(encoded.begin(),
                                             encoded.begin() + 1);
    return out;
  }
  // Drop one op pair at a time, then try prefixes.
  for (size_t i = 0; i + 1 < encoded.size(); i += 2) {
    Bytes b(encoded.begin(), encoded.end());
    b.erase(b.begin() + static_cast<std::ptrdiff_t>(i),
            b.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    if (!b.empty()) out.push_back(std::move(b));
  }
  for (size_t n = 2; n < encoded.size(); n += 2) {
    out.emplace_back(encoded.begin(),
                     encoded.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

std::string LifecycleSurface::describe(ByteSpan encoded) const {
  std::ostringstream os;
  os << "lifecycle schedule: " << encoded.size() / 2 << " op(s)";
  if (encoded.size() % 2 != 0) os << " (odd-length wire: rejected)";
  for (size_t i = 0; i + 1 < encoded.size(); i += 2) {
    u8 arg = encoded[i + 1];
    os << "\n  [" << i / 2 << "] ";
    switch (static_cast<Op>(encoded[i] % 5)) {
      case Op::kApplyBase:
        os << "apply U" << int{arg} % 4;
        break;
      case Op::kApplySup:
        os << "apply S" << int{arg} % 4 << " supersedes U" << int{arg} % 4
           << ((arg & 4) ? " (splice)" : "");
        break;
      case Op::kApplyDep:
        os << "apply D" << int{arg} % 4 << " depends U" << int{arg} % 4;
        break;
      case Op::kRevert:
        os << "revert " << revert_target_id(arg);
        break;
      case Op::kRollback:
        os << "rollback";
        break;
    }
  }
  os << "\n  hex: " << to_hex(encoded);
  return os.str();
}

}  // namespace

std::unique_ptr<Surface> make_lifecycle_surface() {
  return std::make_unique<LifecycleSurface>();
}

std::vector<std::pair<std::string, Bytes>> seed_lifecycle_cases() {
  std::vector<std::pair<std::string, Bytes>> out;
  // U0, U1; S0 retires U0; S1 (splice form) retires U1 in place.
  out.emplace_back("supersede-chain", Bytes{0, 0, 0, 1, 1, 0, 1, 5});
  // U0, U1, U2; revert U1 out of order; D0 still applies on top.
  out.emplace_back("revert-out-of-order", Bytes{0, 0, 0, 1, 0, 2, 3, 1, 2, 0});
  // U0, D0(depends U0); revert U0 is fenced; rollback pops D0; retry lands.
  out.emplace_back("revert-blocked", Bytes{0, 0, 2, 0, 3, 0, 4, 0, 3, 0});
  // D2 without U2 is rejected; after U2 applies, D2 lands.
  out.emplace_back("missing-dependency", Bytes{2, 2, 0, 2, 2, 2});
  // Re-applying a live id overlaps its own windows; rollback drains.
  out.emplace_back("double-apply-overlap", Bytes{0, 3, 0, 3, 4, 3});
  return out;
}

}  // namespace kshot::fuzz
