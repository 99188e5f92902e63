// Machine substrate tests: page-attribute enforcement per access mode,
// SMRAM/EPC isolation, the interpreter, SMI state save/restore, and the
// virtual clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/byte_io.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"

namespace kshot::machine {
namespace {

constexpr PhysAddr kSmramBase = 0xA0000;
constexpr size_t kSmramSize = 0x20000;

Machine make_machine() { return Machine(8 << 20, kSmramBase, kSmramSize); }

// ---- PhysMem access control ---------------------------------------------

TEST(PhysMem, NormalReadWrite) {
  Machine m = make_machine();
  Bytes data = {1, 2, 3, 4};
  ASSERT_TRUE(m.mem().write(0x1000, data, AccessMode::normal()).is_ok());
  auto r = m.mem().read_bytes(0x1000, 4, AccessMode::normal());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, data);
}

TEST(PhysMem, OutOfRangeRejected) {
  Machine m = make_machine();
  Bytes data(16, 0);
  EXPECT_EQ(m.mem().write((8 << 20) - 8, data, AccessMode::normal()).code(),
            Errc::kOutOfRange);
  EXPECT_FALSE(m.mem().read_u64(~0ull - 4, AccessMode::normal()).is_ok());
}

TEST(PhysMem, SmramBlockedFromNormalMode) {
  Machine m = make_machine();
  Bytes data = {0xAA};
  EXPECT_EQ(m.mem().write(kSmramBase + 0x100, data, AccessMode::normal())
                .code(),
            Errc::kPermissionDenied);
  EXPECT_FALSE(
      m.mem().read_bytes(kSmramBase, 8, AccessMode::normal()).is_ok());
  // SMM can use it freely.
  EXPECT_TRUE(m.mem().write(kSmramBase + 0x100, data, AccessMode::smm())
                  .is_ok());
}

TEST(PhysMem, WriteOnlyPageSemantics) {
  Machine m = make_machine();
  m.mem().set_attrs(0x2000, kPageSize, {false, true, false, 0});
  Bytes data = {7};
  EXPECT_TRUE(m.mem().write(0x2000, data, AccessMode::normal()).is_ok());
  EXPECT_EQ(m.mem().read_bytes(0x2000, 1, AccessMode::normal())
                .status()
                .code(),
            Errc::kPermissionDenied);
  // SMM bypasses attributes.
  auto r = m.mem().read_bytes(0x2000, 1, AccessMode::smm());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ((*r)[0], 7);
}

TEST(PhysMem, ExecOnlyPageSemantics) {
  Machine m = make_machine();
  m.mem().set_attrs(0x3000, kPageSize, {false, false, true, 0});
  u8 buf[4];
  EXPECT_FALSE(
      m.mem().read(0x3000, MutByteSpan(buf, 4), AccessMode::normal()).is_ok());
  EXPECT_TRUE(m.mem()
                  .fetch(0x3000, 4, MutByteSpan(buf, 4), AccessMode::normal())
                  .is_ok());
  Bytes data = {1};
  EXPECT_FALSE(m.mem().write(0x3000, data, AccessMode::normal()).is_ok());
}

TEST(PhysMem, EpcBlockedFromNormalAndSmm) {
  Machine m = make_machine();
  PageAttr epc{false, false, false, 3};
  m.mem().set_attrs(0x5000, kPageSize, epc);
  EXPECT_FALSE(m.mem().read_bytes(0x5000, 8, AccessMode::normal()).is_ok());
  EXPECT_FALSE(m.mem().read_bytes(0x5000, 8, AccessMode::smm()).is_ok());
  // The owning enclave can touch it; another enclave cannot.
  EXPECT_TRUE(m.mem().read_bytes(0x5000, 8, AccessMode::enclave(3)).is_ok());
  EXPECT_FALSE(m.mem().read_bytes(0x5000, 8, AccessMode::enclave(4)).is_ok());
}

TEST(PhysMem, EnclaveBlockedFromSmram) {
  Machine m = make_machine();
  EXPECT_FALSE(
      m.mem().read_bytes(kSmramBase, 8, AccessMode::enclave(1)).is_ok());
}

TEST(PhysMem, AttrsSpanPages) {
  Machine m = make_machine();
  m.mem().set_attrs(0x6000, 3 * kPageSize, {true, false, false, 0});
  EXPECT_FALSE(m.mem().attrs_at(0x6000).write);
  EXPECT_FALSE(m.mem().attrs_at(0x6000 + 2 * kPageSize).write);
  EXPECT_TRUE(m.mem().attrs_at(0x6000 + 3 * kPageSize).write);
}

TEST(PhysMem, FetchLongerThanBufferIsInvalidArgument) {
  Machine m = make_machine();
  u8 buf[4];
  EXPECT_EQ(m.mem()
                .fetch(0x1000, 5, MutByteSpan(buf, 4), AccessMode::normal())
                .code(),
            Errc::kInvalidArgument);
  // A page-crossing fetch into a short buffer is refused the same way.
  EXPECT_EQ(m.mem()
                .fetch(2 * kPageSize - 2, 8, MutByteSpan(buf, 4),
                       AccessMode::normal())
                .code(),
            Errc::kInvalidArgument);
}

TEST(PhysMemDeathTest, AttrsAtPastTheEndAborts) {
  PhysMem mem(4 * kPageSize);
  EXPECT_DEATH((void)mem.attrs_at(4 * kPageSize), "attrs_at past the end");
}

TEST(PhysMemDeathTest, MisalignedSmramAborts) {
  PhysMem mem(64 * kPageSize);
  EXPECT_DEATH(mem.set_smram(kPageSize + 8, kPageSize), "page-aligned");
  EXPECT_DEATH(mem.set_smram(kPageSize, kPageSize - 1), "page-aligned");
}

TEST(PhysMemDeathTest, FirstDifferencePastTheEndAborts) {
  PhysMem a(4 * kPageSize);
  PhysMem b(2 * kPageSize);
  EXPECT_DEATH((void)first_difference(a, b, 3 * kPageSize, {}),
               "limit past the end");
}

// ---- PhysMem copy-on-write frames ----------------------------------------

TEST(PhysMem, UntouchedPagesReadAsZero) {
  PhysMem mem(64 << 20);
  auto all = mem.read_bytes(0, 3 * kPageSize, AccessMode::smm());
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(*all, Bytes(3 * kPageSize, 0));

  // A write across a page boundary leaves its neighbours zero, including
  // inside a span that crosses into them.
  ASSERT_TRUE(mem.write_u64(kPageSize - 4, ~0ull, AccessMode::smm()).is_ok());
  auto span = mem.read_bytes(kPageSize - 8, 16, AccessMode::smm());
  ASSERT_TRUE(span.is_ok());
  EXPECT_EQ(*span, Bytes({0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                          0xFF, 0xFF, 0, 0, 0, 0}));
  auto far = mem.read_u64((64 << 20) - 8, AccessMode::smm());
  ASSERT_TRUE(far.is_ok());
  EXPECT_EQ(*far, 0u);
}

TEST(PhysMem, ForkIsolatesWritesOnBothSides) {
  PhysMem a(16 * kPageSize);
  a.set_smram(8 * kPageSize, 4 * kPageSize);
  a.set_attrs(0, kPageSize, {true, false, false, 0});
  ASSERT_TRUE(a.write_u64(0x1000, 0x1111, AccessMode::smm()).is_ok());

  PhysMem b = a.fork();
  EXPECT_EQ(*b.read_u64(0x1000, AccessMode::smm()), 0x1111u);
  EXPECT_EQ(b.smram_base(), 8 * kPageSize);
  EXPECT_FALSE(b.attrs_at(0).write);

  ASSERT_TRUE(a.write_u64(0x1000, 0x2222, AccessMode::smm()).is_ok());
  ASSERT_TRUE(b.write_u64(0x1008, 0x3333, AccessMode::smm()).is_ok());
  ASSERT_TRUE(b.write_u64(0x3000, 0x4444, AccessMode::smm()).is_ok());
  EXPECT_EQ(*a.read_u64(0x1000, AccessMode::smm()), 0x2222u);
  EXPECT_EQ(*a.read_u64(0x1008, AccessMode::smm()), 0u);
  EXPECT_EQ(*a.read_u64(0x3000, AccessMode::smm()), 0u);
  EXPECT_EQ(*b.read_u64(0x1000, AccessMode::smm()), 0x1111u);
  EXPECT_EQ(*b.read_u64(0x1008, AccessMode::smm()), 0x3333u);

  // A fork of a fork sees its parent's writes up to the fork, none after.
  PhysMem c = b.fork();
  ASSERT_TRUE(b.write_u64(0x1000, 0x5555, AccessMode::smm()).is_ok());
  ASSERT_TRUE(c.write_u64(0x3000, 0x6666, AccessMode::smm()).is_ok());
  EXPECT_EQ(*c.read_u64(0x1000, AccessMode::smm()), 0x1111u);
  EXPECT_EQ(*c.read_u64(0x1008, AccessMode::smm()), 0x3333u);
  EXPECT_EQ(*b.read_u64(0x3000, AccessMode::smm()), 0x4444u);
  EXPECT_EQ(*a.read_u64(0x1000, AccessMode::smm()), 0x2222u);

  // Attributes are per fork as well.
  b.set_attrs(0, kPageSize, {true, true, true, 0});
  EXPECT_FALSE(a.attrs_at(0).write);
  EXPECT_FALSE(c.attrs_at(0).write);
}

TEST(PhysMem, ForkedFramesAreNeverWrittenInPlaceAcrossThreads) {
  // Three memories share every frame. A second thread owns one fork and
  // writes every page while this thread writes the same pages of the
  // original: each side must copy before writing, so the untouched third
  // view keeps the original bytes. Under ThreadSanitizer an in-place
  // write to a shared frame is also reported as a race.
  constexpr size_t kPages = 64;
  auto write_all = [](PhysMem& mem, u8 value) {
    for (size_t p = 0; p < kPages; ++p) {
      Bytes b = {value, value};
      if (!mem.write(p * kPageSize + 16, b, AccessMode::smm()).is_ok()) {
        return false;
      }
    }
    return true;
  };
  for (int round = 0; round < 20; ++round) {
    PhysMem a(kPages * kPageSize);
    for (size_t p = 0; p < kPages; ++p) {
      Bytes page(kPageSize, static_cast<u8>(p));
      ASSERT_TRUE(a.write(p * kPageSize, page, AccessMode::smm()).is_ok());
    }
    const PhysMem original = a.fork();
    bool b_ok = false;
    std::thread other([&b_ok, &write_all, mem = a.fork()]() mutable {
      b_ok = write_all(mem, 0xBB);
      for (size_t p = 0; p < kPages && b_ok; ++p) {
        auto got = mem.read_bytes(p * kPageSize + 15, 4, AccessMode::smm());
        b_ok = got.is_ok() && *got == Bytes({static_cast<u8>(p), 0xBB, 0xBB,
                                             static_cast<u8>(p)});
      }
    });
    const bool a_ok = write_all(a, 0xAA);
    other.join();
    ASSERT_TRUE(a_ok);
    ASSERT_TRUE(b_ok) << "round " << round;

    for (size_t p = 0; p < kPages; ++p) {
      auto orig =
          original.read_bytes(p * kPageSize, kPageSize, AccessMode::smm());
      ASSERT_TRUE(orig.is_ok());
      ASSERT_EQ(*orig, Bytes(kPageSize, static_cast<u8>(p)))
          << "round " << round << " page " << p;
      auto mine = a.read_bytes(p * kPageSize + 15, 4, AccessMode::smm());
      ASSERT_TRUE(mine.is_ok());
      ASSERT_EQ(*mine, Bytes({static_cast<u8>(p), 0xAA, 0xAA,
                              static_cast<u8>(p)}))
          << "round " << round << " page " << p;
    }
  }
}

/// Reference for first_difference: the per-byte whole-memory scan every
/// oracle used before frames were shared, over full copies of both sides.
std::optional<MemDifference> byte_scan(const PhysMem& a, const PhysMem& b,
                                       PhysAddr limit,
                                       const std::vector<AddrRange>& excl) {
  Bytes ia = *a.read_bytes(0, limit, AccessMode::smm());
  Bytes ib = *b.read_bytes(0, limit, AccessMode::smm());
  for (size_t i = 0; i < limit; ++i) {
    bool skip = false;
    for (const auto& r : excl) {
      if (i >= r.base && i < r.base + r.len) skip = true;
    }
    if (skip) continue;
    if (ia[i] != ib[i]) return MemDifference{i, ia[i], ib[i]};
  }
  return std::nullopt;
}

TEST(PhysMem, FirstDifferenceMatchesByteScan) {
  // Not a whole number of pages, so the tail page is partial.
  constexpr size_t kSize = 24 * kPageSize + 100;
  size_t found = 0, equal = 0;
  for (u64 seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    std::vector<AddrRange> excl;
    for (u64 n = rng.next_below(4); n > 0; --n) {
      // Unaligned bases and lengths, some crossing page boundaries.
      excl.push_back({rng.next_below(kSize), 1 + rng.next_below(6000)});
    }
    // Spans straddling every exclusion edge, plus random spans.
    auto pick_addr = [&]() -> PhysAddr {
      if (!excl.empty() && rng.next_below(3) == 0) {
        const auto& r = excl[rng.next_below(excl.size())];
        const PhysAddr edges[] = {r.base - 1, r.base, r.base + r.len - 1,
                                  r.base + r.len};
        return std::min<PhysAddr>(edges[rng.next_below(4)], kSize - 1);
      }
      return rng.next_below(kSize);
    };

    PhysMem a(kSize);
    for (int i = 0; i < 6; ++i) {
      PhysAddr at = pick_addr();
      Bytes d = rng.next_bytes(1 + rng.next_below(3 * kPageSize));
      d.resize(std::min<size_t>(d.size(), kSize - at));
      ASSERT_TRUE(a.write(at, d, AccessMode::smm()).is_ok());
    }
    std::vector<PhysMem> mems;
    mems.push_back(std::move(a));
    mems.push_back(mems[0].fork());

    for (int step = 0; step < 30; ++step) {
      if (mems.size() < 4 && rng.next_below(8) == 0) {
        mems.push_back(mems[rng.next_below(mems.size())].fork());
      }
      PhysMem& dst = mems[rng.next_below(mems.size())];
      PhysAddr at = pick_addr();
      size_t len = std::min<size_t>(1 + rng.next_below(2 * kPageSize + 16),
                                    kSize - at);
      Bytes d;
      switch (rng.next_below(4)) {
        case 0:  // random bytes, often one byte
          d = rng.next_bytes(rng.next_below(2) ? 1 : len);
          break;
        case 1:  // same-value rewrite: copies the frame, keeps the bytes
          d = *dst.read_bytes(at, len, AccessMode::smm());
          break;
        default: {  // copy another memory's bytes back: frames differ,
                    // contents converge
          const PhysMem& src = mems[rng.next_below(mems.size())];
          d = *src.read_bytes(at, len, AccessMode::smm());
          break;
        }
      }
      ASSERT_TRUE(dst.write(at, d, AccessMode::smm()).is_ok());

      for (int check = 0; check < 3; ++check) {
        size_t i = rng.next_below(mems.size());
        size_t j = rng.next_below(mems.size());
        PhysAddr limit =
            rng.next_below(4) == 0 ? rng.next_below(kSize + 1) : kSize;
        auto want = byte_scan(mems[i], mems[j], limit, excl);
        auto got = first_difference(mems[i], mems[j], limit, excl);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "seed " << seed << " step " << step << " pair " << i << ","
            << j << " limit " << limit;
        if (want) {
          ++found;
          EXPECT_EQ(got->addr, want->addr) << "seed " << seed;
          EXPECT_EQ(got->a, want->a) << "seed " << seed;
          EXPECT_EQ(got->b, want->b) << "seed " << seed;
        } else {
          ++equal;
        }
      }
    }
  }
  // Both outcomes must be exercised, or the comparison proves nothing.
  EXPECT_GT(found, 500u);
  EXPECT_GT(equal, 500u);
}

// ---- PhysMem word access ----------------------------------------------------

std::string verdict(const AccessFault* f) {
  if (f == nullptr) return "ok";
  return std::to_string(static_cast<int>(f->code)) + ": " + f->message;
}

std::string verdict(const Status& st) {
  if (st.is_ok()) return "ok";
  return std::to_string(static_cast<int>(st.code())) + ": " + st.message();
}

TEST(PhysMem, WordAccessMatchesCheckedAccess) {
  // load_word/store_word must agree with read/write (the byte path through
  // check()) on every verdict, value and byte. Pages 1 and 2 take every
  // pair of R/W/X and EPC owner (none, enclave 1, enclave 2), so a word
  // crossing between them meets each combination; page 3 is never written
  // (the zero page), page 4 is SMRAM and page 5 ends memory.
  constexpr size_t kPages = 6;
  constexpr PhysAddr kSmram = 4 * kPageSize;
  constexpr PhysAddr kEnd = kPages * kPageSize;
  PhysMem pristine(kEnd);
  pristine.set_smram(kSmram, kPageSize);
  Rng rng(0xACCE55);
  for (PhysAddr page : {0, 1, 2, 4, 5}) {
    ASSERT_TRUE(pristine
                    .write(page * kPageSize, rng.next_bytes(kPageSize),
                           AccessMode::smm())
                    .is_ok());
  }
  const Bytes original = *pristine.read_bytes(0, kEnd, AccessMode::smm());
  std::vector<PageAttr> attrs;
  for (u16 owner : {0, 1, 2}) {
    for (int rwx = 0; rwx < 8; ++rwx) {
      attrs.push_back({(rwx & 4) != 0, (rwx & 2) != 0, (rwx & 1) != 0, owner});
    }
  }
  const AccessMode modes[] = {AccessMode::normal(), AccessMode::smm(),
                              AccessMode::enclave(1), AccessMode::enclave(2)};
  std::vector<PhysAddr> addrs = {0, 8, kEnd - 8, kEnd - 7, kEnd - 1, kEnd,
                                 kEnd + 8, ~0ull, ~0ull - 3, ~0ull - 7,
                                 ~0ull - 8, kSmram - 4, kSmram, kSmram - 8,
                                 kSmram + kPageSize - 4, 3 * kPageSize - 4,
                                 3 * kPageSize + 16};
  for (PhysAddr off = 0; off <= 8; ++off) {
    addrs.push_back(2 * kPageSize - off);  // inside page 1 or crossing to 2
  }
  addrs.push_back(kPageSize);
  addrs.push_back(kPageSize + 1234);

  size_t allowed = 0, refused = 0;
  u64 value = 0x0123456789ABCDEFull;
  for (const PageAttr& a1 : attrs) {
    for (const PageAttr& a2 : attrs) {
      PhysMem base = pristine.fork();
      base.set_attrs(kPageSize, kPageSize, a1);
      base.set_attrs(2 * kPageSize, kPageSize, a2);
      for (const AccessMode& mode : modes) {
        for (PhysAddr addr : addrs) {
          SCOPED_TRACE(::testing::Message()
                       << "addr 0x" << std::hex << addr << std::dec
                       << " mode " << static_cast<int>(mode.kind) << "/"
                       << mode.enclave_id << " attrs " << a1.read << a1.write
                       << a1.exec << a1.epc_owner << " " << a2.read
                       << a2.write << a2.exec << a2.epc_owner);
          // Load: same verdict and value; nothing written to `out` on a
          // fault.
          u8 buf[8];
          const Status rd = base.read(addr, MutByteSpan(buf, 8), mode);
          u64 got = 0x5A5A5A5A5A5A5A5Aull;
          const AccessFault* lf = base.load_word(addr, mode, got);
          ASSERT_EQ(verdict(lf), verdict(rd));
          if (lf == nullptr) {
            EXPECT_EQ(got, load_u64(buf));
          } else {
            EXPECT_EQ(got, 0x5A5A5A5A5A5A5A5Aull);
          }

          // Store: same verdict and the same bytes afterwards; a refused
          // store writes nothing. Both sides start as forks of `base`, so
          // every store into a filled page is a copy-on-write.
          value = value * 6364136223846793005ull + 1442695040888963407ull;
          PhysMem by_word = base.fork();
          PhysMem by_bytes = base.fork();
          u8 vbuf[8];
          store_u64(vbuf, value);
          const Status wr = by_bytes.write(addr, ByteSpan(vbuf, 8), mode);
          const AccessFault* sf = by_word.store_word(addr, value, mode);
          ASSERT_EQ(verdict(sf), verdict(wr));
          EXPECT_FALSE(first_difference(by_word, by_bytes, kEnd, {}));
          if (sf != nullptr) {
            ++refused;
            EXPECT_FALSE(first_difference(by_word, base, kEnd, {}));
          } else {
            ++allowed;
          }
          // Every memory here shares `pristine`'s frames, so a store that
          // skipped the copy would show in them.
          if (addr < kEnd) {
            const PhysAddr from = addr / kPageSize * kPageSize;
            const size_t n = std::min<PhysAddr>(2 * kPageSize, kEnd - from);
            const Bytes now =
                *pristine.read_bytes(from, n, AccessMode::smm());
            EXPECT_TRUE(std::equal(now.begin(), now.end(),
                                   original.begin() + from));
          }
        }
      }
    }
  }
  // Both verdicts must be common, or the comparison proves little.
  EXPECT_GT(allowed, 10000u);
  EXPECT_GT(refused, 10000u);
}

// ---- Interpreter -----------------------------------------------------------

/// Assembles code at `base`, points rip at it and runs to a terminal state.
StepResult run_code(Machine& m, const Bytes& code, u64 base = 0x1000,
                    u64 max = 10000) {
  EXPECT_TRUE(m.mem().write(base, code, AccessMode::smm()).is_ok());
  m.cpu().rip = base;
  m.cpu().sp() = 0x100000;
  return m.run(max);
}

TEST(Interp, ArithmeticChain) {
  Machine m = make_machine();
  isa::Assembler a;
  a.movi(1, 10);
  a.movi(2, 3);
  a.mov(0, 1);
  a.alu(isa::Op::kMul, 0, 2);   // 30
  a.alui(isa::Op::kAddi, 0, 12); // 42
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 42u);
}

TEST(Interp, DivideByZeroOops) {
  Machine m = make_machine();
  isa::Assembler a;
  a.movi(1, 5);
  a.movi(2, 0);
  a.alu(isa::Op::kDiv, 1, 2);
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kOops);
}

TEST(Interp, SignedComparisons) {
  Machine m = make_machine();
  isa::Assembler a;
  auto less = a.new_label();
  a.movi(1, -5);
  a.movi(2, 3);
  a.cmp(1, 2);
  a.jl(less);          // -5 < 3 signed: taken
  a.movi(0, 0);
  a.hlt();
  a.bind(less);
  a.movi(0, 1);
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 1u);
}

TEST(Interp, CallAndReturn) {
  Machine m = make_machine();
  isa::Assembler a;
  auto fn = a.new_label();
  a.branch(isa::Op::kCall, fn);
  a.hlt();
  a.bind(fn);
  a.movi(0, 123);
  a.ret();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 123u);
}

TEST(Interp, ReturnSentinelReported) {
  Machine m = make_machine();
  isa::Assembler a;
  a.movi(0, 9);
  a.ret();
  Bytes code = *a.finish();
  ASSERT_TRUE(m.mem().write(0x1000, code, AccessMode::smm()).is_ok());
  m.cpu().rip = 0x1000;
  m.cpu().sp() = 0x100000 - 8;
  ASSERT_TRUE(m.mem()
                  .write_u64(m.cpu().sp(), kReturnSentinel,
                             AccessMode::normal())
                  .is_ok());
  auto res = m.run(100);
  EXPECT_EQ(res.kind, StepKind::kRetTop);
  EXPECT_EQ(m.cpu().regs[0], 9u);
}

TEST(Interp, PushPopLoadStore) {
  Machine m = make_machine();
  isa::Assembler a;
  a.movi(3, 77);
  a.push(3);
  a.pop(4);
  a.storeg(4, 0x8000);
  a.loadg(5, 0x8000);
  a.movi(6, 0x9000);
  a.storer(5, 6, 16);
  a.loadr(0, 6, 16);
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 77u);
}

TEST(Interp, TrapCarriesCode) {
  Machine m = make_machine();
  isa::Assembler a;
  a.trap(42);
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kOops);
  EXPECT_EQ(res.info, 42u);
}

TEST(Interp, FetchFromNonExecFaults) {
  Machine m = make_machine();
  isa::Assembler a;
  a.hlt();
  Bytes code = *a.finish();
  ASSERT_TRUE(m.mem().write(0x4000, code, AccessMode::smm()).is_ok());
  m.mem().set_attrs(0x4000, kPageSize, {true, true, false, 0});
  m.cpu().rip = 0x4000;
  auto res = m.step();
  EXPECT_EQ(res.kind, StepKind::kMemFault);
}

TEST(Interp, WhileLoopViaBranches) {
  // sum 1..10 == 55
  Machine m = make_machine();
  isa::Assembler a;
  auto top = a.new_label(), done = a.new_label();
  a.movi(1, 0);   // i
  a.movi(0, 0);   // acc
  a.bind(top);
  a.cmpi(1, 10);
  a.jge(done);
  a.alui(isa::Op::kAddi, 1, 1);
  a.alu(isa::Op::kAdd, 0, 1);
  a.jmp(top);
  a.bind(done);
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 55u);
}

// ---- Instruction fetch memo --------------------------------------------------
// step() skips the page check while its fetch memo stands, but it always
// decodes the page's live bytes, and any change check() could see ends the
// memo. Each test below first runs code on a page (so the memo holds it),
// then changes the page or the mode, and checks the very next step.

TEST(Interp, StoreIntoCurrentCodePageRunsOnNextStep) {
  Machine m = make_machine();
  constexpr u64 kBase = 0x1000;
  constexpr i32 kTrapAt = 6 + 6 + 7;  // movi, movi, storer
  isa::Assembler a;
  a.movi(6, kBase);
  a.movi(5, static_cast<i32>(0x909090F4));  // bytes F4 90 90 90: hlt, nops
  a.storer(5, 6, kTrapAt);                  // normal-mode store into W+X
  a.trap(7);                                // overwritten before it runs
  ASSERT_TRUE(m.mem().write(kBase, *a.finish(), AccessMode::smm()).is_ok());
  // A fork shares the code frame, so the store must copy the page (a COW
  // swap) before it writes; the next fetch has to read the copy.
  PhysMem snapshot = m.mem().fork();
  m.cpu().rip = kBase;
  auto res = m.run(100);
  EXPECT_EQ(res.kind, StepKind::kHalt) << res.detail;
  EXPECT_EQ(m.instret(), 4u);
  EXPECT_EQ(m.cpu().rip, kBase + kTrapAt + 1);
  auto old = snapshot.read_bytes(kBase + kTrapAt, 1, AccessMode::smm());
  ASSERT_TRUE(old.is_ok());
  EXPECT_EQ((*old)[0], 0x72);  // the fork still holds the trap
}

TEST(Interp, SmmWriteToCodePageRunsOnNextStep) {
  // KShot's trampoline write: SMM rewrites code the kernel is running.
  Machine m = make_machine();
  constexpr u64 kBase = 0x1000;
  ASSERT_TRUE(m.set_smm_handler([](Machine& mm) {
                 const Bytes hlt = {0xF4};
                 ASSERT_TRUE(
                     mm.mem().write(kBase + 1, hlt, AccessMode::smm()).is_ok());
               })
                  .is_ok());
  const Bytes code = {0x90, 0x72, 0x07};  // nop; trap 7
  ASSERT_TRUE(m.mem().write(kBase, code, AccessMode::smm()).is_ok());
  m.cpu().rip = kBase;
  ASSERT_EQ(m.step().kind, StepKind::kOk);
  m.trigger_smi();
  EXPECT_EQ(m.step().kind, StepKind::kHalt);
}

TEST(Interp, RevokingExecFaultsOnNextStep) {
  Machine m = make_machine();
  constexpr u64 kBase = 0x3000;
  const Bytes code = {0x90, 0x90, 0xF4};
  ASSERT_TRUE(m.mem().write(kBase, code, AccessMode::smm()).is_ok());
  m.cpu().rip = kBase;
  ASSERT_EQ(m.step().kind, StepKind::kOk);
  m.mem().set_attrs(kBase, kPageSize, {true, true, false, 0});
  auto res = m.step();
  EXPECT_EQ(res.kind, StepKind::kMemFault);
  EXPECT_EQ(res.info, kBase + 1);
  EXPECT_EQ(res.detail, "fetch: page not executable");
}

TEST(Interp, SmramCodeFaultsInProtectedModeAfterRsm) {
  Machine m = make_machine();
  constexpr u64 kCode = kSmramBase + 0x2000;
  const Bytes code = {0x90, 0x90, 0xF4};
  ASSERT_TRUE(m.mem().write(kCode, code, AccessMode::smm()).is_ok());
  StepKind in_smm = StepKind::kHalt;
  ASSERT_TRUE(m.set_smm_handler([&](Machine& mm) {
                 mm.cpu().rip = kCode;  // RSM restores the saved rip
                 in_smm = mm.step().kind;
               })
                  .is_ok());
  m.trigger_smi();
  EXPECT_EQ(in_smm, StepKind::kOk);
  m.cpu().rip = kCode + 1;  // the page SMM just fetched from
  auto res = m.step();
  EXPECT_EQ(res.kind, StepKind::kMemFault);
  EXPECT_EQ(res.detail, "fetch: SMRAM access in protected mode");
}

TEST(Interp, NopAtPageEndBeforeNonExecPageFaults) {
  // The fetch window is 7 bytes whatever the instruction: a nop whose
  // window reaches a non-exec page faults, memo or not.
  Machine m = make_machine();
  constexpr u64 kPage = 0x4000;
  const Bytes nops(16, 0x90);
  ASSERT_TRUE(
      m.mem().write(kPage + kPageSize - 16, nops, AccessMode::smm()).is_ok());
  m.mem().set_attrs(kPage + kPageSize, kPageSize, {true, true, false, 0});
  m.cpu().rip = kPage + kPageSize - 16;
  auto res = m.run(100);
  EXPECT_EQ(res.kind, StepKind::kMemFault);
  EXPECT_EQ(res.info, kPage + kPageSize - 6);
  EXPECT_EQ(res.detail, "fetch: page not executable");
  EXPECT_EQ(m.instret(), 10u);
}

TEST(Interp, MovedInMemoryDoesNotReuseStaleMemo) {
  Machine m = make_machine();
  constexpr u64 kBase = 0x1000;
  const Bytes code = {0x90, 0x90, 0xF4};
  ASSERT_TRUE(m.mem().write(kBase, code, AccessMode::smm()).is_ok());
  m.cpu().rip = kBase;
  ASSERT_EQ(m.step().kind, StepKind::kOk);

  // Same bytes, same size, but the code page is not executable.
  PhysMem other = m.mem().fork();
  other.set_attrs(kBase, kPageSize, {true, true, false, 0});
  PhysMem moved(std::move(other));
  m.mem() = std::move(moved);
  auto res = m.step();
  EXPECT_EQ(res.kind, StepKind::kMemFault);
  EXPECT_EQ(res.detail, "fetch: page not executable");

  // And a freshly built memory of the same shape, assigned in, is checked
  // from scratch too.
  PhysMem fresh(8 << 20);
  fresh.set_smram(kSmramBase, kSmramSize);
  m.mem() = std::move(fresh);
  m.cpu().rip = kBase;
  res = m.step();
  EXPECT_EQ(res.kind, StepKind::kBadInstr);  // zero page: opcode 00
  EXPECT_EQ(res.detail, "unknown opcode");
}

TEST(Interp, PeriodicSmiNopSweepMatchesClosedForm) {
  // Guards the modeled clock: every instruction is charged and counted, and
  // the periodic SMI is checked after every one, whatever fetch path ran.
  Machine m = make_machine();
  const CostModel& cost = m.cost_model();
  constexpr u64 kBase = 0x10000;
  constexpr u64 kNops = 64 * 1024;
  constexpr u64 kInterval = 1001;  // not a multiple of cycles_per_instr
  Bytes code(kNops, 0x90);
  code.push_back(0xF4);
  ASSERT_TRUE(m.mem().write(kBase, code, AccessMode::smm()).is_ok());
  ASSERT_TRUE(m.set_smm_handler([](Machine&) {}).is_ok());
  ASSERT_TRUE(m.set_periodic_smi(kInterval).is_ok());
  m.cpu().rip = kBase;
  auto res = m.run(kNops + 10);
  ASSERT_EQ(res.kind, StepKind::kHalt);

  // An SMI fires once per `every` instructions: the first instruction to
  // reach the deadline, which restarts `kInterval` after the RSM.
  const u64 n = kNops + 1;
  const u64 every =
      (kInterval + cost.cycles_per_instr - 1) / cost.cycles_per_instr;
  const u64 smis = n / every;
  EXPECT_EQ(m.instret(), n);
  EXPECT_EQ(m.smi_count(), smis);
  EXPECT_EQ(m.cycles(), n * cost.cycles_per_instr +
                            smis * (cost.smi_entry_cycles + cost.rsm_cycles));
}

// ---- Step core ----------------------------------------------------------------
// step() and the run_into() loop (which run() wraps) share one step core,
// which writes a StepResult only when an instruction stops the run.

constexpr u64 kRoPage = 0x20000;      // readable, not writable
constexpr u64 kNoReadPage = 0x21000;  // writable, not readable
constexpr u64 kMemEnd = 8 << 20;

/// A machine whose code at 0x1000 is `code`, with a read-only and a
/// write-only page to fault on.
Machine machine_running(const Bytes& code) {
  Machine m = make_machine();
  EXPECT_TRUE(m.mem().write(0x1000, code, AccessMode::smm()).is_ok());
  m.mem().set_attrs(kRoPage, kPageSize, {true, false, true, 0});
  m.mem().set_attrs(kNoReadPage, kPageSize, {false, true, true, 0});
  for (int i = 0; i < isa::kNumRegs; ++i) m.cpu().regs[i] = 0x100 * i + 7;
  m.cpu().sp() = 0x100000;
  m.cpu().rip = 0x1000;
  return m;
}

void expect_same_cpu(const Machine& a, const Machine& b) {
  EXPECT_EQ(a.cpu().regs, b.cpu().regs);
  EXPECT_EQ(a.cpu().rip, b.cpu().rip);
  EXPECT_EQ(a.cpu().zf, b.cpu().zf);
  EXPECT_EQ(a.cpu().sf, b.cpu().sf);
  EXPECT_EQ(a.instret(), b.instret());
  EXPECT_EQ(a.cycles(), b.cycles());
}

TEST(Interp, StepAndRunReportTheSame) {
  struct Case {
    const char* name;
    StepKind kind;
    std::function<void(isa::Assembler&)> emit;
    std::function<void(Machine&)> setup = [](Machine&) {};
  };
  using isa::Op;
  const std::vector<Case> cases = {
      {"nop", StepKind::kOk, [](isa::Assembler& a) { a.nop(); }},
      {"movi", StepKind::kOk, [](isa::Assembler& a) { a.movi(3, -9); }},
      {"hlt", StepKind::kHalt, [](isa::Assembler& a) { a.hlt(); }},
      {"int3", StepKind::kBreak,
       [](isa::Assembler& a) { a.emit({Op::kInt3}); }},
      {"ud2", StepKind::kOops, [](isa::Assembler& a) { a.ud2(); }},
      {"trap", StepKind::kOops, [](isa::Assembler& a) { a.trap(42); }},
      {"div", StepKind::kOops,
       [](isa::Assembler& a) { a.alu(Op::kDiv, 1, 2); },
       [](Machine& m) { m.cpu().regs[2] = 0; }},
      {"mod", StepKind::kOops,
       [](isa::Assembler& a) { a.alu(Op::kMod, 1, 2); },
       [](Machine& m) { m.cpu().regs[2] = 0; }},
      {"divi", StepKind::kOops,
       [](isa::Assembler& a) { a.alui(Op::kDivi, 1, 0); }},
      {"modi", StepKind::kOops,
       [](isa::Assembler& a) { a.alui(Op::kModi, 1, 0); }},
      {"bad opcode", StepKind::kBadInstr,
       [](isa::Assembler& a) { a.emit({Op::kNop}); },
       [](Machine& m) {
         ASSERT_TRUE(m.mem().write(0x1000, Bytes{0}, AccessMode::smm())
                         .is_ok());
       }},
      {"fetch fault", StepKind::kMemFault,
       [](isa::Assembler& a) { a.nop(); },
       [](Machine& m) { m.cpu().rip = kSmramBase + 16; }},
      {"rip out of range", StepKind::kMemFault,
       [](isa::Assembler& a) { a.nop(); },
       [](Machine& m) { m.cpu().rip = kMemEnd; }},
      {"loadg", StepKind::kMemFault,
       [](isa::Assembler& a) { a.loadg(1, kNoReadPage + 8); }},
      {"storeg", StepKind::kMemFault,
       [](isa::Assembler& a) { a.storeg(1, kRoPage + 8); }},
      {"loadr", StepKind::kMemFault,
       [](isa::Assembler& a) { a.loadr(1, 2, 16); },
       [](Machine& m) { m.cpu().regs[2] = kMemEnd - 20; }},
      {"storer", StepKind::kMemFault,
       [](isa::Assembler& a) { a.storer(1, 2, -8); },
       [](Machine& m) { m.cpu().regs[2] = kSmramBase + 64; }},
      {"push", StepKind::kMemFault, [](isa::Assembler& a) { a.push(3); },
       [](Machine& m) { m.cpu().sp() = kRoPage + 64; }},
      {"pop", StepKind::kMemFault, [](isa::Assembler& a) { a.pop(3); },
       [](Machine& m) { m.cpu().sp() = kNoReadPage + 64; }},
      {"call", StepKind::kMemFault,
       [](isa::Assembler& a) {
         auto l = a.new_label();
         a.branch(Op::kCall, l);
         a.bind(l);
         a.hlt();
       },
       [](Machine& m) { m.cpu().sp() = 0; }},
      {"ret", StepKind::kMemFault, [](isa::Assembler& a) { a.ret(); },
       [](Machine& m) { m.cpu().sp() = kMemEnd - 4; }},
      {"ret to sentinel", StepKind::kRetTop,
       [](isa::Assembler& a) { a.ret(); },
       [](Machine& m) {
         ASSERT_TRUE(m.mem()
                         .write_u64(m.cpu().sp(), kReturnSentinel,
                                    AccessMode::normal())
                         .is_ok());
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    isa::Assembler a;
    c.emit(a);
    a.hlt();
    const Bytes code = *a.finish();
    Machine by_step = machine_running(code);
    Machine by_run = machine_running(code);
    c.setup(by_step);
    c.setup(by_run);
    const StepResult s = by_step.step();
    const StepResult r = by_run.run(1);
    EXPECT_EQ(s.kind, c.kind) << s.detail;
    EXPECT_EQ(r.kind, s.kind);
    EXPECT_EQ(r.info, s.info);
    EXPECT_EQ(r.detail, s.detail);
    if (c.kind == StepKind::kOk) {
      EXPECT_EQ(s.info, 0u);
      EXPECT_EQ(s.detail, "");
    } else {
      EXPECT_EQ(s.kind == StepKind::kMemFault || s.kind == StepKind::kOops ||
                    s.kind == StepKind::kBadInstr,
                !s.detail.empty());
    }
    expect_same_cpu(by_step, by_run);
  }
}

TEST(Interp, FaultingMemoryOpsPinRegistersAndSp) {
  // A faulting load or pop leaves its register (and sp) as it was; a
  // faulting push or call has already lowered sp. rip stays on the
  // faulting instruction either way.
  struct Case {
    const char* name;
    isa::Instr in;
    u64 sp;
    u64 want_sp;
    u64 want_info;
  };
  using isa::Op;
  const u64 sp_ro = kRoPage + 64;
  const u64 sp_nr = kNoReadPage + 64;
  const std::vector<Case> cases = {
      {"loadg", {Op::kLoadG, 4, 0, static_cast<i64>(kNoReadPage)}, 0x100000,
       0x100000, kNoReadPage},
      {"loadr base = dst", {Op::kLoadR, 4, 4, 0}, 0x100000, 0x100000,
       kNoReadPage + 8},
      {"pop", {Op::kPop, 4}, sp_nr, sp_nr, sp_nr},
      {"pop r15", {Op::kPop, kSpReg}, sp_nr, sp_nr, sp_nr},
      {"ret", {Op::kRet}, sp_nr, sp_nr, sp_nr},
      {"push", {Op::kPush, 4}, sp_ro, sp_ro - 8, sp_ro - 8},
      {"push r15", {Op::kPush, kSpReg}, sp_ro, sp_ro - 8, sp_ro - 8},
      {"call", {Op::kCall, 0, 0, 0}, sp_ro, sp_ro - 8, sp_ro - 8},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    isa::Assembler a;
    a.emit(c.in);
    Machine m = machine_running(*a.finish());
    m.cpu().sp() = c.sp;
    m.cpu().regs[4] = kNoReadPage + 8;  // loadr r4, [r4]: not readable
    const auto before = m.cpu().regs;
    const StepResult res = m.step();
    EXPECT_EQ(res.kind, StepKind::kMemFault);
    EXPECT_EQ(res.info, c.want_info);
    EXPECT_EQ(m.cpu().rip, 0x1000u);
    EXPECT_EQ(m.cpu().sp(), c.want_sp);
    for (int i = 0; i < isa::kNumRegs; ++i) {
      if (i != kSpReg) {
        EXPECT_EQ(m.cpu().regs[i], before[i]) << "r" << i;
      }
    }
  }
}

TEST(Interp, PopAndPushOfSpOrdering) {
  // pop r15 moves sp past the word, then loads the word into sp; push r15
  // lowers sp first and stores the lowered value.
  Machine m = make_machine();
  constexpr u64 kSp = 0x100000;
  constexpr u64 kWord = 0x234560;
  ASSERT_TRUE(m.mem().write_u64(kSp, kWord, AccessMode::normal()).is_ok());
  isa::Assembler a;
  a.pop(kSpReg);
  a.push(kSpReg);
  a.hlt();
  ASSERT_TRUE(m.mem().write(0x1000, *a.finish(), AccessMode::smm()).is_ok());
  m.cpu().rip = 0x1000;
  m.cpu().sp() = kSp;
  ASSERT_EQ(m.step().kind, StepKind::kOk);
  EXPECT_EQ(m.cpu().sp(), kWord);
  ASSERT_EQ(m.step().kind, StepKind::kOk);
  EXPECT_EQ(m.cpu().sp(), kWord - 8);
  EXPECT_EQ(*m.mem().read_u64(kWord - 8, AccessMode::normal()), kWord - 8);
}

constexpr u64 kProgCode = 0x1000;  // where random_program() runs
constexpr u64 kProgData = 0x8000;  // the data page its r8 points at
constexpr u64 kSlots = 8;          // 8-byte patch slots at the code's start

/// An 8-byte patch for a slot, as a movi immediate: three bytes of
/// reg-reg ALU op (or a hlt and two nops), then a jcc with rel32 0, so
/// any patch decodes to whole instructions and falls through.
i32 slot_patch(u64 pick) {
  u32 head = 0x9090F4;  // hlt; nop; nop
  if (pick % 32 != 0) {
    head = (0x20 + pick % 8) | (pick >> 3) % 8 << 8 | (pick >> 6) % 8 << 16;
  }
  return static_cast<i32>((0x50 + (pick >> 9) % 6) << 24 | head);
}

/// A seeded random program for the step-core differential test: kSlots
/// patch slots, then ALU ops, compares and branches, loads and stores,
/// push/pop/call/ret, the odd trap, int3 or hlt, and stores that rewrite a
/// slot of the running W+X page. r0–r7 are scratch; r8 points at a data
/// page and r9 at the code. The last instruction jumps back to the start.
Bytes random_program(Rng& rng, size_t n_instrs) {
  using isa::Op;
  constexpr Op kAlu[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kXor,
                         Op::kAnd, Op::kOr,  Op::kShl, Op::kShr};
  constexpr Op kAluImm[] = {Op::kAddi, Op::kSubi, Op::kMuli, Op::kXori,
                            Op::kAndi, Op::kOri,  Op::kShli, Op::kShri,
                            Op::kDivi, Op::kModi, Op::kMovi};
  constexpr Op kBranch[] = {Op::kJmp, Op::kJe, Op::kJne, Op::kJl,
                            Op::kJge, Op::kJg, Op::kJle};
  auto reg = [&](u64 n) { return static_cast<u8>(rng.next_below(n)); };
  auto pick = [&](const auto& table) {
    return table[rng.next_below(std::size(table))];
  };
  isa::Assembler a;
  std::vector<isa::Label> at(kSlots + n_instrs + 1);
  for (auto& l : at) l = a.new_label();
  auto target = [&] { return at[rng.next_below(at.size())]; };
  for (size_t i = 0; i < kSlots; ++i) {
    a.bind(at[i]);
    u8 slot[8];
    store_u64(slot, static_cast<u64>(slot_patch(rng.next())));
    for (size_t off = 0; off < sizeof(slot);) {
      const isa::Decoded d = *isa::decode(ByteSpan(slot + off, 8 - off));
      a.emit(d.instr);
      off += d.len;
    }
  }
  for (size_t i = kSlots; i < kSlots + n_instrs; ++i) {
    a.bind(at[i]);
    const u64 dice = rng.next_below(200);
    if (dice < 2) {
      a.alu(rng.next_below(2) == 0 ? Op::kDiv : Op::kMod, reg(8), reg(10));
    } else if (dice < 50) {
      a.alu(pick(kAlu), reg(8), reg(10));
    } else if (dice < 80) {
      a.alui(pick(kAluImm), reg(8),
             static_cast<i64>(rng.next_below(200)) - 20);
    } else if (dice < 96) {
      if (rng.next_below(2) == 0) {
        a.cmp(reg(8), reg(8));
      } else {
        a.cmpi(reg(8), static_cast<i64>(rng.next_below(64)) - 32);
      }
    } else if (dice < 124) {
      a.branch(pick(kBranch), target());
    } else if (dice < 140) {
      const i32 slot = static_cast<i32>(8 * rng.next_below(64));
      switch (rng.next_below(4)) {
        case 0: a.loadg(reg(8), static_cast<u32>(kProgData + slot)); break;
        case 1: a.storeg(reg(8), static_cast<u32>(kProgData + slot)); break;
        case 2: a.loadr(reg(8), 8, slot); break;
        default: a.storer(reg(8), 8, slot); break;
      }
    } else if (dice < 156) {
      if (rng.next_below(2) == 0) {
        a.push(reg(10));
      } else {
        a.pop(reg(8));
      }
    } else if (dice < 166) {
      a.branch(Op::kCall, target());
    } else if (dice < 169) {
      a.ret();
    } else if (dice < 187) {
      // A store into the running W+X page, ahead of or behind rip.
      a.movi(7, slot_patch(rng.next()));
      a.storer(7, 9, static_cast<i32>(8 * rng.next_below(kSlots)));
    } else if (dice < 188) {
      a.trap(static_cast<u8>(rng.next_below(256)));
    } else if (dice < 189) {
      a.emit({rng.next_below(2) == 0 ? Op::kHlt : Op::kInt3});
    } else if (dice < 195) {
      a.nop();
    } else {
      a.nop5();
    }
  }
  a.bind(at.back());
  a.jmp(at.front());
  return *a.finish();
}

TEST(Interp, RunMatchesStepByStep) {
  // run() (one fused loop), run_into() called in random chunks (the
  // scheduler's way) and step() one instruction at a time must leave the
  // same machine behind: registers, flags, clocks, SMIs, the stop and
  // every byte of memory. The program's own stores and a periodic SMI's
  // handler rewrite the code while it runs, and a fork holds every frame
  // shared, so the first such write swaps the code page's frame.
  Rng rng(0xD1FF);
  u64 exhausted = 0, stopped = 0, smis = 0, code_writes = 0;
  for (int prog = 0; prog < 400; ++prog) {
    SCOPED_TRACE(::testing::Message() << "program " << prog);
    const Bytes code = random_program(rng, 24 + rng.next_below(64));
    const u64 budget = 1 + rng.next_below(600);
    const u64 interval = 16 + rng.next_below(400);
    auto boot = [&](std::optional<PhysMem>& keep) {
      Machine m = make_machine();
      EXPECT_TRUE(m.mem().write(kProgCode, code, AccessMode::smm()).is_ok());
      EXPECT_TRUE(m.set_smm_handler([](Machine& mm) {
                     const u64 n = mm.smi_count();
                     EXPECT_TRUE(mm.mem()
                                     .write_u64(kProgCode + 8 * (n % kSlots),
                                                static_cast<u64>(
                                                    slot_patch(n * 0x9E37)),
                                                AccessMode::smm())
                                     .is_ok());
                   })
                      .is_ok());
      EXPECT_TRUE(m.set_periodic_smi(interval).is_ok());
      for (int i = 0; i < 8; ++i) m.cpu().regs[i] = 3 * i + 1;
      m.cpu().regs[8] = kProgData;
      m.cpu().regs[9] = kProgCode;
      m.cpu().sp() = 0x100000;
      m.cpu().rip = kProgCode;
      keep.emplace(m.mem().fork());
      return m;
    };
    std::optional<PhysMem> keep_run, keep_chunks, keep_step;
    Machine by_run = boot(keep_run);
    Machine by_chunks = boot(keep_chunks);
    Machine by_step = boot(keep_step);

    const StepResult run_stop = by_run.run(budget);

    u64 chunk_steps = 0;
    StepResult chunk_stop;
    while (chunk_steps < budget && chunk_stop.kind == StepKind::kOk) {
      const u64 chunk = std::min(budget - chunk_steps, 1 + rng.next_below(40));
      chunk_steps += by_chunks.run_into(chunk, chunk_stop);
    }

    u64 steps = 0;
    StepResult step_stop;
    while (steps < budget && step_stop.kind == StepKind::kOk) {
      ++steps;
      step_stop = by_step.step();
    }

    EXPECT_EQ(chunk_steps, steps);
    for (const StepResult* r : {&run_stop, &std::as_const(chunk_stop)}) {
      EXPECT_EQ(r->kind, step_stop.kind) << step_stop.detail;
      EXPECT_EQ(r->info, step_stop.info);
      EXPECT_EQ(r->detail, step_stop.detail);
    }
    for (const Machine* m : {&by_run, &by_chunks}) {
      expect_same_cpu(*m, by_step);
      EXPECT_EQ(m->smi_count(), by_step.smi_count());
      const auto diff =
          first_difference(m->mem(), by_step.mem(), kMemEnd, {});
      EXPECT_FALSE(diff.has_value())
          << "memory differs at 0x" << std::hex << diff->addr;
    }
    if (step_stop.kind == StepKind::kOk) {
      ++exhausted;
    } else {
      ++stopped;
    }
    smis += by_step.smi_count();
    if (first_difference(by_step.mem(), *keep_step, kProgCode + kPageSize,
                         std::array{AddrRange{0, kProgCode}})) {
      ++code_writes;
    }
  }
  // The comparison proves little unless every path is common.
  EXPECT_GT(exhausted, 80u);
  EXPECT_GT(stopped, 80u);
  EXPECT_GT(smis, 500u);
  EXPECT_GT(code_writes, 100u);
}

// ---- SMM ----------------------------------------------------------------------

TEST(Smm, StateSavedAndRestoredAcrossSmi) {
  Machine m = make_machine();
  bool ran = false;
  ASSERT_TRUE(m.set_smm_handler([&](Machine& mm) {
                 ran = true;
                 // Handler trashes live registers; RSM must restore them.
                 mm.cpu().regs[3] = 0xDEAD;
                 mm.cpu().rip = 0x666;
               })
                  .is_ok());
  m.cpu().regs[3] = 0x1234;
  m.cpu().rip = 0x1000;
  m.cpu().sp() = 0x2000;
  m.trigger_smi();
  EXPECT_TRUE(ran);
  EXPECT_EQ(m.cpu().regs[3], 0x1234u);
  EXPECT_EQ(m.cpu().rip, 0x1000u);
  EXPECT_EQ(m.cpu().sp(), 0x2000u);
  EXPECT_EQ(m.mode(), CpuMode::kProtected);
}

TEST(Smm, HandlerRunsInSmmMode) {
  Machine m = make_machine();
  CpuMode observed = CpuMode::kProtected;
  ASSERT_TRUE(
      m.set_smm_handler([&](Machine& mm) { observed = mm.mode(); }).is_ok());
  m.trigger_smi();
  EXPECT_EQ(observed, CpuMode::kSmm);
}

TEST(Smm, LockPreventsHandlerReplacement) {
  Machine m = make_machine();
  ASSERT_TRUE(m.set_smm_handler([](Machine&) {}).is_ok());
  m.lock_smram();
  auto st = m.set_smm_handler([](Machine&) {});
  EXPECT_EQ(st.code(), Errc::kPermissionDenied);
}

TEST(Smm, CyclesChargedForSwitch) {
  Machine m = make_machine();
  ASSERT_TRUE(m.set_smm_handler([](Machine&) {}).is_ok());
  u64 before = m.cycles();
  m.trigger_smi();
  u64 delta = m.cycles() - before;
  EXPECT_EQ(delta, m.cost_model().smi_entry_cycles + m.cost_model().rsm_cycles);
  EXPECT_EQ(m.smm_cycles(), delta);
  EXPECT_EQ(m.smi_count(), 1u);
}

TEST(Smm, SaveStateSerializesAllRegisters) {
  Machine m = make_machine();
  for (int i = 0; i < isa::kNumRegs; ++i) {
    m.cpu().regs[i] = 0x1000u + static_cast<u64>(i);
  }
  m.cpu().rip = 0xABCD;
  m.cpu().zf = true;
  m.save_state_to_smram();
  // Wipe and restore.
  for (auto& r : m.cpu().regs) r = 0;
  m.cpu().rip = 0;
  m.cpu().zf = false;
  m.restore_state_from_smram();
  for (int i = 0; i < isa::kNumRegs; ++i) {
    EXPECT_EQ(m.cpu().regs[i], 0x1000u + static_cast<u64>(i));
  }
  EXPECT_EQ(m.cpu().rip, 0xABCDu);
  EXPECT_TRUE(m.cpu().zf);
}

TEST(CostModel, UsConversion) {
  CostModel c;
  EXPECT_DOUBLE_EQ(c.to_us(3000), 1.0);
  EXPECT_NEAR(c.to_us(c.smi_entry_cycles), 12.9, 0.01);
  EXPECT_NEAR(c.to_us(c.rsm_cycles), 21.7, 0.01);
  EXPECT_NEAR(c.to_us(c.keygen_cycles), 5.2, 0.01);
}

// ---- Multi-CPU SMI rendezvous -------------------------------------------

TEST(SmmRendezvous, ZeroCpusRejected) {
  Machine m = make_machine();
  EXPECT_EQ(m.set_cpus(0).code(), Errc::kInvalidArgument);
  EXPECT_EQ(m.cpus(), 1u);
}

TEST(SmmRendezvous, HotplugInsideSmiRejected) {
  Machine m = make_machine();
  Status inner = Status::ok();
  ASSERT_TRUE(
      m.set_smm_handler([&inner](Machine& mm) { inner = mm.set_cpus(4); })
          .is_ok());
  m.trigger_smi();
  EXPECT_EQ(inner.code(), Errc::kFailedPrecondition);
  EXPECT_EQ(m.cpus(), 1u);
}

TEST(SmmDeathTest, NestedSmiAborts) {
  Machine m = make_machine();
  ASSERT_TRUE(
      m.set_smm_handler([](Machine& mm) { mm.trigger_smi(); }).is_ok());
  EXPECT_DEATH(m.trigger_smi(), "nested SMI not modeled");
}

TEST(SmmRendezvous, SingleCpuByteCompatibleWithLegacyModel) {
  // set_cpus(1) must be indistinguishable from never calling it: same SMI
  // charges, same clock, no jitter RNG draws.
  Machine a = make_machine();
  Machine b = make_machine();
  ASSERT_TRUE(b.set_cpus(1).is_ok());
  auto handler = [](Machine& mm) { mm.charge_cycles(12'345); };
  ASSERT_TRUE(a.set_smm_handler(handler).is_ok());
  ASSERT_TRUE(b.set_smm_handler(handler).is_ok());
  for (int i = 0; i < 3; ++i) {
    a.trigger_smi();
    b.trigger_smi();
  }
  EXPECT_EQ(a.smm_cycles(), b.smm_cycles());
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.rendezvous_cycles_total(), b.rendezvous_cycles_total());
  EXPECT_EQ(a.resume_cycles_total(), b.resume_cycles_total());
}

TEST(SmmRendezvous, DecompositionSumsToDowntimeExactly) {
  for (u32 n : {1u, 4u, 16u}) {
    Machine m = make_machine();
    ASSERT_TRUE(m.set_cpus(n).is_ok());
    ASSERT_TRUE(
        m.set_smm_handler([](Machine& mm) { mm.charge_cycles(777); })
            .is_ok());
    for (int i = 0; i < 5; ++i) m.trigger_smi();
    EXPECT_EQ(m.rendezvous_cycles_total() + m.handler_cycles_total() +
                  m.resume_cycles_total(),
              m.smm_cycles())
        << "cpus=" << n;
    EXPECT_GT(m.handler_cycles_total(), 0u);
  }
}

TEST(SmmRendezvous, ParallelSixteenWithinBudgetSerialBlowsPast) {
  // The tentpole's acceptance numbers: broadcast rendezvous keeps a 16-CPU
  // SMI within 2.5x of single-CPU downtime while the naive serial model is
  // at least 8x.
  auto downtime = [](u32 n, bool serial) {
    Machine m = make_machine();
    EXPECT_TRUE(m.set_cpus(n).is_ok());
    m.set_serial_rendezvous(serial);
    EXPECT_TRUE(
        m.set_smm_handler([](Machine& mm) { mm.charge_cycles(30'000); })
            .is_ok());
    m.trigger_smi();
    return m.smm_cycles();
  };
  const u64 one = downtime(1, false);
  const u64 par16 = downtime(16, false);
  const u64 ser16 = downtime(16, true);
  EXPECT_LE(par16, one * 5 / 2) << "parallel 16-CPU exceeds the 2.5x budget";
  EXPECT_GE(ser16, one * 8) << "serial model suspiciously cheap";
  EXPECT_LT(par16, ser16);
}

TEST(SmmRendezvous, EarlyApReleaseShrinksResumeExactly) {
  Machine m = make_machine();
  ASSERT_TRUE(m.set_cpus(16).is_ok());
  u64 before = 0;
  u64 after = 0;
  ASSERT_TRUE(m.set_smm_handler([&](Machine& mm) {
                 before = mm.projected_resume_cycles();
                 mm.release_aps(10);
                 after = mm.projected_resume_cycles();
               }).is_ok());
  m.trigger_smi();
  EXPECT_LT(after, before);
  EXPECT_EQ(m.released_aps(), 10u);
  // RSM charges exactly the projection the handler saw.
  EXPECT_EQ(m.resume_cycles_total(), after);
  EXPECT_EQ(m.rendezvous_cycles_total() + m.handler_cycles_total() +
                m.resume_cycles_total(),
            m.smm_cycles());
}

TEST(SmmRendezvous, ReleaseClampsAndIgnoresOutsideSmm) {
  Machine m = make_machine();
  ASSERT_TRUE(m.set_cpus(4).is_ok());
  m.release_aps(2);  // outside SMM: no-op
  EXPECT_EQ(m.released_aps(), 0u);
  ASSERT_TRUE(m.set_smm_handler([](Machine& mm) {
                 mm.release_aps(100);  // clamped to cpus()-1
               }).is_ok());
  m.trigger_smi();
  EXPECT_EQ(m.released_aps(), 3u);
}

TEST(SmmRendezvous, JitterIsSeedDeterministic) {
  auto run = [](u64 seed) {
    Machine m(8 << 20, kSmramBase, kSmramSize, seed);
    EXPECT_TRUE(m.set_cpus(16).is_ok());
    EXPECT_TRUE(
        m.set_smm_handler([](Machine& mm) { mm.charge_cycles(1); }).is_ok());
    for (int i = 0; i < 4; ++i) m.trigger_smi();
    return m.smm_cycles();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // jitter stream actually depends on the seed
}

}  // namespace
}  // namespace kshot::machine
