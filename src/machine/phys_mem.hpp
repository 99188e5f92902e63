// Simulated physical memory with 4 KB pages, per-page R/W/X attributes, a
// firmware-lockable SMRAM range, and SGX EPC page ownership. Access control
// is the trust anchor of the whole reproduction:
//   * normal (kernel/user) accesses honor page attributes and are denied on
//     SMRAM and EPC pages;
//   * SMM accesses bypass page attributes and may touch SMRAM, but never EPC
//     (real SMM cannot read enclave memory either);
//   * enclave accesses may touch their own EPC pages plus ordinary memory.
//
// Storage is one copy-on-write frame per page. A null frame reads as zeros
// and is allocated on its first write; fork() shares every frame, and a
// write to a shared frame copies it first, so a frame is never modified
// while another PhysMem can see it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace kshot::machine {

inline constexpr size_t kPageSize = 4096;

/// Who is performing a memory access.
struct AccessMode {
  enum class Kind { kNormal, kSmm, kEnclave };
  Kind kind = Kind::kNormal;
  u16 enclave_id = 0;  // meaningful for kEnclave

  static AccessMode normal() { return {Kind::kNormal, 0}; }
  static AccessMode smm() { return {Kind::kSmm, 0}; }
  static AccessMode enclave(u16 id) { return {Kind::kEnclave, id}; }
};

/// Per-page protection attributes as seen by normal-mode software.
struct PageAttr {
  bool read = true;
  bool write = true;
  bool exec = true;
  u16 epc_owner = 0;  // nonzero: EPC page owned by that enclave id
};

/// A half-open physical range [base, base + len).
struct AddrRange {
  PhysAddr base = 0;
  size_t len = 0;

  [[nodiscard]] bool contains(PhysAddr a) const {
    return a >= base && a - base < len;
  }
};

/// Why PhysMem refused an access: the Status-free form of a check()
/// failure, with the same code and text. Like isa::DecodeFault it points at
/// static storage, so reporting a fault builds no string.
struct AccessFault {
  Errc code;
  const char* message;  // static storage
};

/// What the last successful checked instruction fetch proved: its mode may
/// fetch from every byte of its page while the memory's attribute epoch is
/// unchanged. Only PhysMem::fetch fills one, so a memo cannot be forged. It
/// holds no bytes and no pointer, so a write cannot make it stale; see
/// PhysMem::exec_window.
class FetchMemo {
 private:
  friend class PhysMem;
  u64 page_ = ~u64{0};  // matches no page until a fetch fills it
  AccessMode mode_;
  u64 epoch_ = 0;       // no PhysMem ever has epoch 0
};

/// The first byte at which two memories differ.
struct MemDifference {
  PhysAddr addr = 0;
  u8 a = 0;  // the byte in the first memory
  u8 b = 0;  // the byte in the second memory
};

class PhysMem {
 public:
  explicit PhysMem(size_t size_bytes);
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;
  /// A move gives both sides a fresh attribute epoch (and leaves the source
  /// empty), so no FetchMemo taken before it matches either of them.
  PhysMem(PhysMem&& o) noexcept;
  PhysMem& operator=(PhysMem&& o) noexcept;

  /// Copy-on-write clone in O(pages): contents, attributes and SMRAM range.
  /// Later writes to either side are invisible to the other.
  [[nodiscard]] PhysMem fork() const;

  [[nodiscard]] size_t size() const { return size_; }

  // Data access ---------------------------------------------------------
  Status read(PhysAddr addr, MutByteSpan out, AccessMode mode) const;
  Status write(PhysAddr addr, ByteSpan data, AccessMode mode);
  /// Wrappers over load_word/store_word that build a Status on failure.
  Result<u64> read_u64(PhysAddr addr, AccessMode mode) const;
  Status write_u64(PhysAddr addr, u64 value, AccessMode mode);
  /// The interpreter's word access: the same check, code and text as
  /// read_u64/write_u64, but a fault is returned as a static AccessFault
  /// and null means done. A load writes `out` only on success, and a
  /// refused store writes nothing.
  [[nodiscard]] const AccessFault* load_word(PhysAddr addr, AccessMode mode,
                                             u64& out) const;
  [[nodiscard]] const AccessFault* store_word(PhysAddr addr, u64 value,
                                              AccessMode mode);
  Result<Bytes> read_bytes(PhysAddr addr, size_t n, AccessMode mode) const;

  /// Instruction fetch: checked against the page's exec attribute (not read),
  /// so execute-only regions like mem_X work as the paper requires. When it
  /// succeeds on a window inside one page that lies wholly in memory, it
  /// records that page, `mode` and the attribute epoch in `*memo`.
  Status fetch(PhysAddr addr, size_t n, MutByteSpan out, AccessMode mode,
               FetchMemo* memo = nullptr) const;

  /// The live bytes of the fetch window [addr, addr + len) when `memo`
  /// already proves fetch() would allow it: the window lies in the memo's
  /// page, and `mode` and the attribute epoch are the ones fetch() checked.
  /// Returns null otherwise; the caller then takes fetch(). The pointer is
  /// the page's current frame, so every write made so far (a COW swap
  /// included) is visible through it, and it is valid until the next write.
  [[nodiscard]] const u8* exec_window(PhysAddr addr, size_t len,
                                      AccessMode mode,
                                      const FetchMemo& memo) const {
    const size_t off = addr % kPageSize;
    if (addr / kPageSize != memo.page_ || len > kPageSize - off ||
        memo.epoch_ != epoch_ || mode.kind != memo.mode_.kind ||
        mode.enclave_id != memo.mode_.enclave_id) {
      return nullptr;
    }
    const u8* p = page_bytes(memo.page_);
    return (p != nullptr ? p : kZeroPage.data()) + off;
  }

  // Page attributes ------------------------------------------------------
  /// Sets attributes on [addr, addr+len), rounded outward to page boundaries.
  /// Starts a new attribute epoch.
  void set_attrs(PhysAddr addr, size_t len, PageAttr attr);
  [[nodiscard]] PageAttr attrs_at(PhysAddr addr) const;

  // SMRAM ----------------------------------------------------------------
  /// Moves SMRAM to [base, base+len); starts a new attribute epoch.
  void set_smram(PhysAddr base, size_t len);
  [[nodiscard]] bool in_smram(PhysAddr addr) const;
  [[nodiscard]] PhysAddr smram_base() const { return smram_base_; }
  [[nodiscard]] size_t smram_size() const { return smram_len_; }

 private:
  /// One page of storage with an intrusive atomic reference count. The
  /// count is read with acquire ordering before an in-place write, so the
  /// last reader's copy of a formerly shared frame happens-before it.
  struct alignas(64) Frame {
    std::array<u8, kPageSize> bytes{};  // first, so copies stay aligned
    std::atomic<u32> refs{1};
  };

  /// Owning handle to a Frame; null is the all-zero page.
  class FrameRef {
   public:
    FrameRef() = default;
    explicit FrameRef(Frame* f) : f_(f) {}
    FrameRef(const FrameRef& o) : f_(o.f_) {
      if (f_) f_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    FrameRef(FrameRef&& o) noexcept : f_(o.f_) { o.f_ = nullptr; }
    FrameRef& operator=(FrameRef o) noexcept {
      std::swap(f_, o.f_);
      return *this;
    }
    ~FrameRef() {
      if (f_ && f_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete f_;
      }
    }
    [[nodiscard]] const Frame* get() const { return f_; }
    [[nodiscard]] bool shared() const {
      return f_->refs.load(std::memory_order_acquire) > 1;
    }
    [[nodiscard]] Frame* mut() { return f_; }

   private:
    Frame* f_ = nullptr;
  };

  static constexpr std::array<u8, kPageSize> kZeroPage{};

  /// A value no PhysMem has held before: epochs come from one process-wide
  /// counter, so a memo can only ever match the state it was taken on.
  static u64 next_epoch();

  friend std::optional<MemDifference> first_difference(
      const PhysMem&, const PhysMem&, PhysAddr, std::span<const AddrRange>);

  /// The one access checker: null when `mode` may access every byte of
  /// [addr, addr + len), else the first fault found.
  [[nodiscard]] const AccessFault* access_fault(PhysAddr addr, size_t len,
                                                AccessMode mode, bool writing,
                                                bool fetching) const;
  /// access_fault() as a Status.
  Status check(PhysAddr addr, size_t len, AccessMode mode, bool writing,
               bool fetching) const;
  /// Page bytes for reading; null for an untouched (all-zero) page.
  [[nodiscard]] const u8* page_bytes(size_t page) const {
    const Frame* f = frames_[page].get();
    return f ? f->bytes.data() : nullptr;
  }
  /// Page bytes for writing: allocates a null frame, copies a shared one.
  u8* writable_page(size_t page);
  void copy_out(PhysAddr addr, MutByteSpan out) const;
  void copy_in(PhysAddr addr, ByteSpan data);
  /// Calls fn(page, offset in page, offset in span, length) for each page
  /// piece of [addr, addr+len). A span inside one page (nearly every
  /// access) is one call with a runtime length, which reaches libc's
  /// memcpy; inside a loop over page-bounded pieces the compiler inlines
  /// the copies as `rep movs`, several times slower at 8–16 bytes.
  template <typename Fn>
  static void for_each_page(PhysAddr addr, size_t len, Fn&& fn) {
    if (len == 0) return;
    size_t off = addr % kPageSize;
    if (off + len <= kPageSize) return fn(addr / kPageSize, off, 0, len);
    for (size_t done = 0; done < len; off = 0) {
      size_t n = std::min(kPageSize - off, len - done);
      fn((addr + done) / kPageSize, off, done, n);
      done += n;
    }
  }

  size_t size_ = 0;
  std::vector<FrameRef> frames_;
  std::vector<PageAttr> attrs_;
  PhysAddr smram_base_ = 0;
  size_t smram_len_ = 0;
  /// Changes whenever an access_fault() result could: new attributes, a new
  /// SMRAM range, or a move (the only way size_ changes). Besides its
  /// arguments, access_fault() reads nothing else.
  u64 epoch_ = next_epoch();
};

/// Finds the lowest address below `limit` whose byte differs between `a`
/// and `b`, ignoring addresses inside any `excluded` range. Pages whose
/// frames are the same pointer (forked and untouched on both sides) or both
/// null are skipped unread, so the cost scales with the pages written since
/// the fork. `limit` must not exceed either size (aborts otherwise).
[[nodiscard]] std::optional<MemDifference> first_difference(
    const PhysMem& a, const PhysMem& b, PhysAddr limit,
    std::span<const AddrRange> excluded);

}  // namespace kshot::machine
