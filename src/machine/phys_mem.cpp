#include "machine/phys_mem.hpp"

#include <algorithm>
#include <cstring>

#include "common/byte_io.hpp"
#include "common/check.hpp"

namespace kshot::machine {

u64 PhysMem::next_epoch() {
  static std::atomic<u64> counter{0};
  return ++counter;
}

PhysMem::PhysMem(size_t size_bytes)
    : size_(size_bytes),
      frames_((size_bytes + kPageSize - 1) / kPageSize),
      attrs_(frames_.size()) {}

PhysMem::PhysMem(PhysMem&& o) noexcept
    : size_(std::exchange(o.size_, 0)),
      frames_(std::move(o.frames_)),
      attrs_(std::move(o.attrs_)),
      smram_base_(o.smram_base_),
      smram_len_(o.smram_len_) {
  o.epoch_ = next_epoch();
}

PhysMem& PhysMem::operator=(PhysMem&& o) noexcept {
  size_ = std::exchange(o.size_, 0);
  frames_ = std::move(o.frames_);
  attrs_ = std::move(o.attrs_);
  smram_base_ = o.smram_base_;
  smram_len_ = o.smram_len_;
  epoch_ = next_epoch();
  o.epoch_ = next_epoch();
  return *this;
}

PhysMem PhysMem::fork() const {
  PhysMem out(0);
  out.size_ = size_;
  out.frames_ = frames_;
  out.attrs_ = attrs_;
  out.smram_base_ = smram_base_;
  out.smram_len_ = smram_len_;
  return out;
}

u8* PhysMem::writable_page(size_t page) {
  FrameRef& f = frames_[page];
  if (f.get() == nullptr) {
    f = FrameRef(new Frame());
  } else if (f.shared()) {
    f = FrameRef(new Frame{f.get()->bytes});
  }
  return f.mut()->bytes.data();
}

void PhysMem::copy_out(PhysAddr addr, MutByteSpan out) const {
  for_each_page(addr, out.size(), [&](size_t page, size_t off, size_t done,
                                      size_t n) {
    if (const u8* src = page_bytes(page)) {
      std::memcpy(out.data() + done, src + off, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
  });
}

void PhysMem::copy_in(PhysAddr addr, ByteSpan data) {
  for_each_page(addr, data.size(), [&](size_t page, size_t off, size_t done,
                                       size_t n) {
    std::memcpy(writable_page(page) + off, data.data() + done, n);
  });
}

namespace {

constexpr AccessFault kPastEnd{Errc::kOutOfRange,
                               "physical address out of range"};
constexpr AccessFault kSmramFromNormal{Errc::kPermissionDenied,
                                       "SMRAM access in protected mode"};
constexpr AccessFault kEpcFromNormal{Errc::kPermissionDenied,
                                     "EPC access from non-enclave code"};
constexpr AccessFault kEpcFromSmm{Errc::kPermissionDenied,
                                  "EPC access from SMM"};
constexpr AccessFault kSmramFromEnclave{Errc::kPermissionDenied,
                                        "SMRAM access from enclave"};
constexpr AccessFault kEpcOfOtherEnclave{Errc::kPermissionDenied,
                                         "EPC page of another enclave"};
constexpr AccessFault kNotExecutable{Errc::kPermissionDenied,
                                     "page not executable"};
constexpr AccessFault kNotWritable{Errc::kPermissionDenied,
                                   "page not writable"};
constexpr AccessFault kNotReadable{Errc::kPermissionDenied,
                                   "page not readable"};

/// The page-attribute verdict for normal-mode (and enclave non-EPC) access.
[[nodiscard]] const AccessFault* attr_fault(const PageAttr& a, bool writing,
                                          bool fetching) {
  if (fetching) return a.exec ? nullptr : &kNotExecutable;
  if (writing) return a.write ? nullptr : &kNotWritable;
  return a.read ? nullptr : &kNotReadable;
}

/// A fault as a Status; null is ok.
Status to_status(const AccessFault* f) {
  return f != nullptr ? Status(f->code, f->message) : Status::ok();
}

}  // namespace

const AccessFault* PhysMem::access_fault(PhysAddr addr, size_t len,
                                         AccessMode mode, bool writing,
                                         bool fetching) const {
  if (addr + len > size_ || addr + len < addr) return &kPastEnd;
  if (len == 0) return nullptr;

  for (PhysAddr page = addr / kPageSize; page <= (addr + len - 1) / kPageSize;
       ++page) {
    const PageAttr& a = attrs_[page];
    PhysAddr page_addr = page * kPageSize;
    bool smram = in_smram(page_addr);

    switch (mode.kind) {
      case AccessMode::Kind::kNormal:
        if (smram) return &kSmramFromNormal;
        if (a.epc_owner != 0) return &kEpcFromNormal;
        if (const AccessFault* f = attr_fault(a, writing, fetching)) return f;
        break;
      case AccessMode::Kind::kSmm:
        // SMM bypasses page attributes and may use SMRAM, but the memory
        // encryption engine keeps EPC opaque even to SMM.
        if (a.epc_owner != 0) return &kEpcFromSmm;
        break;
      case AccessMode::Kind::kEnclave:
        if (smram) return &kSmramFromEnclave;
        if (a.epc_owner != 0 && a.epc_owner != mode.enclave_id) {
          return &kEpcOfOtherEnclave;
        }
        // Enclave code obeys ordinary page attributes on non-EPC memory.
        if (a.epc_owner == 0) {
          if (const AccessFault* f = attr_fault(a, writing, fetching)) {
            return f;
          }
        }
        break;
    }
  }
  return nullptr;
}

Status PhysMem::check(PhysAddr addr, size_t len, AccessMode mode, bool writing,
                      bool fetching) const {
  return to_status(access_fault(addr, len, mode, writing, fetching));
}

Status PhysMem::read(PhysAddr addr, MutByteSpan out, AccessMode mode) const {
  KSHOT_RETURN_IF_ERROR(check(addr, out.size(), mode, false, false));
  copy_out(addr, out);
  return Status::ok();
}

Status PhysMem::write(PhysAddr addr, ByteSpan data, AccessMode mode) {
  KSHOT_RETURN_IF_ERROR(check(addr, data.size(), mode, true, false));
  copy_in(addr, data);
  return Status::ok();
}

const AccessFault* PhysMem::load_word(PhysAddr addr, AccessMode mode,
                                      u64& out) const {
  if (const AccessFault* f = access_fault(addr, 8, mode, false, false)) {
    return f;
  }
  const size_t off = addr % kPageSize;
  if (off <= kPageSize - 8) {
    const u8* p = page_bytes(addr / kPageSize);
    out = load_u64((p != nullptr ? p : kZeroPage.data()) + off);
  } else {
    u8 buf[8];
    copy_out(addr, MutByteSpan(buf, 8));
    out = load_u64(buf);
  }
  return nullptr;
}

const AccessFault* PhysMem::store_word(PhysAddr addr, u64 value,
                                       AccessMode mode) {
  if (const AccessFault* f = access_fault(addr, 8, mode, true, false)) {
    return f;
  }
  const size_t off = addr % kPageSize;
  if (off <= kPageSize - 8) {
    // writable_page copies a shared frame first, so a fork never sees this.
    store_u64(writable_page(addr / kPageSize) + off, value);
  } else {
    u8 buf[8];
    store_u64(buf, value);
    copy_in(addr, ByteSpan(buf, 8));
  }
  return nullptr;
}

Result<u64> PhysMem::read_u64(PhysAddr addr, AccessMode mode) const {
  u64 v = 0;
  if (const AccessFault* f = load_word(addr, mode, v)) return to_status(f);
  return v;
}

Status PhysMem::write_u64(PhysAddr addr, u64 value, AccessMode mode) {
  return to_status(store_word(addr, value, mode));
}

Result<Bytes> PhysMem::read_bytes(PhysAddr addr, size_t n,
                                  AccessMode mode) const {
  Bytes out(n);
  Status st = read(addr, MutByteSpan(out), mode);
  if (!st.is_ok()) return st;
  return out;
}

Status PhysMem::fetch(PhysAddr addr, size_t n, MutByteSpan out,
                      AccessMode mode, FetchMemo* memo) const {
  if (n > out.size()) {
    return {Errc::kInvalidArgument, "fetch longer than the output buffer"};
  }
  KSHOT_RETURN_IF_ERROR(check(addr, n, mode, false, true));
  copy_out(addr, out.first(n));
  // check() judges whole pages, so every window inside this page passes as
  // well, as long as the page lies wholly in memory and the epoch stands.
  const size_t page = addr / kPageSize;
  if (memo != nullptr && n > 0 && (addr + n - 1) / kPageSize == page &&
      (page + 1) * kPageSize <= size_) {
    memo->page_ = page;
    memo->mode_ = mode;
    memo->epoch_ = epoch_;
  }
  return Status::ok();
}

void PhysMem::set_attrs(PhysAddr addr, size_t len, PageAttr attr) {
  if (len == 0) return;
  epoch_ = next_epoch();
  PhysAddr first = addr / kPageSize;
  PhysAddr last = (addr + len - 1) / kPageSize;
  for (PhysAddr p = first; p <= last && p < attrs_.size(); ++p) {
    attrs_[p] = attr;
  }
}

PageAttr PhysMem::attrs_at(PhysAddr addr) const {
  KSHOT_CHECK(addr / kPageSize < attrs_.size(),
              "PhysMem: attrs_at past the end");
  return attrs_[addr / kPageSize];
}

void PhysMem::set_smram(PhysAddr base, size_t len) {
  KSHOT_CHECK(base % kPageSize == 0 && len % kPageSize == 0,
              "PhysMem: set_smram base and length must be page-aligned");
  smram_base_ = base;
  smram_len_ = len;
  epoch_ = next_epoch();
}

bool PhysMem::in_smram(PhysAddr addr) const {
  return smram_len_ > 0 && addr >= smram_base_ &&
         addr < smram_base_ + smram_len_;
}

std::optional<MemDifference> first_difference(
    const PhysMem& a, const PhysMem& b, PhysAddr limit,
    std::span<const AddrRange> excluded) {
  KSHOT_CHECK(limit <= a.size() && limit <= b.size(),
              "PhysMem: first_difference limit past the end of memory");
  auto is_excluded = [&](PhysAddr at) {
    return std::any_of(excluded.begin(), excluded.end(),
                       [at](const AddrRange& r) { return r.contains(at); });
  };
  for (size_t page = 0; page * kPageSize < limit; ++page) {
    const u8* pa = a.page_bytes(page);
    const u8* pb = b.page_bytes(page);
    if (pa == pb) continue;  // one shared frame, or both untouched
    if (!pa) pa = PhysMem::kZeroPage.data();
    if (!pb) pb = PhysMem::kZeroPage.data();
    const PhysAddr base = page * kPageSize;
    const size_t n = std::min<PhysAddr>(kPageSize, limit - base);
    if (std::memcmp(pa, pb, n) == 0) continue;
    for (size_t i = 0; i < n; ++i) {
      if (pa[i] != pb[i] && !is_excluded(base + i)) {
        return MemDifference{base + i, pa[i], pb[i]};
      }
    }
  }
  return std::nullopt;
}

}  // namespace kshot::machine
