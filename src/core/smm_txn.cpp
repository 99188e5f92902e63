#include "core/smm_txn.hpp"

#include "common/byte_io.hpp"
#include "common/check.hpp"

namespace kshot::core {

SmmTxn::~SmmTxn() {
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    Status st = mem_.write(it->addr, it->bytes, machine::AccessMode::smm());
    KSHOT_CHECK(st.is_ok(),
                "SMM undo journal replay failed: " + st.to_string());
  }
}

Status SmmTxn::write(u64 addr, ByteSpan bytes) {
  const auto mode = machine::AccessMode::smm();
  auto old = mem_.read_bytes(addr, bytes.size(), mode);
  if (!old) return old.status();
  KSHOT_RETURN_IF_ERROR(mem_.write(addr, bytes, mode));
  log_.push_back({addr, std::move(*old)});
  return Status::ok();
}

Status SmmTxn::write_u64(u64 addr, u64 value) {
  u8 bytes[8];
  store_u64(bytes, value);
  return write(addr, ByteSpan(bytes, sizeof(bytes)));
}

void SmmTxn::restore(const SavedBytes& saved) {
  Status st = write(saved.addr, saved.bytes);
  KSHOT_CHECK(st.is_ok(), "SMM revert write failed: " + st.to_string());
}

}  // namespace kshot::core
