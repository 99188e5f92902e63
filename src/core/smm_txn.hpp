// The SMM handler's undo journal. Every memory write of an apply, rollback,
// revert or supersede goes through an SmmTxn, which reads the bytes a write
// replaces before writing and records them. A transaction that leaves scope
// without commit() replays its record newest-first, so a failure at any step
// leaves memory byte-identical to its state when the transaction opened —
// no failure path spells out its own unwind.
#pragma once

#include <vector>

#include "common/status.hpp"
#include "machine/phys_mem.hpp"

namespace kshot::core {

/// The bytes at `addr` before a journaled write replaced them. An installed
/// patch keeps the one its trampoline or splice write produced as its
/// revert record.
struct SavedBytes {
  u64 addr = 0;
  Bytes bytes;
};

class SmmTxn {
 public:
  explicit SmmTxn(machine::PhysMem& mem) : mem_(mem) {}
  SmmTxn(const SmmTxn&) = delete;
  SmmTxn& operator=(const SmmTxn&) = delete;
  /// Replays the record in reverse unless commit() ran. Each replay write
  /// targets bytes this txn just wrote in SMM mode, where only an
  /// out-of-range address or an EPC page can fail, so a failed replay is a
  /// broken invariant and aborts.
  ~SmmTxn();

  /// Writes `bytes` at `addr` in SMM mode and records the bytes it
  /// replaced. If the read or the write fails, memory is unchanged, nothing
  /// is recorded, and the Status says why.
  Status write(u64 addr, ByteSpan bytes);
  Status write_u64(u64 addr, u64 value);
  /// Journaled write of a revert record. Its bytes were read from memory
  /// an earlier SMM write reached, so a failure aborts like a replay.
  void restore(const SavedBytes& saved);

  /// The record of the newest write.
  [[nodiscard]] const SavedBytes& last() const { return log_.back(); }

  /// Keeps every write so far: scope exit replays none of them.
  void commit() { log_.clear(); }

 private:
  machine::PhysMem& mem_;
  std::vector<SavedBytes> log_;
};

}  // namespace kshot::core
