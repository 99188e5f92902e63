#include "isa/assembler.hpp"

#include "common/byte_io.hpp"
#include "common/check.hpp"

namespace kshot::isa {

void Assembler::bind(Label l) {
  KSHOT_CHECK(l.id >= 0, "label must come from new_label()");
  KSHOT_CHECK(!bound_.count(l.id), "label bound twice");
  bound_[l.id] = code_.size();
}

void Assembler::branch(Op op, Label target) {
  KSHOT_CHECK(is_rel32_branch(op), "branch() needs a rel32 branch opcode");
  size_t rel_off = code_.size() + 1;
  emit({op, 0, 0, 0});
  fixups_.push_back({rel_off, target.id});
}

void Assembler::call_sym(const std::string& symbol) {
  size_t rel_off = code_.size() + 1;
  emit({Op::kCall, 0, 0, 0});
  ext_refs_.push_back({rel_off, symbol});
}

Result<Bytes> Assembler::finish() {
  for (const Fixup& f : fixups_) {
    auto it = bound_.find(f.label);
    if (it == bound_.end()) {
      return {Errc::kFailedPrecondition, "unbound label in assembler"};
    }
    // rel32 is relative to the end of the 5-byte branch instruction.
    i64 rel = static_cast<i64>(it->second) - static_cast<i64>(f.offset + 4);
    store_u32(code_.data() + f.offset, static_cast<u32>(static_cast<i32>(rel)));
  }
  fixups_.clear();
  return code_;
}

}  // namespace kshot::isa
