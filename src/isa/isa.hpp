// The simulated kernel instruction set.
//
// The encodings that live patching manipulates are genuine x86:
//   E9 rel32            jmp   (the 5-byte trampoline KShot installs)
//   E8 rel32            call
//   0F 1F 44 00 00      5-byte nop (the ftrace pad at traced function entry)
//   C3 / CC / F4 / 0F 0B ret / int3 / hlt / ud2
// The remaining opcodes are a compact x86-flavoured RISC subset that the
// machine interpreter executes. All control flow uses rel32 displacements, so
// relocating a patched function into mem_X requires exactly the fixups the
// paper describes ("we must change these offsets to retain required
// functionality via the standard approach of calculating label differences").
#pragma once

#include "common/status.hpp"
#include "common/types.hpp"

namespace kshot::isa {

inline constexpr int kNumRegs = 16;

enum class Op : u8 {
  kNop,    // 90
  kNop5,   // 0F 1F 44 00 00   (ftrace pad)
  kJmp,    // E9 rel32
  kCall,   // E8 rel32
  kRet,    // C3
  kInt3,   // CC
  kHlt,    // F4
  kUd2,    // 0F 0B            (kernel BUG(): fires an oops/trap)

  kMov,    // 10 dst src
  kMovi,   // 11 dst imm32 (sign-extended)

  kAdd,    // 20 dst src
  kSub,    // 21
  kMul,    // 22
  kDiv,    // 23  (divide by zero faults -> oops)
  kMod,    // 24
  kXor,    // 25
  kAnd,    // 26
  kOr,     // 27
  kShl,    // 28
  kShr,    // 29

  kAddi,   // 30 dst imm32
  kSubi,   // 31
  kMuli,   // 32
  kDivi,   // 33
  kModi,   // 34
  kXori,   // 35
  kAndi,   // 36
  kOri,    // 37
  kShli,   // 38
  kShri,   // 39

  kLoadG,  // 3A dst abs32     load 8 bytes from absolute address
  kStoreG, // 3B src abs32     store 8 bytes to absolute address
  kLoadR,  // 3C dst base disp32
  kStoreR, // 3D src base disp32

  kCmp,    // 40 a b
  kCmpi,   // 41 a imm32

  kJe,     // 50 rel32
  kJne,    // 51
  kJl,     // 52 (signed)
  kJge,    // 53
  kJg,     // 54
  kJle,    // 55

  kPush,   // 60 r
  kPop,    // 61 r

  kTrap,   // 72 imm8          software-defined trap (exploit payload fires)
};

/// Decoded instruction. `a`/`b` are register operands; `imm` holds the
/// immediate, displacement, absolute address, rel32, or trap code.
struct Instr {
  Op op = Op::kNop;
  u8 a = 0;
  u8 b = 0;
  i64 imm = 0;

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// Encoded length in bytes of an instruction with this opcode.
size_t encoded_len(Op op);

/// Appends the encoding of `in` to `out`. Returns the encoded length.
size_t encode(const Instr& in, Bytes& out);

/// Decoded instruction plus its encoded length.
struct Decoded {
  Instr instr;
  size_t len = 0;
};

/// The longest encoding (loadr/storer): the interpreter's fetch window.
inline constexpr size_t kMaxInstrLen = 7;

/// Why decoding failed: the Errc and text decode() reports.
struct DecodeFault {
  Errc code;
  const char* message;  // static storage
};

/// The decoder's Result-free core, shared by decode() and the interpreter.
/// Decodes one instruction from code[0, n) into `out` and returns null, or
/// returns a static DecodeFault (and `out` is unspecified). It builds no
/// Status and no string, so the interpreter's per-step decode allocates
/// nothing.
const DecodeFault* decode_into(const u8* code, size_t n, Decoded& out);

/// Decodes one instruction at the start of `code`.
Result<Decoded> decode(ByteSpan code);

/// True if the opcode is a rel32 control transfer (jmp/call/jcc); such
/// instructions carry their displacement in the 4 bytes after the first
/// opcode byte.
bool is_rel32_branch(Op op);

/// True for conditional branches (50..55).
bool is_cond_branch(Op op);

/// Mnemonic, e.g. "jmp" or "addi".
const char* op_name(Op op);

}  // namespace kshot::isa
