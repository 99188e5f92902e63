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

#include "common/byte_io.hpp"
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

namespace detail {

// The failures decode_into() reports: static, so a rejected decode builds
// no string until decode() wraps one in a Status. Inline variables, so each
// has one address in the whole program.
inline constexpr DecodeFault kEmpty{Errc::kOutOfRange, "empty code"};
inline constexpr DecodeFault kTruncated{Errc::kOutOfRange,
                                        "truncated instruction"};
inline constexpr DecodeFault kBadRegister{Errc::kInvalidArgument,
                                          "bad register"};
inline constexpr DecodeFault kBad0F{Errc::kInvalidArgument, "bad 0F escape"};
inline constexpr DecodeFault kUnknownOpcode{Errc::kInvalidArgument,
                                            "unknown opcode"};

inline const DecodeFault* decode_reg_reg(Op op, const u8* code, size_t n,
                                         Decoded& out) {
  if (n < 3) return &kTruncated;
  if (code[1] >= kNumRegs || code[2] >= kNumRegs) return &kBadRegister;
  out = {{op, code[1], code[2], 0}, 3};
  return nullptr;
}

inline const DecodeFault* decode_reg_imm(Op op, const u8* code, size_t n,
                                         Decoded& out) {
  if (n < 6) return &kTruncated;
  if (code[1] >= kNumRegs) return &kBadRegister;
  out = {{op, code[1], 0, static_cast<i32>(load_u32(code + 2))}, 6};
  return nullptr;
}

inline const DecodeFault* decode_reg_reg_disp(Op op, const u8* code,
                                              size_t n, Decoded& out) {
  if (n < 7) return &kTruncated;
  if (code[1] >= kNumRegs || code[2] >= kNumRegs) return &kBadRegister;
  out = {{op, code[1], code[2], static_cast<i32>(load_u32(code + 3))}, 7};
  return nullptr;
}

inline const DecodeFault* decode_rel32(Op op, const u8* code, size_t n,
                                       Decoded& out) {
  if (n < 5) return &kTruncated;
  out = {{op, 0, 0, static_cast<i32>(load_u32(code + 1))}, 5};
  return nullptr;
}

inline const DecodeFault* decode_reg(Op op, const u8* code, size_t n,
                                     Decoded& out) {
  if (n < 2) return &kTruncated;
  if (code[1] >= kNumRegs) return &kBadRegister;
  out = {{op, code[1]}, 2};
  return nullptr;
}

inline const DecodeFault* decode_one_byte(Op op, Decoded& out) {
  out = {{op}, 1};
  return nullptr;
}

}  // namespace detail

/// The decoder's Result-free core, shared by decode(), the bindiff walker
/// and the interpreter: the one decoder. Decodes one instruction from
/// code[0, n) into `out` and returns null, or returns a static DecodeFault
/// (and `out` is unspecified). It builds no Status and no string, so the
/// interpreter's per-step decode allocates nothing. It is defined here, and
/// always inlined, so the interpreter's loop decodes next to its execute
/// switch.
[[gnu::always_inline]] inline const DecodeFault* decode_into(const u8* code,
                                                             size_t n,
                                                             Decoded& out) {
  using namespace detail;
  if (n == 0) return &kEmpty;
  switch (code[0]) {
    case 0x90: return decode_one_byte(Op::kNop, out);
    case 0xC3: return decode_one_byte(Op::kRet, out);
    case 0xCC: return decode_one_byte(Op::kInt3, out);
    case 0xF4: return decode_one_byte(Op::kHlt, out);
    case 0x0F:
      if (n >= 2 && code[1] == 0x0B) {
        out = {{Op::kUd2}, 2};
        return nullptr;
      }
      if (n >= 5 && code[1] == 0x1F && code[2] == 0x44 && code[3] == 0x00 &&
          code[4] == 0x00) {
        out = {{Op::kNop5}, 5};
        return nullptr;
      }
      return &kBad0F;
    case 0xE9: return decode_rel32(Op::kJmp, code, n, out);
    case 0xE8: return decode_rel32(Op::kCall, code, n, out);
    case 0x50: return decode_rel32(Op::kJe, code, n, out);
    case 0x51: return decode_rel32(Op::kJne, code, n, out);
    case 0x52: return decode_rel32(Op::kJl, code, n, out);
    case 0x53: return decode_rel32(Op::kJge, code, n, out);
    case 0x54: return decode_rel32(Op::kJg, code, n, out);
    case 0x55: return decode_rel32(Op::kJle, code, n, out);
    case 0x10: return decode_reg_reg(Op::kMov, code, n, out);
    case 0x11: return decode_reg_imm(Op::kMovi, code, n, out);
    case 0x20: return decode_reg_reg(Op::kAdd, code, n, out);
    case 0x21: return decode_reg_reg(Op::kSub, code, n, out);
    case 0x22: return decode_reg_reg(Op::kMul, code, n, out);
    case 0x23: return decode_reg_reg(Op::kDiv, code, n, out);
    case 0x24: return decode_reg_reg(Op::kMod, code, n, out);
    case 0x25: return decode_reg_reg(Op::kXor, code, n, out);
    case 0x26: return decode_reg_reg(Op::kAnd, code, n, out);
    case 0x27: return decode_reg_reg(Op::kOr, code, n, out);
    case 0x28: return decode_reg_reg(Op::kShl, code, n, out);
    case 0x29: return decode_reg_reg(Op::kShr, code, n, out);
    case 0x30: return decode_reg_imm(Op::kAddi, code, n, out);
    case 0x31: return decode_reg_imm(Op::kSubi, code, n, out);
    case 0x32: return decode_reg_imm(Op::kMuli, code, n, out);
    case 0x33: return decode_reg_imm(Op::kDivi, code, n, out);
    case 0x34: return decode_reg_imm(Op::kModi, code, n, out);
    case 0x35: return decode_reg_imm(Op::kXori, code, n, out);
    case 0x36: return decode_reg_imm(Op::kAndi, code, n, out);
    case 0x37: return decode_reg_imm(Op::kOri, code, n, out);
    case 0x38: return decode_reg_imm(Op::kShli, code, n, out);
    case 0x39: return decode_reg_imm(Op::kShri, code, n, out);
    case 0x3A: return decode_reg_imm(Op::kLoadG, code, n, out);
    case 0x3B: return decode_reg_imm(Op::kStoreG, code, n, out);
    case 0x3C: return decode_reg_reg_disp(Op::kLoadR, code, n, out);
    case 0x3D: return decode_reg_reg_disp(Op::kStoreR, code, n, out);
    case 0x40: return decode_reg_reg(Op::kCmp, code, n, out);
    case 0x41: return decode_reg_imm(Op::kCmpi, code, n, out);
    case 0x60: return decode_reg(Op::kPush, code, n, out);
    case 0x61: return decode_reg(Op::kPop, code, n, out);
    case 0x72:
      if (n < 2) return &kTruncated;
      out = {{Op::kTrap, 0, 0, code[1]}, 2};
      return nullptr;
    default:
      return &kUnknownOpcode;
  }
}

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
