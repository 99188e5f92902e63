#include "isa/isa.hpp"

#include "common/byte_io.hpp"

namespace kshot::isa {

namespace {

// First encoding byte for each opcode.
u8 opcode_byte(Op op) {
  switch (op) {
    case Op::kNop: return 0x90;
    case Op::kNop5: return 0x0F;
    case Op::kJmp: return 0xE9;
    case Op::kCall: return 0xE8;
    case Op::kRet: return 0xC3;
    case Op::kInt3: return 0xCC;
    case Op::kHlt: return 0xF4;
    case Op::kUd2: return 0x0F;
    case Op::kMov: return 0x10;
    case Op::kMovi: return 0x11;
    case Op::kAdd: return 0x20;
    case Op::kSub: return 0x21;
    case Op::kMul: return 0x22;
    case Op::kDiv: return 0x23;
    case Op::kMod: return 0x24;
    case Op::kXor: return 0x25;
    case Op::kAnd: return 0x26;
    case Op::kOr: return 0x27;
    case Op::kShl: return 0x28;
    case Op::kShr: return 0x29;
    case Op::kAddi: return 0x30;
    case Op::kSubi: return 0x31;
    case Op::kMuli: return 0x32;
    case Op::kDivi: return 0x33;
    case Op::kModi: return 0x34;
    case Op::kXori: return 0x35;
    case Op::kAndi: return 0x36;
    case Op::kOri: return 0x37;
    case Op::kShli: return 0x38;
    case Op::kShri: return 0x39;
    case Op::kLoadG: return 0x3A;
    case Op::kStoreG: return 0x3B;
    case Op::kLoadR: return 0x3C;
    case Op::kStoreR: return 0x3D;
    case Op::kCmp: return 0x40;
    case Op::kCmpi: return 0x41;
    case Op::kJe: return 0x50;
    case Op::kJne: return 0x51;
    case Op::kJl: return 0x52;
    case Op::kJge: return 0x53;
    case Op::kJg: return 0x54;
    case Op::kJle: return 0x55;
    case Op::kPush: return 0x60;
    case Op::kPop: return 0x61;
    case Op::kTrap: return 0x72;
  }
  return 0x90;
}

}  // namespace

size_t encoded_len(Op op) {
  switch (op) {
    case Op::kNop:
    case Op::kRet:
    case Op::kInt3:
    case Op::kHlt:
      return 1;
    case Op::kUd2:
    case Op::kPush:
    case Op::kPop:
    case Op::kTrap:
      return 2;
    case Op::kNop5:
    case Op::kJmp:
    case Op::kCall:
    case Op::kJe:
    case Op::kJne:
    case Op::kJl:
    case Op::kJge:
    case Op::kJg:
    case Op::kJle:
      return 5;
    case Op::kMov:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kXor:
    case Op::kAnd:
    case Op::kOr:
    case Op::kShl:
    case Op::kShr:
    case Op::kCmp:
      return 3;
    case Op::kMovi:
    case Op::kAddi:
    case Op::kSubi:
    case Op::kMuli:
    case Op::kDivi:
    case Op::kModi:
    case Op::kXori:
    case Op::kAndi:
    case Op::kOri:
    case Op::kShli:
    case Op::kShri:
    case Op::kLoadG:
    case Op::kStoreG:
    case Op::kCmpi:
      return 6;
    case Op::kLoadR:
    case Op::kStoreR:
      return 7;
  }
  return 1;
}

size_t encode(const Instr& in, Bytes& out) {
  size_t start = out.size();
  switch (in.op) {
    case Op::kNop5:
      out.insert(out.end(), {0x0F, 0x1F, 0x44, 0x00, 0x00});
      break;
    case Op::kUd2:
      out.insert(out.end(), {0x0F, 0x0B});
      break;
    case Op::kNop:
    case Op::kRet:
    case Op::kInt3:
    case Op::kHlt:
      out.push_back(opcode_byte(in.op));
      break;
    case Op::kJmp:
    case Op::kCall:
    case Op::kJe:
    case Op::kJne:
    case Op::kJl:
    case Op::kJge:
    case Op::kJg:
    case Op::kJle: {
      out.push_back(opcode_byte(in.op));
      u8 rel[4];
      store_u32(rel, static_cast<u32>(static_cast<i32>(in.imm)));
      out.insert(out.end(), rel, rel + 4);
      break;
    }
    case Op::kMov:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kXor:
    case Op::kAnd:
    case Op::kOr:
    case Op::kShl:
    case Op::kShr:
    case Op::kCmp:
      out.push_back(opcode_byte(in.op));
      out.push_back(in.a);
      out.push_back(in.b);
      break;
    case Op::kMovi:
    case Op::kAddi:
    case Op::kSubi:
    case Op::kMuli:
    case Op::kDivi:
    case Op::kModi:
    case Op::kXori:
    case Op::kAndi:
    case Op::kOri:
    case Op::kShli:
    case Op::kShri:
    case Op::kLoadG:
    case Op::kStoreG:
    case Op::kCmpi: {
      out.push_back(opcode_byte(in.op));
      out.push_back(in.a);
      u8 imm[4];
      store_u32(imm, static_cast<u32>(static_cast<i32>(in.imm)));
      out.insert(out.end(), imm, imm + 4);
      break;
    }
    case Op::kLoadR:
    case Op::kStoreR: {
      out.push_back(opcode_byte(in.op));
      out.push_back(in.a);
      out.push_back(in.b);
      u8 disp[4];
      store_u32(disp, static_cast<u32>(static_cast<i32>(in.imm)));
      out.insert(out.end(), disp, disp + 4);
      break;
    }
    case Op::kPush:
    case Op::kPop:
      out.push_back(opcode_byte(in.op));
      out.push_back(in.a);
      break;
    case Op::kTrap:
      out.push_back(opcode_byte(in.op));
      out.push_back(static_cast<u8>(in.imm));
      break;
  }
  return out.size() - start;
}

Result<Decoded> decode(ByteSpan code) {
  Decoded d;
  if (const DecodeFault* f = decode_into(code.data(), code.size(), d)) {
    return {f->code, f->message};
  }
  return d;
}

bool is_rel32_branch(Op op) {
  switch (op) {
    case Op::kJmp:
    case Op::kCall:
    case Op::kJe:
    case Op::kJne:
    case Op::kJl:
    case Op::kJge:
    case Op::kJg:
    case Op::kJle:
      return true;
    default:
      return false;
  }
}

bool is_cond_branch(Op op) {
  switch (op) {
    case Op::kJe:
    case Op::kJne:
    case Op::kJl:
    case Op::kJge:
    case Op::kJg:
    case Op::kJle:
      return true;
    default:
      return false;
  }
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kNop5: return "nop5";
    case Op::kJmp: return "jmp";
    case Op::kCall: return "call";
    case Op::kRet: return "ret";
    case Op::kInt3: return "int3";
    case Op::kHlt: return "hlt";
    case Op::kUd2: return "ud2";
    case Op::kMov: return "mov";
    case Op::kMovi: return "movi";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kXor: return "xor";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kAddi: return "addi";
    case Op::kSubi: return "subi";
    case Op::kMuli: return "muli";
    case Op::kDivi: return "divi";
    case Op::kModi: return "modi";
    case Op::kXori: return "xori";
    case Op::kAndi: return "andi";
    case Op::kOri: return "ori";
    case Op::kShli: return "shli";
    case Op::kShri: return "shri";
    case Op::kLoadG: return "loadg";
    case Op::kStoreG: return "storeg";
    case Op::kLoadR: return "loadr";
    case Op::kStoreR: return "storer";
    case Op::kCmp: return "cmp";
    case Op::kCmpi: return "cmpi";
    case Op::kJe: return "je";
    case Op::kJne: return "jne";
    case Op::kJl: return "jl";
    case Op::kJge: return "jge";
    case Op::kJg: return "jg";
    case Op::kJle: return "jle";
    case Op::kPush: return "push";
    case Op::kPop: return "pop";
    case Op::kTrap: return "trap";
  }
  return "?";
}

}  // namespace kshot::isa
