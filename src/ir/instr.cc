#include "ir/instr.h"

namespace statsym::ir {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kConst: return "const";
    case Opcode::kMove: return "move";
    case Opcode::kBin: return "bin";
    case Opcode::kNot: return "not";
    case Opcode::kNeg: return "neg";
    case Opcode::kAlloca: return "alloca";
    case Opcode::kStrConst: return "strconst";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kBufSize: return "bufsize";
    case Opcode::kLoadG: return "loadg";
    case Opcode::kStoreG: return "storeg";
    case Opcode::kJmp: return "jmp";
    case Opcode::kBr: return "br";
    case Opcode::kCall: return "call";
    case Opcode::kCallExt: return "callext";
    case Opcode::kRet: return "ret";
    case Opcode::kArgc: return "argc";
    case Opcode::kArg: return "arg";
    case Opcode::kEnv: return "env";
    case Opcode::kMakeSymInt: return "makesymint";
    case Opcode::kMakeSymBuf: return "makesymbuf";
    case Opcode::kAssert: return "assert";
    case Opcode::kPrint: return "print";
  }
  return "?";
}

const char* binop_name(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kRem: return "%";
    case BinOp::kAnd: return "&";
    case BinOp::kOr: return "|";
    case BinOp::kXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kLAnd: return "&&";
    case BinOp::kLOr: return "||";
  }
  return "?";
}

bool is_comparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

}  // namespace statsym::ir
