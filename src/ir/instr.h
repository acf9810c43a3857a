// Instruction set of the mini-IR.
//
// The mini-IR plays the role LLVM bitcode plays in the paper: the four target
// applications are expressed in it, the concrete interpreter (interp/) runs
// it to produce monitor logs, and the symbolic executor (symexec/) explores
// it KLEE-style. It is a register machine over two value kinds — 64-bit
// integers and references to byte buffers — organised into functions made of
// basic blocks. Buffers make buffer-overflow vulnerabilities expressible
// exactly as in the original C programs (unchecked copy loops into
// fixed-size stack allocations).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace statsym::ir {

using Reg = std::int32_t;
using BlockId = std::int32_t;
using FuncId = std::int32_t;

inline constexpr Reg kNoReg = -1;
inline constexpr BlockId kNoBlock = -1;
inline constexpr FuncId kNoFunc = -1;

enum class Opcode : std::uint8_t {
  // Data movement / arithmetic.
  kConst,    // dst = imm
  kMove,     // dst = r(a)
  kBin,      // dst = r(a) <bin> r(b)
  kNot,      // dst = (r(a) is falsy) ? 1 : 0
  kNeg,      // dst = -r(a)

  // Memory. Buffers are byte arrays with a fixed size; loads/stores are
  // bounds-checked by the interpreters — an out-of-bounds store is the
  // fault model for buffer-overflow vulnerabilities.
  kAlloca,    // dst = ref to fresh zeroed buffer of size imm
  kStrConst,  // dst = ref to fresh buffer holding str + '\0'
  kLoad,      // dst = byte at r(a)[r(b)]
  kStore,     // r(a)[r(b)] = r(c) (low 8 bits)
  kBufSize,   // dst = size of buffer r(a)

  // Globals (module slots holding an int or a buffer reference).
  kLoadG,   // dst = global slot `str`
  kStoreG,  // global slot `str` = r(a)

  // Control flow. Every basic block ends with exactly one terminator
  // (kJmp, kBr or kRet).
  kJmp,      // goto block t0
  kBr,       // if r(a) truthy goto t0 else t1
  kCall,     // dst? = callee(args...)  — callee resolved to FuncId in imm
  kCallExt,  // dst? = external `str`(args...) — modelled effect, logged
  kRet,      // return r(a) (or nothing when a == kNoReg)

  // Program inputs (provided by the runtime harness).
  kArgc,  // dst = number of argv strings
  kArg,   // dst = ref to argv[r(a)] buffer
  kEnv,   // dst = ref to environment variable `str`, or null ref

  // Symbolic-input markers (the klee_make_symbolic analogue). The concrete
  // interpreter reads the value from the RuntimeInput instead.
  kMakeSymInt,  // r-value in dst becomes symbolic `str`, domain [imm, imm2]
  kMakeSymBuf,  // bytes of buffer r(a) become symbolic `str`

  // Checks and effects.
  kAssert,  // fault (assertion failure) when r(a) is falsy
  kPrint,   // external side effect; no semantic content
};

enum class BinOp : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,  // division by zero is a fault
  kRem,  // remainder by zero is a fault
  kAnd,  // bitwise
  kOr,
  kXor,
  kShl,
  kShr,
  kEq,
  kNe,
  kLt,  // signed
  kLe,
  kGt,
  kGe,
  kLAnd,  // logical (on truthiness); non-short-circuit
  kLOr,
};

// One instruction. A plain aggregate: the IR is data, behaviour lives in the
// interpreters. `args` is only populated for kCall/kCallExt.
struct Instr {
  Opcode op{Opcode::kConst};
  Reg dst{kNoReg};
  Reg a{kNoReg};
  Reg b{kNoReg};
  Reg c{kNoReg};
  std::int64_t imm{0};
  std::int64_t imm2{0};
  BinOp bin{BinOp::kAdd};
  BlockId t0{kNoBlock};
  BlockId t1{kNoBlock};
  std::string str;
  std::vector<Reg> args;

  bool is_terminator() const {
    return op == Opcode::kJmp || op == Opcode::kBr || op == Opcode::kRet;
  }
};

// Human-readable names (for the printer and diagnostics).
const char* opcode_name(Opcode op);
const char* binop_name(BinOp op);

// True for comparison operators (result is 0/1).
bool is_comparison(BinOp op);

// Applies a binary operator to concrete operands. Division/remainder by zero
// must be screened by the caller (interpreters turn it into a fault).
// Inline: the concrete interpreter evaluates one per kBin instruction.
inline std::int64_t eval_binop(BinOp op, std::int64_t a, std::int64_t b) {
  // Wrap-around two's-complement semantics via unsigned arithmetic; signed
  // overflow in C++ would be UB.
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (op) {
    case BinOp::kAdd: return static_cast<std::int64_t>(ua + ub);
    case BinOp::kSub: return static_cast<std::int64_t>(ua - ub);
    case BinOp::kMul: return static_cast<std::int64_t>(ua * ub);
    case BinOp::kDiv:
      assert(b != 0);
      // INT64_MIN / -1 also overflows; define it as INT64_MIN (wrap).
      if (a == INT64_MIN && b == -1) return INT64_MIN;
      return a / b;
    case BinOp::kRem:
      assert(b != 0);
      if (a == INT64_MIN && b == -1) return 0;
      return a % b;
    case BinOp::kAnd: return static_cast<std::int64_t>(ua & ub);
    case BinOp::kOr: return static_cast<std::int64_t>(ua | ub);
    case BinOp::kXor: return static_cast<std::int64_t>(ua ^ ub);
    case BinOp::kShl: return static_cast<std::int64_t>(ua << (ub & 63));
    case BinOp::kShr: return static_cast<std::int64_t>(ua >> (ub & 63));
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGt: return a > b;
    case BinOp::kGe: return a >= b;
    case BinOp::kLAnd: return (a != 0) && (b != 0);
    case BinOp::kLOr: return (a != 0) || (b != 0);
  }
  return 0;
}

}  // namespace statsym::ir
