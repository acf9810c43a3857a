#include "ir/verifier.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace statsym::ir {
namespace {

// Accumulates the location prefix for error messages.
std::string where(const Function& fn, std::size_t blk, std::size_t idx) {
  std::ostringstream os;
  os << fn.name << " block " << blk << " instr " << idx << ": ";
  return os.str();
}

bool needs_dst(Opcode op) {
  switch (op) {
    case Opcode::kConst:
    case Opcode::kMove:
    case Opcode::kBin:
    case Opcode::kNot:
    case Opcode::kNeg:
    case Opcode::kAlloca:
    case Opcode::kStrConst:
    case Opcode::kLoad:
    case Opcode::kBufSize:
    case Opcode::kLoadG:
    case Opcode::kArgc:
    case Opcode::kArg:
    case Opcode::kEnv:
    case Opcode::kMakeSymInt:
      return true;
    default:
      return false;
  }
}

// The register an instruction writes, or kNoReg. kCall/kCallExt may discard
// their result (dst == kNoReg).
Reg def_reg(const Instr& in) {
  if (needs_dst(in.op) || in.op == Opcode::kCall || in.op == Opcode::kCallExt) {
    return in.dst;
  }
  return kNoReg;
}

// Appends the registers an instruction reads.
void use_regs(const Instr& in, std::vector<Reg>& out) {
  switch (in.op) {
    case Opcode::kMove:
    case Opcode::kNot:
    case Opcode::kNeg:
    case Opcode::kBufSize:
    case Opcode::kArg:
    case Opcode::kStoreG:
    case Opcode::kAssert:
    case Opcode::kMakeSymBuf:
    case Opcode::kBr:
      out.push_back(in.a);
      break;
    case Opcode::kBin:
    case Opcode::kLoad:
      out.push_back(in.a);
      out.push_back(in.b);
      break;
    case Opcode::kStore:
      out.push_back(in.a);
      out.push_back(in.b);
      out.push_back(in.c);
      break;
    case Opcode::kRet:
      if (in.a != kNoReg) out.push_back(in.a);
      break;
    case Opcode::kCall:
    case Opcode::kCallExt:
      for (Reg r : in.args) out.push_back(r);
      break;
    default:
      break;
  }
}

// Reachability + may-reaching-defs over one structurally-valid function.
// Returns the first violation: an unreachable block, or a register read
// that no entry path defines first.
std::string verify_dataflow(const Function& fn) {
  const std::size_t nblocks = fn.blocks.size();

  std::vector<bool> reach(nblocks, false);
  std::vector<BlockId> work{0};
  reach[0] = true;
  while (!work.empty()) {
    const BlockId b = work.back();
    work.pop_back();
    const Instr& t = fn.blocks[static_cast<std::size_t>(b)].instrs.back();
    const BlockId succs[2] = {
        t.op == Opcode::kJmp || t.op == Opcode::kBr ? t.t0 : kNoBlock,
        t.op == Opcode::kBr ? t.t1 : kNoBlock};
    for (const BlockId s : succs) {
      if (s != kNoBlock && !reach[static_cast<std::size_t>(s)]) {
        reach[static_cast<std::size_t>(s)] = true;
        work.push_back(s);
      }
    }
  }
  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    if (!reach[bi]) {
      return fn.name + " block " + std::to_string(bi) +
             ": unreachable from entry";
    }
  }

  // Forward union (may) dataflow: defined-at-entry[b] = ∪ defined-at-exit of
  // predecessors; parameters seed the entry block. Each block's
  // defined-at-entry and def (gen) sets are rows of 64-bit words, so a union
  // is one OR per word. Monotone, so the loop terminates in O(blocks²) set
  // unions at worst.
  const std::size_t words = (static_cast<std::size_t>(fn.num_regs) + 63) / 64;
  auto test_bit = [](const std::uint64_t* row, Reg r) {
    const auto i = static_cast<std::size_t>(r);
    return ((row[i / 64] >> (i % 64)) & 1) != 0;
  };
  auto set_bit = [](std::uint64_t* row, Reg r) {
    const auto i = static_cast<std::size_t>(r);
    row[i / 64] |= std::uint64_t{1} << (i % 64);
  };
  std::vector<std::uint64_t> in_def(nblocks * words, 0);
  std::vector<std::uint64_t> gen(nblocks * words, 0);
  for (Reg p = 0; p < fn.num_params; ++p) set_bit(in_def.data(), p);
  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    for (const Instr& in : fn.blocks[bi].instrs) {
      const Reg d = def_reg(in);
      if (d != kNoReg) set_bit(gen.data() + bi * words, d);
    }
  }
  std::vector<std::uint64_t> out(words);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = 0; bi < nblocks; ++bi) {
      for (std::size_t w = 0; w < words; ++w) {
        out[w] = in_def[bi * words + w] | gen[bi * words + w];
      }
      const Instr& t = fn.blocks[bi].instrs.back();
      const BlockId succs[2] = {
          t.op == Opcode::kJmp || t.op == Opcode::kBr ? t.t0 : kNoBlock,
          t.op == Opcode::kBr ? t.t1 : kNoBlock};
      for (const BlockId s : succs) {
        if (s == kNoBlock) continue;
        std::uint64_t* dst =
            in_def.data() + static_cast<std::size_t>(s) * words;
        for (std::size_t w = 0; w < words; ++w) {
          if ((out[w] & ~dst[w]) != 0) {
            dst[w] |= out[w];
            changed = true;
          }
        }
      }
    }
  }

  std::vector<Reg> uses;
  std::vector<std::uint64_t> defined(words);
  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    std::copy_n(in_def.data() + bi * words, words, defined.begin());
    for (std::size_t ii = 0; ii < fn.blocks[bi].instrs.size(); ++ii) {
      const Instr& in = fn.blocks[bi].instrs[ii];
      uses.clear();
      use_regs(in, uses);
      for (const Reg r : uses) {
        if (!test_bit(defined.data(), r)) {
          return where(fn, bi, ii) + "use of r" + std::to_string(r) +
                 " which no path from entry defines (" + opcode_name(in.op) +
                 ")";
        }
      }
      const Reg d = def_reg(in);
      if (d != kNoReg) set_bit(defined.data(), d);
    }
  }
  return "";
}

}  // namespace

std::string verify(const Module& m) {
  if (m.entry() == kNoFunc) return "no main function";

  for (const auto& fn : m.functions()) {
    if (fn.num_params > fn.num_regs) {
      return fn.name + ": fewer registers than parameters";
    }
    if (fn.blocks.empty()) return fn.name + ": no blocks";
    const auto nblocks = static_cast<BlockId>(fn.blocks.size());

    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      const auto& blk = fn.blocks[bi];
      if (blk.instrs.empty()) {
        return fn.name + " block " + std::to_string(bi) + ": empty block";
      }
      for (std::size_t ii = 0; ii < blk.instrs.size(); ++ii) {
        const Instr& in = blk.instrs[ii];
        const bool last = (ii + 1 == blk.instrs.size());
        if (in.is_terminator() != last) {
          return where(fn, bi, ii) +
                 (last ? "block does not end with a terminator"
                       : "terminator in the middle of a block");
        }

        auto check_reg = [&](Reg r, const char* what) -> std::string {
          if (r < 0 || r >= fn.num_regs) {
            return where(fn, bi, ii) + "bad " + what + " register " +
                   std::to_string(r) + " (" + opcode_name(in.op) + ")";
          }
          return "";
        };

        if (needs_dst(in.op)) {
          if (auto e = check_reg(in.dst, "dst"); !e.empty()) return e;
        }

        // Operand requirements per opcode.
        switch (in.op) {
          case Opcode::kMove:
          case Opcode::kNot:
          case Opcode::kNeg:
          case Opcode::kBufSize:
          case Opcode::kArg:
            if (auto e = check_reg(in.a, "src"); !e.empty()) return e;
            break;
          case Opcode::kBin:
          case Opcode::kLoad:
            if (auto e = check_reg(in.a, "lhs"); !e.empty()) return e;
            if (auto e = check_reg(in.b, "rhs"); !e.empty()) return e;
            break;
          case Opcode::kStore:
            if (auto e = check_reg(in.a, "ref"); !e.empty()) return e;
            if (auto e = check_reg(in.b, "idx"); !e.empty()) return e;
            if (auto e = check_reg(in.c, "val"); !e.empty()) return e;
            break;
          case Opcode::kStoreG:
          case Opcode::kAssert:
          case Opcode::kMakeSymBuf:
            if (auto e = check_reg(in.a, "src"); !e.empty()) return e;
            break;
          case Opcode::kLoadG:
            break;  // global name checked below for both kLoadG and kStoreG
          case Opcode::kBr:
            if (auto e = check_reg(in.a, "cond"); !e.empty()) return e;
            if (in.t0 < 0 || in.t0 >= nblocks || in.t1 < 0 || in.t1 >= nblocks)
              return where(fn, bi, ii) + "branch target out of range";
            break;
          case Opcode::kJmp:
            if (in.t0 < 0 || in.t0 >= nblocks)
              return where(fn, bi, ii) + "jump target out of range";
            break;
          case Opcode::kRet:
            if (in.a != kNoReg) {
              if (auto e = check_reg(in.a, "ret"); !e.empty()) return e;
            }
            break;
          case Opcode::kCall: {
            if (in.imm < 0 ||
                in.imm >= static_cast<std::int64_t>(m.functions().size())) {
              return where(fn, bi, ii) + "unresolved call target";
            }
            const auto& callee = m.function(static_cast<FuncId>(in.imm));
            if (static_cast<std::int32_t>(in.args.size()) !=
                callee.num_params) {
              return where(fn, bi, ii) + "call to " + callee.name +
                     ": arity mismatch";
            }
            for (Reg r : in.args) {
              if (auto e = check_reg(r, "arg"); !e.empty()) return e;
            }
            break;
          }
          case Opcode::kCallExt:
            for (Reg r : in.args) {
              if (auto e = check_reg(r, "arg"); !e.empty()) return e;
            }
            break;
          case Opcode::kMakeSymInt:
            if (in.imm > in.imm2) {
              return where(fn, bi, ii) + "empty symbolic domain";
            }
            break;
          case Opcode::kAlloca:
            if (in.imm <= 0) return where(fn, bi, ii) + "non-positive alloca";
            break;
          default:
            break;
        }

        if ((in.op == Opcode::kLoadG || in.op == Opcode::kStoreG) &&
            m.find_global(in.str) < 0) {
          return where(fn, bi, ii) + "unknown global '" + in.str + "'";
        }
      }
    }

    // The structural pass above guarantees every register index is in range
    // and every block ends in exactly one terminator, which is what the
    // flow-sensitive pass assumes.
    if (auto e = verify_dataflow(fn); !e.empty()) return e;
  }
  // main must take no parameters: program inputs flow through
  // argc/arg/env/make_symbolic, not the entry function's signature.
  const auto& main_fn = m.function(m.entry());
  if (main_fn.num_params != 0) return "main must take no parameters";
  return "";
}

}  // namespace statsym::ir
