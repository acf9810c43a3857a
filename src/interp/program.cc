#include "interp/program.h"

#include <algorithm>
#include <cassert>

namespace statsym::interp {

Program::Program(const ir::Module& m) : m_(m), entry_(m.entry()) {
  const auto& fns = m.functions();
  funcs_.resize(fns.size());
  // Pass 1: lay every function's blocks out back to back.
  std::vector<std::vector<std::int32_t>> block_pc(fns.size());
  std::int32_t pc = 0;
  for (std::size_t f = 0; f < fns.size(); ++f) {
    funcs_[f].entry_pc = pc;
    funcs_[f].num_regs = fns[f].num_regs;
    funcs_[f].num_params = fns[f].num_params;
    for (const ir::Block& b : fns[f].blocks) {
      block_pc[f].push_back(pc);
      pc += static_cast<std::int32_t>(b.instrs.size());
    }
  }
  ops_.reserve(static_cast<std::size_t>(pc));
  where_.reserve(static_cast<std::size_t>(pc));
  source_.reserve(static_cast<std::size_t>(pc));

  // Pass 2: decode, resolving names and block ids.
  for (std::size_t f = 0; f < fns.size(); ++f) {
    const auto& blocks = fns[f].blocks;
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
      const auto& instrs = blocks[bi].instrs;
      for (std::size_t ii = 0; ii < instrs.size(); ++ii) {
        const ir::Instr& in = instrs[ii];
        Op op;
        op.op = in.op;
        op.bin = in.bin;
        op.dst = in.dst;
        op.a = in.a;
        op.b = in.b;
        op.c = in.c;
        op.imm = in.imm;
        op.imm2 = in.imm2;
        switch (in.op) {
          case ir::Opcode::kJmp:
            op.x = block_pc[f][static_cast<std::size_t>(in.t0)];
            break;
          case ir::Opcode::kBr:
            op.x = block_pc[f][static_cast<std::size_t>(in.t0)];
            op.y = block_pc[f][static_cast<std::size_t>(in.t1)];
            break;
          case ir::Opcode::kLoadG:
          case ir::Opcode::kStoreG:
            op.x = m.find_global(in.str);
            assert(op.x >= 0 && "unresolved global (module not verified?)");
            break;
          case ir::Opcode::kCall:
          case ir::Opcode::kCallExt:
            op.y = static_cast<std::int32_t>(call_args_.size());
            op.c = static_cast<ir::Reg>(in.args.size());
            call_args_.insert(call_args_.end(), in.args.begin(),
                              in.args.end());
            break;
          case ir::Opcode::kEnv: {
            auto it = std::find(env_names_.begin(), env_names_.end(), in.str);
            op.x = static_cast<std::int32_t>(it - env_names_.begin());
            if (it == env_names_.end()) env_names_.push_back(in.str);
            break;
          }
          default:
            break;
        }
        ops_.push_back(op);
        where_.push_back(Where{static_cast<ir::BlockId>(bi),
                               static_cast<std::int32_t>(ii)});
        source_.push_back(&in);
      }
    }
  }
}

}  // namespace statsym::interp
