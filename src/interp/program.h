// A mini-IR module decoded once for concrete execution.
//
// Decoding flattens every function's blocks into one instruction stream:
// branch targets become absolute pcs, kLoadG/kStoreG name lookups become
// global slots, kEnv names become environment slots, and call arguments
// move into one flat array. The result is immutable, so one Program is
// shared read-only by every run of the module — every log-collection
// attempt on every worker thread — and the string hashing and pointer
// chasing of the IR's nested vectors is paid once per module instead of
// once per executed instruction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.h"

namespace statsym::interp {

class Program {
 public:
  // One decoded instruction. Register operands keep their IR meaning;
  // `x`/`y` carry the per-opcode resolved operands listed below.
  struct Op {
    ir::Opcode op{ir::Opcode::kConst};
    ir::BinOp bin{ir::BinOp::kAdd};
    ir::Reg dst{ir::kNoReg};
    ir::Reg a{ir::kNoReg};
    ir::Reg b{ir::kNoReg};
    ir::Reg c{ir::kNoReg};
    // kJmp/kBr: target pc (kBr: when taken). kLoadG/kStoreG: global slot.
    // kEnv: environment slot. (kCall keeps its callee FuncId in `imm`.)
    std::int32_t x{0};
    // kBr: pc when not taken. kCall/kCallExt: offset of the arguments in
    // call_args(); their count is `c`.
    std::int32_t y{0};
    std::int64_t imm{0};
    std::int64_t imm2{0};
  };

  struct Func {
    std::int32_t entry_pc{0};
    std::int32_t num_regs{0};
    std::int32_t num_params{0};
  };

  // Source position of a pc, for fault reports and listener callbacks.
  struct Where {
    ir::BlockId block{0};
    std::int32_t idx{0};
  };

  // The module must outlive the Program and stay unmodified.
  explicit Program(const ir::Module& m);

  const ir::Module& module() const { return m_; }
  ir::FuncId entry() const { return entry_; }

  const Op* ops() const { return ops_.data(); }
  const Func& func(ir::FuncId f) const { return funcs_[f]; }
  const Where& where(std::int32_t pc) const { return where_[pc]; }
  // The IR instruction a pc was decoded from (strings: kStrConst text,
  // kCall/kCallExt callee names, symbolic-input names).
  const ir::Instr& source(std::int32_t pc) const { return *source_[pc]; }
  const ir::Reg* call_args() const { return call_args_.data(); }

  // Distinct kEnv variable names; kEnv's `x` indexes this list.
  const std::vector<std::string>& env_names() const { return env_names_; }

 private:
  const ir::Module& m_;
  ir::FuncId entry_{ir::kNoFunc};
  std::vector<Op> ops_;
  std::vector<Where> where_;
  std::vector<const ir::Instr*> source_;
  std::vector<Func> funcs_;
  std::vector<ir::Reg> call_args_;
  std::vector<std::string> env_names_;
};

}  // namespace statsym::interp
