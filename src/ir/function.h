// Functions and basic blocks of the mini-IR.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ir/instr.h"

namespace statsym::ir {

// A straight-line instruction sequence terminated by exactly one terminator
// (verified by ir::verify).
struct Block {
  std::vector<Instr> instrs;
};

// A function. Parameters occupy registers [0, num_params); register values
// are mutable (the IR is not SSA). Block 0 is the entry block.
struct Function {
  std::string name;
  std::vector<std::string> param_names;  // size == num_params
  std::int32_t num_params{0};
  std::int32_t num_regs{0};
  std::vector<Block> blocks;

  std::size_t instr_count() const {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.instrs.size();
    return n;
  }
};

// The IR stdlib's functions (__strlen, __strcpy, ...) carry the "__" name
// prefix and stand in for libc: the monitor does not instrument them
// (Fjalar instruments user functions only), guidance does not count their
// locations, and a fault inside one is attributed to the first caller
// outside the library, as a debugger attributes a libc-level smash.
inline bool is_library_function(std::string_view name) {
  return name.starts_with("__");
}

}  // namespace statsym::ir
