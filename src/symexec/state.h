// An execution state: one path through the program under exploration.
//
// KLEE-style: call stack with per-frame registers, copy-on-write memory,
// accumulated path constraints, plus the guidance bookkeeping StatSym's
// state manager maintains (position on the candidate path and diverted-hop
// count, §VI-C).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/module.h"
#include "monitor/log.h"
#include "support/cow_vec.h"
#include "symexec/path_constraints.h"
#include "symexec/sym_memory.h"
#include "symexec/sym_value.h"

namespace statsym::symexec {

struct Frame {
  ir::FuncId func{ir::kNoFunc};
  ir::BlockId block{0};
  std::int32_t idx{0};
  std::vector<SymValue> regs;
  ir::Reg ret_dst{ir::kNoReg};
  std::vector<SymValue> params;  // snapshot for guidance/logging hooks
};

// Guidance bookkeeping attached to every state (the paper's StatSym State
// Manager records "the currently executed path nodes, as well as the
// diverted hops"). A diverted hop is a *distinct* off-path location visited
// since the last candidate-node match: looping over the same off-path
// function does not move the state farther from the candidate path, so it
// is counted once (`alien_seen` tracks the distinct set; cleared on match).
struct GuideInfo {
  std::int32_t next_node{0};   // index of the next expected candidate node
  std::int32_t diverted{0};    // distinct off-path locations since last match
  std::int32_t matched{0};     // candidate nodes matched so far
  std::vector<monitor::LocId> alien_seen;
};

struct State {
  std::uint64_t id{0};
  std::vector<Frame> stack;
  PathConstraints pc;
  SymMemory mem;
  std::vector<SymValue> globals;
  // Function enter/leave event history; copy-on-write so a fork shares the
  // whole prefix walked so far.
  support::CowVec<monitor::LocId> trace;
  std::uint64_t depth{0};             // branch decisions taken
  std::uint64_t instrs{0};            // instructions this state executed
  GuideInfo guide;

  Frame& top() { return stack.back(); }
  const Frame& top() const { return stack.back(); }

  // Copy-on-write fork: freezes this state's private suffixes (constraint
  // tail, domain overlay, trace tail) and fills `c` with a sibling sharing
  // every frozen prefix. Stack/registers/globals are genuinely per-state and
  // copy eagerly; memory shares objects through its own object-level COW.
  // `c->id` is left untouched — the executor assigns ids in commit order.
  void fork_into(State& c) {
    c.stack = stack;
    c.pc = pc.fork();
    c.mem = mem;
    c.globals = globals;
    c.trace = trace.fork();
    c.depth = depth;
    c.instrs = instrs;
    c.guide = guide;
  }

  // Approximate unique footprint for the executor's memory budget (full
  // logical contents; shared prefixes count toward every sharer).
  std::size_t approx_bytes() const {
    std::size_t n = sizeof(State);
    for (const auto& f : stack) {
      n += sizeof(Frame) + (f.regs.size() + f.params.size()) * sizeof(SymValue);
    }
    n += trace.size() * sizeof(monitor::LocId);
    n += pc.approx_bytes();
    n += mem.approx_bytes();
    return n;
  }

  // Bytes fork_into actually copies: the eager members plus the private
  // COW suffixes. The gap between this and approx_bytes() is the clone
  // traffic the copy-on-write representation saves per fork.
  std::size_t shallow_clone_bytes() const {
    std::size_t n = sizeof(State);
    for (const auto& f : stack) {
      n += sizeof(Frame) + (f.regs.size() + f.params.size()) * sizeof(SymValue);
    }
    n += globals.size() * sizeof(SymValue);
    n += trace.shallow_bytes();
    n += pc.shallow_bytes();
    n += mem.table_bytes();  // objects themselves are shared until written
    return n;
  }
};

// Recycles State allocations across the fork/terminate churn of a run.
// Terminated states return their shells here; a fork pops one instead of
// paying a fresh allocation (and re-grows the member containers in place).
class StateArena {
 public:
  std::unique_ptr<State> acquire() {
    if (free_.empty()) return std::make_unique<State>();
    auto s = std::move(free_.back());
    free_.pop_back();
    return s;
  }

  void release(std::unique_ptr<State> s) {
    if (s == nullptr) return;
    s->id = 0;
    s->stack.clear();  // keeps the outer vector's capacity
    s->pc = PathConstraints{};
    s->mem = SymMemory{};
    s->globals.clear();
    s->trace = support::CowVec<monitor::LocId>{};
    s->depth = 0;
    s->instrs = 0;
    s->guide = GuideInfo{};
    if (free_.size() < kMaxFree) free_.push_back(std::move(s));
  }

 private:
  static constexpr std::size_t kMaxFree = 256;
  std::vector<std::unique_ptr<State>> free_;
};

}  // namespace statsym::symexec
