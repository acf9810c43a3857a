// Concrete interpreter for the mini-IR.
//
// Runs a module against a RuntimeInput (argv strings, environment variables,
// values for symbolic markers) with full bounds checking. A run terminates
// in one of three ways: normal return from main, a fault (the failure model
// of the paper — buffer overflow, failed assertion, division by zero, null
// dereference, runaway recursion), or exhaustion of the step budget.
//
// The interpreter publishes function entry/exit events to an optional
// InterpListener; the monitor module implements the listener to produce the
// sampled runtime logs that feed statistical analysis.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "interp/memory.h"
#include "interp/program.h"
#include "ir/module.h"

namespace statsym::interp {

// Inputs to one program run.
struct RuntimeInput {
  std::vector<std::string> argv;
  std::map<std::string, std::string> env;
  std::map<std::string, std::int64_t> sym_ints;   // values for kMakeSymInt
  std::map<std::string, std::string> sym_bufs;    // contents for kMakeSymBuf
};

enum class FaultKind : std::uint8_t {
  kNone,
  kOobStore,   // buffer overflow on write (the vulnerability trigger)
  kOobLoad,    // out-of-bounds read
  kNullDeref,
  kAssertFail,
  kDivByZero,
  kBadArgIndex,
  kStackOverflow,
};

const char* fault_kind_name(FaultKind k);

struct FaultInfo {
  FaultKind kind{FaultKind::kNone};
  std::string function;   // function containing the faulting instruction
  ir::BlockId block{ir::kNoBlock};
  std::int32_t instr{-1};
  std::string detail;     // human-readable specifics (object, index, ...)
};

// kStopped: a listener ended the run (InterpListener::stop).
enum class RunOutcome : std::uint8_t { kOk, kFault, kStepLimit, kStopped };

struct RunResult {
  RunOutcome outcome{RunOutcome::kOk};
  FaultInfo fault;                 // valid when outcome == kFault
  std::int64_t steps{0};           // instructions executed
  std::optional<Value> main_ret;   // valid when outcome == kOk
};

class Interpreter;

// Observer of function entry/exit (the instrumentation points of the paper's
// program monitor). `params` are the argument values; `ret` is present only
// on on_leave of value-returning functions.
class InterpListener {
 public:
  virtual ~InterpListener() = default;
  virtual void on_enter(const Interpreter& interp, const ir::Function& fn,
                        std::span<const Value> params) = 0;
  virtual void on_leave(const Interpreter& interp, const ir::Function& fn,
                        std::span<const Value> params,
                        const std::optional<Value>& ret) = 0;
  // Fine-grained control-flow observation (default no-ops so the sampling
  // monitor is untouched): on_block fires whenever control enters a basic
  // block — function entry (block 0) and every kJmp/kBr transfer; on_branch
  // fires at each kBr with the concrete decision. The static-facts fuzz
  // oracle implements these to check that no provably-unreachable block
  // executes and no statically-decided branch flips at runtime.
  virtual void on_block(const Interpreter& interp, const ir::Function& fn,
                        ir::BlockId block) {
    (void)interp;
    (void)fn;
    (void)block;
  }
  virtual void on_branch(const Interpreter& interp, const ir::Function& fn,
                         ir::BlockId block, bool taken) {
    (void)interp;
    (void)fn;
    (void)block;
    (void)taken;
  }

 protected:
  // Ends the run of `interp`, the interpreter whose callback is running:
  // once the callback returns, no listener callback fires again and run()
  // returns with outcome kStopped.
  static void stop(const Interpreter& interp);
};

struct InterpOptions {
  std::int64_t max_steps{50'000'000};
  std::int32_t max_call_depth{256};
};

class Interpreter {
 public:
  // Runs `m`, decoding it privately. Callers that run one module many times
  // should decode a Program once and use the constructor below.
  Interpreter(const ir::Module& m, RuntimeInput input,
              InterpOptions opts = {});
  // Runs a shared decoded program; `p` must outlive the Interpreter.
  Interpreter(const Program& p, RuntimeInput input, InterpOptions opts = {});

  void set_listener(InterpListener* l) { listener_ = l; }

  // Executes main() to completion. May be called once per Interpreter.
  RunResult run();

  // --- introspection (valid during listener callbacks and after run) ------
  const ir::Module& module() const { return p_.module(); }
  const Memory& memory() const { return mem_; }

  // All global slots, in module order (slot i is Module::global(i)).
  std::span<const Value> globals() const { return globals_; }

  // Length of the C string a ref points at (0 for null/ints — callers use
  // this to log "len(x)" for string-typed variables).
  std::int64_t string_length(const Value& v) const;

 private:
  // One activation. Registers and the on_enter parameter snapshot live in
  // the shared regs_/params_ stacks, starting at the recorded bases.
  struct Frame {
    ir::FuncId func{ir::kNoFunc};
    std::int32_t ret_pc{0};         // caller pc to resume at
    ir::Reg ret_dst{ir::kNoReg};    // caller register receiving the result
    std::size_t regs_base{0};
    std::size_t params_base{0};
    std::int32_t num_params{0};
  };

  void init();  // globals, argv and env objects (shared by constructors)
  template <bool kListen>
  void execute();

  // Records a fault at `pc` of the top frame.
  void fault(std::int32_t pc, FaultKind kind, std::string detail);
  std::string object_label(ObjId obj) const;
  // Pushes a frame for `callee` whose arguments are read from the caller
  // registers at `caller_regs` (null for main).
  template <bool kListen>
  void enter_function(ir::FuncId callee, const ir::Reg* args,
                      std::int32_t nargs, std::size_t caller_regs,
                      std::int32_t ret_pc, ir::Reg ret_dst);
  // Pops the top frame delivering `ret` to the caller; handles main return.
  // Returns the caller's resume pc (meaningless once done_).
  template <bool kListen>
  std::int32_t leave_function(std::optional<Value> ret);
  std::span<const Value> frame_params(const Frame& f) const {
    return {params_.data() + f.params_base,
            static_cast<std::size_t>(f.num_params)};
  }

  std::unique_ptr<const Program> owned_;  // set when decoded privately
  const Program& p_;
  RuntimeInput input_;
  InterpOptions opts_;
  Memory mem_;
  std::vector<Value> globals_;
  std::vector<ObjId> argv_objs_;
  std::vector<Value> env_values_;  // per Program::env_names() slot
  std::vector<Frame> frames_;
  std::vector<Value> regs_;
  std::vector<Value> params_;  // only filled while a listener is attached
  InterpListener* listener_{nullptr};
  RunResult result_;
  bool done_{false};
  // Set by InterpListener::stop, which reaches the interpreter only through
  // the const reference its callbacks receive.
  friend class InterpListener;
  mutable bool stop_requested_{false};
};

}  // namespace statsym::interp
