#include "interp/interpreter.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace statsym::interp {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kOobStore: return "oob-store";
    case FaultKind::kOobLoad: return "oob-load";
    case FaultKind::kNullDeref: return "null-deref";
    case FaultKind::kAssertFail: return "assert-fail";
    case FaultKind::kDivByZero: return "div-by-zero";
    case FaultKind::kBadArgIndex: return "bad-arg-index";
    case FaultKind::kStackOverflow: return "stack-overflow";
  }
  return "?";
}

Interpreter::Interpreter(const ir::Module& m, RuntimeInput input,
                         InterpOptions opts)
    : owned_(std::make_unique<const Program>(m)),
      p_(*owned_),
      input_(std::move(input)),
      opts_(std::move(opts)) {
  init();
}

Interpreter::Interpreter(const Program& p, RuntimeInput input,
                         InterpOptions opts)
    : p_(p), input_(std::move(input)), opts_(std::move(opts)) {
  init();
}

void Interpreter::init() {
  // Materialise globals: ints hold their initial value, buffers are
  // allocated up front and the slot holds a reference to them.
  const auto& globals = module().globals();
  globals_.reserve(globals.size());
  for (std::size_t i = 0; i < globals.size(); ++i) {
    const ir::Global& g = globals[i];
    if (g.kind == ir::Global::Kind::kInt) {
      globals_.push_back(Value::make_int(g.init_int));
    } else {
      globals_.push_back(Value::make_ref(mem_.alloc(
          g.buf_size, {ObjLabel::Kind::kGlobal, static_cast<std::int32_t>(i)})));
    }
  }
  argv_objs_.reserve(input_.argv.size());
  for (std::size_t i = 0; i < input_.argv.size(); ++i) {
    argv_objs_.push_back(mem_.alloc_string(
        input_.argv[i], {ObjLabel::Kind::kArgv, static_cast<std::int32_t>(i)}));
  }
  // Every environment variable gets its object (in map order, so object
  // ids do not depend on which names the program reads); the ones the
  // program names are bound to their kEnv slots.
  const auto& names = p_.env_names();
  env_values_.assign(names.size(), Value::null_ref());
  std::int32_t pos = 0;
  for (const auto& [name, val] : input_.env) {
    const ObjId obj =
        mem_.alloc_string(val, {ObjLabel::Kind::kEnv, pos++});
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end()) {
      env_values_[static_cast<std::size_t>(it - names.begin())] =
          Value::make_ref(obj);
    }
  }
}

void InterpListener::stop(const Interpreter& interp) {
  interp.stop_requested_ = true;
}

std::int64_t Interpreter::string_length(const Value& v) const {
  if (!v.is_ref() || v.is_null_ref()) return 0;
  return mem_.c_strlen(v.obj, v.off);
}

std::string Interpreter::object_label(ObjId obj) const {
  const ObjLabel l = mem_.label(obj);
  switch (l.kind) {
    case ObjLabel::Kind::kNone: return {};
    case ObjLabel::Kind::kAlloca:
      return module().function(l.index).name + ":alloca";
    case ObjLabel::Kind::kStrConst: return "strconst";
    case ObjLabel::Kind::kGlobal: return module().global(l.index).name;
    case ObjLabel::Kind::kArgv: return "argv" + std::to_string(l.index);
    case ObjLabel::Kind::kEnv:
      return "env:" + std::next(input_.env.begin(), l.index)->first;
  }
  return {};
}

void Interpreter::fault(std::int32_t pc, FaultKind kind, std::string detail) {
  const ir::Module& m = module();
  result_.outcome = RunOutcome::kFault;
  result_.fault.kind = kind;
  result_.fault.function = m.function(frames_.back().func).name;
  // Faults inside the IR stdlib name the first caller outside it (matches
  // the symbolic executor's reporting).
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    const std::string& name = m.function(it->func).name;
    if (!ir::is_library_function(name)) {
      result_.fault.function = name;
      break;
    }
  }
  result_.fault.block = p_.where(pc).block;
  result_.fault.instr = p_.where(pc).idx;
  result_.fault.detail = std::move(detail);
  done_ = true;
}

template <bool kListen>
void Interpreter::enter_function(ir::FuncId callee, const ir::Reg* args,
                                 std::int32_t nargs, std::size_t caller_regs,
                                 std::int32_t ret_pc, ir::Reg ret_dst) {
  const Program::Func& pf = p_.func(callee);
  Frame f;
  f.func = callee;
  f.ret_pc = ret_pc;
  f.ret_dst = ret_dst;
  f.regs_base = regs_.size();
  f.params_base = params_.size();
  f.num_params = kListen ? nargs : 0;
  regs_.resize(f.regs_base + static_cast<std::size_t>(pf.num_regs));
  for (std::int32_t i = 0; i < nargs; ++i) {
    const Value v = regs_[caller_regs + static_cast<std::size_t>(args[i])];
    regs_[f.regs_base + static_cast<std::size_t>(i)] = v;
    if constexpr (kListen) params_.push_back(v);
  }
  frames_.push_back(f);
  if constexpr (kListen) {
    const ir::Function& fn = module().function(callee);
    listener_->on_enter(*this, fn, frame_params(frames_.back()));
    if (!stop_requested_) listener_->on_block(*this, fn, 0);
  }
}

template <bool kListen>
std::int32_t Interpreter::leave_function(std::optional<Value> ret) {
  const Frame f = frames_.back();
  if constexpr (kListen) {
    listener_->on_leave(*this, module().function(f.func), frame_params(f),
                        ret);
  }
  frames_.pop_back();
  regs_.resize(f.regs_base);
  params_.resize(f.params_base);
  if (frames_.empty()) {
    result_.outcome = RunOutcome::kOk;
    result_.main_ret = ret;
    done_ = true;
    return 0;
  }
  if (f.ret_dst != ir::kNoReg) {
    regs_[frames_.back().regs_base + static_cast<std::size_t>(f.ret_dst)] =
        ret.value_or(Value::make_int(0));
  }
  return f.ret_pc;
}

RunResult Interpreter::run() {
  assert(!done_ && frames_.empty() && "run() may be called once");
  if (listener_ != nullptr) {
    enter_function<true>(p_.entry(), nullptr, 0, 0, 0, ir::kNoReg);
    execute<true>();
  } else {
    enter_function<false>(p_.entry(), nullptr, 0, 0, 0, ir::kNoReg);
    execute<false>();
  }
  return result_;
}

// The dispatch loop. pc, the top frame's register window and the step
// count live in locals; they are re-derived after calls and returns (which
// may grow regs_) and written back to result_ when the run stops.
template <bool kListen>
void Interpreter::execute() {
  const Program::Op* const code = p_.ops();
  const std::int64_t max_steps = opts_.max_steps;
  std::int64_t steps = 0;
  std::int32_t pc = p_.func(frames_.back().func).entry_pc;
  Value* r = regs_.data() + frames_.back().regs_base;

  auto stop = [&](FaultKind kind, std::string detail) {
    result_.steps = steps;
    fault(pc, kind, std::move(detail));
  };
  auto current_fn = [&]() -> const ir::Function& {
    return module().function(frames_.back().func);
  };
  // Checked after every listener callback.
  auto stopped = [&] {
    if (!stop_requested_) return false;
    result_.steps = steps;
    result_.outcome = RunOutcome::kStopped;
    return true;
  };
  if constexpr (kListen) {
    if (stopped()) return;  // main's on_enter asked to stop
  }

  for (;;) {
    if (steps >= max_steps) {
      result_.steps = steps;
      result_.outcome = RunOutcome::kStepLimit;
      return;
    }
    ++steps;
    const Program::Op& in = code[pc];
    switch (in.op) {
      case ir::Opcode::kConst:
        r[in.dst] = Value::make_int(in.imm);
        ++pc;
        break;
      case ir::Opcode::kMove:
        r[in.dst] = r[in.a];
        ++pc;
        break;
      case ir::Opcode::kBin: {
        const Value a = r[in.a];
        const Value b = r[in.b];
        // Reference equality compares identity; every other operator
        // requires integer operands (ref arithmetic is not part of the IR).
        if (a.is_ref() || b.is_ref()) {
          if (in.bin == ir::BinOp::kEq || in.bin == ir::BinOp::kNe) {
            const bool same = a.is_ref() && b.is_ref() && a.obj == b.obj &&
                              a.off == b.off;
            const bool both_null = a.is_null_ref() && b.is_null_ref();
            const bool eq = same || both_null;
            r[in.dst] = Value::make_int(in.bin == ir::BinOp::kEq ? eq : !eq);
            ++pc;
            break;
          }
          return stop(FaultKind::kNullDeref, "arithmetic on reference");
        }
        if ((in.bin == ir::BinOp::kDiv || in.bin == ir::BinOp::kRem) &&
            b.i == 0) {
          return stop(FaultKind::kDivByZero, "");
        }
        r[in.dst] = Value::make_int(ir::eval_binop(in.bin, a.i, b.i));
        ++pc;
        break;
      }
      case ir::Opcode::kNot:
        r[in.dst] = Value::make_int(r[in.a].truthy() ? 0 : 1);
        ++pc;
        break;
      case ir::Opcode::kNeg: {
        const Value a = r[in.a];
        if (!a.is_int()) return stop(FaultKind::kNullDeref, "negate reference");
        r[in.dst] = Value::make_int(
            static_cast<std::int64_t>(-static_cast<std::uint64_t>(a.i)));
        ++pc;
        break;
      }
      case ir::Opcode::kAlloca:
        r[in.dst] = Value::make_ref(mem_.alloc(
            in.imm, {ObjLabel::Kind::kAlloca, frames_.back().func}));
        ++pc;
        break;
      case ir::Opcode::kStrConst:
        r[in.dst] = Value::make_ref(mem_.alloc_string(
            p_.source(pc).str, {ObjLabel::Kind::kStrConst, 0}));
        ++pc;
        break;
      case ir::Opcode::kLoad: {
        const Value ref = r[in.a];
        if (!ref.is_ref() || ref.is_null_ref()) {
          return stop(FaultKind::kNullDeref, "load through null/int");
        }
        const std::int64_t addr = ref.off + r[in.b].i;
        if (!mem_.in_bounds(ref.obj, addr)) {
          return stop(FaultKind::kOobLoad, object_label(ref.obj) + "[" +
                                               std::to_string(addr) + "]");
        }
        r[in.dst] = Value::make_int(mem_.read(ref.obj, addr));
        ++pc;
        break;
      }
      case ir::Opcode::kStore: {
        const Value ref = r[in.a];
        if (!ref.is_ref() || ref.is_null_ref()) {
          return stop(FaultKind::kNullDeref, "store through null/int");
        }
        const std::int64_t addr = ref.off + r[in.b].i;
        if (!mem_.in_bounds(ref.obj, addr)) {
          return stop(FaultKind::kOobStore, object_label(ref.obj) + "[" +
                                                std::to_string(addr) + "]");
        }
        mem_.write(ref.obj, addr, static_cast<std::uint8_t>(r[in.c].i & 0xff));
        ++pc;
        break;
      }
      case ir::Opcode::kBufSize: {
        const Value ref = r[in.a];
        if (!ref.is_ref() || ref.is_null_ref()) {
          return stop(FaultKind::kNullDeref, "bufsize of null/int");
        }
        r[in.dst] = Value::make_int(mem_.size(ref.obj));
        ++pc;
        break;
      }
      case ir::Opcode::kLoadG:
        r[in.dst] = globals_[static_cast<std::size_t>(in.x)];
        ++pc;
        break;
      case ir::Opcode::kStoreG:
        globals_[static_cast<std::size_t>(in.x)] = r[in.a];
        ++pc;
        break;
      case ir::Opcode::kJmp:
        pc = in.x;
        if constexpr (kListen) {
          listener_->on_block(*this, current_fn(), p_.where(pc).block);
          if (stopped()) return;
        }
        break;
      case ir::Opcode::kBr: {
        const bool taken = r[in.a].truthy();
        if constexpr (kListen) {
          listener_->on_branch(*this, current_fn(), p_.where(pc).block, taken);
          if (stopped()) return;
        }
        pc = taken ? in.x : in.y;
        if constexpr (kListen) {
          listener_->on_block(*this, current_fn(), p_.where(pc).block);
          if (stopped()) return;
        }
        break;
      }
      case ir::Opcode::kCall: {
        if (static_cast<std::int32_t>(frames_.size()) >= opts_.max_call_depth) {
          return stop(FaultKind::kStackOverflow, p_.source(pc).str);
        }
        const auto callee = static_cast<ir::FuncId>(in.imm);
        enter_function<kListen>(callee, p_.call_args() + in.y, in.c,
                                frames_.back().regs_base, pc + 1, in.dst);
        pc = p_.func(callee).entry_pc;
        r = regs_.data() + frames_.back().regs_base;
        if constexpr (kListen) {
          if (stopped()) return;
        }
        break;
      }
      case ir::Opcode::kCallExt: {
        // External calls (libc/syscall stand-ins) are logged structure, not
        // behaviour: each returns 0, as in the symbolic executor.
        if (in.dst != ir::kNoReg) r[in.dst] = Value::make_int(0);
        ++pc;
        break;
      }
      case ir::Opcode::kRet: {
        std::optional<Value> ret;
        if (in.a != ir::kNoReg) ret = r[in.a];
        pc = leave_function<kListen>(ret);
        if (done_) {
          result_.steps = steps;
          return;
        }
        r = regs_.data() + frames_.back().regs_base;
        if constexpr (kListen) {
          if (stopped()) return;
        }
        break;
      }
      case ir::Opcode::kArgc:
        r[in.dst] =
            Value::make_int(static_cast<std::int64_t>(argv_objs_.size()));
        ++pc;
        break;
      case ir::Opcode::kArg: {
        const std::int64_t idx = r[in.a].i;
        if (idx < 0 || idx >= static_cast<std::int64_t>(argv_objs_.size())) {
          return stop(FaultKind::kBadArgIndex, std::to_string(idx));
        }
        r[in.dst] = Value::make_ref(argv_objs_[static_cast<std::size_t>(idx)]);
        ++pc;
        break;
      }
      case ir::Opcode::kEnv:
        r[in.dst] = env_values_[static_cast<std::size_t>(in.x)];
        ++pc;
        break;
      case ir::Opcode::kMakeSymInt: {
        std::int64_t v = in.imm;  // default: domain minimum
        const auto& sym = input_.sym_ints;
        if (auto it = sym.find(p_.source(pc).str); it != sym.end()) {
          v = std::clamp(it->second, in.imm, in.imm2);
        }
        r[in.dst] = Value::make_int(v);
        ++pc;
        break;
      }
      case ir::Opcode::kMakeSymBuf: {
        const Value ref = r[in.a];
        if (!ref.is_ref() || ref.is_null_ref()) {
          return stop(FaultKind::kNullDeref, "make_symbolic on null/int");
        }
        const auto& sym = input_.sym_bufs;
        if (auto it = sym.find(p_.source(pc).str); it != sym.end()) {
          // Copy as much of the concrete content as fits, leaving at least
          // one NUL terminator inside the object.
          const std::int64_t cap = mem_.size(ref.obj) - ref.off;
          const auto n = std::min<std::int64_t>(
              static_cast<std::int64_t>(it->second.size()), cap - 1);
          for (std::int64_t i = 0; i < n; ++i) {
            mem_.write(ref.obj, ref.off + i,
                       static_cast<std::uint8_t>(
                           it->second[static_cast<std::size_t>(i)]));
          }
          if (cap > 0) mem_.write(ref.obj, ref.off + n, 0);
        }
        ++pc;
        break;
      }
      case ir::Opcode::kAssert:
        if (!r[in.a].truthy()) return stop(FaultKind::kAssertFail, "");
        ++pc;
        break;
      case ir::Opcode::kPrint:
        ++pc;
        break;
    }
  }
}

}  // namespace statsym::interp
