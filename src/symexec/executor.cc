#include "symexec/executor.h"

#include <algorithm>
#include <cassert>

namespace statsym::symexec {

namespace {

// Symbolic call depth at which a call faults as a stack overflow.
constexpr std::int32_t kMaxCallDepth = 128;

// Fault validation is one query per reported vulnerability and decides
// whether the finding (and its generated crashing input) is real, so it
// gets a far larger budget than fork-time queries.
constexpr std::uint64_t kFaultSearchNodes = 400'000;
constexpr double kFaultQuerySeconds = 10.0;

}  // namespace

const char* termination_name(Termination t) {
  switch (t) {
    case Termination::kFoundFault: return "found-fault";
    case Termination::kExhausted: return "exhausted";
    case Termination::kOutOfMemory: return "out-of-memory";
    case Termination::kStateLimit: return "state-limit";
    case Termination::kInstrLimit: return "instr-limit";
    case Termination::kTimeout: return "timeout";
    case Termination::kCancelled: return "cancelled";
    case Termination::kRunLimit: return "run-limit";
  }
  return "?";
}

SymExecutor::SymExecutor(const ir::Module& m, SymInputSpec spec,
                         ExecOptions opts, solver::ExprPool* pool)
    : m_(m),
      spec_(std::move(spec)),
      opts_(opts),
      own_pool_(pool == nullptr ? std::make_unique<solver::ExprPool>()
                                : nullptr),
      pool_(pool != nullptr ? *pool : *own_pool_),
      solver_(pool_, opts_.solver_opts),
      rng_(opts.seed) {
  searcher_ = make_searcher(opts_.searcher, rng_.split());
}

void SymExecutor::set_shared_solver_cache(solver::SharedQueryCache* cache) {
  shared_cache_ = cache;
  solver_.set_shared_cache(cache);
}

void SymExecutor::set_trace(obs::TraceBuffer* trace) {
  trace_ = trace;
  solver_.set_trace(trace);
}

ObjId SymExecutor::make_input_object(State& st, const SymStr& s,
                                     const std::string& label,
                                     const std::string* follow_value) {
  if (!s.symbolic) {
    const auto size = static_cast<std::int64_t>(s.concrete.size()) + 1;
    const ObjId id = st.mem.alloc(size, label);
    for (std::size_t i = 0; i < s.concrete.size(); ++i) {
      st.mem.write(id, static_cast<std::int64_t>(i),
                   SymByte::concrete(static_cast<std::uint8_t>(s.concrete[i])));
    }
    return id;
  }
  assert(s.capacity >= 1);
  const ObjId id = st.mem.alloc(s.capacity, label);
  SymBufReg reg;
  reg.name = s.name;
  for (std::int64_t i = 0; i + 1 < s.capacity; ++i) {
    const solver::VarId v =
        pool_.new_var(s.name + "[" + std::to_string(i) + "]", 0, 255);
    reg.vars.push_back(v);
    if (follow_) {
      // Bytes past the driving string read 0, matching the concrete
      // interpreter's NUL-terminated allocation.
      const std::int64_t b =
          (follow_value != nullptr &&
           i < static_cast<std::int64_t>(follow_value->size()))
              ? static_cast<std::uint8_t>(
                    (*follow_value)[static_cast<std::size_t>(i)])
              : 0;
      follow_vals_[v] = b;
    }
    st.mem.write(id, i, SymByte::symbolic(pool_.var_expr(v)));
  }
  // Pin the final byte to NUL so every path sees a terminated string within
  // the buffer (standard symbolic-string harness idiom).
  st.mem.write(id, s.capacity - 1, SymByte::concrete(0));
  sym_bufs_.push_back(std::move(reg));
  return id;
}

void SymExecutor::build_initial_state() {
  auto st = std::make_unique<State>();
  st->id = next_state_id_++;

  for (const auto& g : m_.globals()) {
    if (g.kind == ir::Global::Kind::kInt) {
      st->globals.push_back(SymValue::concrete_int(g.init_int));
    } else {
      st->globals.push_back(SymValue::concrete(
          Value::make_ref(st->mem.alloc(g.buf_size, g.name))));
    }
  }
  for (std::size_t i = 0; i < spec_.argv.size(); ++i) {
    const std::string* fv =
        follow_ && i < follow_input_.argv.size() ? &follow_input_.argv[i]
                                                 : nullptr;
    argv_objs_.push_back(
        make_input_object(*st, spec_.argv[i], "argv" + std::to_string(i), fv));
  }
  for (const auto& [name, s] : spec_.env) {
    const std::string* fv = nullptr;
    if (follow_) {
      auto it = follow_input_.env.find(name);
      if (it != follow_input_.env.end()) fv = &it->second;
    }
    env_objs_[name] = make_input_object(*st, s, "env:" + name, fv);
  }

  const ir::FuncId entry = m_.entry();
  Frame f;
  f.func = entry;
  f.regs.assign(
      static_cast<std::size_t>(m_.function(entry).num_regs),
      SymValue::concrete_int(0));
  st->stack.push_back(std::move(f));

  State* raw = st.get();
  owned_.emplace(raw->id, std::move(st));
  // The entry event goes through the guidance hook like every other
  // location event — candidate paths start at main():enter.
  if (apply_hook(*raw, monitor::enter_loc(entry)) ==
      StepResult::kSuspend) {
    ++stats_.suspensions;
    if (trace_ != nullptr) {
      trace_->emit(obs::EventKind::kStateSuspend,
                   static_cast<std::int64_t>(raw->id));
    }
    suspended_.push_back(raw);
  } else {
    searcher_->add(raw);
  }
}

std::unique_ptr<State> SymExecutor::clone_state(State& st) {
  auto c = arena_.acquire();
  st.fork_into(*c);
  stats_.eager_clone_bytes += st.approx_bytes();
  stats_.clone_bytes += c->shallow_clone_bytes();
  return c;
}

bool SymExecutor::feasible(State& st, solver::ExprId e) {
  // Optimistic: an undecided fork never prunes a feasible path, it may only
  // walk an infeasible one, which dies at fault validation. (Escalating to
  // the full solver cost ~250 ms/query on defang-style path conditions.)
  return st.pc.probe(pool_, e) != PathConstraints::Quick::kUnsat;
}

bool SymExecutor::add_constraint(State& st, solver::ExprId e) {
  return st.pc.add(pool_, e) != PathConstraints::Quick::kUnsat;
}

std::int64_t SymExecutor::follow_eval(solver::ExprId e) const {
  return pool_.eval(e, follow_vals_);
}

void SymExecutor::follow_decide(State& st, solver::ExprId taken,
                                solver::ExprId negated) {
  decisions_.push_back(Decision{taken, negated, st.pc.size()});
  // `taken` holds under the concrete valuation, which also satisfies every
  // earlier constraint on this path, so the add can never prove unsat
  // (interval propagation is sound).
  add_constraint(st, taken);
}

std::int64_t SymExecutor::concretize(State& st, solver::ExprId e) {
  if (pool_.is_const(e)) return pool_.const_val(e);
  if (follow_) {
    // Pin to the value the driving input induces — the concrete execution's
    // choice, not a solver model's.
    const std::int64_t v = follow_eval(e);
    add_constraint(st, pool_.eq(e, pool_.constant(v)));
    return v;
  }
  const auto res = solver_.check(st.pc.list());
  std::int64_t v;
  if (res.sat == solver::Sat::kSat) {
    v = pool_.eval(e, res.model);
  } else {
    v = solver::eval_interval(pool_, e, st.pc.domains()).lo;
  }
  add_constraint(st, pool_.eq(e, pool_.constant(v)));
  return v;
}

SymExecutor::StepResult SymExecutor::apply_hook(State& st, monitor::LocId loc) {
  st.trace.push_back(loc);
  if (hook_ == nullptr) return StepResult::kContinue;
  const GuidanceHook::Action a = hook_->on_location(*this, st, loc);
  return a == GuidanceHook::Action::kSuspend ? StepResult::kSuspend
                                             : StepResult::kContinue;
}

SymExecutor::StepResult SymExecutor::fault_state(State& st,
                                                 interp::FaultKind kind,
                                                 std::string detail) {
  VulnPath v;
  if (follow_) {
    // Follow mode reached this fault by concretely executing the driving
    // input, so that input IS the witness: no validation query is needed and
    // the concrete valuation is the model.
    v.model = follow_vals_;
    v.model_valid = true;
  } else {
    // Validate the path end-to-end with the full solver; an unsatisfiable
    // constraint set means the optimistic quick checks walked an infeasible
    // path — discard rather than report a false positive. Uses the dedicated
    // high-budget validation solver, which shares only the injected
    // tier-salted cache, so the model is the fault tier's own answer.
    solver::SolverOptions fault_opts = opts_.solver_opts;
    fault_opts.max_search_nodes = kFaultSearchNodes;
    fault_opts.max_query_seconds = kFaultQuerySeconds;
    solver::Solver validator(pool_, fault_opts);
    if (shared_cache_ != nullptr) validator.set_shared_cache(shared_cache_);
    if (trace_ != nullptr) validator.set_trace(trace_);
    const auto res = validator.check(st.pc.list());
    validator_stats_ += validator.stats();
    if (res.sat == solver::Sat::kUnsat) return StepResult::kInfeasible;
    v.model_valid = (res.sat == solver::Sat::kSat);
    if (v.model_valid) v.model = res.model;
  }
  v.kind = kind;
  v.function = m_.function(st.top().func).name;
  // Attribute faults inside library-internal frames to the first user-level
  // caller on the stack.
  for (auto it = st.stack.rbegin(); it != st.stack.rend(); ++it) {
    const std::string& name = m_.function(it->func).name;
    if (!ir::is_library_function(name)) {
      v.function = name;
      break;
    }
  }
  v.detail = std::move(detail);
  v.trace = st.trace.materialize();
  v.constraints = st.pc.list();
  v.input = reconstruct_input(v.model);
  pending_vuln_ = std::move(v);
  return StepResult::kFault;
}

interp::RuntimeInput SymExecutor::reconstruct_input(
    const solver::Model& model) const {
  interp::RuntimeInput in;
  auto value_of = [&](solver::VarId v) {
    auto it = model.find(v);
    return it != model.end() ? it->second : pool_.var(v).lo;
  };
  auto str_of = [&](const std::string& name) {
    std::string s;
    for (const auto& reg : sym_bufs_) {
      if (reg.name != name) continue;
      for (solver::VarId v : reg.vars) {
        const std::int64_t b = value_of(v);
        if (b == 0) break;
        s.push_back(static_cast<char>(static_cast<std::uint8_t>(b)));
      }
      break;
    }
    return s;
  };
  for (const auto& a : spec_.argv) {
    in.argv.push_back(a.symbolic ? str_of(a.name) : a.concrete);
  }
  for (const auto& [name, s] : spec_.env) {
    in.env[name] = s.symbolic ? str_of(s.name) : s.concrete;
  }
  for (const auto& [name, var] : sym_ints_) {
    in.sym_ints[name] = value_of(var);
    in.sym_bufs[name] = str_of(name);  // covers kMakeSymBuf inputs
  }
  for (const auto& reg : sym_bufs_) {
    if (!in.sym_bufs.contains(reg.name)) in.sym_bufs[reg.name] = str_of(reg.name);
  }
  return in;
}

SymExecutor::StepResult SymExecutor::exec_branch(State& st,
                                                 const ir::Instr& in) {
  Frame& f = st.top();
  const SymValue cond = f.regs[static_cast<std::size_t>(in.a)];
  if (cond.is_concrete()) {
    f.block = cond.conc.truthy() ? in.t0 : in.t1;
    f.idx = 0;
    return StepResult::kContinue;
  }
  const solver::ExprId te = pool_.truthy(cond.expr);
  const solver::ExprId fe = pool_.lnot(te);
  if (follow_) {
    // Concolic follow: take the direction the concrete valuation dictates,
    // record the decision, never fork.
    const bool taken_true = follow_eval(te) != 0;
    follow_decide(st, taken_true ? te : fe, taken_true ? fe : te);
    f.block = taken_true ? in.t0 : in.t1;
    f.idx = 0;
    st.depth++;
    return StepResult::kContinue;
  }
  if (facts_ != nullptr) {
    const analysis::BranchFact bf = facts_->branch(f.func, f.block);
    if (bf != analysis::BranchFact::kUndecided) {
      // The analysis proved the condition for every execution reaching this
      // block, so pc ∧ taken-side is equisatisfiable with pc: skip both
      // feasibility queries and never fork the statically-dead sibling. The
      // constraint still narrows the propagation domains (and keeps the
      // pc-unsat detection of the add path), but stays out of the canonical
      // constraint list — it is implied, so every downstream solve works on
      // a smaller set with the identical solution space.
      const bool take_true = bf == analysis::BranchFact::kAlwaysTrue;
      if (st.pc.add_implied(pool_, take_true ? te : fe) ==
          PathConstraints::Quick::kUnsat) {
        return StepResult::kInfeasible;  // pc was already unsat
      }
      ++validator_stats_.static_prunes;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kStaticPrune, f.func, f.block,
                     take_true ? 1 : 0, "branch");
      }
      f.block = take_true ? in.t0 : in.t1;
      f.idx = 0;
      st.depth++;
      return StepResult::kContinue;
    }
  }
  const bool ok_t = feasible(st, te);
  const bool ok_f = feasible(st, fe);
  if (ok_t && ok_f) {
    auto sib = clone_state(st);
    const bool sib_ok = add_constraint(*sib, fe);
    const bool cur_ok = add_constraint(st, te);
    if (sib_ok) {
      sib->top().block = in.t1;
      sib->top().idx = 0;
      sib->depth++;
    }
    if (cur_ok) {
      f.block = in.t0;
      f.idx = 0;
      st.depth++;
    }
    if (cur_ok && sib_ok) {
      sibling_ = std::move(sib);
      ++stats_.forks;
      return StepResult::kForked;
    }
    if (cur_ok) {
      arena_.release(std::move(sib));
      return StepResult::kContinue;
    }
    if (sib_ok) {
      // Propagation refuted the then-branch the probe thought feasible:
      // adopt the else-branch state in place (identity — id and ownership —
      // stays with the current state).
      const std::uint64_t keep_id = st.id;
      st = std::move(*sib);
      st.id = keep_id;
      arena_.release(std::move(sib));
      return StepResult::kContinue;
    }
    arena_.release(std::move(sib));
    return StepResult::kInfeasible;
  }
  if (ok_t || ok_f) {
    const solver::ExprId e = ok_t ? te : fe;
    if (!add_constraint(st, e)) return StepResult::kInfeasible;
    f.block = ok_t ? in.t0 : in.t1;
    f.idx = 0;
    st.depth++;
    return StepResult::kContinue;
  }
  return StepResult::kInfeasible;
}

SymExecutor::StepResult SymExecutor::exec_bin(State& st, const ir::Instr& in) {
  Frame& f = st.top();
  const SymValue a = f.regs[static_cast<std::size_t>(in.a)];
  const SymValue b = f.regs[static_cast<std::size_t>(in.b)];
  auto set = [&](SymValue v) { f.regs[static_cast<std::size_t>(in.dst)] = v; };

  // Reference comparisons (identity).
  if (a.is_ref() || b.is_ref()) {
    if ((in.bin == ir::BinOp::kEq || in.bin == ir::BinOp::kNe) &&
        a.is_concrete() && b.is_concrete()) {
      const bool same = a.conc.is_ref() && b.conc.is_ref() &&
                        a.conc.obj == b.conc.obj && a.conc.off == b.conc.off;
      const bool both_null = a.conc.is_null_ref() && b.conc.is_null_ref();
      const bool eq = same || both_null;
      set(SymValue::concrete_int(in.bin == ir::BinOp::kEq ? eq : !eq));
      ++f.idx;
      return StepResult::kContinue;
    }
    return fault_state(st, interp::FaultKind::kNullDeref,
                       "arithmetic on reference");
  }

  if (a.is_concrete() && b.is_concrete()) {
    if ((in.bin == ir::BinOp::kDiv || in.bin == ir::BinOp::kRem) &&
        b.conc.i == 0) {
      return fault_state(st, interp::FaultKind::kDivByZero, "");
    }
    set(SymValue::concrete_int(ir::eval_binop(in.bin, a.conc.i, b.conc.i)));
    ++f.idx;
    return StepResult::kContinue;
  }

  // At least one symbolic operand.
  switch (in.bin) {
    case ir::BinOp::kAnd:
    case ir::BinOp::kOr:
    case ir::BinOp::kXor:
    case ir::BinOp::kShl:
    case ir::BinOp::kShr: {
      // Bitwise ops are outside the solver theory: concretize.
      const std::int64_t av =
          a.is_concrete() ? a.conc.i : concretize(st, a.expr);
      const std::int64_t bv =
          b.is_concrete() ? b.conc.i : concretize(st, b.expr);
      set(SymValue::concrete_int(ir::eval_binop(in.bin, av, bv)));
      ++f.idx;
      return StepResult::kContinue;
    }
    default:
      break;
  }

  const solver::ExprId ae = a.to_expr(pool_);
  const solver::ExprId be = b.to_expr(pool_);

  if (in.bin == ir::BinOp::kDiv || in.bin == ir::BinOp::kRem) {
    const solver::ExprId dz = pool_.eq(be, pool_.constant(0));
    const solver::ExprId nz = pool_.ne(be, pool_.constant(0));
    if (follow_) {
      // The divisor's concrete value decides: fault or proceed, either way a
      // recorded decision point.
      if (follow_eval(be) == 0) {
        follow_decide(st, dz, nz);
        return fault_state(st, interp::FaultKind::kDivByZero, "");
      }
      follow_decide(st, nz, dz);
    } else {
      // Fork off the division-by-zero fault when it is reachable, then
      // continue under the b != 0 constraint.
      if (feasible(st, dz)) {
        if (add_constraint(st, dz)) {
          return fault_state(st, interp::FaultKind::kDivByZero, "");
        }
        return StepResult::kInfeasible;
      }
      if (!add_constraint(st, nz)) {
        return StepResult::kInfeasible;
      }
    }
  }

  solver::ExprId e = solver::kNoExpr;
  switch (in.bin) {
    case ir::BinOp::kAdd: e = pool_.add(ae, be); break;
    case ir::BinOp::kSub: e = pool_.sub(ae, be); break;
    case ir::BinOp::kMul: e = pool_.mul(ae, be); break;
    case ir::BinOp::kDiv: e = pool_.binary(solver::ExprOp::kDiv, ae, be); break;
    case ir::BinOp::kRem: e = pool_.binary(solver::ExprOp::kRem, ae, be); break;
    case ir::BinOp::kEq: e = pool_.eq(ae, be); break;
    case ir::BinOp::kNe: e = pool_.ne(ae, be); break;
    case ir::BinOp::kLt: e = pool_.lt(ae, be); break;
    case ir::BinOp::kLe: e = pool_.le(ae, be); break;
    case ir::BinOp::kGt: e = pool_.gt(ae, be); break;
    case ir::BinOp::kGe: e = pool_.ge(ae, be); break;
    case ir::BinOp::kLAnd:
      e = pool_.land(pool_.truthy(ae), pool_.truthy(be));
      break;
    case ir::BinOp::kLOr:
      e = pool_.lor(pool_.truthy(ae), pool_.truthy(be));
      break;
    default:
      assert(false);
  }
  if (pool_.is_const(e)) {
    set(SymValue::concrete_int(pool_.const_val(e)));
  } else {
    set(SymValue::symbolic(e));
  }
  ++f.idx;
  return StepResult::kContinue;
}

bool SymExecutor::resolve_address(State& st, const ir::Instr& in,
                                  const SymValue& refv, const SymValue& idxv,
                                  bool is_store, std::int64_t& addr_out) {
  const interp::FaultKind oob_kind =
      is_store ? interp::FaultKind::kOobStore : interp::FaultKind::kOobLoad;
  (void)in;
  if (!refv.is_ref() || refv.conc.is_null_ref()) {
    mem_step_result_ =
        fault_state(st, interp::FaultKind::kNullDeref, "null/int access");
    return false;
  }
  const ObjId obj = refv.conc.obj;
  const std::int64_t size = st.mem.size(obj);

  if (idxv.is_concrete()) {
    const std::int64_t addr = refv.conc.off + idxv.conc.i;
    if (addr < 0 || addr >= size) {
      mem_step_result_ = fault_state(
          st, oob_kind, st.mem.label(obj) + "[" + std::to_string(addr) + "]");
      return false;
    }
    addr_out = addr;
    return true;
  }

  // Symbolic index: report the fault if any index value escapes the object,
  // otherwise pin the address to a model value and continue in bounds.
  const solver::ExprId addr_e =
      pool_.add(idxv.expr, pool_.constant(refv.conc.off));
  const solver::ExprId oob = pool_.lor(pool_.lt(addr_e, pool_.constant(0)),
                                       pool_.ge(addr_e, pool_.constant(size)));
  if (follow_) {
    const std::int64_t addr = follow_eval(addr_e);
    const solver::ExprId inb = pool_.lnot(oob);
    if (addr < 0 || addr >= size) {
      follow_decide(st, oob, inb);
      mem_step_result_ =
          fault_state(st, oob_kind, st.mem.label(obj) + "[symbolic]");
      return false;
    }
    follow_decide(st, inb, oob);
    // Pin the exact address so subsequent byte accesses read/write the cells
    // the concrete execution touches.
    add_constraint(st, pool_.eq(addr_e, pool_.constant(addr)));
    addr_out = addr;
    return true;
  }
  if (feasible(st, oob)) {
    if (add_constraint(st, oob)) {
      mem_step_result_ =
          fault_state(st, oob_kind, st.mem.label(obj) + "[symbolic]");
    } else {
      mem_step_result_ = StepResult::kInfeasible;
    }
    return false;
  }
  addr_out = concretize(st, addr_e);
  if (addr_out < 0 || addr_out >= size) {
    // Solver gave an out-of-range witness despite infeasible oob: the state
    // is contradictory.
    mem_step_result_ = StepResult::kInfeasible;
    return false;
  }
  return true;
}

SymExecutor::StepResult SymExecutor::exec_call(State& st,
                                               const ir::Instr& in) {
  if (static_cast<std::int32_t>(st.stack.size()) >= kMaxCallDepth) {
    return fault_state(st, interp::FaultKind::kStackOverflow, in.str);
  }
  Frame& caller = st.top();
  std::vector<SymValue> args;
  args.reserve(in.args.size());
  for (ir::Reg r : in.args) {
    args.push_back(caller.regs[static_cast<std::size_t>(r)]);
  }
  ++caller.idx;  // resume after the call upon return

  const auto callee = static_cast<ir::FuncId>(in.imm);
  Frame f;
  f.func = callee;
  f.ret_dst = in.dst;
  f.regs.assign(static_cast<std::size_t>(m_.function(callee).num_regs),
                SymValue::concrete_int(0));
  for (std::size_t i = 0; i < args.size(); ++i) f.regs[i] = args[i];
  f.params = std::move(args);
  st.stack.push_back(std::move(f));

  return apply_hook(st, monitor::enter_loc(callee));
}

SymExecutor::StepResult SymExecutor::exec_ret(State& st, const ir::Instr& in) {
  Frame& f = st.top();
  std::optional<SymValue> ret;
  if (in.a != ir::kNoReg) ret = f.regs[static_cast<std::size_t>(in.a)];

  const ir::FuncId fid = f.func;
  const ir::Reg dst = f.ret_dst;
  st.stack.pop_back();
  if (st.stack.empty()) {
    // Return from main: record the leave event but skip the guidance hook —
    // the path is complete either way.
    st.trace.push_back(monitor::leave_loc(fid));
    return StepResult::kTerminated;
  }
  if (dst != ir::kNoReg) {
    st.top().regs[static_cast<std::size_t>(dst)] =
        ret.value_or(SymValue::concrete_int(0));
  }
  return apply_hook(st, monitor::leave_loc(fid));
}

SymExecutor::StepResult SymExecutor::step(State& st) {
  Frame& f = st.top();
  const ir::Function& fn = m_.function(f.func);
  const ir::Instr& in = fn.blocks[static_cast<std::size_t>(f.block)]
                            .instrs[static_cast<std::size_t>(f.idx)];
  ++stats_.instructions;
  ++st.instrs;

  auto reg = [&](ir::Reg r) -> SymValue& {
    return f.regs[static_cast<std::size_t>(r)];
  };
  auto set = [&](ir::Reg r, SymValue v) {
    f.regs[static_cast<std::size_t>(r)] = v;
  };

  switch (in.op) {
    case ir::Opcode::kConst:
      set(in.dst, SymValue::concrete_int(in.imm));
      ++f.idx;
      return StepResult::kContinue;
    case ir::Opcode::kMove:
      set(in.dst, reg(in.a));
      ++f.idx;
      return StepResult::kContinue;
    case ir::Opcode::kBin:
      return exec_bin(st, in);
    case ir::Opcode::kNot: {
      const SymValue a = reg(in.a);
      if (a.is_concrete()) {
        set(in.dst, SymValue::concrete_int(a.conc.truthy() ? 0 : 1));
      } else {
        set(in.dst, SymValue::symbolic(pool_.lnot(pool_.truthy(a.expr))));
      }
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kNeg: {
      const SymValue a = reg(in.a);
      if (a.is_concrete()) {
        if (!a.conc.is_int()) {
          return fault_state(st, interp::FaultKind::kNullDeref,
                             "negate reference");
        }
        set(in.dst, SymValue::concrete_int(static_cast<std::int64_t>(
                        0 - static_cast<std::uint64_t>(a.conc.i))));
      } else {
        set(in.dst, SymValue::symbolic(pool_.unary(solver::ExprOp::kNeg, a.expr)));
      }
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kAlloca:
      set(in.dst, SymValue::concrete(
                      Value::make_ref(st.mem.alloc(in.imm, fn.name + ":alloca"))));
      ++f.idx;
      return StepResult::kContinue;
    case ir::Opcode::kStrConst: {
      const ObjId id = st.mem.alloc(
          static_cast<std::int64_t>(in.str.size()) + 1, "strconst");
      for (std::size_t i = 0; i < in.str.size(); ++i) {
        st.mem.write(id, static_cast<std::int64_t>(i),
                     SymByte::concrete(static_cast<std::uint8_t>(in.str[i])));
      }
      set(in.dst, SymValue::concrete(Value::make_ref(id)));
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kLoad: {
      std::int64_t addr = 0;
      if (!resolve_address(st, in, reg(in.a), reg(in.b), /*is_store=*/false,
                           addr)) {
        return mem_step_result_;
      }
      const SymByte b = st.mem.read(reg(in.a).conc.obj, addr);
      set(in.dst, b.is_sym ? SymValue::symbolic(b.e)
                           : SymValue::concrete_int(b.b));
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kStore: {
      std::int64_t addr = 0;
      if (!resolve_address(st, in, reg(in.a), reg(in.b), /*is_store=*/true,
                           addr)) {
        return mem_step_result_;
      }
      const SymValue v = reg(in.c);
      SymByte byte;
      if (v.is_concrete()) {
        if (!v.conc.is_int()) {
          return fault_state(st, interp::FaultKind::kNullDeref,
                             "storing a reference into a byte");
        }
        byte = SymByte::concrete(static_cast<std::uint8_t>(v.conc.i & 0xff));
      } else {
        byte = SymByte::symbolic(v.expr);
      }
      st.mem.write(reg(in.a).conc.obj, addr, byte);
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kBufSize: {
      const SymValue r = reg(in.a);
      if (!r.is_ref() || r.conc.is_null_ref()) {
        return fault_state(st, interp::FaultKind::kNullDeref,
                           "bufsize of null/int");
      }
      set(in.dst, SymValue::concrete_int(st.mem.size(r.conc.obj)));
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kLoadG:
      set(in.dst,
          st.globals[static_cast<std::size_t>(m_.find_global(in.str))]);
      ++f.idx;
      return StepResult::kContinue;
    case ir::Opcode::kStoreG:
      st.globals[static_cast<std::size_t>(m_.find_global(in.str))] = reg(in.a);
      ++f.idx;
      return StepResult::kContinue;
    case ir::Opcode::kJmp:
      f.block = in.t0;
      f.idx = 0;
      return StepResult::kContinue;
    case ir::Opcode::kBr:
      return exec_branch(st, in);
    case ir::Opcode::kCall:
      return exec_call(st, in);
    case ir::Opcode::kCallExt: {
      // External environment is modelled deterministically: result 0.
      if (in.dst != ir::kNoReg) set(in.dst, SymValue::concrete_int(0));
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kRet:
      return exec_ret(st, in);
    case ir::Opcode::kArgc:
      set(in.dst, SymValue::concrete_int(
                      static_cast<std::int64_t>(argv_objs_.size())));
      ++f.idx;
      return StepResult::kContinue;
    case ir::Opcode::kArg: {
      const SymValue idx = reg(in.a);
      const std::int64_t i =
          idx.is_concrete() ? idx.conc.i : concretize(st, idx.expr);
      if (i < 0 || i >= static_cast<std::int64_t>(argv_objs_.size())) {
        return fault_state(st, interp::FaultKind::kBadArgIndex,
                           std::to_string(i));
      }
      set(in.dst, SymValue::concrete(
                      Value::make_ref(argv_objs_[static_cast<std::size_t>(i)])));
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kEnv: {
      auto it = env_objs_.find(in.str);
      set(in.dst, it == env_objs_.end()
                      ? SymValue::concrete(Value::null_ref())
                      : SymValue::concrete(Value::make_ref(it->second)));
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kMakeSymInt: {
      const solver::VarId v = pool_.new_var(in.str, in.imm, in.imm2);
      sym_ints_.emplace(in.str, v);  // first registration wins
      if (follow_) {
        std::int64_t cv = in.imm;  // default: domain minimum, as the interp
        if (auto it = follow_input_.sym_ints.find(in.str);
            it != follow_input_.sym_ints.end()) {
          cv = std::clamp(it->second, in.imm, in.imm2);
        }
        follow_vals_[v] = cv;
      }
      set(in.dst, SymValue::symbolic(pool_.var_expr(v)));
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kMakeSymBuf: {
      const SymValue r = reg(in.a);
      if (!r.is_ref() || r.conc.is_null_ref()) {
        return fault_state(st, interp::FaultKind::kNullDeref,
                           "make_symbolic on null/int");
      }
      const ObjId obj = r.conc.obj;
      const std::int64_t size = st.mem.size(obj);
      SymBufReg breg;
      breg.name = in.str;
      for (std::int64_t i = r.conc.off; i + 1 < size; ++i) {
        const solver::VarId v =
            pool_.new_var(in.str + "[" + std::to_string(i) + "]", 0, 255);
        breg.vars.push_back(v);
        if (follow_) {
          const std::int64_t rel = i - r.conc.off;
          std::int64_t bv = 0;
          if (auto it = follow_input_.sym_bufs.find(in.str);
              it != follow_input_.sym_bufs.end() &&
              rel < static_cast<std::int64_t>(it->second.size())) {
            bv = static_cast<std::uint8_t>(
                it->second[static_cast<std::size_t>(rel)]);
          }
          follow_vals_[v] = bv;
        }
        st.mem.write(obj, i, SymByte::symbolic(pool_.var_expr(v)));
      }
      if (size > r.conc.off) st.mem.write(obj, size - 1, SymByte::concrete(0));
      sym_bufs_.push_back(std::move(breg));
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kAssert: {
      const SymValue c = reg(in.a);
      if (c.is_concrete()) {
        if (!c.conc.truthy()) {
          return fault_state(st, interp::FaultKind::kAssertFail, "");
        }
        ++f.idx;
        return StepResult::kContinue;
      }
      const solver::ExprId ok = pool_.truthy(c.expr);
      const solver::ExprId bad = pool_.lnot(ok);
      if (follow_) {
        if (follow_eval(ok) != 0) {
          follow_decide(st, ok, bad);
          ++f.idx;
          return StepResult::kContinue;
        }
        follow_decide(st, bad, ok);
        return fault_state(st, interp::FaultKind::kAssertFail, "");
      }
      if (feasible(st, bad)) {
        if (add_constraint(st, bad)) {
          return fault_state(st, interp::FaultKind::kAssertFail, "");
        }
        return StepResult::kInfeasible;
      }
      if (!add_constraint(st, ok)) return StepResult::kInfeasible;
      ++f.idx;
      return StepResult::kContinue;
    }
    case ir::Opcode::kPrint:
      ++f.idx;
      return StepResult::kContinue;
  }
  return StepResult::kContinue;
}

std::size_t SymExecutor::live_memory_estimate() const {
  std::size_t total = 0;
  for (const auto& [id, st] : owned_) total += st->approx_bytes();
  return total;
}

void SymExecutor::destroy_state(State* st) {
  // Follow mode runs exactly one state; keep its final constraint list so
  // the concolic driver can slice decision prefixes out of it.
  if (follow_) followed_pc_ = st->pc.list();
  auto it = owned_.find(st->id);
  if (it != owned_.end()) {
    arena_.release(std::move(it->second));
    owned_.erase(it);
  }
}

void SymExecutor::run_slice(State* st, ExecResult& result, Termination& term,
                            bool& done) {
  StepResult last = StepResult::kContinue;
  for (std::uint32_t k = 0; k < opts_.slice && last == StepResult::kContinue;
       ++k) {
    last = step(*st);
  }

  switch (last) {
    case StepResult::kContinue:
      searcher_->add(st);  // slice expired
      break;
    case StepResult::kForked: {
      assert(sibling_ != nullptr);
      State* sib = sibling_.get();
      sib->id = next_state_id_++;
      owned_.emplace(sib->id, std::move(sibling_));
      stats_.peak_live_states =
          std::max(stats_.peak_live_states, owned_.size());
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kStateFork,
                     static_cast<std::int64_t>(st->id),
                     static_cast<std::int64_t>(sib->id));
      }
      searcher_->add(sib);
      searcher_->add(st);  // current continues (then-branch) first in DFS
      break;
    }
    case StepResult::kTerminated:
      ++stats_.paths_ok;
      ++stats_.paths_completed;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kStateTerminate,
                     static_cast<std::int64_t>(st->id), /*reason=*/0);
      }
      destroy_state(st);
      break;
    case StepResult::kInfeasible:
      ++stats_.paths_infeasible;
      ++stats_.paths_completed;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kStateTerminate,
                     static_cast<std::int64_t>(st->id), /*reason=*/1);
      }
      destroy_state(st);
      break;
    case StepResult::kFault: {
      ++stats_.paths_completed;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kStateTerminate,
                     static_cast<std::int64_t>(st->id), /*reason=*/2);
      }
      destroy_state(st);
      const bool on_target =
          opts_.target_function.empty() ||
          (pending_vuln_.has_value() &&
           pending_vuln_->function == opts_.target_function);
      if (!on_target) {
        // A known/other vulnerability on the way to the hunted one: the
        // path ends here but is not the finding we're after.
        pending_vuln_.reset();
        break;
      }
      ++stats_.faults_found;
      if (!result.vuln.has_value()) result.vuln = std::move(pending_vuln_);
      pending_vuln_.reset();
      if (opts_.stop_at_first_fault) {
        term = Termination::kFoundFault;
        done = true;
      }
      break;
    }
    case StepResult::kSuspend:
      ++stats_.suspensions;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kStateSuspend,
                     static_cast<std::int64_t>(st->id));
      }
      suspended_.push_back(st);
      break;
  }
}

ExecResult SymExecutor::run() {
  build_initial_state();

  ExecResult result;
  Stopwatch sw;
  Termination term = Termination::kExhausted;
  bool done = false;

  std::uint64_t round = 0;

  while (!done) {
    ++round;
    if (sw.elapsed_seconds() > opts_.max_seconds) {
      term = Termination::kTimeout;
      break;
    }
    if ((round & 0xf) == 0) {
      const std::size_t mem = live_memory_estimate();
      stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, mem);
      if (mem > opts_.max_memory_bytes) {
        term = Termination::kOutOfMemory;
        break;
      }
      if (budget_ != nullptr &&
          budget_->instructions + stats_.instructions >
              budget_->max_instructions) {
        term = Termination::kInstrLimit;
        break;
      }
    }
    if (stats_.instructions > opts_.max_instructions) {
      term = Termination::kInstrLimit;
      break;
    }
    if (owned_.size() > opts_.max_live_states) {
      term = Termination::kStateLimit;
      break;
    }

    if (searcher_->empty()) {
      if (!suspended_.empty() && opts_.wake_suspended) {
        // No guided states remain: fall back to pure symbolic execution on
        // the suspended set (paper §V-C footnote: worst case equals pure).
        for (State* st : suspended_) {
          if (hook_ != nullptr) hook_->on_wake(*st);
          if (trace_ != nullptr) {
            trace_->emit(obs::EventKind::kStateWake,
                         static_cast<std::int64_t>(st->id));
          }
          searcher_->add(st);
        }
        stats_.wakes += suspended_.size();
        suspended_.clear();
        continue;
      }
      term = Termination::kExhausted;
      break;
    }

    State* st = searcher_->select();
    run_slice(st, result, term, done);
  }

  // In keep-exploring mode a completed exploration that did find a fault
  // still reports success.
  if (result.vuln.has_value() && term == Termination::kExhausted) {
    term = Termination::kFoundFault;
  }
  // Budget stops leave the followed state alive: capture its partial path
  // so already-recorded decisions stay sliceable.
  if (follow_ && followed_pc_.empty() && !owned_.empty()) {
    followed_pc_ = owned_.begin()->second->pc.list();
  }

  if (budget_ != nullptr) budget_->instructions += stats_.instructions;
  stats_.seconds = sw.elapsed_seconds();
  stats_.peak_live_states = std::max(stats_.peak_live_states, owned_.size());
  stats_.paths_explored = stats_.paths_completed + owned_.size();
  if (trace_ != nullptr) {
    trace_->emit(obs::EventKind::kExecEnd, static_cast<std::int64_t>(term),
                 static_cast<std::int64_t>(owned_.size()),
                 static_cast<std::int64_t>(suspended_.size()));
  }
  result.termination = term;
  result.stats = stats_;
  result.solver_stats = solver_.stats();
  result.solver_stats += validator_stats_;
  return result;
}

}  // namespace statsym::symexec
