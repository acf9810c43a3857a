#include "fuzz/diff_driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "analysis/facts.h"
#include "concolic/concolic.h"
#include "interp/interpreter.h"
#include "ir/printer.h"
#include "ir/rewrite.h"
#include "ir/verifier.h"
#include "statsym/engine.h"
#include "support/strings.h"
#include "support/thread_pool.h"
#include "symexec/executor.h"

namespace statsym::fuzz {

const char* oracle_name(Oracle o) {
  switch (o) {
    case Oracle::kNone: return "ok";
    case Oracle::kDifferential: return "differential";
    case Oracle::kPipeline: return "pipeline";
    case Oracle::kGuidedSoundness: return "guided-soundness";
    case Oracle::kCrossEngine: return "cross-engine";
    case Oracle::kStaticFacts: return "static-facts";
  }
  return "?";
}

namespace {

namespace fs = std::filesystem;

// Renders a RuntimeInput as a fully-concrete SymInputSpec (the concretised
// executor sees the exact strings the interpreter ran).
symexec::SymInputSpec concretize(const interp::RuntimeInput& in) {
  symexec::SymInputSpec spec;
  for (const auto& a : in.argv) spec.argv.push_back(symexec::SymStr::fixed(a));
  for (const auto& [k, v] : in.env) {
    spec.env.emplace_back(k, symexec::SymStr::fixed(v));
  }
  return spec;
}

interp::RuntimeInput payload_input(std::int64_t len) {
  interp::RuntimeInput in;
  in.argv = {"fuzz", std::string(static_cast<std::size_t>(len), 'a')};
  return in;
}

symexec::ExecOptions concretized_exec_options() {
  symexec::ExecOptions o;
  o.stop_at_first_fault = true;
  o.max_instructions = 20'000'000;
  o.max_seconds = 30.0;
  return o;
}

// One oracle-(a) comparison. Returns a non-empty description on divergence.
// `code` is the module decoded once and shared by every input.
std::string compare_engines(const interp::Program& code,
                            const interp::RuntimeInput& input) {
  interp::Interpreter it(code, input);
  const interp::RunResult concrete = it.run();

  symexec::SymExecutor ex(code.module(), concretize(input),
                          concretized_exec_options());
  const symexec::ExecResult symbolic = ex.run();

  const std::int64_t len =
      input.argv.size() > 1 ? static_cast<std::int64_t>(input.argv[1].size())
                            : -1;
  auto tag = [&](const std::string& what) {
    return "len=" + std::to_string(len) + ": " + what;
  };

  if (concrete.outcome == interp::RunOutcome::kFault) {
    if (symbolic.termination != symexec::Termination::kFoundFault) {
      return tag("interpreter faulted in " + concrete.fault.function +
                 " but symexec terminated " +
                 symexec::termination_name(symbolic.termination));
    }
    if (!symbolic.vuln.has_value()) return tag("symexec fault without vuln");
    if (symbolic.vuln->function != concrete.fault.function) {
      return tag("fault function mismatch: interp=" + concrete.fault.function +
                 " symexec=" + symbolic.vuln->function);
    }
    if (symbolic.vuln->kind != concrete.fault.kind) {
      return tag(std::string("fault kind mismatch: interp=") +
                 interp::fault_kind_name(concrete.fault.kind) +
                 " symexec=" + interp::fault_kind_name(symbolic.vuln->kind));
    }
    return {};
  }
  if (concrete.outcome != interp::RunOutcome::kOk) {
    return tag("interpreter hit the step limit (generator invariant broken)");
  }
  if (symbolic.termination != symexec::Termination::kExhausted) {
    return tag(std::string("interpreter ok but symexec terminated ") +
               symexec::termination_name(symbolic.termination));
  }
  if (symbolic.stats.paths_explored != 1 || symbolic.stats.forks != 0) {
    return tag("concrete input explored " +
               std::to_string(symbolic.stats.paths_explored) + " paths / " +
               std::to_string(symbolic.stats.forks) + " forks (want 1 / 0)");
  }
  return {};
}

// Ground-truth check: the interpreter outcome on `input` must match the
// planted predicate len >= T. Non-empty description on violation.
std::string check_ground_truth(const GeneratedProgram& prog,
                               const interp::Program& code,
                               const interp::RuntimeInput& input) {
  interp::Interpreter it(code, input);
  const interp::RunResult r = it.run();
  const auto len = static_cast<std::int64_t>(input.argv[1].size());
  const bool should_fault =
      prog.fault_planted && len >= prog.app.crash_threshold;
  const bool faulted = r.outcome == interp::RunOutcome::kFault;
  if (faulted != should_fault) {
    return "len=" + std::to_string(len) + ": expected " +
           (should_fault ? "fault" : "clean run") + ", interpreter says " +
           (faulted ? "fault in " + r.fault.function : "clean");
  }
  if (faulted && (r.fault.function != prog.app.vuln_function ||
                  r.fault.kind != prog.app.vuln_kind)) {
    return "len=" + std::to_string(len) + ": fault " +
           interp::fault_kind_name(r.fault.kind) + " in " + r.fault.function +
           " does not match planted " +
           interp::fault_kind_name(prog.app.vuln_kind) + " in " +
           prog.app.vuln_function;
  }
  return {};
}

core::EngineOptions engine_options(const GeneratedProgram& prog,
                                   const DiffOptions& opts) {
  core::EngineOptions eo;
  eo.monitor.sampling_rate = opts.sampling_rate;
  eo.target_correct_logs = opts.target_logs;
  eo.target_faulty_logs = opts.target_logs;
  eo.max_workload_runs = opts.max_workload_runs;
  eo.exec.max_instructions = opts.engine_max_instructions;
  eo.exec.max_seconds = opts.engine_max_seconds;
  eo.exec.max_live_states = 50'000;
  eo.exec.max_memory_bytes = 128ull << 20;
  eo.candidate_timeout_seconds = opts.engine_max_seconds;
  eo.max_candidates_tried = 8;
  eo.seed = derive_seed(prog.seed, 0x10adu);
  // The engine list drives the Phase-3 lane race; with the default single
  // guided entry the classic candidate loop runs unchanged.
  eo.engines = opts.engines;
  return eo;
}

struct PipelineOutcome {
  core::EngineResult result;
  std::string failure;  // empty = oracle (b) satisfied
};

// Runs the full pipeline and applies the oracle-(b) judgement.
PipelineOutcome run_pipeline(const GeneratedProgram& prog,
                             const ir::Module& module,
                             const DiffOptions& opts) {
  PipelineOutcome out;
  core::StatSymEngine engine(module, prog.app.sym_spec,
                             engine_options(prog, opts));
  engine.collect_logs(prog.app.workload);
  out.result = engine.run();
  const core::EngineResult& res = out.result;

  if (!prog.fault_planted) {
    if (res.found) {
      out.failure = "pipeline reported a vulnerability in a fault-free "
                    "program (candidate #" +
                    std::to_string(res.winning_candidate) + ")";
    }
    return out;
  }
  if (!res.found) {
    out.failure = "pipeline did not verify the planted fault (" +
                  std::to_string(res.construction.candidates.size()) +
                  " candidates, " + std::to_string(res.num_faulty_logs) +
                  " faulty logs)";
    return out;
  }
  if (res.vuln->function != prog.app.vuln_function) {
    out.failure = "pipeline verified " + res.vuln->function +
                  " instead of planted " + prog.app.vuln_function;
    return out;
  }
  interp::Interpreter replay(module, res.vuln->input);
  const interp::RunResult rr = replay.run();
  if (rr.outcome != interp::RunOutcome::kFault ||
      rr.fault.function != prog.app.vuln_function) {
    out.failure = "generated crashing input does not replay in " +
                  prog.app.vuln_function;
  }
  return out;
}

symexec::ExecOptions pure_options(const DiffOptions& opts,
                                  const std::string& target) {
  symexec::ExecOptions po;
  po.searcher = symexec::SearcherKind::kDFS;
  po.stop_at_first_fault = true;
  po.target_function = target;
  po.max_instructions = opts.pure_max_instructions;
  po.max_seconds = opts.pure_max_seconds;
  po.max_live_states = 100'000;
  po.max_memory_bytes = 256ull << 20;
  return po;
}

// Oracle (c): non-empty description when pure execution cannot reproduce the
// guided finding.
std::string check_soundness(const GeneratedProgram& prog,
                            const ir::Module& module,
                            const core::EngineResult& res,
                            const DiffOptions& opts) {
  if (!res.found) return {};
  const auto pr = core::run_pure_symbolic(
      module, prog.app.sym_spec, pure_options(opts, res.vuln->function));
  if (pr.termination != symexec::Termination::kFoundFault) {
    return "guided mode verified " + res.vuln->function +
           " but pure execution terminated " +
           std::string(symexec::termination_name(pr.termination));
  }
  return {};
}

// --- oracle (d): cross-engine equivalence ---------------------------------

struct EngineFinding {
  core::EngineKind kind{core::EngineKind::kGuided};
  bool found{false};
  std::string function;
  interp::FaultKind fault_kind{interp::FaultKind::kNone};
  interp::RuntimeInput witness;
  std::uint64_t concolic_runs{0};
};

std::vector<core::EngineKind> unique_engines(const DiffOptions& opts) {
  std::vector<core::EngineKind> out;
  for (core::EngineKind k : opts.engines) {
    if (std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
  }
  return out;
}

EngineFinding run_pure_engine(const GeneratedProgram& prog,
                              const ir::Module& module,
                              const DiffOptions& opts) {
  EngineFinding f;
  f.kind = core::EngineKind::kPure;
  const std::string target =
      prog.fault_planted ? prog.app.vuln_function : std::string();
  const auto pr = core::run_pure_symbolic(module, prog.app.sym_spec,
                                          pure_options(opts, target));
  if (pr.termination == symexec::Termination::kFoundFault &&
      pr.vuln.has_value()) {
    f.found = true;
    f.function = pr.vuln->function;
    f.fault_kind = pr.vuln->kind;
    f.witness = pr.vuln->input;
  }
  return f;
}

EngineFinding run_concolic_engine(const GeneratedProgram& prog,
                                  const ir::Module& module,
                                  const DiffOptions& opts) {
  EngineFinding f;
  f.kind = core::EngineKind::kConcolic;
  concolic::ConcolicOptions co;
  co.exec.max_instructions = opts.engine_max_instructions;
  co.exec.max_seconds = opts.engine_max_seconds;
  co.exec.max_live_states = 50'000;
  co.exec.max_memory_bytes = 128ull << 20;
  if (prog.fault_planted) co.exec.target_function = prog.app.vuln_function;
  co.seed = derive_seed(prog.seed, 0xc0c0u);
  concolic::ConcolicExecutor ex(module, prog.app.sym_spec, co);
  const concolic::ConcolicResult cr = ex.run();
  f.concolic_runs = cr.stats.runs;
  if (cr.vuln.has_value()) {
    f.found = true;
    f.function = cr.vuln->function;
    f.fault_kind = cr.vuln->kind;
    f.witness = cr.vuln->input;
  }
  return f;
}

// Test-only: sabotage the named engine's witness so the equivalence replay
// below must catch the disagreement (the empty payload never reaches the
// planted threshold, so every replay comes back clean).
void maybe_corrupt_witness(EngineFinding& f, const DiffOptions& opts) {
  if (!f.found || opts.inject_witness_corruption.empty()) return;
  if (opts.inject_witness_corruption != core::engine_kind_name(f.kind)) return;
  f.witness = payload_input(0);
}

// Replays one engine's witness through the other execution engines: the
// concrete interpreter, the fully-concretised symbolic executor, and the
// follow-mode (concolic) executor over the original symbolic spec. All three
// must fault in the same function with the same kind the engine claimed.
std::string confirm_witness(const ir::Module& module,
                            const symexec::SymInputSpec& spec,
                            const EngineFinding& f) {
  const std::string who = core::engine_kind_name(f.kind);
  auto claim = [&] {
    return std::string(interp::fault_kind_name(f.fault_kind)) + " in " +
           f.function;
  };

  interp::Interpreter it(module, f.witness);
  const interp::RunResult rr = it.run();
  if (rr.outcome != interp::RunOutcome::kFault) {
    return who + " witness for " + claim() +
           " does not fault in the interpreter";
  }
  if (rr.fault.function != f.function || rr.fault.kind != f.fault_kind) {
    return who + " witness claims " + claim() + " but the interpreter sees " +
           interp::fault_kind_name(rr.fault.kind) + " in " + rr.fault.function;
  }

  symexec::SymExecutor ce(module, concretize(f.witness),
                          concretized_exec_options());
  const symexec::ExecResult cres = ce.run();
  if (cres.termination != symexec::Termination::kFoundFault ||
      !cres.vuln.has_value() || cres.vuln->function != f.function ||
      cres.vuln->kind != f.fault_kind) {
    return who + " witness for " + claim() +
           " not confirmed by the concretised symbolic executor (" +
           symexec::termination_name(cres.termination) + ")";
  }

  symexec::SymExecutor fe(module, spec, concretized_exec_options());
  fe.set_follow_input(f.witness);
  const symexec::ExecResult fres = fe.run();
  if (fres.termination != symexec::Termination::kFoundFault ||
      !fres.vuln.has_value() || fres.vuln->function != f.function ||
      fres.vuln->kind != f.fault_kind) {
    return who + " witness for " + claim() +
           " not confirmed by follow-mode execution (" +
           symexec::termination_name(fres.termination) + ")";
  }
  return {};
}

// Oracle (d). Non-empty description on the first engine disagreement. `diag`
// (when non-null) receives per-engine diagnostics even when the oracle
// passes; the shrink predicate passes null.
std::string check_cross_engine(const GeneratedProgram& prog,
                               const ir::Module& module,
                               const core::EngineResult& pipeline_result,
                               const DiffOptions& opts,
                               ProgramVerdict* diag) {
  const std::vector<core::EngineKind> kinds = unique_engines(opts);
  if (kinds.size() == 1 && kinds[0] == core::EngineKind::kGuided) return {};

  std::vector<EngineFinding> findings;
  for (core::EngineKind k : kinds) {
    EngineFinding f;
    switch (k) {
      case core::EngineKind::kGuided:
        f.kind = k;
        if (pipeline_result.found && pipeline_result.vuln.has_value()) {
          f.found = true;
          f.function = pipeline_result.vuln->function;
          f.fault_kind = pipeline_result.vuln->kind;
          f.witness = pipeline_result.vuln->input;
        }
        break;
      case core::EngineKind::kPure:
        f = run_pure_engine(prog, module, opts);
        break;
      case core::EngineKind::kConcolic:
        f = run_concolic_engine(prog, module, opts);
        break;
    }
    if (diag != nullptr) {
      if (k == core::EngineKind::kPure) diag->pure_found = f.found;
      if (k == core::EngineKind::kConcolic) {
        diag->concolic_found = f.found;
        diag->concolic_runs = f.concolic_runs;
      }
    }
    maybe_corrupt_witness(f, opts);
    findings.push_back(std::move(f));
  }

  // Detection agreement: on planted programs every engine must find the
  // planted fault; on benign ones none may find anything.
  for (const EngineFinding& f : findings) {
    const std::string who = core::engine_kind_name(f.kind);
    if (prog.fault_planted && !f.found) {
      return who + " engine missed the planted fault in " +
             prog.app.vuln_function;
    }
    if (!prog.fault_planted && f.found) {
      return who + " engine reported a fault in a benign program (" +
             f.function + ")";
    }
    if (f.found && f.function != prog.app.vuln_function) {
      return who + " engine found " + f.function + " instead of planted " +
             prog.app.vuln_function;
    }
  }

  // Witness equivalence: every witness must replay identically everywhere.
  for (const EngineFinding& f : findings) {
    if (!f.found) continue;
    const std::string err = confirm_witness(module, prog.app.sym_spec, f);
    if (!err.empty()) return err;
  }
  return {};
}

// --- oracle (e): static-facts soundness -----------------------------------

// The concrete fault a definite-bug finding predicts (kUseBeforeDef is a
// data-flow diagnostic, not a fault prediction, and is never mapped).
interp::FaultKind finding_fault(analysis::FindingKind k) {
  switch (k) {
    case analysis::FindingKind::kOobLoad: return interp::FaultKind::kOobLoad;
    case analysis::FindingKind::kOobStore: return interp::FaultKind::kOobStore;
    case analysis::FindingKind::kDivByZero:
      return interp::FaultKind::kDivByZero;
    case analysis::FindingKind::kAssertFail:
      return interp::FaultKind::kAssertFail;
    case analysis::FindingKind::kUseBeforeDef: break;
  }
  return interp::FaultKind::kNone;
}

// Listener that checks every concrete control-flow event against the static
// facts: entering a provably-unreachable block or taking a branch against a
// statically-decided direction falsifies the analysis. Records the first
// violation only.
class FactsObserver : public interp::InterpListener {
 public:
  FactsObserver(const ir::Module& m, const analysis::ProgramFacts& facts)
      : m_(m), facts_(facts) {}

  void on_enter(const interp::Interpreter&, const ir::Function&,
                std::span<const interp::Value>) override {}
  void on_leave(const interp::Interpreter&, const ir::Function&,
                std::span<const interp::Value>,
                const std::optional<interp::Value>&) override {}

  void on_block(const interp::Interpreter&, const ir::Function& fn,
                ir::BlockId block) override {
    if (!violation_.empty()) return;
    const ir::FuncId f = id_of(fn);
    if (!facts_.block_reachable(f, block)) {
      violation_ = fn.name + "() block " + std::to_string(block) +
                   " executed but statically unreachable";
    }
  }

  void on_branch(const interp::Interpreter&, const ir::Function& fn,
                 ir::BlockId block, bool taken) override {
    if (!violation_.empty()) return;
    const ir::FuncId f = id_of(fn);
    const analysis::BranchFact bf = facts_.branch(f, block);
    if ((bf == analysis::BranchFact::kAlwaysTrue && !taken) ||
        (bf == analysis::BranchFact::kAlwaysFalse && taken)) {
      violation_ = fn.name + "() block " + std::to_string(block) +
                   " branch went " + (taken ? "true" : "false") +
                   " against the statically-decided direction";
    }
  }

  const std::string& violation() const { return violation_; }

 private:
  // Listener callbacks pass elements of m_.functions(): the id is the offset.
  ir::FuncId id_of(const ir::Function& fn) const {
    return static_cast<ir::FuncId>(&fn - m_.functions().data());
  }

  const ir::Module& m_;
  const analysis::ProgramFacts& facts_;
  std::string violation_;
};

// Oracle (e), runtime half: the facts may not be contradicted by any of the
// concrete runs, and a program whose faults are all input-conditional (the
// generator's invariant for non-definite programs) may carry no definite-bug
// finding. Non-empty description on violation.
std::string check_static_facts(const GeneratedProgram& prog,
                               const ir::Module& module,
                               const std::vector<interp::RuntimeInput>& inputs) {
  const analysis::ProgramFacts facts = analysis::analyze(module);

  for (const auto& f : facts.findings()) {
    if (f.kind == analysis::FindingKind::kUseBeforeDef) continue;
    if (!prog.definite_bug) {
      return "definite finding in a program whose faults are all "
             "input-conditional: " +
             analysis::format_finding(module, f);
    }
  }

  const interp::Program code(module);
  for (const auto& input : inputs) {
    FactsObserver obs(module, facts);
    interp::Interpreter it(code, input);
    it.set_listener(&obs);
    it.run();
    if (!obs.violation().empty()) {
      const std::int64_t len =
          input.argv.size() > 1
              ? static_cast<std::int64_t>(input.argv[1].size())
              : -1;
      return "len=" + std::to_string(len) + ": " + obs.violation();
    }
  }
  return {};
}

// Oracle (e), lint half, run on the seed's force_definite_bug sibling: the
// analysis must prove the planted unconditional bug (so `statsym lint`
// reports it) and the finding must replay concretely — fault kind and
// function must match the finding, on an input that reaches the sink.
std::string check_lint_ground_truth(const GeneratedProgram& variant) {
  const ir::Module& module = variant.app.module;
  const analysis::ProgramFacts facts = analysis::analyze(module);

  const analysis::Finding* planted = nullptr;
  for (const auto& f : facts.findings()) {
    if (f.kind == analysis::FindingKind::kUseBeforeDef) continue;
    if (module.function(f.func).name == variant.app.vuln_function &&
        finding_fault(f.kind) == variant.app.vuln_kind) {
      planted = &f;
      break;
    }
  }
  if (planted == nullptr) {
    return "lint missed the planted definite " +
           std::string(interp::fault_kind_name(variant.app.vuln_kind)) +
           " in " + variant.app.vuln_function + " (" +
           std::to_string(facts.findings().size()) + " findings)";
  }

  // Any input reaches the sink (stages fall through unconditionally), so
  // the definite finding must replay on a minimal payload.
  interp::Interpreter it(module, payload_input(1));
  const interp::RunResult rr = it.run();
  if (rr.outcome != interp::RunOutcome::kFault ||
      rr.fault.function != variant.app.vuln_function ||
      rr.fault.kind != variant.app.vuln_kind) {
    return "lint finding '" + analysis::format_finding(module, *planted) +
           "' does not replay: interpreter " +
           (rr.outcome == interp::RunOutcome::kFault
                ? std::string(interp::fault_kind_name(rr.fault.kind)) +
                      " in " + rr.fault.function
                : std::string("clean"));
  }
  return {};
}

// Oracle (e), pipeline half: re-runs the full pipeline with the static
// analysis disabled; the verdict — found, fault identity, winning candidate,
// explored paths — must be identical. Pruning skips work, never answers.
std::string check_pipeline_equivalence(const GeneratedProgram& prog,
                                       const ir::Module& module,
                                       const core::EngineResult& on,
                                       const DiffOptions& opts) {
  core::EngineOptions eo = engine_options(prog, opts);
  eo.static_analysis = false;
  core::StatSymEngine engine(module, prog.app.sym_spec, eo);
  engine.collect_logs(prog.app.workload);
  const core::EngineResult off = engine.run();

  if (off.found != on.found) {
    return std::string("pipeline verdict flips with analysis off: on=") +
           (on.found ? "found" : "not-found") +
           " off=" + (off.found ? "found" : "not-found");
  }
  if (on.found && (off.vuln->function != on.vuln->function ||
                   off.vuln->kind != on.vuln->kind)) {
    return "pipeline fault identity changes with analysis off: on=" +
           on.vuln->function + "/" + interp::fault_kind_name(on.vuln->kind) +
           " off=" + off.vuln->function + "/" +
           interp::fault_kind_name(off.vuln->kind);
  }
  if (off.winning_candidate != on.winning_candidate) {
    return "winning candidate changes with analysis off: on=#" +
           std::to_string(on.winning_candidate) + " off=#" +
           std::to_string(off.winning_candidate);
  }
  if (off.paths_explored != on.paths_explored) {
    return "explored paths change with analysis off: on=" +
           std::to_string(on.paths_explored) +
           " off=" + std::to_string(off.paths_explored);
  }
  return {};
}

// --- shrinking ------------------------------------------------------------

std::size_t total_instrs(const ir::Module& m) {
  std::size_t n = 0;
  for (const auto& fn : m.functions()) n += fn.instr_count();
  return n;
}

using FailurePred = std::function<bool(const ir::Module&)>;

// Greedy delta debugging over whole functions, then blocks: a rewrite is
// kept when the module stays verifier-clean, strictly shrinks, and the
// original failure still reproduces. Strict shrinkage bounds the loop.
ir::Module shrink_module(ir::Module m, const FailurePred& still_fails,
                         std::size_t max_checks) {
  std::size_t checks = 0;
  auto try_adopt = [&](const ir::Module& candidate) {
    if (checks >= max_checks) return false;
    if (total_instrs(candidate) >= total_instrs(m)) return false;
    if (!ir::verify(candidate).empty()) return false;
    ++checks;
    if (!still_fails(candidate)) return false;
    m = candidate;
    return true;
  };

  bool changed = true;
  while (changed && checks < max_checks) {
    changed = false;
    // Pass 1: drop whole functions (largest cuts first by scanning all ids;
    // ids shift after every adoption, so restart the scan).
    for (ir::FuncId id = 0;
         id < static_cast<ir::FuncId>(m.functions().size());) {
      if (id == m.entry() || !try_adopt(ir::drop_function(m, id))) {
        ++id;
      } else {
        changed = true;
        id = 0;
      }
    }
    // Pass 2: stub surviving blocks down to `return 0`.
    for (ir::FuncId f = 0; f < static_cast<ir::FuncId>(m.functions().size());
         ++f) {
      const auto nblocks =
          static_cast<ir::BlockId>(m.function(f).blocks.size());
      for (ir::BlockId b = 0; b < nblocks; ++b) {
        if (try_adopt(ir::stub_block(m, f, b))) changed = true;
      }
    }
  }
  return m;
}

std::string write_repro(const GeneratedProgram& prog, const ir::Module& shrunk,
                        Oracle oracle, const std::string& detail,
                        const DiffOptions& opts) {
  if (opts.repro_dir.empty()) return {};
  std::error_code ec;
  fs::create_directories(opts.repro_dir, ec);
  const std::string file = opts.repro_dir + "/fuzz-" +
                           std::to_string(prog.seed) + "-" +
                           oracle_name(oracle) + ".repro.txt";
  std::ofstream os(file);
  if (!os) return {};
  os << "# statsym_fuzz reproducer\n"
     << "# oracle: " << oracle_name(oracle) << "\n"
     << "# detail: " << detail << "\n"
     << "# replay: statsym_fuzz show --program-seed " << prog.seed << "\n"
     << "seed " << prog.seed << "\n"
     << "threshold " << prog.threshold << "\n"
     << "capacity " << prog.capacity << "\n"
     << "fault_planted " << (prog.fault_planted ? 1 : 0) << "\n"
     << "# minimised module (" << total_instrs(shrunk) << " instrs):\n"
     << ir::to_string(shrunk);
  return file;
}

void fail_program(ProgramVerdict& v, const GeneratedProgram& prog,
                  Oracle oracle, const std::string& detail,
                  const FailurePred& still_fails, const DiffOptions& opts) {
  v.failed = oracle;
  v.detail = detail;
  ir::Module shrunk =
      opts.shrink
          ? shrink_module(prog.app.module, still_fails, opts.max_shrink_checks)
          : prog.app.module;
  v.repro_file = write_repro(prog, shrunk, oracle, detail, opts);
}

}  // namespace

ProgramVerdict run_program_seed(std::size_t index, std::uint64_t program_seed,
                                const DiffOptions& opts) {
  ProgramVerdict v;
  v.index = index;
  v.seed = program_seed;
  const GeneratedProgram prog = generate_program(program_seed, opts.gen);
  v.fault_planted = prog.fault_planted;

  // --- oracle (a): differential agreement + ground-truth labelling --------
  std::vector<interp::RuntimeInput> inputs;
  Rng rng(derive_seed(program_seed, 0xd1ffu));
  for (std::size_t i = 0; i < opts.diff_inputs; ++i) {
    Rng input_rng = rng.split();
    inputs.push_back(prog.app.workload(input_rng));
  }
  // Boundary pair around the planted threshold (or the capacity edge).
  if (prog.fault_planted) {
    inputs.push_back(payload_input(prog.threshold - 1));
    inputs.push_back(payload_input(prog.threshold));
  } else {
    inputs.push_back(payload_input(prog.capacity - 1));
  }
  const interp::Program code(prog.app.module);
  for (const auto& input : inputs) {
    std::string err = check_ground_truth(prog, code, input);
    if (err.empty()) err = compare_engines(code, input);
    if (!err.empty()) {
      // The failure is tied to this concrete input: a shrunk module must
      // keep misbehaving on it.
      auto still_fails = [&prog, &input](const ir::Module& m) {
        GeneratedProgram p = prog;  // same ground truth, rewritten module
        p.app.module = m;
        const interp::Program shrunk(p.app.module);
        return !check_ground_truth(p, shrunk, input).empty() ||
               !compare_engines(shrunk, input).empty();
      };
      fail_program(v, prog, Oracle::kDifferential, err, still_fails, opts);
      return v;
    }
  }

  // --- oracle (e), concrete half: facts vs runtime + lint ground truth ----
  if (opts.check_static_facts) {
    std::string err = check_static_facts(prog, prog.app.module, inputs);
    if (!err.empty()) {
      auto still_fails = [&prog, &inputs](const ir::Module& m) {
        return !check_static_facts(prog, m, inputs).empty();
      };
      fail_program(v, prog, Oracle::kStaticFacts, err, still_fails, opts);
      return v;
    }
    GenOptions dgen = opts.gen;
    dgen.force_definite_bug = true;
    const GeneratedProgram variant = generate_program(program_seed, dgen);
    err = check_lint_ground_truth(variant);
    if (!err.empty()) {
      auto still_fails = [&variant](const ir::Module& m) {
        GeneratedProgram p = variant;
        p.app.module = m;
        return !check_lint_ground_truth(p).empty();
      };
      fail_program(v, variant, Oracle::kStaticFacts, err, still_fails, opts);
      return v;
    }
  }

  if (!opts.check_pipeline) return v;

  // --- oracle (b): the pipeline must verify exactly the planted fault -----
  const PipelineOutcome pipe = run_pipeline(prog, prog.app.module, opts);
  v.num_candidates = pipe.result.construction.candidates.size();
  v.winning_candidate = pipe.result.winning_candidate;
  v.pipeline_found = pipe.result.found;
  v.guided_paths = pipe.result.paths_explored;
  if (!pipe.failure.empty()) {
    auto still_fails = [&prog, &opts](const ir::Module& m) {
      if (prog.fault_planted) {
        // Keep only shrinks that preserve the fault itself — a module that
        // simply lost the bug would "miss" trivially.
        interp::Interpreter it(m, payload_input(prog.threshold));
        if (it.run().outcome != interp::RunOutcome::kFault) return false;
      }
      return !run_pipeline(prog, m, opts).failure.empty();
    };
    fail_program(v, prog, Oracle::kPipeline, pipe.failure, still_fails, opts);
    return v;
  }

  // --- oracle (e), pipeline half: identical verdict with analysis off -----
  if (opts.check_static_facts) {
    const std::string err =
        check_pipeline_equivalence(prog, prog.app.module, pipe.result, opts);
    if (!err.empty()) {
      auto still_fails = [&prog, &opts](const ir::Module& m) {
        const PipelineOutcome p = run_pipeline(prog, m, opts);
        return !check_pipeline_equivalence(prog, m, p.result, opts).empty();
      };
      fail_program(v, prog, Oracle::kStaticFacts, err, still_fails, opts);
      return v;
    }
  }

  // --- oracle (c): guided findings must be pure-reachable -----------------
  if (opts.check_soundness) {
    const std::string err =
        check_soundness(prog, prog.app.module, pipe.result, opts);
    if (!err.empty()) {
      auto still_fails = [&prog, &opts](const ir::Module& m) {
        const PipelineOutcome p = run_pipeline(prog, m, opts);
        if (!p.failure.empty() || !p.result.found) return false;
        return !check_soundness(prog, m, p.result, opts).empty();
      };
      fail_program(v, prog, Oracle::kGuidedSoundness, err, still_fails, opts);
      return v;
    }
    v.pure_paths = 0;  // pure run only executes on suspected unsoundness
  }

  // --- oracle (d): every engine must agree, every witness must replay -----
  if (opts.check_cross_engine) {
    const std::string err =
        check_cross_engine(prog, prog.app.module, pipe.result, opts, &v);
    if (!err.empty()) {
      auto still_fails = [&prog, &opts](const ir::Module& m) {
        if (prog.fault_planted) {
          // Keep only shrinks that preserve the planted fault itself.
          interp::Interpreter it(m, payload_input(prog.threshold));
          if (it.run().outcome != interp::RunOutcome::kFault) return false;
        }
        const PipelineOutcome p = run_pipeline(prog, m, opts);
        if (!p.failure.empty()) return false;
        return !check_cross_engine(prog, m, p.result, opts, nullptr).empty();
      };
      fail_program(v, prog, Oracle::kCrossEngine, err, still_fails, opts);
      return v;
    }
  }
  return v;
}

ProgramVerdict run_program(std::size_t index, const DiffOptions& opts) {
  return run_program_seed(index, derive_seed(opts.seed, index), opts);
}

CampaignResult run_campaign(const DiffOptions& opts) {
  CampaignResult cr;
  cr.programs.resize(opts.num_programs);
  const std::size_t jobs = effective_threads(opts.jobs);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < opts.num_programs; ++i) {
      cr.programs[i] = run_program(i, opts);
    }
  } else {
    ThreadPool pool(jobs);
    pool.parallel_for(opts.num_programs, [&](std::size_t i) {
      cr.programs[i] = run_program(i, opts);
    });
  }
  for (const auto& v : cr.programs) {
    if (v.fault_planted) {
      ++cr.planted;
      if (v.pipeline_found && v.failed != Oracle::kPipeline) {
        ++cr.pipeline_verified;
      }
      if (v.concolic_found) ++cr.concolic_verified;
    }
    switch (v.failed) {
      case Oracle::kNone: break;
      case Oracle::kDifferential: ++cr.divergences; break;
      case Oracle::kPipeline: ++cr.pipeline_misses; break;
      case Oracle::kGuidedSoundness: ++cr.soundness_failures; break;
      case Oracle::kCrossEngine: ++cr.cross_engine_failures; break;
      case Oracle::kStaticFacts: ++cr.static_facts_failures; break;
    }
  }
  return cr;
}

std::string format_verdict(const ProgramVerdict& v) {
  std::ostringstream os;
  os << "#" << v.index << " seed=" << v.seed
     << (v.fault_planted ? " planted" : " benign");
  if (v.ok()) {
    os << " ok";
    if (v.fault_planted) {
      os << " candidates=" << v.num_candidates
         << " winner=" << v.winning_candidate << " paths=" << v.guided_paths;
      if (v.concolic_runs != 0) os << " concolic_runs=" << v.concolic_runs;
    }
  } else {
    os << " FAIL[" << oracle_name(v.failed) << "] " << v.detail;
    if (!v.repro_file.empty()) os << " repro=" << v.repro_file;
  }
  return os.str();
}

// --- corpus ---------------------------------------------------------------

std::string format_corpus(const CorpusEntry& e) {
  std::ostringstream os;
  os << "# statsym_fuzz corpus entry — replay via tests/fuzz_regression_test\n"
     << "name " << e.name << "\n"
     << "seed " << e.seed << "\n"
     << "min_chain " << e.gen.min_chain << "\n"
     << "max_chain " << e.gen.max_chain << "\n"
     << "min_leaves " << e.gen.min_leaves << "\n"
     << "max_leaves " << e.gen.max_leaves << "\n"
     << "max_segments " << e.gen.max_segments << "\n"
     << "num_int_globals " << e.gen.num_int_globals << "\n"
     << "fault_probability " << fmt_double(e.gen.fault_probability, 4) << "\n"
     << "assert_fault_probability "
     << fmt_double(e.gen.assert_fault_probability, 4) << "\n"
     << "min_threshold " << e.gen.min_threshold << "\n"
     << "max_threshold " << e.gen.max_threshold << "\n"
     << "capacity_slack " << e.gen.capacity_slack << "\n"
     << "allow_loops " << (e.gen.allow_loops ? 1 : 0) << "\n"
     << "allow_memory_ops " << (e.gen.allow_memory_ops ? 1 : 0) << "\n"
     << "expect_fault " << (e.expect_fault ? 1 : 0) << "\n"
     << "expect_kind " << e.expect_kind << "\n"
     << "min_candidates " << e.min_candidates << "\n";
  if (!e.note.empty()) os << "note " << e.note << "\n";
  return os.str();
}

bool parse_corpus(const std::string& text, CorpusEntry& out) {
  std::istringstream is(text);
  std::string line;
  bool have_seed = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) return false;
    const std::string key = line.substr(0, sp);
    const std::string val = line.substr(sp + 1);
    // Strict values (support/strings.h): no sign on unsigned fields, no
    // surrounding whitespace, no trailing junk; booleans are 0 or 1.
    auto as_bool = [&](bool& b) {
      if (val != "0" && val != "1") return false;
      b = val == "1";
      return true;
    };
    bool ok = true;
    if (key == "name") out.name = val;
    else if (key == "seed") ok = have_seed = parse_u64(val, out.seed);
    else if (key == "min_chain") ok = parse_count(val, out.gen.min_chain);
    else if (key == "max_chain") ok = parse_count(val, out.gen.max_chain);
    else if (key == "min_leaves") ok = parse_count(val, out.gen.min_leaves);
    else if (key == "max_leaves") ok = parse_count(val, out.gen.max_leaves);
    else if (key == "max_segments") ok = parse_count(val, out.gen.max_segments);
    else if (key == "num_int_globals")
      ok = parse_count(val, out.gen.num_int_globals);
    else if (key == "fault_probability")
      ok = parse_double(val, out.gen.fault_probability);
    else if (key == "assert_fault_probability")
      ok = parse_double(val, out.gen.assert_fault_probability);
    else if (key == "min_threshold") ok = parse_i64(val, out.gen.min_threshold);
    else if (key == "max_threshold") ok = parse_i64(val, out.gen.max_threshold);
    else if (key == "capacity_slack")
      ok = parse_i64(val, out.gen.capacity_slack);
    else if (key == "allow_loops") ok = as_bool(out.gen.allow_loops);
    else if (key == "allow_memory_ops") ok = as_bool(out.gen.allow_memory_ops);
    else if (key == "expect_fault") ok = as_bool(out.expect_fault);
    else if (key == "expect_kind") out.expect_kind = val;
    else if (key == "min_candidates") ok = parse_count(val, out.min_candidates);
    else if (key == "note") out.note = val;
    else return false;  // unknown key: refuse rather than silently drift
    if (!ok) return false;
  }
  return have_seed;
}

}  // namespace statsym::fuzz
