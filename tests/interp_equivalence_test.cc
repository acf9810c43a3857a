// Equivalence contract of the concrete interpreter: every observable of a
// run — outcome, fault kind/function/block/instr/detail, step count, main's
// return value, the monitored log, and the listener's control-flow event
// stream — is pinned by digests recorded before the interpreter was
// rewritten around a pre-decoded program, plus explicit expectations for
// every fault detail string and stop condition.
//
// The digests fold ≥300 generated fuzz programs × 200 workload inputs and
// the five paper apps; any change in semantics, step accounting or fault
// attribution shows up as a digest mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "fuzz/program_gen.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "monitor/monitor.h"
#include "monitor/serialize.h"
#include "support/rng.h"

namespace statsym::interp {
namespace {

using ir::BinOp;
using ir::ModuleBuilder;
using ir::Reg;

// FNV-1a over a stream of strings.
struct Digest {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
};

std::string render(const Value& v) {
  return std::string(v.is_int() ? "i" : "r") + std::to_string(v.i) + "/" +
         std::to_string(v.obj) + "/" + std::to_string(v.off);
}

std::string render(const RunResult& r) {
  std::string s = "o" + std::to_string(static_cast<int>(r.outcome)) + " k" +
                  fault_kind_name(r.fault.kind) + " fn=" + r.fault.function +
                  " b" + std::to_string(r.fault.block) + " i" +
                  std::to_string(r.fault.instr) + " d=" + r.fault.detail +
                  " s" + std::to_string(r.steps) + " ret=";
  s += r.main_ret.has_value() ? render(*r.main_ret) : "-";
  return s;
}

// Records every listener callback, in order.
class EventRecorder : public InterpListener {
 public:
  std::vector<std::string> events;
  void on_enter(const Interpreter&, const ir::Function& fn,
                std::span<const Value> params) override {
    std::string e = "enter " + fn.name;
    for (const Value& p : params) e += " " + render(p);
    events.push_back(std::move(e));
  }
  void on_leave(const Interpreter&, const ir::Function& fn,
                std::span<const Value> params,
                const std::optional<Value>& ret) override {
    std::string e = "leave " + fn.name;
    for (const Value& p : params) e += " " + render(p);
    e += " -> " + (ret.has_value() ? render(*ret) : std::string("-"));
    events.push_back(std::move(e));
  }
  void on_block(const Interpreter&, const ir::Function& fn,
                ir::BlockId block) override {
    events.push_back("block " + fn.name + " " + std::to_string(block));
  }
  void on_branch(const Interpreter&, const ir::Function& fn,
                 ir::BlockId block, bool taken) override {
    events.push_back("branch " + fn.name + " " + std::to_string(block) +
                     (taken ? " T" : " F"));
  }
};

// The per-input interpreter options of the digest sweep: mostly defaults,
// with a tight step budget or call-depth cap on some inputs so those stop
// conditions are exercised on real programs too.
InterpOptions sweep_options(std::size_t i) {
  InterpOptions o;
  if (i % 7 == 3) o.max_steps = 400 + static_cast<std::int64_t>(i);
  if (i % 11 == 5) o.max_call_depth = 3;
  return o;
}

// Outcome name for coverage accounting: the fault kind, or ok/step-limit.
std::string outcome_name(const RunResult& r) {
  switch (r.outcome) {
    case RunOutcome::kOk: return "ok";
    case RunOutcome::kStepLimit: return "step-limit";
    case RunOutcome::kFault: return fault_kind_name(r.fault.kind);
  }
  return "?";
}

// Plain run + monitored run of one input, folded into `d`; the plain run's
// outcome is counted in `outcomes`.
void digest_input(Digest& d, std::map<std::string, int>& outcomes,
                  const ir::Module& m, const RuntimeInput& input,
                  std::size_t i, std::uint64_t sample_seed) {
  const InterpOptions o = sweep_options(i);
  Interpreter it(m, input, o);
  const RunResult plain = it.run();
  ++outcomes[outcome_name(plain)];
  d.add(render(plain));
  // The monitor runs with default interpreter options; its sampling stream
  // is seeded per input.
  const auto mon = monitor::run_monitored(m, input, {.sampling_rate = 0.5},
                                          Rng(sample_seed), 0);
  d.add(render(mon.result));
  d.add(std::to_string(mon.log.records_considered));
  d.add(monitor::serialize(mon.log));
  if (o.max_steps == InterpOptions{}.max_steps &&
      o.max_call_depth == InterpOptions{}.max_call_depth) {
    EXPECT_EQ(render(plain), render(mon.result)) << "monitoring changed a run";
  }
}

fuzz::GenOptions sweep_gen_options(std::uint64_t seed) {
  fuzz::GenOptions g;
  // Every fifth program carries an unconditional definite bug (division by
  // zero, assert(0), constant-index OOB store) instead of the planted one.
  if (seed % 5 == 4) g.force_definite_bug = true;
  return g;
}

constexpr std::uint64_t kFuzzPrograms = 300;
constexpr std::size_t kInputsPerProgram = 200;
constexpr std::size_t kInputsPerApp = 300;

TEST(InterpDigest, FuzzCorpus) {
  Digest d;
  std::map<std::string, int> outcomes;
  for (std::uint64_t seed = 0; seed < kFuzzPrograms; ++seed) {
    const auto prog = fuzz::generate_program(seed, sweep_gen_options(seed));
    for (std::size_t i = 0; i < kInputsPerProgram; ++i) {
      Rng r(derive_seed(seed, i));
      const RuntimeInput input = prog.app.workload(r);
      digest_input(d, outcomes, prog.app.module, input, i,
                   derive_seed(seed, 1000 + i));
    }
  }
  EXPECT_EQ(d.h, 17123328714372774864ULL);
  // The sweep must actually reach every stop condition the digest pins.
  for (const char* kind : {"oob-store", "assert-fail", "div-by-zero",
                           "stack-overflow", "step-limit", "ok"}) {
    EXPECT_GT(outcomes[kind], 0) << kind;
  }
}

TEST(InterpDigest, PaperApps) {
  const std::map<std::string, std::uint64_t> kPaperAppDigests{
      {"fig2", 1211854082492468829ULL},
      {"polymorph", 2808068372373613554ULL},
      {"ctree", 2236637798575798653ULL},
      {"grep", 13944092165106116295ULL},
      {"thttpd", 575625391528784705ULL},
  };
  std::map<std::string, int> outcomes;
  for (const std::string name :
       {"fig2", "polymorph", "ctree", "grep", "thttpd"}) {
    const apps::AppSpec app = apps::make_app(name);
    Digest d;
    for (std::size_t i = 0; i < kInputsPerApp; ++i) {
      Rng r(derive_seed(7, i));
      const RuntimeInput input = app.workload(r);
      digest_input(d, outcomes, app.module, input, i, derive_seed(8, i));
    }
    EXPECT_EQ(d.h, kPaperAppDigests.at(name)) << name;
  }
  EXPECT_GT(outcomes["ok"], 0);
  EXPECT_GT(outcomes["oob-store"], 0);
  EXPECT_GT(outcomes["assert-fail"], 0);
}

TEST(InterpDigest, ListenerEventStream) {
  Digest d;
  auto fold = [&](const ir::Module& m, const RuntimeInput& input) {
    Interpreter it(m, input);
    EventRecorder rec;
    it.set_listener(&rec);
    d.add(render(it.run()));
    for (const std::string& e : rec.events) d.add(e);
  };
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const auto prog = fuzz::generate_program(seed, sweep_gen_options(seed));
    for (std::size_t i = 0; i < 20; ++i) {
      Rng r(derive_seed(seed, i));
      fold(prog.app.module, prog.app.workload(r));
    }
  }
  for (const std::string name :
       {"fig2", "polymorph", "ctree", "grep", "thttpd"}) {
    const apps::AppSpec app = apps::make_app(name);
    for (std::size_t i = 0; i < 10; ++i) {
      Rng r(derive_seed(9, i));
      fold(app.module, app.workload(r));
    }
  }
  EXPECT_EQ(d.h, 129293803752467930ULL);
}

// --- explicit fault details ------------------------------------------------

RunResult run(const ir::Module& m, RuntimeInput in = {},
              InterpOptions opts = {}) {
  Interpreter it(m, std::move(in), opts);
  return it.run();
}

void expect_fault(const RunResult& r, FaultKind kind, const std::string& fn,
                  ir::BlockId block, std::int32_t instr,
                  const std::string& detail) {
  ASSERT_EQ(r.outcome, RunOutcome::kFault) << render(r);
  EXPECT_EQ(r.fault.kind, kind) << render(r);
  EXPECT_EQ(r.fault.function, fn);
  EXPECT_EQ(r.fault.block, block);
  EXPECT_EQ(r.fault.instr, instr);
  EXPECT_EQ(r.fault.detail, detail);
  EXPECT_FALSE(r.main_ret.has_value());
}

TEST(FaultDetail, AllocaLabelNamesTheFunction) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("victim", {});
    const Reg b = f.alloca_buf(4);   // instr 0
    const Reg i = f.ci(6);           // 1
    const Reg v = f.ci(1);           // 2
    f.store(b, i, v);                // 3
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("victim", {});
    f.ret(f.ci(0));
  }
  const auto r = run(mb.build());
  expect_fault(r, FaultKind::kOobStore, "victim", 0, 3, "victim:alloca[6]");
  EXPECT_EQ(r.steps, 5);
}

TEST(FaultDetail, GlobalBufferLabelIsTheGlobalName) {
  ModuleBuilder mb("t");
  mb.global_int("counter", 3);
  mb.global_buf("gbuf", 8);
  auto f = mb.func("main", {});
  const Reg b = f.load_global("gbuf");
  const Reg c = f.load_global("counter");
  f.ret(f.load(b, f.addi(c, 5)));
  const auto r = run(mb.build());
  expect_fault(r, FaultKind::kOobLoad, "main", 0, 4, "gbuf[8]");
}

TEST(FaultDetail, ArgvLabelCarriesTheIndex) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg a = f.arg(f.ci(1));
  f.store(a, f.ci(3), f.ci(65));
  f.ret(f.ci(0));
  RuntimeInput in;
  in.argv = {"prog", "ab"};
  const auto r = run(mb.build(), in);
  expect_fault(r, FaultKind::kOobStore, "main", 0, 4, "argv1[3]");
}

TEST(FaultDetail, StrConstLabel) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg s = f.str_const("hello");
  f.ret(f.load(s, f.ci(-1)));
  const auto r = run(mb.build());
  expect_fault(r, FaultKind::kOobLoad, "main", 0, 2, "strconst[-1]");
}

TEST(FaultDetail, EnvLabelCarriesTheVariableName) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg e = f.env("HOME");
  f.store(e, f.ci(20), f.ci(0));
  f.ret(f.ci(0));
  RuntimeInput in;
  in.env["HOME"] = "/root";
  const auto r = run(mb.build(), in);
  expect_fault(r, FaultKind::kOobStore, "main", 0, 3, "env:HOME[20]");
}

TEST(FaultDetail, RefOffsetsAddToTheIndex) {
  // A ref passed through a parameter keeps its object label.
  ModuleBuilder mb("t");
  {
    auto f = mb.func("reader", {"buf", "n"});
    f.ret(f.load(f.param(0), f.param(1)));
  }
  {
    auto f = mb.func("main", {});
    const Reg b = f.alloca_buf(3);
    f.ret(f.call("reader", {b, f.ci(3)}));
  }
  const auto r = run(mb.build());
  expect_fault(r, FaultKind::kOobLoad, "reader", 0, 0, "main:alloca[3]");
}

TEST(FaultDetail, NullAndIntDereferences) {
  struct Case {
    const char* detail;
    std::int32_t instr;
    void (*emit)(ir::FunctionBuilder&);
  };
  const Case cases[] = {
      {"load through null/int", 2,
       [](ir::FunctionBuilder& f) { f.ret(f.load(f.ci(0), f.ci(0))); }},
      {"store through null/int", 3,
       [](ir::FunctionBuilder& f) {
         f.store(f.env("UNSET"), f.ci(0), f.ci(0));
         f.ret(f.ci(0));
       }},
      {"bufsize of null/int", 1,
       [](ir::FunctionBuilder& f) { f.ret(f.buf_size(f.ci(7))); }},
      {"arithmetic on reference", 2,
       [](ir::FunctionBuilder& f) {
         f.ret(f.add(f.alloca_buf(2), f.ci(1)));
       }},
      {"negate reference", 1,
       [](ir::FunctionBuilder& f) { f.ret(f.neg(f.str_const("x"))); }},
      {"make_symbolic on null/int", 1,
       [](ir::FunctionBuilder& f) {
         f.make_sym_buf(f.ci(0), "b");
         f.ret(f.ci(0));
       }},
  };
  for (const Case& c : cases) {
    ModuleBuilder mb("t");
    auto f = mb.func("main", {});
    c.emit(f);
    expect_fault(run(mb.build()), FaultKind::kNullDeref, "main", 0, c.instr,
                 c.detail);
  }
}

TEST(FaultDetail, DivisionRemainderAssertAndArgIndex) {
  {
    ModuleBuilder mb("t");
    auto f = mb.func("main", {});
    f.ret(f.bin(BinOp::kDiv, f.ci(4), f.ci(0)));
    expect_fault(run(mb.build()), FaultKind::kDivByZero, "main", 0, 2, "");
  }
  {
    ModuleBuilder mb("t");
    auto f = mb.func("main", {});
    f.ret(f.bin(BinOp::kRem, f.ci(4), f.ci(0)));
    expect_fault(run(mb.build()), FaultKind::kDivByZero, "main", 0, 2, "");
  }
  {
    ModuleBuilder mb("t");
    auto f = mb.func("main", {});
    f.assert_true(f.ci(0));
    f.ret(f.ci(0));
    expect_fault(run(mb.build()), FaultKind::kAssertFail, "main", 0, 1, "");
  }
  for (const std::int64_t idx : {std::int64_t{2}, std::int64_t{-1}}) {
    ModuleBuilder mb("t");
    auto f = mb.func("main", {});
    f.ret(f.arg(f.ci(idx)));
    RuntimeInput in;
    in.argv = {"prog", "x"};
    expect_fault(run(mb.build(), in), FaultKind::kBadArgIndex, "main", 0, 1,
                 std::to_string(idx));
  }
}

TEST(FaultDetail, FaultInLaterBlockReportsBlockAndIndex) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const ir::BlockId next = f.block();
  const Reg b = f.alloca_buf(2);
  f.jmp(next);
  f.at(next);
  const Reg x = f.ci(9);
  f.store(b, x, x);
  f.ret(f.ci(0));
  expect_fault(run(mb.build()), FaultKind::kOobStore, "main", next, 1,
               "main:alloca[9]");
}

TEST(FaultDetail, LibraryFaultReportsOuterFunctionButInnerLocation) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("__copy", {"dst"});
    f.store(f.param(0), f.ci(4), f.ci(1));
    f.ret();
  }
  {
    auto f = mb.func("user", {});
    f.call_void("__copy", {f.alloca_buf(4)});
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("user", {});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  expect_fault(run(m), FaultKind::kOobStore, "user", 0, 2, "user:alloca[4]");
  // An empty library prefix attributes the fault to the innermost frame.
  InterpOptions o;
  o.library_prefix.clear();
  expect_fault(run(m, {}, o), FaultKind::kOobStore, "__copy", 0, 2,
               "user:alloca[4]");
}

// --- stop conditions ---------------------------------------------------------

ir::Module infinite_loop() {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const ir::BlockId loop = f.block();
  f.jmp(loop);
  f.at(loop);
  f.jmp(loop);
  return mb.build();
}

TEST(StopCondition, StepLimitStopsAtExactlyMaxSteps) {
  const ir::Module m = infinite_loop();
  for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{1},
                                 std::int64_t{17}, std::int64_t{1000}}) {
    InterpOptions o;
    o.max_steps = cap;
    const auto r = run(m, {}, o);
    EXPECT_EQ(r.outcome, RunOutcome::kStepLimit);
    EXPECT_EQ(r.steps, cap);
    EXPECT_EQ(r.fault.kind, FaultKind::kNone);
    EXPECT_FALSE(r.main_ret.has_value());
  }
}

TEST(StopCondition, FinishingOnTheLastAllowedStepIsOk) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.ret(f.ci(5));  // two instructions
  const ir::Module m = mb.build();
  InterpOptions o;
  o.max_steps = 2;
  auto r = run(m, {}, o);
  EXPECT_EQ(r.outcome, RunOutcome::kOk);
  EXPECT_EQ(r.steps, 2);
  EXPECT_EQ(r.main_ret->i, 5);
  o.max_steps = 1;
  r = run(m, {}, o);
  EXPECT_EQ(r.outcome, RunOutcome::kStepLimit);
  EXPECT_EQ(r.steps, 1);
}

TEST(StopCondition, CallDepthFaultsAtTheCallSite) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("rec", {"n"});
    const Reg one = f.ci(1);
    f.ret(f.call("rec", {f.add(f.param(0), one)}));
  }
  {
    auto f = mb.func("main", {});
    f.ret(f.call("rec", {f.ci(0)}));
  }
  const ir::Module m = mb.build();
  for (const std::int32_t depth : {1, 2, 5, 256}) {
    InterpOptions o;
    o.max_call_depth = depth;
    const auto r = run(m, {}, o);
    if (depth == 1) {
      expect_fault(r, FaultKind::kStackOverflow, "main", 0, 1, "rec");
      EXPECT_EQ(r.steps, 2);
    } else {
      expect_fault(r, FaultKind::kStackOverflow, "rec", 0, 2, "rec");
      EXPECT_EQ(r.steps, 2 + 3 * (depth - 1));
    }
  }
}

// --- listener order ----------------------------------------------------------

TEST(ListenerOrder, BlocksAndBranchesInterleaveWithCalls) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("pick", {"x"});
    const ir::BlockId yes = f.block();
    const ir::BlockId no = f.block();
    f.br(f.gti(f.param(0), 0), yes, no);
    f.at(yes);
    f.ret(f.ci(1));
    f.at(no);
    f.ret(f.ci(2));
  }
  {
    auto f = mb.func("main", {});
    const ir::BlockId head = f.block();
    const ir::BlockId body = f.block();
    const ir::BlockId done = f.block();
    const Reg i = f.ci(0);
    f.jmp(head);
    f.at(head);
    f.br(f.lti(i, 2), body, done);
    f.at(body);
    f.call_void("pick", {i});
    f.assign(i, f.addi(i, 1));
    f.jmp(head);
    f.at(done);
    f.ret(i);
  }
  const ir::Module m = mb.build();
  Interpreter it(m, {});
  EventRecorder rec;
  it.set_listener(&rec);
  const auto r = it.run();
  ASSERT_EQ(r.outcome, RunOutcome::kOk);
  const std::vector<std::string> want{
      "enter main",       "block main 0",     "block main 1",
      "branch main 1 T",  "block main 2",     "enter pick i0/-1/0",
      "block pick 0",     "branch pick 0 F",  "block pick 2",
      "leave pick i0/-1/0 -> i2/-1/0",        "block main 1",
      "branch main 1 T",  "block main 2",     "enter pick i1/-1/0",
      "block pick 0",     "branch pick 0 T",  "block pick 1",
      "leave pick i1/-1/0 -> i1/-1/0",        "block main 1",
      "branch main 1 F",  "block main 3",     "leave main -> i2/-1/0",
  };
  EXPECT_EQ(rec.events, want);
}

}  // namespace
}  // namespace statsym::interp
