// Unit tests for the concrete interpreter: semantics of every opcode group,
// all fault kinds, inputs, globals, listeners and budgets.
#include <gtest/gtest.h>

#include <algorithm>

#include "interp/interpreter.h"
#include "ir/builder.h"

namespace statsym::interp {
namespace {

using ir::BinOp;
using ir::ModuleBuilder;
using ir::Reg;

RunResult run(const ir::Module& m, RuntimeInput in = {},
              InterpOptions opts = {}) {
  Interpreter it(m, std::move(in), opts);
  return it.run();
}

std::int64_t ret_of(const RunResult& r) {
  EXPECT_EQ(r.outcome, RunOutcome::kOk);
  EXPECT_TRUE(r.main_ret.has_value());
  return r.main_ret->i;
}

TEST(Interp, ArithmeticAndComparisons) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  Reg a = f.ci(10);
  Reg b = f.ci(3);
  Reg sum = f.add(a, b);                      // 13
  Reg prod = f.mul(sum, f.ci(2));             // 26
  Reg q = f.bin(BinOp::kDiv, prod, b);        // 8
  Reg r = f.bin(BinOp::kRem, prod, b);        // 2
  Reg cmp = f.lt(r, q);                       // 1
  f.ret(f.add(f.add(q, r), cmp));             // 11
  EXPECT_EQ(ret_of(run(mb.build())), 11);
}

TEST(Interp, LogicalOps) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  Reg t = f.land(f.ci(5), f.ci(-2));  // 1
  Reg o = f.lor(f.ci(0), f.ci(0));    // 0
  Reg n = f.not_(o);                  // 1
  f.ret(f.add(t, f.add(o, n)));       // 2
  EXPECT_EQ(ret_of(run(mb.build())), 2);
}

TEST(Interp, NegateWrapsMin) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.ret(f.neg(f.ci(INT64_MIN)));
  EXPECT_EQ(ret_of(run(mb.build())), INT64_MIN);
}

TEST(Interp, LoopComputesSum) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg i = f.reg();
  const Reg acc = f.reg();
  const auto loop = f.block();
  const auto body = f.block();
  const auto done = f.block();
  f.assign(i, f.ci(0));
  f.assign(acc, f.ci(0));
  f.jmp(loop);
  f.at(loop);
  f.br(f.lti(i, 10), body, done);
  f.at(body);
  f.assign(acc, f.add(acc, i));
  f.assign(i, f.addi(i, 1));
  f.jmp(loop);
  f.at(done);
  f.ret(acc);
  EXPECT_EQ(ret_of(run(mb.build())), 45);
}

TEST(Interp, CallsAndRecursion) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("fib", {"n"});
    const auto base = f.block();
    const auto rec = f.block();
    f.br(f.lti(f.param(0), 2), base, rec);
    f.at(base);
    f.ret(f.param(0));
    f.at(rec);
    const Reg a = f.call("fib", {f.bini(BinOp::kSub, f.param(0), 1)});
    const Reg b = f.call("fib", {f.bini(BinOp::kSub, f.param(0), 2)});
    f.ret(f.add(a, b));
  }
  {
    auto f = mb.func("main", {});
    f.ret(f.call("fib", {f.ci(10)}));
  }
  EXPECT_EQ(ret_of(run(mb.build())), 55);
}

TEST(Interp, StackOverflowFault) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("loop", {});
    f.ret(f.call("loop", {}));
  }
  {
    auto f = mb.func("main", {});
    f.ret(f.call("loop", {}));
  }
  const auto r = run(mb.build());
  ASSERT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault.kind, FaultKind::kStackOverflow);
}

TEST(Interp, MemoryReadWrite) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg buf = f.alloca_buf(8);
  f.store(buf, f.ci(3), f.ci(0xab));
  f.ret(f.load(buf, f.ci(3)));
  EXPECT_EQ(ret_of(run(mb.build())), 0xab);
}

TEST(Interp, StoreTruncatesToByte) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg buf = f.alloca_buf(4);
  f.store(buf, f.ci(0), f.ci(0x1ff));
  f.ret(f.load(buf, f.ci(0)));
  EXPECT_EQ(ret_of(run(mb.build())), 0xff);
}

TEST(Interp, OobStoreFaults) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg buf = f.alloca_buf(4);
  f.store(buf, f.ci(4), f.ci(1));  // one past the end
  f.ret();
  const auto r = run(mb.build());
  ASSERT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault.kind, FaultKind::kOobStore);
  EXPECT_EQ(r.fault.function, "main");
}

TEST(Interp, OobLoadFaults) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg buf = f.alloca_buf(4);
  f.ret(f.load(buf, f.ci(-1)));
  EXPECT_EQ(run(mb.build()).fault.kind, FaultKind::kOobLoad);
}

TEST(Interp, NullDerefFaults) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg e = f.env("MISSING");
  f.ret(f.load(e, f.ci(0)));
  EXPECT_EQ(run(mb.build()).fault.kind, FaultKind::kNullDeref);
}

TEST(Interp, DivByZeroFaults) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.ret(f.bin(BinOp::kDiv, f.ci(1), f.ci(0)));
  EXPECT_EQ(run(mb.build()).fault.kind, FaultKind::kDivByZero);
}

TEST(Interp, AssertFault) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.assert_true(f.ci(0));
  f.ret();
  EXPECT_EQ(run(mb.build()).fault.kind, FaultKind::kAssertFail);
}

TEST(Interp, AssertPasses) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.assert_true(f.ci(7));
  f.ret(f.ci(0));
  EXPECT_EQ(run(mb.build()).outcome, RunOutcome::kOk);
}

TEST(Interp, BadArgIndexFaults) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.ret(f.buf_size(f.arg(f.ci(3))));
  RuntimeInput in;
  in.argv = {"prog"};
  EXPECT_EQ(run(mb.build(), in).fault.kind, FaultKind::kBadArgIndex);
}

TEST(Interp, ArgvAndArgc) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg n = f.argc();
  const Reg a1 = f.arg(f.ci(1));
  f.ret(f.add(f.mul(n, f.ci(100)), f.load(a1, f.ci(0))));
  RuntimeInput in;
  in.argv = {"prog", "Zx"};
  EXPECT_EQ(ret_of(run(mb.build(), in)), 200 + 'Z');
}

TEST(Interp, EnvPresentAndMissing) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg e = f.env("HOME");
  const Reg missing = f.env("NOPE");
  const auto have = f.block();
  const auto none = f.block();
  f.br(e, have, none);
  f.at(have);
  // missing env is a null ref -> falsy
  const auto bad = f.block();
  const auto good = f.block();
  f.br(missing, bad, good);
  f.at(bad);
  f.ret(f.ci(-1));
  f.at(good);
  f.ret(f.load(e, f.ci(0)));
  f.at(none);
  f.ret(f.ci(-2));
  RuntimeInput in;
  in.env["HOME"] = "/root";
  EXPECT_EQ(ret_of(run(mb.build(), in)), '/');
}

TEST(Interp, StrConstIsNulTerminated) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg s = f.str_const("hi");
  f.ret(f.add(f.buf_size(s), f.load(s, f.ci(2))));  // size 3 + NUL 0
  EXPECT_EQ(ret_of(run(mb.build())), 3);
}

TEST(Interp, GlobalsIntAndBuf) {
  ModuleBuilder mb("t");
  mb.global_int("counter", 5);
  mb.global_buf("buf", 4);
  auto f = mb.func("main", {});
  f.store_global("counter", f.addi(f.load_global("counter"), 1));
  const Reg buf = f.load_global("buf");
  f.store(buf, f.ci(0), f.ci(9));
  f.ret(f.add(f.load_global("counter"), f.load(buf, f.ci(0))));
  EXPECT_EQ(ret_of(run(mb.build())), 15);
}

TEST(Interp, RefEqualityComparesIdentity) {
  ModuleBuilder mb("t");
  mb.global_buf("g", 4);
  auto f = mb.func("main", {});
  const Reg a = f.load_global("g");
  const Reg b = f.load_global("g");
  const Reg c = f.alloca_buf(4);
  f.ret(f.add(f.eq(a, b), f.mul(f.ci(10), f.ne(a, c))));
  EXPECT_EQ(ret_of(run(mb.build())), 11);
}

TEST(Interp, RefArithmeticFaults) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg buf = f.alloca_buf(4);
  f.ret(f.add(buf, f.ci(1)));
  EXPECT_EQ(run(mb.build()).outcome, RunOutcome::kFault);
}

TEST(Interp, MakeSymIntReadsInput) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg x = f.reg();
  f.make_sym_int(x, "x", -100, 100);
  f.ret(x);
  RuntimeInput in;
  in.sym_ints["x"] = 42;
  EXPECT_EQ(ret_of(run(mb.build(), in)), 42);
}

TEST(Interp, MakeSymIntClampsToDomain) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg x = f.reg();
  f.make_sym_int(x, "x", 0, 10);
  f.ret(x);
  RuntimeInput in;
  in.sym_ints["x"] = 5000;
  EXPECT_EQ(ret_of(run(mb.build(), in)), 10);
}

TEST(Interp, MakeSymIntDefaultsToDomainMin) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg x = f.reg();
  f.make_sym_int(x, "unset", 7, 10);
  f.ret(x);
  EXPECT_EQ(ret_of(run(mb.build())), 7);
}

TEST(Interp, MakeSymBufCopiesContent) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const Reg buf = f.alloca_buf(8);
  f.make_sym_buf(buf, "data");
  f.ret(f.load(buf, f.ci(1)));
  RuntimeInput in;
  in.sym_bufs["data"] = "ab";
  EXPECT_EQ(ret_of(run(mb.build(), in)), 'b');
}

TEST(Interp, StepLimitStopsRun) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const auto loop = f.block();
  f.jmp(loop);
  f.at(loop);
  f.jmp(loop);
  InterpOptions opts;
  opts.max_steps = 1000;
  const auto r = run(mb.build(), {}, opts);
  EXPECT_EQ(r.outcome, RunOutcome::kStepLimit);
  EXPECT_GE(r.steps, 1000);
}

TEST(Interp, DefaultExternReturnsZero) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.ret(f.call_ext("whatever", {}));
  EXPECT_EQ(ret_of(run(mb.build())), 0);
}

TEST(Interp, FaultInsideLibraryAttributedToCaller) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("__smash", {"buf"});
    f.store(f.param(0), f.ci(100), f.ci(1));
    f.ret();
  }
  {
    auto f = mb.func("victim", {});
    f.call_void("__smash", {f.alloca_buf(4)});
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("victim", {});
    f.ret(f.ci(0));
  }
  const auto r = run(mb.build());
  ASSERT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault.function, "victim");
}

class ProbeListener : public InterpListener {
 public:
  std::vector<std::string> events;
  void on_enter(const Interpreter&, const ir::Function& fn,
                std::span<const Value>) override {
    events.push_back(fn.name + ":enter");
  }
  void on_leave(const Interpreter&, const ir::Function& fn,
                std::span<const Value>,
                const std::optional<Value>&) override {
    events.push_back(fn.name + ":leave");
  }
};

TEST(Interp, ListenerSeesEnterLeaveOrder) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("inner", {});
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("inner", {});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  Interpreter it(m, {});
  ProbeListener probe;
  it.set_listener(&probe);
  it.run();
  const std::vector<std::string> want{"main:enter", "inner:enter",
                                      "inner:leave", "main:leave"};
  EXPECT_EQ(probe.events, want);
}

TEST(Interp, FaultTruncatesLeaveEvents) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("crash", {});
    const Reg b = f.alloca_buf(2);
    f.store(b, f.ci(5), f.ci(1));
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("crash", {});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  Interpreter it(m, {});
  ProbeListener probe;
  it.set_listener(&probe);
  it.run();
  // crash:leave and main:leave never fire — the paper's observation that
  // faulty runs lack the fault function's return record.
  const std::vector<std::string> want{"main:enter", "crash:enter"};
  EXPECT_EQ(probe.events, want);
}

// Records every callback and calls stop() in the named function's on_enter.
class StoppingListener : public InterpListener {
 public:
  explicit StoppingListener(std::string stop_at)
      : stop_at_(std::move(stop_at)) {}
  std::vector<std::string> events;
  void on_enter(const Interpreter& interp, const ir::Function& fn,
                std::span<const Value>) override {
    events.push_back(fn.name + ":enter");
    if (fn.name == stop_at_) stop(interp);
  }
  void on_leave(const Interpreter&, const ir::Function& fn,
                std::span<const Value>,
                const std::optional<Value>&) override {
    events.push_back(fn.name + ":leave");
  }
  void on_block(const Interpreter&, const ir::Function& fn,
                ir::BlockId block) override {
    events.push_back(fn.name + ":block" + std::to_string(block));
  }
  void on_branch(const Interpreter&, const ir::Function& fn, ir::BlockId,
                 bool) override {
    events.push_back(fn.name + ":branch");
  }

 private:
  std::string stop_at_;
};

ir::Module branchy_module() {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("inner", {"x"});
    const ir::BlockId yes = f.block();
    const ir::BlockId no = f.block();
    f.br(f.gti(f.param(0), 1), yes, no);
    f.at(yes);
    f.ret();
    f.at(no);
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("inner", {f.ci(2)});
    f.call_void("inner", {f.ci(0)});
    f.ret(f.ci(0));
  }
  return mb.build();
}

TEST(Interp, ListenerStopEndsTheRunWithNoFurtherCallback) {
  const ir::Module m = branchy_module();
  {
    Interpreter it(m, {});
    StoppingListener l("inner");
    it.set_listener(&l);
    const RunResult r = it.run();
    EXPECT_EQ(r.outcome, RunOutcome::kStopped);
    // main's entry block fired; inner's did not, nor anything after it.
    const std::vector<std::string> want{"main:enter", "main:block0",
                                        "inner:enter"};
    EXPECT_EQ(l.events, want);
  }
  {
    Interpreter it(m, {});
    StoppingListener l("main");
    it.set_listener(&l);
    EXPECT_EQ(it.run().outcome, RunOutcome::kStopped);
    EXPECT_EQ(l.events, std::vector<std::string>{"main:enter"});
  }
  {
    // A listener that never stops sees the whole run.
    Interpreter it(m, {});
    StoppingListener l("nowhere");
    it.set_listener(&l);
    EXPECT_EQ(it.run().outcome, RunOutcome::kOk);
    EXPECT_EQ(l.events.back(), "main:leave");
    EXPECT_EQ(std::count(l.events.begin(), l.events.end(), "inner:branch"), 2);
  }
}

}  // namespace
}  // namespace statsym::interp
