// Tests for the program monitor: instrumented-location encoding, logged
// variables, sampling, library skipping, fault truncation, serialisation
// round-trips, serialized-size accounting and corrupted-log rejection.
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "ir/builder.h"
#include "monitor/monitor.h"
#include "monitor/serialize.h"

namespace statsym::monitor {
namespace {

using interp::RuntimeInput;
using ir::ModuleBuilder;
using ir::Reg;

// A two-function module with a global and parameters: main(x) -> helper(v).
ir::Module sample_module() {
  ModuleBuilder mb("t");
  mb.global_int("g", 7);
  mb.global_buf("name", 16);
  {
    auto f = mb.func("helper", {"v"});
    f.store_global("g", f.addi(f.param(0), 1));
    f.ret(f.param(0));
  }
  {
    auto f = mb.func("main", {});
    const Reg buf = f.load_global("name");
    f.store(buf, f.ci(0), f.ci('h'));
    f.store(buf, f.ci(1), f.ci('i'));
    f.call_void("helper", {f.ci(41)});
    f.ret(f.ci(0));
  }
  return mb.build();
}

TEST(Loc, EncodingRoundTrips) {
  for (ir::FuncId f = 0; f < 5; ++f) {
    EXPECT_EQ(loc_function(enter_loc(f)), f);
    EXPECT_EQ(loc_function(leave_loc(f)), f);
    EXPECT_FALSE(loc_is_leave(enter_loc(f)));
    EXPECT_TRUE(loc_is_leave(leave_loc(f)));
  }
}

TEST(Loc, NamesMatchPaperStyle) {
  const ir::Module m = sample_module();
  const ir::FuncId h = m.find_function("helper");
  EXPECT_EQ(loc_name(m, enter_loc(h)), "helper():enter");
  EXPECT_EQ(loc_name(m, leave_loc(h)), "helper():leave");
}

TEST(VarSampleDisplay, PaperStyleKeys) {
  VarSample v;
  v.name = "suspect";
  v.kind = VarKind::kParam;
  v.is_len = true;
  EXPECT_EQ(v.display(), "len(suspect FUNCPARAM)");
  v.is_len = false;
  v.kind = VarKind::kGlobal;
  v.name = "track";
  EXPECT_EQ(v.display(), "track GLOBAL");
}

TEST(Monitor, FullSamplingRecordsAllLocations) {
  const ir::Module m = sample_module();
  auto run = run_monitored(m, {}, {.sampling_rate = 1.0}, Rng(1), 0);
  ASSERT_EQ(run.result.outcome, interp::RunOutcome::kOk);
  // main:enter, helper:enter, helper:leave, main:leave.
  ASSERT_EQ(run.log.records.size(), 4u);
  EXPECT_EQ(run.log.records[0].loc, enter_loc(m.find_function("main")));
  EXPECT_EQ(run.log.records[3].loc, leave_loc(m.find_function("main")));
  EXPECT_FALSE(run.log.faulty);
}

TEST(Monitor, LogsGlobalsParamsAndReturn) {
  const ir::Module m = sample_module();
  auto run = run_monitored(m, {}, {.sampling_rate = 1.0}, Rng(1), 0);
  // helper:leave record: globals g (42 after increment), len(name)=2,
  // param v=41, ret=41.
  const auto& rec = run.log.records[2];
  ASSERT_EQ(rec.loc, leave_loc(m.find_function("helper")));
  double g = -1, name_len = -1, v = -1, ret = -1;
  for (const auto& s : rec.vars) {
    if (s.display() == "g GLOBAL") g = s.value;
    if (s.display() == "len(name GLOBAL)") name_len = s.value;
    if (s.display() == "v FUNCPARAM") v = s.value;
    if (s.display() == "ret RETURN") ret = s.value;
  }
  EXPECT_EQ(g, 42);
  EXPECT_EQ(name_len, 2);
  EXPECT_EQ(v, 41);
  EXPECT_EQ(ret, 41);
}

TEST(Monitor, SamplingRateControlsRecordCount) {
  const ir::Module m = sample_module();
  std::size_t kept = 0;
  const int runs = 500;
  Rng seed(9);
  for (int i = 0; i < runs; ++i) {
    auto run = run_monitored(m, {}, {.sampling_rate = 0.25}, seed.split(), i);
    kept += run.log.records.size();
  }
  const double rate = static_cast<double>(kept) / (runs * 4.0);
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(Monitor, ZeroSamplingKeepsNothing) {
  const ir::Module m = sample_module();
  auto run = run_monitored(m, {}, {.sampling_rate = 0.0}, Rng(1), 0);
  EXPECT_TRUE(run.log.records.empty());
}

TEST(Monitor, SkipsLibraryPrefixedFunctions) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("__internal", {});
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("__internal", {});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  auto run = run_monitored(m, {}, {.sampling_rate = 1.0}, Rng(1), 0);
  for (const auto& rec : run.log.records) {
    EXPECT_NE(loc_function(rec.loc), m.find_function("__internal"));
  }
  EXPECT_EQ(run.log.records.size(), 2u);  // main enter/leave only
}

TEST(Monitor, FaultyRunLacksLeaveRecords) {
  ModuleBuilder mb("t");
  {
    auto f = mb.func("boom", {});
    const Reg b = f.alloca_buf(2);
    f.store(b, f.ci(9), f.ci(1));
    f.ret();
  }
  {
    auto f = mb.func("main", {});
    f.call_void("boom", {});
    f.ret(f.ci(0));
  }
  const ir::Module m = mb.build();
  auto run = run_monitored(m, {}, {.sampling_rate = 1.0}, Rng(1), 3);
  EXPECT_TRUE(run.log.faulty);
  EXPECT_EQ(run.log.fault_function, "boom");
  ASSERT_EQ(run.log.records.size(), 2u);
  EXPECT_EQ(run.log.records.back().loc, enter_loc(m.find_function("boom")));
}

TEST(Serialize, RoundTripsExactly) {
  const ir::Module m = sample_module();
  std::vector<RunLog> logs;
  Rng seed(4);
  for (int i = 0; i < 5; ++i) {
    auto run = run_monitored(m, {}, {.sampling_rate = 0.7}, seed.split(), i);
    logs.push_back(std::move(run.log));
  }
  const std::string text = serialize(logs);
  std::vector<RunLog> back;
  ASSERT_TRUE(deserialize(text, back));
  ASSERT_EQ(back.size(), logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    EXPECT_EQ(back[i].run_id, logs[i].run_id);
    EXPECT_EQ(back[i].faulty, logs[i].faulty);
    ASSERT_EQ(back[i].records.size(), logs[i].records.size());
    for (std::size_t r = 0; r < logs[i].records.size(); ++r) {
      EXPECT_EQ(back[i].records[r].loc, logs[i].records[r].loc);
      EXPECT_EQ(back[i].records[r].vars, logs[i].records[r].vars);
    }
  }
}

TEST(Serialize, FaultyFlagRoundTrips) {
  RunLog log;
  log.run_id = 12;
  log.faulty = true;
  log.fault_function = "defang";
  log.records.push_back({3, {{"str", VarKind::kParam, true, 1000.5}}});
  std::vector<RunLog> back;
  ASSERT_TRUE(deserialize(serialize(log), back));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].faulty);
  EXPECT_EQ(back[0].fault_function, "defang");
  EXPECT_DOUBLE_EQ(back[0].records[0].vars[0].value, 1000.5);
}

class CorruptedLogs : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(
    Rejects, CorruptedLogs,
    ::testing::Values("garbage line",                        // unknown tag
                      "rec 3",                               // rec before run
                      "var GLOBAL|0|1.0|x",                  // var before rec
                      "run notanumber ok",                   // bad id
                      "run 1 maybe",                         // bad flag
                      "run 1 ok extra",                      // ok with fn
                      "run 1 ok\nrec -2",                    // negative loc
                      "run 1 ok\nrec 0\nvar WEIRD|0|1|x",    // bad kind
                      "run 1 ok\nrec 0\nvar GLOBAL|2|1|x",   // bad len flag
                      "run 1 ok\nrec 0\nvar GLOBAL|0|z|x",   // bad value
                      "run 1 ok\nrec 0\nvar GLOBAL|0|1|",    // empty name
                      "run 1 ok\nrec 0\nvar GLOBAL|0|1"));   // missing field

TEST_P(CorruptedLogs, DeserializeFails) {
  std::vector<RunLog> out;
  EXPECT_FALSE(deserialize(GetParam(), out));
}

TEST(Serialize, LocationsBeyondLocIdAreRejected) {
  // 2^32 - 1 would wrap to kNoLoc and 2^32 to location 0.
  std::vector<RunLog> out;
  EXPECT_FALSE(deserialize("run 1 ok\nrec 4294967295", out));
  EXPECT_FALSE(deserialize("run 1 ok\nrec 4294967296", out));
  EXPECT_FALSE(deserialize("run 1 ok\nrec 2147483648", out));
  ASSERT_TRUE(deserialize("run 1 ok\nrec 2147483647", out));
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].records.size(), 1u);
  EXPECT_EQ(out[0].records[0].loc, std::numeric_limits<LocId>::max());
}

TEST(Serialize, EmptyInputYieldsNoLogs) {
  std::vector<RunLog> out;
  EXPECT_TRUE(deserialize("", out));
  EXPECT_TRUE(out.empty());
}

TEST(Serialize, SerializedSizeMatchesSerialize) {
  // SuffStats accounts log bytes via serialized_size without building the
  // text; it must agree with the real serialisation for every value shape
  // the monitor can log (including awkward %g cases).
  // Integral values below 1e6 in magnitude are sized without printing;
  // the rest (fractions, +-1e6 and beyond, 2^53, infinities, NaN) by %g.
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,    -0.0,   1.0,      -1.0,     0.1,
                           1e-7,   -1e-7,  123456.0, 1234567.0, 1e20,
                           -1e20,  0.5,    536.5,    1e-300,   1e300,
                           1.0 / 3.0,      999999.0, -999999.0, 1e6,
                           -1e6,   999999.5, 9007199254740992.0,  inf,
                           -inf,   std::numeric_limits<double>::quiet_NaN()};
  // run_id / records_considered pairs across digit-count boundaries.
  const std::pair<std::int32_t, std::int64_t> header[] = {
      {123456, 42},       {9, 9},     {10, 10},     {999999999, 999999999},
      {1000000000, 1000000000},       {-1, 1},      {-1000000000, 0}};
  RunLog log;
  log.faulty = true;
  log.fault_function = "sink";
  int i = 0;
  for (const double v : values) {
    VarSample s;
    s.name = "v" + std::to_string(i);
    s.kind = static_cast<VarKind>(i % 3);
    s.is_len = i % 2 == 0;
    s.value = v;
    log.records.push_back({static_cast<LocId>(i++), {s}});
  }
  for (const auto& [run_id, seen] : header) {
    log.run_id = run_id;
    log.records_considered = seen;
    EXPECT_EQ(serialized_size(log), serialize(log).size())
        << "run " << run_id << " seen " << seen;
  }

  RunLog ok;  // minimal correct log, no seen line, no records
  ok.run_id = 0;
  EXPECT_EQ(serialized_size(ok), serialize(ok).size());
}

}  // namespace
}  // namespace statsym::monitor
