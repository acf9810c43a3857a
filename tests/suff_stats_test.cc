// Fold equivalence of SuffStats::ingest: statistics folded run after run
// into one accumulator, whose fold cache remembers where each location's
// sample positions folded last time, equal the keyed path — every log
// ingested into a fresh SuffStats of its own and the results merged. Covered:
// the logs of generated fault-planted programs, and hand-built logs that
// reuse a location with another variable list or order, flip is_len for one
// name, repeat a name within one record, and keep folding after a copy, a
// move or a merge.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fuzz/program_gen.h"
#include "statsym/engine.h"
#include "stats/suff_stats.h"
#include "support/rng.h"

namespace statsym::stats {
namespace {

using monitor::LogRecord;
using monitor::RunLog;
using monitor::VarKind;
using monitor::VarSample;

SuffStats keyed(const std::vector<RunLog>& logs) {
  SuffStats out;
  for (const RunLog& log : logs) {
    SuffStats one;
    one.ingest(log);
    out.merge(one);
  }
  return out;
}

void expect_same_trans(const TransSuff& got, const TransSuff& want) {
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.occ, want.occ);
  EXPECT_EQ(got.first_counts, want.first_counts);
  EXPECT_EQ(got.last_counts, want.last_counts);
  EXPECT_EQ(got.logs, want.logs);
}

void expect_same(const SuffStats& got, const SuffStats& want) {
  ASSERT_EQ(got.vars().size(), want.vars().size());
  auto g = got.vars().begin();
  for (const auto& [key, w] : want.vars()) {
    const auto& [gkey, gv] = *g++;
    EXPECT_EQ(VarKeyLess::view(gkey), VarKeyLess::view(key));
    EXPECT_EQ(gv.loc, w.loc);
    EXPECT_EQ(gv.var, w.var);
    EXPECT_EQ(gv.kind, w.kind);
    EXPECT_EQ(gv.is_len, w.is_len);
    EXPECT_EQ(gv.correct, w.correct) << w.var;
    EXPECT_EQ(gv.faulty, w.faulty) << w.var;
    EXPECT_EQ(gv.correct_total, w.correct_total) << w.var;
    EXPECT_EQ(gv.faulty_total, w.faulty_total) << w.var;
    EXPECT_EQ(gv.correct_runs, w.correct_runs) << w.var;
    EXPECT_EQ(gv.faulty_runs, w.faulty_runs) << w.var;
  }
  EXPECT_EQ(got.num_correct_runs(), want.num_correct_runs());
  EXPECT_EQ(got.num_faulty_runs(), want.num_faulty_runs());
  ASSERT_EQ(got.locations(), want.locations());
  for (const monitor::LocId loc : want.locations()) {
    EXPECT_EQ(got.loc_correct_runs(loc), want.loc_correct_runs(loc)) << loc;
    EXPECT_EQ(got.loc_faulty_runs(loc), want.loc_faulty_runs(loc)) << loc;
  }
  expect_same_trans(got.trans(false), want.trans(false));
  expect_same_trans(got.trans(true), want.trans(true));
  EXPECT_EQ(got.fault_fn_counts(), want.fault_fn_counts());
  EXPECT_EQ(got.log_bytes(), want.log_bytes());
  EXPECT_EQ(got.records_considered(), want.records_considered());
}

// The admitted logs of generated fault-planted programs (chains and segments
// up to 8, as the concolic-fleet benchmark builds them), at 30% sampling.
std::vector<RunLog> fleet_logs(std::size_t programs) {
  fuzz::GenOptions g;
  g.max_chain = 8;
  g.max_segments = 8;
  g.fault_probability = 1.0;
  std::vector<RunLog> out;
  for (std::size_t i = 0; i < programs; ++i) {
    const std::uint64_t s = derive_seed(0x5f0d, i);
    const fuzz::GeneratedProgram p = fuzz::generate_program(s, g);
    core::EngineOptions o;
    o.monitor.sampling_rate = 0.3;
    o.target_correct_logs = 30;
    o.target_faulty_logs = 30;
    o.seed = derive_seed(s, 1);
    core::StatSymEngine engine(p.app.module, p.app.sym_spec, o);
    engine.collect_logs(p.app.workload, /*keep_logs=*/true);
    for (const RunLog& log : engine.logs()) out.push_back(log);
  }
  return out;
}

TEST(SuffStatsFold, FleetLogsEqualTheKeyedPath) {
  const std::vector<RunLog> logs = fleet_logs(20);
  ASSERT_GT(logs.size(), 500u);
  SuffStats folded;
  folded.ingest(logs);
  expect_same(folded, keyed(logs));
}

VarSample var(const std::string& name, double value, bool is_len = false,
              VarKind kind = VarKind::kGlobal) {
  VarSample v;
  v.name = name;
  v.kind = kind;
  v.is_len = is_len;
  v.value = value;
  return v;
}

RunLog run(bool faulty, std::vector<LogRecord> records) {
  RunLog log;
  log.faulty = faulty;
  if (faulty) log.fault_function = "f";
  log.records_considered = static_cast<std::int64_t>(records.size()) + 1;
  log.records = std::move(records);
  return log;
}

// Location 2 is recorded with changing variable lists: reordered, shorter,
// longer, a name whose is_len flips, and a parameter name given twice.
std::vector<RunLog> shifting_logs() {
  const VarKind P = VarKind::kParam;
  return {
      run(false, {{2, {var("x", 1), var("y", 2)}},
                  {3, {var("x", 1), var("r", 0, false, VarKind::kReturn)}},
                  {2, {var("x", 4), var("y", 2)}}}),
      run(true, {{2, {var("y", 5), var("x", 1)}},
                 {2, {var("x", 7)}},
                 {4, {var("s", 3, true)}}}),
      run(false, {{4, {var("s", 0, false)}},
                  {2, {var("z", 1), var("x", 1), var("y", 9)}},
                  {4, {var("s", 8, true)}}}),
      run(true, {{5, {var("a", 1, false, P), var("a", 2, false, P)}},
                 {5, {var("a", 3, true, P), var("a", 2, false, P)}},
                 {2, {}}}),
      run(false, {}),
      run(false, {{5, {var("a", 2, false, P), var("a", 6, false, P)}},
                  {2, {var("x", 1), var("y", 2)}},
                  {3, {var("x", 2)}}}),
  };
}

TEST(SuffStatsFold, ShiftingVariableListsEqualTheKeyedPath) {
  const std::vector<RunLog> logs = shifting_logs();
  SuffStats folded;
  folded.ingest(logs);
  expect_same(folded, keyed(logs));
  // A name given twice in one record counts its run once.
  const auto a = folded.vars().find(
      VarKeyView{5, VarKind::kParam, false, "a"});
  ASSERT_NE(a, folded.vars().end());
  EXPECT_EQ(a->second.faulty_runs, 1u);
  EXPECT_EQ(a->second.correct_runs, 1u);
  EXPECT_EQ(a->second.faulty_total, 3u);
}

TEST(SuffStatsFold, FoldingAfterCopyMoveAndMergeEqualsTheKeyedPath) {
  std::vector<RunLog> logs = shifting_logs();
  for (RunLog& log : fleet_logs(2)) logs.push_back(std::move(log));
  const std::size_t half = logs.size() / 2;
  const std::vector<RunLog> head(logs.begin(), logs.begin() + half);
  const std::vector<RunLog> tail(logs.begin() + half, logs.end());
  const SuffStats want = keyed(logs);

  SuffStats a;
  a.ingest(head);
  SuffStats copied = a;  // copy construction
  copied.ingest(tail);
  expect_same(copied, want);

  SuffStats assigned;
  assigned.ingest(tail);
  assigned = a;  // copy assignment over a folded accumulator
  assigned.ingest(tail);
  expect_same(assigned, want);

  SuffStats moved = std::move(copied);
  moved.ingest(head);
  SuffStats twice = keyed(logs);
  twice.merge(keyed(head));
  expect_same(moved, twice);

  // The source keeps folding after it was copied from.
  a.ingest(tail);
  expect_same(a, want);

  // Merge, then fold more: the merged entries are new to the fold cache.
  SuffStats merged;
  merged.ingest(tail);
  merged.merge(keyed(head));
  merged.ingest(head);
  SuffStats want_merged = keyed(tail);
  want_merged.merge(keyed(head));
  want_merged.merge(keyed(head));
  expect_same(merged, want_merged);
}

}  // namespace
}  // namespace statsym::stats
