// Tests for the statistical analysis module: sufficient-statistic
// aggregation and merging, predicate fitting (Eq. 1 / Eq. 2), Wilson-bound
// math, ranking, and transition mining (Eq. 3).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "stats/predicate_manager.h"
#include "stats/transition_graph.h"
#include "stats/wilson.h"
#include "support/rng.h"

namespace statsym::stats {
namespace {

using monitor::LogRecord;
using monitor::RunLog;
using monitor::VarKind;
using monitor::VarSample;

VarSample mk_var(const std::string& name, double value, bool is_len = false,
                 VarKind kind = VarKind::kParam) {
  VarSample v;
  v.name = name;
  v.kind = kind;
  v.is_len = is_len;
  v.value = value;
  return v;
}

RunLog mk_log(std::int32_t id, bool faulty,
              std::vector<LogRecord> records) {
  RunLog log;
  log.run_id = id;
  log.faulty = faulty;
  log.records = std::move(records);
  return log;
}

SuffStats suff_of(const std::vector<RunLog>& logs) {
  SuffStats s;
  s.ingest(logs);
  return s;
}

// Histogram-building shorthand for fit tests: one observation per value.
void add_all(VarSuff& vs, bool faulty, std::initializer_list<double> values) {
  for (double v : values) vs.add(faulty, v);
}

TEST(SuffStats, BucketsByLocationAndVariable) {
  std::vector<RunLog> logs;
  logs.push_back(mk_log(0, false, {{2, {mk_var("x", 1.0)}},
                                   {4, {mk_var("x", 2.0)}}}));
  logs.push_back(mk_log(1, true, {{2, {mk_var("x", 9.0)}}}));
  SuffStats s;
  s.ingest(logs);
  EXPECT_EQ(s.num_correct_runs(), 1u);
  EXPECT_EQ(s.num_faulty_runs(), 1u);
  // Same variable at different locations is kept separate (§V-A).
  ASSERT_EQ(s.vars().size(), 2u);
  const auto it = s.vars().find(VarKeyView{2, VarKind::kParam, false, "x"});
  ASSERT_NE(it, s.vars().end());
  EXPECT_EQ(it->second.var, "x FUNCPARAM");
  EXPECT_EQ(it->second.correct_total, 1u);
  EXPECT_EQ(it->second.faulty_total, 1u);
  EXPECT_EQ(s.loc_correct_runs(2), 1u);
  EXPECT_EQ(s.loc_faulty_runs(4), 0u);
}

TEST(SuffStats, HistogramsCarryMultiplicity) {
  VarSuff vs;
  vs.add(false, 5.0);
  vs.add(false, 5.0);
  vs.add(false, 7.0);
  vs.add(true, 5.0, /*n=*/3);
  EXPECT_EQ(vs.correct_total, 3u);
  EXPECT_EQ(vs.faulty_total, 3u);
  vs.add(false, 3.0);
  using Entries = std::vector<ValueHist::Entry>;
  // One entry per distinct value, sorted by value whatever the insertion
  // order.
  EXPECT_EQ(Entries(vs.correct.begin(), vs.correct.end()),
            (Entries{{3.0, 1}, {5.0, 2}, {7.0, 1}}));
  EXPECT_EQ(Entries(vs.faulty.begin(), vs.faulty.end()), (Entries{{5.0, 3}}));
}

TEST(SuffStats, MergeIsScheduleInvariant) {
  // Build one log set, ingest it (a) in one pass, (b) log-by-log into two
  // halves merged A+B, (c) merged B+A. All three must agree exactly —
  // every field is a sum, so order cannot matter.
  std::vector<RunLog> logs;
  Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    const bool faulty = i % 3 == 0;
    RunLog log = mk_log(i, faulty,
                        {{0, {mk_var("x", rng.uniform(0, 5))}},
                         {1, {mk_var("y", rng.uniform(0, 5))}}});
    if (faulty) log.fault_function = i % 2 == 0 ? "f" : "g";
    log.records_considered = 2;
    logs.push_back(std::move(log));
  }

  SuffStats batch;
  batch.ingest(logs);

  SuffStats a, b;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    (i < logs.size() / 2 ? a : b).ingest(logs[i]);
  }
  SuffStats ab, ba;
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);

  for (const SuffStats* m : {&ab, &ba}) {
    EXPECT_EQ(m->num_correct_runs(), batch.num_correct_runs());
    EXPECT_EQ(m->num_faulty_runs(), batch.num_faulty_runs());
    EXPECT_EQ(m->log_bytes(), batch.log_bytes());
    EXPECT_EQ(m->records_considered(), batch.records_considered());
    EXPECT_EQ(m->fault_fn_counts(), batch.fault_fn_counts());
    EXPECT_EQ(m->locations(), batch.locations());
    ASSERT_EQ(m->vars().size(), batch.vars().size());
    for (const auto& [key, vs] : batch.vars()) {
      const auto it = m->vars().find(key);
      ASSERT_NE(it, m->vars().end());
      EXPECT_EQ(it->second.correct, vs.correct);
      EXPECT_EQ(it->second.faulty, vs.faulty);
      EXPECT_EQ(it->second.correct_runs, vs.correct_runs);
      EXPECT_EQ(it->second.faulty_runs, vs.faulty_runs);
    }
    for (bool cls : {false, true}) {
      EXPECT_EQ(m->trans(cls).pairs, batch.trans(cls).pairs);
      EXPECT_EQ(m->trans(cls).occ, batch.trans(cls).occ);
      EXPECT_EQ(m->trans(cls).first_counts, batch.trans(cls).first_counts);
      EXPECT_EQ(m->trans(cls).last_counts, batch.trans(cls).last_counts);
      EXPECT_EQ(m->trans(cls).logs, batch.trans(cls).logs);
    }
  }
}

TEST(Predicate, PerfectSeparationScoresOne) {
  VarSuff vs;
  vs.loc = 1;
  vs.var = "len(s FUNCPARAM)";
  add_all(vs, false, {10, 20, 30});
  add_all(vs, true, {100, 200, 150});
  vs.correct_runs = 3;
  vs.faulty_runs = 3;
  Predicate p;
  ASSERT_TRUE(fit_predicate(vs, 3, 3, p));
  EXPECT_DOUBLE_EQ(p.score, 1.0);
  EXPECT_EQ(p.error, 0u);
  EXPECT_EQ(p.pk, PredKind::kGt);
  EXPECT_GT(p.threshold, 30.0);
  EXPECT_LT(p.threshold, 100.0);
  // The fitted predicate indeed separates the samples.
  for (double v : {10.0, 20.0, 30.0}) EXPECT_FALSE(p.holds(v));
  for (double v : {100.0, 200.0, 150.0}) EXPECT_TRUE(p.holds(v));
}

TEST(Predicate, LowerDirectionDetected) {
  VarSuff vs;
  vs.loc = 1;
  vs.var = "x FUNCPARAM";
  add_all(vs, false, {50, 60, 70});
  add_all(vs, true, {1, 2, 3});
  Predicate p;
  ASSERT_TRUE(fit_predicate(vs, 3, 3, p));
  EXPECT_EQ(p.pk, PredKind::kLt);
  EXPECT_DOUBLE_EQ(p.score, 1.0);
}

TEST(Predicate, ThresholdMinimisesQuantificationError) {
  // Overlapping distributions: optimal cut must minimise Eq. 1 exactly.
  VarSuff vs;
  vs.loc = 1;
  vs.var = "x FUNCPARAM";
  const std::vector<double> correct = {1, 2, 3, 4, 10};  // one outlier at 10
  const std::vector<double> faulty = {5, 6, 7, 8, 9};
  for (double v : correct) vs.add(false, v);
  for (double v : faulty) vs.add(true, v);
  Predicate p;
  ASSERT_TRUE(fit_predicate(vs, 5, 5, p));
  // Exhaustive scan over all cuts and directions to compute ground truth.
  std::size_t best = SIZE_MAX;
  std::vector<double> all = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    const double cut = (all[i] + all[i + 1]) / 2;
    for (bool gt : {true, false}) {
      std::size_t err = 0;
      for (double v : correct) {
        if (gt ? v > cut : v < cut) ++err;  // |P ∩ C|
      }
      for (double v : faulty) {
        if (!(gt ? v > cut : v < cut)) ++err;  // |Pᶜ ∩ F|
      }
      best = std::min(best, err);
    }
  }
  EXPECT_EQ(p.error, best);
}

TEST(Predicate, UnreachedVariableGetsNegInfinity) {
  VarSuff vs;
  vs.loc = 3;
  vs.var = "track GLOBAL";
  vs.kind = VarKind::kGlobal;
  add_all(vs, false, {0, 1, 2});
  vs.correct_runs = 3;
  // Never observed in faulty runs: the location is post-failure.
  Predicate p;
  ASSERT_TRUE(fit_predicate(vs, 4, 5, p));
  EXPECT_EQ(p.pk, PredKind::kUnreached);
  EXPECT_EQ(p.display(), "track GLOBAL < -infinity");
  EXPECT_DOUBLE_EQ(p.score, 0.75);  // 3 of 4 correct runs observed it
  EXPECT_FALSE(p.holds(123.0));
}

TEST(Predicate, IdenticalDistributionsRejected) {
  VarSuff vs;
  vs.loc = 1;
  vs.var = "x FUNCPARAM";
  vs.add(false, 5.0, 3);
  vs.add(true, 5.0, 2);
  Predicate p;
  EXPECT_FALSE(fit_predicate(vs, 3, 2, p));
}

TEST(Predicate, DisplayMatchesPaperFormat) {
  Predicate p;
  p.var = "len(suspect FUNCPARAM)";
  p.pk = PredKind::kGt;
  p.threshold = 536.5;
  EXPECT_EQ(p.display(), "len(suspect FUNCPARAM) > 536.5");
}

TEST(PredicateManager, RanksByScore) {
  std::vector<RunLog> logs;
  // Variable "good" separates perfectly; "noisy" only partially.
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const bool faulty = i % 2 == 1;
    const double good = faulty ? 100 + i : i;
    const double noisy = rng.uniform(0, 10) + (faulty ? 3 : 0);
    logs.push_back(mk_log(i, faulty,
                          {{0, {mk_var("good", good), mk_var("noisy", noisy)}}}));
  }
  SuffStats s;
  s.ingest(logs);
  PredicateManager pm;
  pm.build(s);
  ASSERT_GE(pm.ranked().size(), 2u);
  EXPECT_EQ(pm.ranked()[0].var, "good FUNCPARAM");
  EXPECT_DOUBLE_EQ(pm.ranked()[0].score, 1.0);
  EXPECT_LT(pm.ranked()[1].score, 1.0);
  EXPECT_DOUBLE_EQ(pm.loc_score(0), 1.0);
  EXPECT_DOUBLE_EQ(pm.loc_score(99), 0.0);
}

TEST(PredicateManager, ThresholdKindOutranksUnreachedAtEqualScore) {
  std::vector<RunLog> logs;
  for (int i = 0; i < 10; ++i) {
    const bool faulty = i % 2 == 1;
    LogRecord rec0{0, {mk_var("sep", faulty ? 50.0 : 1.0)}};
    logs.push_back(mk_log(i, faulty, {rec0}));
    if (!faulty) {
      // Location 1 observed only on correct runs -> unreached predicate
      // with score 1.0.
      logs.back().records.push_back({1, {mk_var("post", 1.0)}});
    }
  }
  SuffStats s;
  s.ingest(logs);
  PredicateManager pm;
  pm.build(s);
  ASSERT_GE(pm.ranked().size(), 2u);
  EXPECT_EQ(pm.ranked()[0].pk, PredKind::kGt);
  EXPECT_EQ(pm.ranked()[1].pk, PredKind::kUnreached);
}

TEST(PredicateManager, AllCorrectLogsYieldNoPredicates) {
  // Degenerate input: the workload never failed. There is no faulty class to
  // separate from, so no predicate may be emitted (rather than, say, a
  // spurious kUnreached for every location).
  std::vector<RunLog> logs;
  for (int i = 0; i < 20; ++i) {
    logs.push_back(mk_log(i, false, {{0, {mk_var("x", i)}}}));
  }
  SuffStats s;
  s.ingest(logs);
  EXPECT_EQ(s.num_faulty_runs(), 0u);
  PredicateManager pm;
  pm.build(s);
  EXPECT_TRUE(pm.ranked().empty());
  EXPECT_DOUBLE_EQ(pm.loc_score(0), 0.0);
}

TEST(PredicateManager, AllFaultyLogsYieldNoPredicates) {
  // Degenerate input: every run failed. "Reached at all" would separate
  // nothing (score 0), so again no predicate survives.
  std::vector<RunLog> logs;
  for (int i = 0; i < 20; ++i) {
    logs.push_back(mk_log(i, true, {{0, {mk_var("x", i)}}}));
  }
  SuffStats s;
  s.ingest(logs);
  EXPECT_EQ(s.num_correct_runs(), 0u);
  PredicateManager pm;
  pm.build(s);
  EXPECT_TRUE(pm.ranked().empty());
}

TEST(Predicate, TiedThresholdsBreakDeterministically) {
  // correct = {1,3}, faulty = {2,4} admits two Eq.1-optimal cuts with equal
  // Eq.2 score: (> 1.5) and (> 3.5), both with error 1 and score 0.5. The
  // scan visits cuts in ascending order, kGt before kLt, and only a strict
  // improvement replaces the incumbent — so the first optimum must win.
  // This ordering is part of the determinism contract (same predicate on
  // every platform and thread count); the fuzz harness relies on it.
  VarSuff vs;
  vs.loc = 0;
  vs.var = "x FUNCPARAM";
  add_all(vs, false, {1, 3});
  add_all(vs, true, {2, 4});
  vs.correct_runs = 2;
  vs.faulty_runs = 2;
  Predicate p;
  ASSERT_TRUE(fit_predicate(vs, 2, 2, p));
  EXPECT_EQ(p.error, 1u);
  EXPECT_DOUBLE_EQ(p.score, 0.5);
  EXPECT_EQ(p.pk, PredKind::kGt);
  EXPECT_DOUBLE_EQ(p.threshold, 1.5);
}

// The threshold scan as first written: every cut rescans both histograms.
// O(D^2), kept as the reference the linear sweep in fit_predicate must match.
struct ReferenceFit {
  bool found{false};
  PredKind pk{PredKind::kGt};
  double threshold{0.0};
  double p_correct{0.0};
  double p_faulty{0.0};
  double score{0.0};
  std::size_t error{0};
};

ReferenceFit reference_threshold_fit(const VarSuff& vs) {
  std::set<double> distinct;
  for (const auto& [v, cnt] : vs.correct) distinct.insert(v);
  for (const auto& [v, cnt] : vs.faulty) distinct.insert(v);
  ReferenceFit best;
  if (distinct.size() < 2) return best;
  std::vector<double> cuts;
  double prev = 0.0;
  bool first = true;
  for (double v : distinct) {
    if (!first) cuts.push_back((prev + v) / 2.0);
    prev = v;
    first = false;
  }
  for (double thr : cuts) {
    for (PredKind pk : {PredKind::kGt, PredKind::kLt}) {
      Predicate tmp;
      tmp.pk = pk;
      tmp.threshold = thr;
      std::uint64_t c_in = 0, f_in = 0;
      for (const auto& [v, cnt] : vs.correct) c_in += tmp.holds(v) ? cnt : 0;
      for (const auto& [v, cnt] : vs.faulty) f_in += tmp.holds(v) ? cnt : 0;
      const std::size_t err =
          static_cast<std::size_t>(c_in + (vs.faulty_total - f_in));
      const double pc =
          static_cast<double>(c_in) / static_cast<double>(vs.correct_total);
      const double pf =
          static_cast<double>(f_in) / static_cast<double>(vs.faulty_total);
      const double score = std::abs(pc - pf);
      if (!best.found || err < best.error ||
          (err == best.error && score > best.score)) {
        best = {true, pk, thr, pc, pf, score, err};
      }
    }
  }
  return best;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Predicate, SweepMatchesReferenceScan) {
  // Random class histograms drawn from a pool of awkward values, listed so
  // that neighbours in the pool are the interesting pairs: adjacent doubles
  // whose midpoint rounds onto one of them, signed zeros next to the
  // smallest subnormal, neighbours near the largest double whose sum
  // overflows to a +inf cut, and -inf next to +inf (a NaN cut). Most trials
  // draw from a window of two to four neighbours; every fourth from the
  // whole pool. Every field the scan decides must match the reference bit
  // for bit.
  const double big = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const double pool[] = {std::nextafter(1.0, 0.0),
                         1.0,
                         std::nextafter(1.0, 2.0),
                         3.0,
                         std::nextafter(3.0, 4.0),
                         536.5,
                         537.0,
                         -2.0,
                         std::nextafter(-2.0, -3.0),
                         0.0,
                         -0.0,
                         std::numeric_limits<double>::denorm_min(),
                         1e6,
                         std::nextafter(big, 0.0),
                         big,
                         -big,
                         -inf,
                         inf};
  const auto n_pool = static_cast<std::int64_t>(sizeof pool / sizeof pool[0]);
  Rng rng(20261017);
  int fitted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    VarSuff vs;
    vs.loc = 0;
    vs.var = "x FUNCPARAM";
    std::int64_t lo = 0, hi = n_pool - 1;
    if (trial % 4 != 0) {
      lo = rng.uniform(0, n_pool - 2);
      hi = std::min(n_pool - 1, lo + rng.uniform(1, 3));
    }
    for (bool faulty : {false, true}) {
      const auto draws = rng.uniform(1, 6);
      for (std::int64_t i = 0; i < draws; ++i) {
        const auto at = static_cast<std::size_t>(rng.uniform(lo, hi));
        vs.add(faulty, pool[at], static_cast<std::uint64_t>(rng.uniform(1, 3)));
      }
    }
    vs.correct_runs = vs.correct_total;
    vs.faulty_runs = vs.faulty_total;
    const ReferenceFit ref = reference_threshold_fit(vs);
    Predicate p;
    const bool ok = fit_predicate(vs, vs.correct_runs, vs.faulty_runs, p);
    EXPECT_EQ(ok, ref.found && ref.score > 0.0) << "trial " << trial;
    if (!ref.found) continue;
    ++fitted;
    EXPECT_EQ(p.pk, ref.pk) << "trial " << trial;
    EXPECT_EQ(bits(p.threshold), bits(ref.threshold)) << "trial " << trial;
    EXPECT_EQ(bits(p.p_correct), bits(ref.p_correct)) << "trial " << trial;
    EXPECT_EQ(bits(p.p_faulty), bits(ref.p_faulty)) << "trial " << trial;
    EXPECT_EQ(bits(p.score), bits(ref.score)) << "trial " << trial;
    EXPECT_EQ(p.error, ref.error) << "trial " << trial;
  }
  EXPECT_GT(fitted, 2000);
}

TEST(Wilson, BoundsBracketAndConverge) {
  // z = 0 is the plug-in estimate; n = 0 is uninformative.
  EXPECT_DOUBLE_EQ(wilson_lower(0.7, 10, 0.0), 0.7);
  EXPECT_DOUBLE_EQ(wilson_upper(0.7, 10, 0.0), 0.7);
  EXPECT_DOUBLE_EQ(wilson_lower(0.7, 0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(wilson_upper(0.7, 0, 2.0), 1.0);
  // Bounds bracket the estimate and tighten with support.
  const double lo10 = wilson_lower(1.0, 10, 2.0);
  const double lo100 = wilson_lower(1.0, 100, 2.0);
  EXPECT_LT(lo10, 1.0);
  EXPECT_GT(lo10, 0.5);
  EXPECT_GT(lo100, lo10);
  EXPECT_GT(wilson_upper(0.0, 10, 2.0), 0.0);
  EXPECT_LT(wilson_upper(0.0, 100, 2.0), wilson_upper(0.0, 10, 2.0));
}

TEST(Wilson, GoldenValues) {
  // Pinned reference values for the shared Wilson helpers (stats/wilson.h).
  // Both predicate fitting and guidance's injection gate flow through these
  // functions; a change that shifts any of them is a scoring change and must
  // be deliberate.
  EXPECT_DOUBLE_EQ(wilson_lower(0.7, 10, 2.0), 0.39133118769058556);
  EXPECT_DOUBLE_EQ(wilson_upper(0.7, 10, 2.0), 0.8943830980237001);
  EXPECT_DOUBLE_EQ(wilson_lower(1.0, 10, 2.0), 5.0 / 7.0);
  EXPECT_DOUBLE_EQ(wilson_lower(0.5, 20, 2.0), 0.29587585476806844);
  EXPECT_DOUBLE_EQ(wilson_upper(0.0, 10, 2.0), 2.0 / 7.0);
  EXPECT_DOUBLE_EQ(gap_lcb(0.0, 10, 0.7, 10, 2.0), 0.10561690197629986);
  EXPECT_DOUBLE_EQ(gap_lcb(1.0, 10, 0.2, 5, 2.0), 0.08280998395240913);
  // Identical rates: no provable gap.
  EXPECT_DOUBLE_EQ(gap_lcb(0.5, 10, 0.5, 10, 2.0), 0.0);
  // Symmetric in which side is larger.
  EXPECT_DOUBLE_EQ(gap_lcb(0.7, 10, 0.0, 10, 2.0),
                   gap_lcb(0.0, 10, 0.7, 10, 2.0));
}

TEST(Predicate, RecomputeScoreLcbReproducesFittedBound) {
  // The guidance gate re-derives confidence through
  // Predicate::recompute_score_lcb; for every fitted predicate kind this
  // must reproduce the stored score_lcb bit-for-bit at the fitting z.
  // Threshold kind:
  VarSuff thr;
  thr.loc = 0;
  thr.var = "x FUNCPARAM";
  add_all(thr, false, {1, 2, 3, 4});
  add_all(thr, true, {3, 4, 5, 6});
  Predicate pt;
  ASSERT_TRUE(fit_predicate(thr, 4, 4, pt));
  EXPECT_EQ(pt.recompute_score_lcb(2.0), pt.score_lcb);
  // Unreached kind:
  VarSuff unr;
  unr.loc = 1;
  unr.var = "y FUNCPARAM";
  add_all(unr, false, {1, 2});
  unr.correct_runs = 2;
  Predicate pu;
  ASSERT_TRUE(fit_predicate(unr, 3, 3, pu));
  ASSERT_EQ(pu.pk, PredKind::kUnreached);
  EXPECT_EQ(pu.recompute_score_lcb(2.0), pu.score_lcb);
  // Reached-only-in-faulty kind (score is an observation *rate*, not the
  // per-sample p_faulty — the recompute must honour that):
  VarSuff ronly;
  ronly.loc = 2;
  ronly.var = "z FUNCPARAM";
  add_all(ronly, true, {1, 2});
  ronly.faulty_runs = 2;
  Predicate pf;
  ASSERT_TRUE(fit_predicate(ronly, 3, 3, pf));
  ASSERT_EQ(pf.pk, PredKind::kGt);
  EXPECT_EQ(pf.threshold, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(pf.recompute_score_lcb(2.0), pf.score_lcb);
}

TEST(Predicate, ScoreLcbShrinksUnderStarvation) {
  // A perfect separator over 10+10 samples keeps a healthy lower bound...
  VarSuff strong;
  strong.loc = 0;
  strong.var = "x FUNCPARAM";
  for (int i = 0; i < 10; ++i) {
    strong.add(false, i);
    strong.add(true, 100 + i);
  }
  strong.correct_runs = strong.faulty_runs = 10;
  Predicate ps;
  ASSERT_TRUE(fit_predicate(strong, 10, 10, ps));
  EXPECT_DOUBLE_EQ(ps.score, 1.0);
  EXPECT_EQ(ps.n_correct, 10u);
  EXPECT_EQ(ps.n_faulty, 10u);
  EXPECT_GT(ps.score_lcb, 0.4);
  EXPECT_LT(ps.score_lcb, ps.score);

  // ...while a 7-of-10 accidental separator (the kind that suspends every
  // guided state when injected) drops below the 0.5 injection floor even
  // though its raw Eq. 2 score clears it.
  VarSuff weak;
  weak.loc = 0;
  weak.var = "x FUNCPARAM";
  for (int i = 0; i < 10; ++i) weak.add(false, i);
  for (int i = 0; i < 3; ++i) weak.add(true, i);
  for (int i = 3; i < 10; ++i) weak.add(true, 100 + i);
  Predicate pw;
  ASSERT_TRUE(fit_predicate(weak, 10, 10, pw));
  EXPECT_DOUBLE_EQ(pw.score, 0.7);
  EXPECT_LT(pw.score_lcb, 0.5);

  // With 10x the support at the same proportions the bound converges back
  // above the floor: the shrinkage penalises starvation, not imperfection.
  VarSuff weak10;
  weak10.loc = 0;
  weak10.var = "x FUNCPARAM";
  for (int i = 0; i < 10; ++i) weak10.add(false, i, 10);
  for (int i = 0; i < 3; ++i) weak10.add(true, i, 10);
  for (int i = 3; i < 10; ++i) weak10.add(true, 100 + i, 10);
  Predicate pw10;
  ASSERT_TRUE(fit_predicate(weak10, 10, 10, pw10));
  EXPECT_DOUBLE_EQ(pw10.score, 0.7);
  EXPECT_GT(pw10.score_lcb, 0.5);

  // confidence_z = 0 disables the shrinkage entirely.
  Predicate praw;
  ASSERT_TRUE(fit_predicate(weak, 10, 10, praw, /*confidence_z=*/0.0));
  EXPECT_DOUBLE_EQ(praw.score_lcb, praw.score);
}

TEST(PredicateManager, EqualScoresRankBySupport) {
  // Two locations separate perfectly, one from 3+3 samples, one from
  // 12+12. Equal raw score — the better-supported predicate must rank
  // first (and would survive an injection floor the starved one fails).
  std::vector<RunLog> logs;
  for (int i = 0; i < 24; ++i) {
    const bool faulty = i % 2 == 1;
    std::vector<LogRecord> recs{{0, {mk_var("big", faulty ? 50.0 : 1.0)}}};
    if (i < 6) {
      recs.push_back({1, {mk_var("small", faulty ? 50.0 : 1.0)}});
    }
    logs.push_back(mk_log(i, faulty, std::move(recs)));
  }
  SuffStats s;
  s.ingest(logs);
  PredicateManager pm;
  pm.build(s);
  ASSERT_GE(pm.ranked().size(), 2u);
  EXPECT_DOUBLE_EQ(pm.ranked()[0].score, 1.0);
  EXPECT_DOUBLE_EQ(pm.ranked()[1].score, 1.0);
  EXPECT_EQ(pm.ranked()[0].var, "big FUNCPARAM");
  EXPECT_GT(pm.ranked()[0].score_lcb, pm.ranked()[1].score_lcb);
}

TEST(Predicate, ScoreAndErrorStayWithinBounds) {
  // Eq. 2 is a difference of probabilities and Eq. 1 counts a subset of the
  // pooled samples; fuzz randomised inputs and check the invariants hold.
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    VarSuff vs;
    vs.loc = 0;
    vs.var = "x FUNCPARAM";
    const int nc = 1 + static_cast<int>(rng.uniform(0, 8));
    const int nf = 1 + static_cast<int>(rng.uniform(0, 8));
    for (int i = 0; i < nc; ++i) vs.add(false, rng.uniform(-5, 5));
    for (int i = 0; i < nf; ++i) vs.add(true, rng.uniform(-5, 5));
    vs.correct_runs = static_cast<std::size_t>(nc);
    vs.faulty_runs = static_cast<std::size_t>(nf);
    Predicate p;
    if (!fit_predicate(vs, vs.correct_runs, vs.faulty_runs, p)) continue;
    EXPECT_GE(p.score, 0.0);
    EXPECT_LE(p.score, 1.0);
    EXPECT_GE(p.p_correct, 0.0);
    EXPECT_LE(p.p_correct, 1.0);
    EXPECT_GE(p.p_faulty, 0.0);
    EXPECT_LE(p.p_faulty, 1.0);
    EXPECT_LE(p.error, vs.correct_total + vs.faulty_total);
    EXPECT_GT(p.score, 0.0);  // zero-score predicates must not survive
  }
}

TEST(TransitionGraph, CountsAndConfidence) {
  std::vector<RunLog> logs;
  // Faulty logs: A->B->C twice; A->C once.
  logs.push_back(mk_log(0, true, {{0, {}}, {1, {}}, {2, {}}}));
  logs.push_back(mk_log(1, true, {{0, {}}, {1, {}}, {2, {}}}));
  logs.push_back(mk_log(2, true, {{0, {}}, {2, {}}}));
  logs.push_back(mk_log(3, false, {{5, {}}, {6, {}}}));  // correct: ignored
  TransitionGraphOptions opts;
  opts.min_count = 1;
  opts.min_confidence = 0.0;
  TransitionGraph g(opts);
  g.build(suff_of(logs));
  EXPECT_EQ(g.occurrences(0), 3u);
  EXPECT_EQ(g.occurrences(5), 0u);  // faulty-only mining
  const auto& succ = g.successors(0);
  ASSERT_EQ(succ.size(), 2u);
  // mu(0->1) = 2/3, mu(0->2) = 1/3.
  EXPECT_EQ(succ[0].to, 1);
  EXPECT_NEAR(succ[0].confidence, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(succ[1].confidence, 1.0 / 3.0, 1e-9);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 0));

  // Mining both classes adds the correct runs' transitions to the same
  // tallies.
  opts.faulty_only = false;
  TransitionGraph both(opts);
  both.build(suff_of(logs));
  EXPECT_EQ(both.occurrences(0), 3u);
  EXPECT_EQ(both.occurrences(5), 1u);
  EXPECT_TRUE(both.has_edge(5, 6));
  EXPECT_EQ(both.entry_candidates(), std::vector<monitor::LocId>{0});
}

TEST(TransitionGraph, ThresholdsFilterEdges) {
  std::vector<RunLog> logs;
  for (int i = 0; i < 100; ++i) {
    logs.push_back(mk_log(i, true, {{0, {}}, {1, {}}}));
  }
  logs.push_back(mk_log(100, true, {{0, {}}, {9, {}}}));  // rare transition
  TransitionGraphOptions opts;
  opts.min_confidence = 0.05;
  opts.min_count = 2;
  TransitionGraph g(opts);
  g.build(suff_of(logs));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 9));  // count 1 < 2 and mu ~0.01 < 0.05
}

TEST(TransitionGraph, EntryCandidateIsModalFirstRecord) {
  std::vector<RunLog> logs;
  for (int i = 0; i < 20; ++i) {
    logs.push_back(mk_log(i, true, {{0, {}}, {1, {}}, {2, {}}}));
  }
  for (int i = 0; i < 5; ++i) {
    // Sampling dropped the first record in a few logs; those openings must
    // not displace the true entry.
    logs.push_back(mk_log(100 + i, true, {{1, {}}, {2, {}}}));
  }
  TransitionGraph g;
  g.build(suff_of(logs));
  const auto entries = g.entry_candidates();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], 0);
}

TEST(TransitionGraph, EntryCandidatesFallBackWithoutLogs) {
  TransitionGraph g;
  g.build(SuffStats{});
  EXPECT_TRUE(g.entry_candidates().empty());
}

TEST(TransitionGraph, FailureNodeIsModalLastRecord) {
  std::vector<RunLog> logs;
  logs.push_back(mk_log(0, true, {{0, {}}, {7, {}}}));
  logs.push_back(mk_log(1, true, {{0, {}}, {7, {}}}));
  logs.push_back(mk_log(2, true, {{0, {}}, {3, {}}}));
  logs.push_back(mk_log(3, false, {{0, {}}, {9, {}}}));  // correct ignored
  EXPECT_EQ(TransitionGraph::failure_node(suff_of(logs)), 7);
}

TEST(TransitionGraph, FailureNodeNoFaultyLogs) {
  std::vector<RunLog> logs;
  logs.push_back(mk_log(0, false, {{0, {}}}));
  EXPECT_EQ(TransitionGraph::failure_node(suff_of(logs)), monitor::kNoLoc);
}

TEST(TransitionGraph, SelfLoopDoesNotHideEntry) {
  std::vector<RunLog> logs;
  logs.push_back(mk_log(0, true, {{0, {}}, {0, {}}, {1, {}}}));
  logs.push_back(mk_log(1, true, {{0, {}}, {1, {}}}));
  TransitionGraphOptions opts;
  opts.min_confidence = 0.0;
  opts.min_count = 1;
  TransitionGraph g(opts);
  g.build(suff_of(logs));
  const auto entries = g.entry_nodes();
  EXPECT_NE(std::find(entries.begin(), entries.end(), 0), entries.end());
}

}  // namespace
}  // namespace statsym::stats
