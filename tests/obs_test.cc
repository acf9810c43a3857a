// Unit tests for the observability layer (obs/metrics.h, obs/trace.h):
// histogram bucketing, registry merge policies and schedule-invariance,
// JSON rendering determinism, the trace ring's eviction accounting and both
// trace renderings.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace statsym::obs {
namespace {

// --- metrics -------------------------------------------------------------

TEST(Histogram, BucketsAreLog2) {
  Histogram h;
  h.observe(0.0);   // bucket 0
  h.observe(1.0);   // bucket 1
  h.observe(2.0);   // bucket 2
  h.observe(3.0);   // bucket 2
  h.observe(4.0);   // bucket 3
  h.observe(1e30);  // clamped to the last bucket
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.buckets[kHistBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 1e30);
}

TEST(Histogram, MergeIsPiecewiseSum) {
  Histogram a;
  Histogram b;
  a.observe(1.0);
  a.observe(5.0);
  b.observe(3.0);
  Histogram ab = a;
  ab.merge(b);
  Histogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_DOUBLE_EQ(ab.sum, ba.sum);
  EXPECT_DOUBLE_EQ(ab.min, 1.0);
  EXPECT_DOUBLE_EQ(ab.max, 5.0);
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    EXPECT_EQ(ab.buckets[i], ba.buckets[i]);
  }
  Histogram empty;
  ab.merge(empty);  // no-op
  EXPECT_EQ(ab.count, 3u);
}

TEST(MetricsRegistry, CountersSumAndDefaultToZero) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("x");
  m.add("x", 4);
  EXPECT_EQ(m.counter("x"), 5u);
  EXPECT_EQ(m.counter("absent"), 0u);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry, GaugeMergePolicies) {
  MetricsRegistry a;
  a.set_gauge("sum.seconds", 1.5, GaugeMerge::kSum);
  a.set_gauge("peak", 10.0, GaugeMerge::kMax);
  a.set_gauge("last", 1.0, GaugeMerge::kLast);
  MetricsRegistry b;
  b.set_gauge("sum.seconds", 2.5, GaugeMerge::kSum);
  b.set_gauge("peak", 7.0, GaugeMerge::kMax);
  b.set_gauge("last", 2.0, GaugeMerge::kLast);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.gauge("sum.seconds"), 4.0);
  EXPECT_DOUBLE_EQ(a.gauge("peak"), 10.0);
  EXPECT_DOUBLE_EQ(a.gauge("last"), 2.0);
  EXPECT_TRUE(a.has_gauge("peak"));
  EXPECT_FALSE(a.has_gauge("absent"));
}

TEST(MetricsRegistry, MergeOrderInvariantForCountersAndHistograms) {
  // Counters/histograms merge commutatively — the property that makes
  // per-worker registries schedule-invariant when summed.
  MetricsRegistry w1;
  MetricsRegistry w2;
  MetricsRegistry w3;
  w1.add("solver.queries", 3);
  w2.add("solver.queries", 5);
  w3.add("paths", 2);
  w1.observe("len", 4.0);
  w2.observe("len", 9.0);
  w3.observe("len", 1.0);

  MetricsRegistry fwd;
  fwd.merge(w1);
  fwd.merge(w2);
  fwd.merge(w3);
  MetricsRegistry rev;
  rev.merge(w3);
  rev.merge(w2);
  rev.merge(w1);
  EXPECT_EQ(fwd.to_json(), rev.to_json());
  EXPECT_EQ(fwd.counter("solver.queries"), 8u);
}

TEST(MetricsRegistry, ToJsonIsSortedAndStable) {
  MetricsRegistry m;
  m.add("zeta", 1);
  m.add("alpha", 2);
  m.set_gauge("g", 0.25);
  m.observe("h", 2.0);
  const std::string j = m.to_json();
  EXPECT_LT(j.find("\"alpha\""), j.find("\"zeta\""));
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(j, m.to_json());  // byte-stable
  EXPECT_EQ(MetricsRegistry{}.to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

// --- trace ---------------------------------------------------------------

TEST(TraceBuffer, RingEvictsOldestAndCountsDropped) {
  TraceBuffer b(4);
  for (int i = 0; i < 6; ++i) {
    b.emit(EventKind::kNote, i);
  }
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.total(), 6u);
  EXPECT_EQ(b.dropped(), 2u);
  const auto evs = b.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first: the surviving suffix is events 2..5.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].a, static_cast<std::int64_t>(i + 2));
  }
}

TEST(Tracer, JsonlIsDeterministicAndTyped) {
  Tracer t;  // no wall clock
  t.emit(EventKind::kPhaseBegin, 0, 0, 0, "stat");
  t.emit(EventKind::kStateFork, 7, 8);
  t.emit(EventKind::kSolverSlice, 2, 0);
  t.emit(EventKind::kPhaseEnd, 0, 0, 0, "stat");
  const std::string jsonl = t.to_jsonl();
  EXPECT_EQ(jsonl,
            "{\"seq\": 0, \"ev\": \"phase-begin\", \"lane\": 0, "
            "\"name\": \"stat\"}\n"
            "{\"seq\": 1, \"ev\": \"state-fork\", \"lane\": 0, "
            "\"parent\": 7, \"child\": 8}\n"
            "{\"seq\": 2, \"ev\": \"solver-slice\", \"lane\": 0, "
            "\"level\": 2, \"verdict\": 0}\n"
            "{\"seq\": 3, \"ev\": \"phase-end\", \"lane\": 0, "
            "\"name\": \"stat\"}\n");
  EXPECT_EQ(jsonl, t.to_jsonl());  // byte-stable
  // Without a clock, wall stamps are absent even when requested.
  EXPECT_EQ(t.to_jsonl(/*include_wall=*/true), jsonl);
}

TEST(Tracer, JsonlEscapesNames) {
  Tracer t;
  t.emit(EventKind::kNote, 0, 0, 0, "a\"b\\c\nd");
  EXPECT_NE(t.to_jsonl().find("\"name\": \"a\\\"b\\\\c\\nd\""),
            std::string::npos);
}

TEST(Tracer, WallClockStampsOnlyWhenEnabled) {
  TraceOptions opts;
  opts.wall_clock = true;
  Tracer t(opts);
  t.emit(EventKind::kNote, 1);
  const auto evs = t.buffer().snapshot();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_GE(evs[0].wall, 0.0);
  // The deterministic rendering still excludes the stamp...
  EXPECT_EQ(t.to_jsonl().find("wall_us"), std::string::npos);
  // ...and the opt-in rendering includes it.
  EXPECT_NE(t.to_jsonl(/*include_wall=*/true).find("wall_us"),
            std::string::npos);
}

TEST(Tracer, ChromeExportPairsPhasesAndMarksInstants) {
  Tracer t;
  t.emit(EventKind::kPhaseBegin, 0, 0, 0, "stat");
  t.emit(EventKind::kCandidateRanked, 0, 4, 1000000);
  t.emit(EventKind::kPhaseEnd, 0, 0, 0, "stat");
  std::ostringstream os;
  t.write_chrome(os);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"stat\""), std::string::npos);
  // Without wall stamps the timeline falls back to sequence numbers.
  EXPECT_NE(out.find("\"ts\": 1"), std::string::npos);
}

TEST(Tracer, EventKindNamesAreUnique) {
  const EventKind kinds[] = {
      EventKind::kPhaseBegin,      EventKind::kPhaseEnd,
      EventKind::kLogAdmitted,     EventKind::kPredicateFit,
      EventKind::kCandidateRanked, EventKind::kExecBegin,
      EventKind::kStateFork,       EventKind::kStateSuspend,
      EventKind::kStateWake,       EventKind::kStateTerminate,
      EventKind::kSolverQuery,     EventKind::kSolverSlice,
      EventKind::kExecEnd,         EventKind::kNote,
  };
  std::set<std::string> names;
  for (EventKind k : kinds) names.insert(event_kind_name(k));
  EXPECT_EQ(names.size(), std::size(kinds));
}

}  // namespace
}  // namespace statsym::obs
