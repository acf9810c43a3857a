// Protocol hardening for `statsym serve` (ISSUE 10 satellite, mirroring the
// shard_test edge-case suite): every malformed input — bad header, unknown
// version, truncated body, oversized request, interleaved clients — must
// produce a structured error reply and leave the session fully reusable.
// Plus the CLI flag-misuse check (check_serve_flags) and the ordered-reply
// guarantee of the server loop.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solver/fp128.h"
#include "support/rng.h"
#include "support/strings.h"

namespace statsym::serve {
namespace {

// --- FrameReader ----------------------------------------------------------

ReadResult read_one(const std::string& text) {
  std::istringstream in(text);
  FrameReader reader(in);
  ReadResult r;
  EXPECT_TRUE(reader.next(r));
  return r;
}

TEST(FrameReader, WellFormedFrame) {
  const auto r = read_one("statsym-serve|1|req-1|2\ncmd|ping\nx|y\nendreq\n");
  EXPECT_EQ(r.error, FrameError::kNone);
  EXPECT_EQ(r.frame.id, "req-1");
  EXPECT_EQ(r.frame.version, 1u);
  ASSERT_EQ(r.frame.body.size(), 2u);
  EXPECT_EQ(r.frame.body[0], "cmd|ping");
}

TEST(FrameReader, EmptyInputIsCleanEof) {
  std::istringstream in("");
  FrameReader reader(in);
  ReadResult r;
  EXPECT_FALSE(reader.next(r));
}

TEST(FrameReader, GarbageLineIsBadHeader) {
  const auto r = read_one("hello world\n");
  EXPECT_EQ(r.error, FrameError::kBadHeader);
  EXPECT_FALSE(r.message.empty());
  EXPECT_TRUE(r.frame.id.empty());  // never got far enough to learn the id
}

TEST(FrameReader, MalformedHeaderFields) {
  // Wrong arity, empty id, non-numeric counts: all kBadHeader.
  for (const char* h :
       {"statsym-serve|1|id\n", "statsym-serve|1||2\n",
        "statsym-serve|x|id|2\n", "statsym-serve|1|id|x\n",
        "statsym-serve|1|id|2|extra\n"}) {
    EXPECT_EQ(read_one(h).error, FrameError::kBadHeader) << h;
  }
}

TEST(FrameReader, UnknownVersionRejectedBodyDrained) {
  std::istringstream in(
      "statsym-serve|2|old|1\ncmd|ping\nendreq\n"
      "statsym-serve|1|new|1\ncmd|ping\nendreq\n");
  FrameReader reader(in);
  ReadResult r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.error, FrameError::kBadVersion);
  EXPECT_EQ(r.frame.id, "old");  // id survives for the error reply
  // The broken frame's body was consumed: the next frame parses cleanly.
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.error, FrameError::kNone);
  EXPECT_EQ(r.frame.id, "new");
}

TEST(FrameReader, OversizedDeclarationRejected) {
  const std::string big =
      "statsym-serve|1|big|" + std::to_string(kMaxBodyLines + 1) + "\n";
  std::string text = big;
  for (std::size_t i = 0; i <= kMaxBodyLines; ++i) text += "k|v\n";
  text += "endreq\n";
  const auto r = read_one(text);
  EXPECT_EQ(r.error, FrameError::kOversized);
  EXPECT_EQ(r.frame.id, "big");
}

TEST(FrameReader, OversizedBodyLineRejected) {
  std::string text = "statsym-serve|1|fat|1\nk|";
  text += std::string(kMaxLineBytes, 'a');
  text += "\nendreq\n";
  const auto r = read_one(text);
  EXPECT_EQ(r.error, FrameError::kOversized);
}

TEST(FrameReader, TruncatedByEof) {
  const auto r = read_one("statsym-serve|1|cut|3\ncmd|ping\n");
  EXPECT_EQ(r.error, FrameError::kTruncatedBody);
  EXPECT_EQ(r.frame.id, "cut");
}

TEST(FrameReader, EarlyTrailerIsTruncation) {
  const auto r = read_one("statsym-serve|1|cut|3\ncmd|ping\nendreq\n");
  EXPECT_EQ(r.error, FrameError::kTruncatedBody);
}

TEST(FrameReader, MissingTrailerRejected) {
  const auto r =
      read_one("statsym-serve|1|open|1\ncmd|ping\nnot-a-trailer\n");
  EXPECT_EQ(r.error, FrameError::kMissingTrailer);
}

TEST(FrameReader, InterleavedClientResyncsOnNextHeader) {
  // Client A's body is cut off by client B's header (two writers on one
  // pipe without framing discipline): A fails with a structured error, B's
  // frame — pushed back by the reader — parses completely.
  std::istringstream in(
      "statsym-serve|1|client-a|4\ncmd|run\n"
      "statsym-serve|1|client-b|1\ncmd|ping\nendreq\n");
  FrameReader reader(in);
  ReadResult r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.error, FrameError::kTruncatedBody);
  EXPECT_EQ(r.frame.id, "client-a");
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.error, FrameError::kNone);
  EXPECT_EQ(r.frame.id, "client-b");
  ASSERT_EQ(r.frame.body.size(), 1u);
  EXPECT_FALSE(reader.next(r));
}

// --- reply framing --------------------------------------------------------

TEST(Reply, FormatParseRoundTrip) {
  const std::string text =
      format_reply("req-9", true, {"verdict|found", "paths|6"});
  Reply r;
  std::string error;
  ASSERT_TRUE(parse_reply(text, r, &error)) << error;
  EXPECT_EQ(r.version, kServeProtocolVersion);
  EXPECT_EQ(r.id, "req-9");
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_EQ(body_value(r.body, "verdict"), "found");
  EXPECT_EQ(body_value(r.body, "paths"), "6");
  EXPECT_FALSE(body_value(r.body, "missing").has_value());
}

TEST(Reply, ErrorReplyCarriesCodeAndMessage) {
  Reply r;
  ASSERT_TRUE(parse_reply(
      format_error_reply("id", "bad-version", "nope"), r, nullptr));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(body_value(r.body, "code"), "bad-version");
  EXPECT_EQ(body_value(r.body, "error"), "nope");
}

TEST(Reply, ParseRejectsDamage) {
  Reply r;
  EXPECT_FALSE(parse_reply("", r));
  EXPECT_FALSE(parse_reply("statsym-reply|1|id|maybe|0\nendreply\n", r));
  EXPECT_FALSE(parse_reply("statsym-reply|1|id|ok|2\nonly-one\nendreply\n", r));
  EXPECT_FALSE(parse_reply("statsym-reply|1|id|ok|0\n", r));
}

// --- session request handling ---------------------------------------------

Frame make_frame(std::string id, std::vector<std::string> body) {
  Frame f;
  f.id = std::move(id);
  f.body = std::move(body);
  return f;
}

Reply handle(ServeSession& s, const Frame& f) {
  Reply r;
  std::string error;
  EXPECT_TRUE(parse_reply(s.handle(f), r, &error)) << error;
  EXPECT_EQ(r.id, f.id);
  return r;
}

TEST(ServeSession, PingAndStats) {
  ServeSession s{ServeOptions{}};
  EXPECT_TRUE(handle(s, make_frame("p", {"cmd|ping"})).ok);
  const Reply stats = handle(s, make_frame("s", {"cmd|stats"}));
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(body_value(stats.body, "programs"), "0");
}

TEST(ServeSession, BadRequestsAreErrorsAndSessionSurvives) {
  ServeSession s{ServeOptions{}};
  const struct {
    std::vector<std::string> body;
    const char* why;
  } cases[] = {
      {{"cmd|run"}, "missing app"},
      {{"cmd|run", "app|no-such-app"}, "unknown app"},
      {{"cmd|run", "app|fig2", "bogus|1"}, "unknown field"},
      {{"cmd|run", "app|fig2", "seed|abc"}, "bad seed"},
      {{"cmd|run", "app|fig2", "jobs|-2"}, "bad jobs"},
      {{"cmd|run", "app|fig2", "sampling|7"}, "bad sampling"},
      {{"cmd|run", "app|fig2", "trace|yes"}, "trace is 0 or 1"},
      {{"cmd|launch-missiles"}, "unknown cmd"},
      {{"cmd|save"}, "save without store path"},
  };
  for (const auto& c : cases) {
    const Reply r = handle(s, make_frame("bad", c.body));
    EXPECT_FALSE(r.ok) << c.why;
    EXPECT_TRUE(body_value(r.body, "error").has_value()) << c.why;
  }
  // After the full parade of abuse the session still serves.
  const Reply ok = handle(s, make_frame("ok", {"cmd|run", "app|fig2",
                                               "seed|7"}));
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(body_value(ok.body, "verdict"), "found");
  EXPECT_EQ(s.metrics().counter("serve.requests"),
            std::size(cases) + 1);
}

// Echoed seeds are full 64-bit values: sending one back replays the request.
// About half of all derived seeds are >= 2^63.
TEST(ServeSession, EchoedSeedAboveTwoToThe63Replays) {
  ServeSession s{ServeOptions{}};
  std::string id;
  for (int i = 0; id.empty(); ++i) {
    const std::string candidate = "high-" + std::to_string(i);
    const std::uint64_t seed = derive_seed(ServeOptions{}.session_seed,
                                           solver::fp_hash_str(candidate));
    if (seed >> 63 != 0) id = candidate;
  }
  const Reply first = handle(s, make_frame(id, {"cmd|run", "app|fig2"}));
  ASSERT_TRUE(first.ok);
  const auto echoed = body_value(first.body, "seed");
  ASSERT_TRUE(echoed.has_value());
  std::uint64_t seed = 0;
  ASSERT_TRUE(parse_u64(*echoed, seed));
  EXPECT_GE(seed, std::uint64_t{1} << 63);

  const Reply replay =
      handle(s, make_frame("replay", {"cmd|run", "app|fig2",
                                      "seed|" + std::string(*echoed)}));
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.body, first.body);
}

// The reply's solver lines are the solver.* counters of the run's metrics,
// under the same names and with the same values.
TEST(ServeSession, SolverReplyLinesMatchTheMetricsCounters) {
  ServeSession s{ServeOptions{}};
  const Reply r = handle(s, make_frame("m", {"cmd|run", "app|fig2", "seed|7",
                                             "metrics|1"}));
  ASSERT_TRUE(r.ok);
  // Counter lines of the metrics section read `    "name": value,`; the
  // counters block ends where the gauges block starts.
  std::map<std::string, std::string> counters;
  bool in_metrics = false;
  for (const std::string& line : r.body) {
    if (line == "beginmetrics") in_metrics = true;
    if (!in_metrics) continue;
    if (line.find("\"gauges\"") != std::string::npos) break;
    const std::size_t open = line.find("\"solver.");
    const std::size_t colon = line.find("\": ");
    if (open == std::string::npos || colon == std::string::npos) continue;
    std::string value = line.substr(colon + 3);
    if (!value.empty() && value.back() == ',') value.pop_back();
    counters[line.substr(open + 1, colon - open - 1)] = value;
  }
  std::map<std::string, std::string> replied;
  for (const std::string& line : r.body) {
    if (!line.starts_with("solver.")) continue;
    const std::size_t bar = line.find('|');
    ASSERT_NE(bar, std::string::npos) << line;
    replied[line.substr(0, bar)] = line.substr(bar + 1);
  }
  EXPECT_TRUE(replied.contains("solver.queries"));
  EXPECT_EQ(replied, counters);
}

TEST(ServeSession, ShutdownFlagSticks) {
  ServeSession s{ServeOptions{}};
  EXPECT_FALSE(s.shutdown_requested());
  EXPECT_TRUE(handle(s, make_frame("x", {"cmd|shutdown"})).ok);
  EXPECT_TRUE(s.shutdown_requested());
}

// --- store memory: empty per-program caches are not kept -------------------

// A program with no fault: collection never finds a faulty run, the engine
// stops before Phase 3, and the program's solver cache stays empty.
apps::AppSpec fault_free_app() {
  ir::ModuleBuilder mb("clean");
  auto f = mb.func("main", {});
  f.ret(f.ci(0));
  apps::AppSpec app;
  app.name = "clean";
  app.module = mb.build();
  app.workload = [](Rng&) { return interp::RuntimeInput{}; };
  return app;
}

void resolve_clean(ServeSession& s) {
  s.set_resolver([](const std::string& name) {
    return name == "clean" ? fault_free_app() : apps::make_app(name);
  });
}

TEST(ServeSession, FaultFreeProgramsLeaveNoCacheBehind) {
  ServeSession s{ServeOptions{}};
  resolve_clean(s);
  for (const char* id : {"c1", "c2", "c3"}) {
    const Reply r = handle(s, make_frame(id, {"cmd|run", "app|clean"}));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(body_value(r.body, "verdict"), "not-found");
  }
  EXPECT_EQ(s.num_programs(), 0u);
  EXPECT_EQ(s.store_text(), ServeSession{ServeOptions{}}.store_text());

  // A program that reaches the solver keeps its (non-empty) cache.
  ASSERT_TRUE(handle(s, make_frame("f", {"cmd|run", "app|fig2", "seed|7"})).ok);
  const Reply stats = handle(s, make_frame("s", {"cmd|stats"}));
  EXPECT_EQ(body_value(stats.body, "programs"), "1");
  EXPECT_EQ(s.num_programs(), 1u);
}

TEST(ServeSession, ConcurrentRequestsForOneProgramShareThenDropItsCache) {
  // Several in-flight requests for the same fault-free program share one
  // store slot; the last to finish drops it. The fig2 slot survives.
  ServeSession s{ServeOptions{}};
  resolve_clean(s);
  std::string text;
  for (int i = 0; i < 6; ++i) {
    text += "statsym-serve|1|c" + std::to_string(i) +
            "|2\ncmd|run\napp|clean\nendreq\n";
    if (i % 3 == 0) {
      text += "statsym-serve|1|f" + std::to_string(i) +
              "|3\ncmd|run\napp|fig2\nseed|7\nendreq\n";
    }
  }
  std::istringstream in(text);
  std::ostringstream out;
  EXPECT_EQ(serve_stream(in, out, s, /*jobs=*/4), 8u);
  EXPECT_EQ(out.str().find("|error|"), std::string::npos);
  EXPECT_EQ(s.num_programs(), 1u);
}

// --- server loop ----------------------------------------------------------

TEST(ServeStream, RepliesStayInRequestOrderUnderConcurrency) {
  // Four requests with very different costs on a 4-thread pool: replies
  // must still come back positionally — request k pairs with reply k.
  ServeSession s{ServeOptions{}};
  std::istringstream in(
      "statsym-serve|1|r1|2\ncmd|run\napp|fig2\nendreq\n"
      "statsym-serve|1|r2|1\ncmd|ping\nendreq\n"
      "statsym-serve|1|r3|2\ncmd|run\napp|fig2\nendreq\n"
      "statsym-serve|1|r4|1\ncmd|ping\nendreq\n");
  std::ostringstream out;
  EXPECT_EQ(serve_stream(in, out, s, /*jobs=*/4), 4u);
  std::vector<std::string> ids;
  for (const std::string& line : split(out.str(), '\n')) {
    if (starts_with(line, "statsym-reply|")) ids.push_back(split(line, '|')[2]);
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"r1", "r2", "r3", "r4"}));
}

TEST(ServeStream, MalformedFramesGetStructuredErrorsSessionContinues) {
  ServeSession s{ServeOptions{}};
  std::istringstream in(
      "garbage\n"
      "statsym-serve|9|v|1\ncmd|ping\nendreq\n"
      "statsym-serve|1|ok|1\ncmd|ping\nendreq\n");
  std::ostringstream out;
  EXPECT_EQ(serve_stream(in, out, s, 1), 3u);
  const std::string o = out.str();
  EXPECT_NE(o.find("code|bad-header"), std::string::npos);
  EXPECT_NE(o.find("code|bad-version"), std::string::npos);
  EXPECT_NE(o.find("statsym-reply|1|ok|ok|"), std::string::npos);
}

TEST(ServeStream, ShutdownStopsReading) {
  ServeSession s{ServeOptions{}};
  std::istringstream in(
      "statsym-serve|1|bye|1\ncmd|shutdown\nendreq\n"
      "statsym-serve|1|after|1\ncmd|ping\nendreq\n");
  std::ostringstream out;
  EXPECT_EQ(serve_stream(in, out, s, 1), 1u);  // 'after' never read
  EXPECT_EQ(out.str().find("after"), std::string::npos);
}

// --- CLI flag misuse ---------------------------------------------------------

TEST(ServeFlags, OneShotOutputFlagsRejectedWithServe) {
  EXPECT_EQ(check_serve_flags(false, false, false), "");
  const std::string e1 = check_serve_flags(true, false, false);
  EXPECT_NE(e1.find("--trace-out"), std::string::npos);
  EXPECT_NE(e1.find("trace|1"), std::string::npos);  // points at the fix
  const std::string e2 = check_serve_flags(false, true, false);
  EXPECT_NE(e2.find("--trace-chrome"), std::string::npos);
  const std::string e3 = check_serve_flags(false, false, true);
  EXPECT_NE(e3.find("--metrics-out"), std::string::npos);
}

}  // namespace
}  // namespace statsym::serve
