// Failure-injection coverage for the disk-backed query-cache store
// (solver/cache_store.h) — ISSUE 10 satellite. Verification-on-load is
// load-bearing for `statsym serve`: a poisoned store entry must *miss*
// (and be re-solved) — never cross-wire a verdict — so every corruption
// mode gets its own test: bit flips, truncation, version bumps, header
// damage, and semantically-inconsistent entries whose checksum is valid.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "solver/cache_store.h"
#include "solver/solver.h"
#include "support/strings.h"

namespace statsym::solver {
namespace {

// Builds a shared cache holding canonical results (with models) the same
// way a candidate's executor would: through a Solver with the cache attached.
void populate(SharedQueryCache& cache) {
  ExprPool p;
  const VarId x = p.new_var("x", 0, 255);
  const VarId y = p.new_var("y", 0, 255);
  Solver s(p, {});
  s.set_shared_cache(&cache);
  const std::vector<ExprId> sat_cs{
      p.lt(p.var_expr(x), p.var_expr(y)),
      p.eq(p.add(p.var_expr(x), p.var_expr(y)), p.constant(10))};
  EXPECT_EQ(s.check(sat_cs).sat, Sat::kSat);
  const std::vector<ExprId> unsat_cs{p.lt(p.var_expr(x), p.constant(5)),
                                     p.lt(p.constant(250), p.var_expr(x))};
  EXPECT_EQ(s.check(unsat_cs).sat, Sat::kUnsat);
  ASSERT_GT(cache.size(), 0u);
}

const Fp128 kProgFp{0x1111, 0x2222};

std::vector<std::string> entry_lines(const std::string& block) {
  std::vector<std::string> out;
  for (const std::string& l : split(block, '\n')) {
    if (starts_with(l, "e|")) out.push_back(l);
  }
  return out;
}

TEST(CacheStore, BlockRoundTripByteStable) {
  SharedQueryCache a;
  populate(a);
  CacheStoreStats ws;
  const std::string text = serialize_cache_block(a, kProgFp, &ws);
  EXPECT_GT(ws.entries_written, 0u);
  EXPECT_EQ(ws.blocks, 1u);

  SharedQueryCache b;
  Fp128 fp;
  CacheStoreStats rs;
  std::string error;
  ASSERT_TRUE(deserialize_cache_block(text, fp, b, &rs, &error)) << error;
  EXPECT_EQ(fp, kProgFp);
  EXPECT_EQ(rs.entries_loaded, ws.entries_written);
  EXPECT_EQ(rs.entries_rejected, 0u);

  // Equal contents serialize to equal bytes regardless of how the entries
  // got in (insert vs import) — the property the save path relies on.
  EXPECT_EQ(serialize_cache_block(b, kProgFp), text);
}

TEST(CacheStore, LoadedEntriesHitWithIdenticalResults) {
  SharedQueryCache a;
  populate(a);
  const std::string text = serialize_cache_block(a, kProgFp);

  SharedQueryCache b;
  Fp128 fp;
  ASSERT_TRUE(deserialize_cache_block(text, fp, b, nullptr, nullptr));

  // A fresh solver over a fresh pool probes the imported cache: every probe
  // must return exactly what a cold solve computes.
  ExprPool p;
  const VarId x = p.new_var("x", 0, 255);
  const VarId y = p.new_var("y", 0, 255);
  Solver warm(p, {});
  warm.set_shared_cache(&b);
  const std::vector<ExprId> cs{
      p.lt(p.var_expr(x), p.var_expr(y)),
      p.eq(p.add(p.var_expr(x), p.var_expr(y)), p.constant(10))};
  const auto r = warm.check(cs);
  ASSERT_EQ(r.sat, Sat::kSat);
  EXPECT_EQ(warm.stats().shared_cache_hits, 1u);
  EXPECT_EQ(warm.stats().solves, 0u);
  // The transferred model must satisfy the constraints in *this* pool.
  EXPECT_EQ(p.eval(p.lt(p.var_expr(x), p.var_expr(y)), r.model), 1);
}

TEST(CacheStore, BitFlippedEntryIsDroppedOthersSurvive) {
  SharedQueryCache a;
  populate(a);
  std::string text = serialize_cache_block(a, kProgFp);
  const auto entries = entry_lines(text);
  ASSERT_GE(entries.size(), 2u);

  // Flip one character inside the first entry's checksummed payload.
  const std::size_t pos = text.find(entries[0]) + 4;
  text[pos] = text[pos] == 'a' ? 'b' : 'a';

  SharedQueryCache b;
  Fp128 fp;
  CacheStoreStats rs;
  ASSERT_TRUE(deserialize_cache_block(text, fp, b, &rs, nullptr));
  EXPECT_EQ(rs.entries_rejected, 1u);
  EXPECT_EQ(rs.entries_loaded, entries.size() - 1);
}

TEST(CacheStore, ChecksumValidButSemanticallyBrokenEntryIsDropped) {
  // An attacker-grade corruption: flip a sat verdict *and* fix up the
  // checksum. The line-level CRC passes; the semantic check (unsat carries
  // no model) still rejects it.
  SharedQueryCache a;
  populate(a);
  std::string text = serialize_cache_block(a, kProgFp);
  std::string victim;
  for (const std::string& l : entry_lines(text)) {
    const auto fields = split(l, '|');
    if (fields[3] == "0" && !fields[7].empty()) victim = l;  // sat with model
  }
  ASSERT_FALSE(victim.empty());
  std::string forged = victim;
  forged[split(victim, '|')[0].size() + 1 + 16 + 1 + 16 + 1] = '1';  // sat->unsat
  const std::size_t bar = forged.rfind('|');
  std::string payload = forged.substr(0, bar + 1);
  char crc[17];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(fp_hash_str(payload)));
  forged = payload + crc;
  text.replace(text.find(victim), victim.size(), forged);

  SharedQueryCache b;
  Fp128 fp;
  CacheStoreStats rs;
  ASSERT_TRUE(deserialize_cache_block(text, fp, b, &rs, nullptr));
  EXPECT_EQ(rs.entries_rejected, 1u);
}

TEST(CacheStore, TruncatedBlockLoadsVerifiedPrefix) {
  SharedQueryCache a;
  populate(a);
  const std::string text = serialize_cache_block(a, kProgFp);
  const auto entries = entry_lines(text);
  ASSERT_GE(entries.size(), 2u);
  // Cut mid-way through the last entry (its line fails the checksum) and
  // drop the trailer.
  const std::string cut =
      text.substr(0, text.find(entries.back()) + entries.back().size() / 2);

  SharedQueryCache b;
  Fp128 fp;
  CacheStoreStats rs;
  std::string error;
  ASSERT_TRUE(deserialize_cache_block(cut, fp, b, &rs, &error));
  EXPECT_FALSE(error.empty());  // the loss is reported
  EXPECT_EQ(rs.entries_loaded, entries.size() - 1);
  EXPECT_GE(rs.entries_rejected, 1u);
}

TEST(CacheStore, StoreRoundTripAndVersionGate) {
  SharedQueryCache a;
  populate(a);
  SharedQueryCache c2;
  populate(c2);
  const Fp128 fp2{0x3333, 0x4444};
  const std::vector<StoreBlockRef> blocks{{kProgFp, &a}, {fp2, &c2}};
  CacheStoreStats ws;
  const std::string text = serialize_store(blocks, &ws);
  EXPECT_EQ(ws.blocks, 2u);

  std::map<std::uint64_t, SharedQueryCache> loaded;
  CacheStoreStats rs;
  std::string error;
  ASSERT_TRUE(load_store_text(
      text,
      [&](const Fp128& fp) -> SharedQueryCache& { return loaded[fp.lo]; },
      &rs, &error))
      << error;
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(rs.entries_loaded, ws.entries_written);
  EXPECT_EQ(rs.entries_rejected, 0u);

  // Version bump: the whole store is refused — cold start, no partial
  // trust — and the loader never touches a cache.
  std::string bumped = text;
  bumped.replace(bumped.find("qstore|1|"), 9, "qstore|9|");
  std::size_t touched = 0;
  CacheStoreStats bs;
  std::string berror;
  SharedQueryCache sink;
  EXPECT_FALSE(load_store_text(
      bumped,
      [&](const Fp128&) -> SharedQueryCache& {
        ++touched;
        return sink;
      },
      &bs, &berror));
  EXPECT_EQ(touched, 0u);
  EXPECT_NE(berror.find("version"), std::string::npos);
}

TEST(CacheStore, MalformedHeadersRejectWholeStore) {
  SharedQueryCache sink;
  CacheStoreStats st;
  std::string error;
  EXPECT_FALSE(load_store_text(
      "not-a-store\n", [&](const Fp128&) -> SharedQueryCache& { return sink; },
      &st, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(load_store_text(
      "", [&](const Fp128&) -> SharedQueryCache& { return sink; }, &st,
      &error));
}

TEST(CacheStore, DeclaredEntryCountMismatchIsReported) {
  SharedQueryCache a;
  populate(a);
  std::string text = serialize_cache_block(a, kProgFp);
  // Delete the first entry line entirely: count mismatch, loss reported.
  const auto entries = entry_lines(text);
  const std::size_t at = text.find(entries[0]);
  text.erase(at, entries[0].size() + 1);

  SharedQueryCache b;
  Fp128 fp;
  CacheStoreStats rs;
  std::string error;
  ASSERT_TRUE(deserialize_cache_block(text, fp, b, &rs, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(rs.entries_loaded, entries.size() - 1);
  EXPECT_EQ(rs.entries_rejected, 1u);
}

TEST(CacheStore, ImportRefusesUnknownAndNeverClobbersLiveEntries) {
  SharedQueryCache cache;
  PortableCacheEntry unknown;
  unknown.key = {1, 2};
  unknown.sat = Sat::kUnknown;
  cache.import_entry(unknown);
  EXPECT_EQ(cache.size(), 0u);

  ExprPool p;
  const Fp128 key{0xAB, 0xCD};
  const std::vector<Fp128> fps{{1, 2}};
  SolveResult live;
  live.sat = Sat::kUnsat;
  cache.insert(p, key, fps, live);
  PortableCacheEntry imported;
  imported.key = key;
  imported.cs_fps = fps;
  imported.sat = Sat::kSat;  // disagrees with the live entry
  cache.import_entry(imported);
  SolveResult out;
  ASSERT_TRUE(cache.lookup(p, key, fps, out));
  EXPECT_EQ(out.sat, Sat::kUnsat);  // the live entry won
}

}  // namespace
}  // namespace statsym::solver

// --- end-to-end: a poisoned session store never changes a verdict ----------

namespace statsym::serve {
namespace {

std::string run_fig2_reply(ServeSession& session) {
  Frame f;
  f.id = "req";
  f.body = {"cmd|run", "app|fig2", "seed|7"};
  return session.handle(f);
}

TEST(ServeStoreCorruption, PoisonedStoreMatchesColdRunByteForByte) {
  // Warm a session, serialize its store, poison *every* entry line, load
  // the wreck into a fresh session: all entries must miss and the verdict
  // (the entire reply) must equal a cold session's.
  ServeSession warm{ServeOptions{}};
  const std::string warm_reply = run_fig2_reply(warm);
  std::string store = warm.store_text();
  ASSERT_NE(store.find("\ne|"), std::string::npos);

  std::string poisoned = store;
  for (std::size_t at = poisoned.find("\ne|"); at != std::string::npos;
       at = poisoned.find("\ne|", at + 1)) {
    poisoned[at + 4] = poisoned[at + 4] == 'x' ? 'y' : 'x';
  }

  ServeSession victim{ServeOptions{}};
  std::string error;
  ASSERT_TRUE(victim.load_store_from_text(poisoned, &error));
  const auto m = victim.metrics();
  EXPECT_GT(m.counter("serve.store_entries_rejected"), 0u);
  EXPECT_EQ(m.counter("serve.store_entries_loaded"), 0u);

  ServeSession cold{ServeOptions{}};
  EXPECT_EQ(run_fig2_reply(victim), run_fig2_reply(cold));
  EXPECT_EQ(run_fig2_reply(victim), warm_reply);  // and equals the warm run
}

TEST(ServeStoreCorruption, VersionBumpedStoreIsAColdStart) {
  ServeSession warm{ServeOptions{}};
  run_fig2_reply(warm);
  std::string store = warm.store_text();
  store.replace(store.find("qstore|1|"), 9, "qstore|2|");

  ServeSession victim{ServeOptions{}};
  std::string error;
  EXPECT_FALSE(victim.load_store_from_text(store, &error));
  EXPECT_EQ(victim.num_programs(), 0u);

  ServeSession cold{ServeOptions{}};
  EXPECT_EQ(run_fig2_reply(victim), run_fig2_reply(cold));
}

TEST(ServeStoreCorruption, TruncatedStoreKeepsVerifiedPrefixAndVerdicts) {
  ServeSession warm{ServeOptions{}};
  const std::string warm_reply = run_fig2_reply(warm);
  const std::string store = warm.store_text();
  // Cut the store in half (mid-entry): prefix loads, loss is reported.
  const std::string cut = store.substr(0, store.size() / 2);

  ServeSession victim{ServeOptions{}};
  std::string error;
  ASSERT_TRUE(victim.load_store_from_text(cut, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(run_fig2_reply(victim), warm_reply);
}

TEST(ServeStoreCorruption, StoreTextRoundTripIsByteStable) {
  ServeSession a{ServeOptions{}};
  run_fig2_reply(a);
  const std::string text = a.store_text();

  ServeSession b{ServeOptions{}};
  ASSERT_TRUE(b.load_store_from_text(text));
  EXPECT_EQ(b.store_text(), text);
}

}  // namespace
}  // namespace statsym::serve
