// Mergeable sufficient statistics for the whole statistical module.
//
// The Eq. 1 threshold fit and the Eq. 2 / Wilson scores depend on the raw
// logs only through per-(location, variable) class-conditional value
// histograms, per-class run counts, and the transition/first/last/fault-tag
// tallies the graph miner and failure-node picker read. SuffStats captures
// exactly that: every field is a sum over runs, so
//
//   * ingest(log) folds one run in and the log can be dropped immediately —
//     retained memory is bounded by the number of *distinct* observed
//     values, not the number of runs;
//   * merge(other) is associative and commutative (all containers are
//     sorted by key and hold counts), so per-cluster statistics built in
//     any order fold into bit-identical totals — the same
//     schedule-invariant merge discipline MetricsRegistry established;
//   * a fit from SuffStats(logs) is byte-identical to the historical fit
//     from the raw log vector (all divisions see the same integers).
//
// This is the statistical module's single input (DESIGN.md §10): the
// engine folds each admitted log into per-cluster SuffStats the moment it
// is admitted, and everything downstream (PredicateManager, TransitionGraph,
// PathBuilder, failure node) reads only SuffStats.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "monitor/log.h"

namespace statsym::stats {

// value -> multiplicity, as (value, count) entries in one vector sorted by
// value, so iteration (threshold-cut scanning, merging) is deterministic
// regardless of insertion order. Values equal under `<` share an entry.
class ValueHist {
 public:
  using Entry = std::pair<double, std::uint64_t>;

  void add(double value, std::uint64_t n);
  void merge(const ValueHist& o);

  std::size_t size() const { return entries_.size(); }
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }
  bool operator==(const ValueHist& o) const = default;

 private:
  std::vector<Entry> entries_;
};

// Identity of one per-variable statistic: the instrumented location and
// the variable's name, kind and lens-ness, compared field by field.
// VarKeyView holds the same fields over a borrowed name, so a sample's
// statistic is found from the sample's own fields without building a key.
struct VarKeyView {
  monitor::LocId loc{monitor::kNoLoc};
  monitor::VarKind kind{monitor::VarKind::kGlobal};
  bool is_len{false};
  std::string_view name;

  auto operator<=>(const VarKeyView& o) const = default;
};

struct VarKey {
  monitor::LocId loc{monitor::kNoLoc};
  monitor::VarKind kind{monitor::VarKind::kGlobal};
  bool is_len{false};
  std::string name;
};

// Transparent order over VarKey and VarKeyView alike.
struct VarKeyLess {
  using is_transparent = void;  // NOLINT(readability-identifier-naming)
  static VarKeyView view(const VarKey& k) {
    return {k.loc, k.kind, k.is_len, k.name};
  }
  static VarKeyView view(const VarKeyView& k) { return k; }
  template <class A, class B>
  bool operator()(const A& a, const B& b) const {
    return view(a) < view(b);
  }
};

// Per-(location, variable) sufficient statistics: the class-conditional
// value histograms behind one predicate fit.
struct VarSuff {
  monitor::LocId loc{monitor::kNoLoc};
  std::string var;  // display key, e.g. "suspect FUNCPARAM"
  monitor::VarKind kind{monitor::VarKind::kGlobal};
  bool is_len{false};
  ValueHist correct;
  ValueHist faulty;
  // Sample counts with multiplicity (sums of the histograms).
  std::uint64_t correct_total{0};
  std::uint64_t faulty_total{0};
  // #runs (per class) with at least one observation of this (loc, var).
  std::uint64_t correct_runs{0};
  std::uint64_t faulty_runs{0};

  void add(bool faulty_class, double value, std::uint64_t n = 1);
  void merge(const VarSuff& o);
};

using VarTable = std::map<VarKey, VarSuff, VarKeyLess>;

// Transition-mining tallies for one run class (correct or faulty): the
// counts Eq. 3's µ(ei,ej) = o(ei→ej)/o(ei) is computed from, plus the
// first/last-record tallies the entry and failure pickers use.
// SuffStats::ingest folds runs in.
struct TransSuff {
  std::map<std::pair<monitor::LocId, monitor::LocId>, std::uint64_t> pairs;
  std::map<monitor::LocId, std::uint64_t> occ;
  std::map<monitor::LocId, std::uint64_t> first_counts;
  std::map<monitor::LocId, std::uint64_t> last_counts;
  std::uint64_t logs{0};  // non-empty logs tallied

  void merge(const TransSuff& o);
};

class SuffStats {
 public:
  // Folds one run in. The log is fully absorbed — callers may drop it.
  void ingest(const monitor::RunLog& log);
  void ingest(const std::vector<monitor::RunLog>& logs);

  // Associative, commutative, schedule-invariant.
  void merge(const SuffStats& o);

  // --- per-variable statistics (the Eq. 1 / Eq. 2 inputs) -----------------
  const VarTable& vars() const { return vars_; }

  std::size_t num_correct_runs() const {
    return static_cast<std::size_t>(num_correct_);
  }
  std::size_t num_faulty_runs() const {
    return static_cast<std::size_t>(num_faulty_);
  }

  // Number of runs (per class) with at least one record at `loc`.
  std::size_t loc_correct_runs(monitor::LocId loc) const;
  std::size_t loc_faulty_runs(monitor::LocId loc) const;

  // All locations observed anywhere in the ingested runs.
  std::vector<monitor::LocId> locations() const;

  // --- transition statistics (Eq. 3 inputs) -------------------------------
  const TransSuff& trans(bool faulty) const {
    return faulty ? faulty_trans_ : correct_trans_;
  }

  // Fault-function tags of the ingested faulty runs (crash reports).
  const std::map<std::string, std::uint64_t>& fault_fn_counts() const {
    return fault_fn_counts_;
  }

  // --- accounting ---------------------------------------------------------
  // Serialized size of the ingested logs (monitor text format) — matches
  // serialize(all_logs).size() in any ingest/merge order.
  std::uint64_t log_bytes() const { return log_bytes_; }
  // Sum of per-run records_considered (sampling-rate accounting).
  std::uint64_t records_considered() const { return records_considered_; }

 private:
  using LocRuns = std::pair<std::uint64_t, std::uint64_t>;  // (correct, faulty)

  // Where each location's samples folded last time (DESIGN.md §10). The
  // monitor writes the same variables in the same order at every record of
  // a location, so a sample almost always folds into the entry its
  // position did before; the cached entry's full key is checked before it
  // is used. The cache points into this object's own maps, so copies and
  // moves never carry it: the destination and the moved-from source start
  // with an empty one.
  struct FoldCache {
    // One statistic met at this location and the last run (1-based fold
    // ordinal) whose presence it counted.
    struct Var {
      VarTable::iterator it;
      std::uint64_t run{0};
    };
    struct Loc;
    // A successor met after a location: its tally of the pair and its own
    // entry, so consecutive records need no location lookup.
    struct Next {
      monitor::LocId to{monitor::kNoLoc};
      std::uint64_t* pairs{nullptr};
      Loc* at{nullptr};
    };
    // Everything one location's records fold into; class index 1 is faulty.
    struct Loc {
      std::uint64_t run{0};  // last run whose presence this location counted
      LocRuns* runs{nullptr};
      std::uint64_t* occ[2]{nullptr, nullptr};
      std::vector<Next> next[2];
      // The statistics met at this location, each once, and per sample
      // position the one that position folded into last (index + 1; 0 for
      // none yet).
      std::vector<Var> vars;
      std::vector<std::size_t> pos;

      // The statistic sample position `j` with key `key` folds into.
      Var& var(std::size_t j, const VarKeyView& key, VarTable& table);
    };

    // The entry of location `to`, recorded next after `from` (whose entry
    // is `at`), with the pair's tally counted.
    Loc& step(Loc& at, std::size_t cls, monitor::LocId from,
              monitor::LocId to, TransSuff& trans);

    FoldCache() = default;
    FoldCache(const FoldCache& /*o*/) {}
    FoldCache(FoldCache&& o) noexcept { o.clear(); }
    FoldCache& operator=(const FoldCache& /*o*/) {
      clear();
      return *this;
    }
    FoldCache& operator=(FoldCache&& o) noexcept {
      clear();
      o.clear();
      return *this;
    }

    void clear() {
      locs.clear();
      runs = 0;
    }

    std::unordered_map<monitor::LocId, Loc> locs;
    std::uint64_t runs{0};  // runs folded since the cache was last empty
  };

  VarTable vars_;
  std::map<monitor::LocId, LocRuns> loc_runs_;
  TransSuff correct_trans_;
  TransSuff faulty_trans_;
  std::map<std::string, std::uint64_t> fault_fn_counts_;
  std::uint64_t num_correct_{0};
  std::uint64_t num_faulty_{0};
  std::uint64_t log_bytes_{0};
  std::uint64_t records_considered_{0};
  FoldCache fold_;
};

}  // namespace statsym::stats
