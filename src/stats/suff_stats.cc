#include "stats/suff_stats.h"

#include <algorithm>

#include "monitor/serialize.h"

namespace statsym::stats {

void ValueHist::add(double value, std::uint64_t n) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), value,
      [](const Entry& e, double v) { return e.first < v; });
  if (it != entries_.end() && !(value < it->first)) {
    it->second += n;
  } else {
    entries_.insert(it, {value, n});
  }
}

void ValueHist::merge(const ValueHist& o) {
  if (o.entries_.empty()) return;
  std::vector<Entry> out;
  out.reserve(entries_.size() + o.entries_.size());
  auto a = entries_.begin();
  auto b = o.entries_.begin();
  while (a != entries_.end() || b != o.entries_.end()) {
    if (b == o.entries_.end() || (a != entries_.end() && a->first < b->first)) {
      out.push_back(*a++);
    } else if (a == entries_.end() || b->first < a->first) {
      out.push_back(*b++);
    } else {
      out.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  entries_ = std::move(out);
}

void VarSuff::add(bool faulty_class, double value, std::uint64_t n) {
  if (faulty_class) {
    faulty.add(value, n);
    faulty_total += n;
  } else {
    correct.add(value, n);
    correct_total += n;
  }
}

void VarSuff::merge(const VarSuff& o) {
  correct.merge(o.correct);
  faulty.merge(o.faulty);
  correct_total += o.correct_total;
  faulty_total += o.faulty_total;
  correct_runs += o.correct_runs;
  faulty_runs += o.faulty_runs;
}

void TransSuff::merge(const TransSuff& o) {
  for (const auto& [p, n] : o.pairs) pairs[p] += n;
  for (const auto& [l, n] : o.occ) occ[l] += n;
  for (const auto& [l, n] : o.first_counts) first_counts[l] += n;
  for (const auto& [l, n] : o.last_counts) last_counts[l] += n;
  logs += o.logs;
}

SuffStats::FoldCache::Var& SuffStats::FoldCache::Loc::var(
    std::size_t j, const VarKeyView& key, VarTable& table) {
  if (pos.size() <= j) pos.resize(j + 1, 0);
  std::size_t& slot = pos[j];
  if (slot != 0 && VarKeyLess::view(vars[slot - 1].it->first) == key) {
    return vars[slot - 1];
  }
  // The position meets another statistic than last time (a flipped is_len,
  // a record with other variables): one this location met before, else
  // the table's.
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (VarKeyLess::view(vars[i].it->first) == key) {
      slot = i + 1;
      return vars[i];
    }
  }
  auto it = table.find(key);
  if (it == table.end()) {
    VarSuff vs;
    vs.loc = key.loc;
    vs.var = monitor::var_key(key.name, key.kind, key.is_len);
    vs.kind = key.kind;
    vs.is_len = key.is_len;
    it = table
             .emplace(VarKey{key.loc, key.kind, key.is_len,
                             std::string(key.name)},
                      std::move(vs))
             .first;
  }
  vars.push_back({it, 0});
  slot = vars.size();
  return vars.back();
}

SuffStats::FoldCache::Loc& SuffStats::FoldCache::step(Loc& at,
                                                      std::size_t cls,
                                                      monitor::LocId from,
                                                      monitor::LocId to,
                                                      TransSuff& trans) {
  for (const Next& n : at.next[cls]) {
    if (n.to == to) {
      ++*n.pairs;
      return *n.at;
    }
  }
  // Element references survive rehashing, so `at` stays valid.
  Next n{to, &trans.pairs[{from, to}], &locs[to]};
  at.next[cls].push_back(n);
  ++*n.pairs;
  return *n.at;
}

void SuffStats::ingest(const monitor::RunLog& log) {
  const bool faulty = log.faulty;
  if (faulty) {
    ++num_faulty_;
    if (!log.fault_function.empty()) ++fault_fn_counts_[log.fault_function];
  } else {
    ++num_correct_;
  }
  log_bytes_ += monitor::serialized_size(log);
  records_considered_ += static_cast<std::uint64_t>(log.records_considered);
  if (log.records.empty()) return;

  TransSuff& trans = faulty ? faulty_trans_ : correct_trans_;
  ++trans.logs;
  ++trans.first_counts[log.records.front().loc];
  ++trans.last_counts[log.records.back().loc];

  // Every entry a record touches is reached through the fold cache; a map
  // is searched only when a location or sample position meets an entry it
  // has not met before. Per-run presence counts each location and
  // (location, variable) once however many records mention it: the cached
  // entry remembers the last run that counted it.
  const std::size_t cls = faulty ? 1 : 0;
  const std::uint64_t run = ++fold_.runs;
  FoldCache::Loc* prev = nullptr;
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const monitor::LogRecord& rec = log.records[i];
    FoldCache::Loc& at =
        prev == nullptr
            ? fold_.locs[rec.loc]
            : fold_.step(*prev, cls, log.records[i - 1].loc, rec.loc, trans);
    prev = &at;
    if (at.runs == nullptr) at.runs = &loc_runs_[rec.loc];
    if (at.run != run) {
      at.run = run;
      ++(faulty ? at.runs->second : at.runs->first);
    }
    if (at.occ[cls] == nullptr) at.occ[cls] = &trans.occ[rec.loc];
    ++*at.occ[cls];

    for (std::size_t j = 0; j < rec.vars.size(); ++j) {
      const monitor::VarSample& v = rec.vars[j];
      FoldCache::Var& var =
          at.var(j, {rec.loc, v.kind, v.is_len, v.name}, vars_);
      VarSuff& vs = var.it->second;
      vs.add(faulty, v.value);
      if (var.run != run) {
        var.run = run;
        ++(faulty ? vs.faulty_runs : vs.correct_runs);
      }
    }
  }
}

void SuffStats::ingest(const std::vector<monitor::RunLog>& logs) {
  for (const auto& log : logs) ingest(log);
}

void SuffStats::merge(const SuffStats& o) {
  for (const auto& [key, vs] : o.vars_) {
    auto it = vars_.find(key);
    if (it == vars_.end()) {
      vars_.emplace(key, vs);
    } else {
      it->second.merge(vs);
    }
  }
  for (const auto& [loc, counts] : o.loc_runs_) {
    auto& [c, f] = loc_runs_[loc];
    c += counts.first;
    f += counts.second;
  }
  correct_trans_.merge(o.correct_trans_);
  faulty_trans_.merge(o.faulty_trans_);
  for (const auto& [fn, n] : o.fault_fn_counts_) fault_fn_counts_[fn] += n;
  num_correct_ += o.num_correct_;
  num_faulty_ += o.num_faulty_;
  log_bytes_ += o.log_bytes_;
  records_considered_ += o.records_considered_;
}

std::size_t SuffStats::loc_correct_runs(monitor::LocId loc) const {
  auto it = loc_runs_.find(loc);
  return it == loc_runs_.end() ? 0
                               : static_cast<std::size_t>(it->second.first);
}

std::size_t SuffStats::loc_faulty_runs(monitor::LocId loc) const {
  auto it = loc_runs_.find(loc);
  return it == loc_runs_.end() ? 0
                               : static_cast<std::size_t>(it->second.second);
}

std::vector<monitor::LocId> SuffStats::locations() const {
  std::vector<monitor::LocId> out;
  out.reserve(loc_runs_.size());
  for (const auto& [loc, counts] : loc_runs_) out.push_back(loc);
  return out;
}

}  // namespace statsym::stats
