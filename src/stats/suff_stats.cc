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

void TransSuff::ingest(const monitor::RunLog& log) {
  if (log.records.empty()) return;
  ++logs;
  ++first_counts[log.records.front().loc];
  ++last_counts[log.records.back().loc];
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    ++occ[log.records[i].loc];
    if (i + 1 < log.records.size()) {
      ++pairs[{log.records[i].loc, log.records[i + 1].loc}];
    }
  }
}

void TransSuff::merge(const TransSuff& o) {
  for (const auto& [p, n] : o.pairs) pairs[p] += n;
  for (const auto& [l, n] : o.occ) occ[l] += n;
  for (const auto& [l, n] : o.first_counts) first_counts[l] += n;
  for (const auto& [l, n] : o.last_counts) last_counts[l] += n;
  logs += o.logs;
}

void SuffStats::ingest(const monitor::RunLog& log) {
  if (log.faulty) {
    ++num_faulty_;
    if (!log.fault_function.empty()) ++fault_fn_counts_[log.fault_function];
  } else {
    ++num_correct_;
  }
  log_bytes_ += monitor::serialized_size(log);
  records_considered_ += static_cast<std::uint64_t>(log.records_considered);
  (log.faulty ? faulty_trans_ : correct_trans_).ingest(log);

  // Per-run presence counts each location and (location, variable) once,
  // however many records of this run mention it. Map nodes never move, so
  // the touched statistics are collected by address and deduplicated.
  std::vector<monitor::LocId> seen_locs;
  std::vector<VarSuff*> seen_vars;
  seen_locs.reserve(log.records.size());
  for (const auto& rec : log.records) {
    seen_locs.push_back(rec.loc);
    for (const auto& v : rec.vars) {
      const VarKeyView key{rec.loc, v.kind, v.is_len, v.name};
      auto it = vars_.find(key);
      if (it == vars_.end()) {
        VarSuff vs;
        vs.loc = rec.loc;
        vs.var = monitor::var_key(v.name, v.kind, v.is_len);
        vs.kind = v.kind;
        vs.is_len = v.is_len;
        it = vars_.emplace(VarKey{rec.loc, v.kind, v.is_len, v.name},
                           std::move(vs))
                 .first;
      }
      it->second.add(log.faulty, v.value);
      seen_vars.push_back(&it->second);
    }
  }
  std::sort(seen_vars.begin(), seen_vars.end());
  seen_vars.erase(std::unique(seen_vars.begin(), seen_vars.end()),
                  seen_vars.end());
  for (VarSuff* vs : seen_vars) {
    ++(log.faulty ? vs->faulty_runs : vs->correct_runs);
  }
  std::sort(seen_locs.begin(), seen_locs.end());
  seen_locs.erase(std::unique(seen_locs.begin(), seen_locs.end()),
                  seen_locs.end());
  for (monitor::LocId loc : seen_locs) {
    auto& [c, f] = loc_runs_[loc];
    ++(log.faulty ? f : c);
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
