// Deterministic pipeline metrics (ISSUE 5 observability layer).
//
// A MetricsRegistry holds named counters, gauges and histograms describing
// one pipeline run. Counters and histograms are pure sums, so merging
// per-worker registries is commutative and the totals are schedule-invariant
// — the same guarantee SolverStats gives, generalised to arbitrary names.
// Gauges are point-in-time doubles; merging sums them too.
//
// Everything renders deterministically: names iterate in sorted order and
// to_json() emits a byte-stable document for any fixed set of values
// (wall-clock gauges are the only nondeterministic *values*; their names
// carry the ".seconds" suffix so tests can mask them).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace statsym::obs {

// log2 bucketing: bucket k holds values v with 2^(k-1) <= v < 2^k (bucket 0
// holds v <= 0 and v == 1 lands in bucket 1). 64 buckets cover all of
// uint64; fixed width keeps merges trivially piecewise.
inline constexpr std::size_t kHistBuckets = 64;

struct Histogram {
  std::uint64_t count{0};
  double sum{0.0};
  double min{0.0};
  double max{0.0};
  std::uint64_t buckets[kHistBuckets] = {};

  void observe(double v);
  void merge(const Histogram& o);
};

class MetricsRegistry {
 public:
  // Counters: monotone sums (merge adds).
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  std::uint64_t counter(const std::string& name) const;

  // Gauges: point-in-time doubles (merge adds).
  void set_gauge(const std::string& name, double v) { gauges_[name] = v; }
  double gauge(const std::string& name) const;
  bool has_gauge(const std::string& name) const {
    return gauges_.contains(name);
  }

  // Histograms: count/sum/min/max plus log2 buckets.
  void observe(const std::string& name, double v) { hists_[name].observe(v); }
  const Histogram* histogram(const std::string& name) const;

  // Merges another registry in: counters, gauges and histograms sum.
  void merge(const MetricsRegistry& o);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && hists_.empty();
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return hists_; }

  // Deterministic JSON document (sorted keys; doubles via fmt_double(.,6)).
  std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace statsym::obs
