#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "support/strings.h"

namespace statsym::obs {

namespace {

std::size_t bucket_of(double v) {
  if (!(v > 0.0)) return 0;
  // Values beyond uint64 range (the cast below would be UB) saturate into
  // the last bucket.
  if (v >= 18446744073709551616.0) return kHistBuckets - 1;
  const auto u = static_cast<std::uint64_t>(std::ceil(v));
  if (u == 0) return 0;
  // bit_width(1)=1 → bucket 1, bit_width(2..3)... note 2^(k-1) <= u < 2^k.
  return std::min<std::size_t>(std::bit_width(u), kHistBuckets - 1);
}

}  // namespace

void Histogram::observe(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
  ++buckets[bucket_of(v)];
}

void Histogram::merge(const Histogram& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
  sum += o.sum;
  for (std::size_t i = 0; i < kHistBuckets; ++i) buckets[i] += o.buckets[i];
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* MetricsRegistry::histogram(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  for (const auto& [name, v] : o.counters_) counters_[name] += v;
  for (const auto& [name, v] : o.gauges_) gauges_[name] += v;
  for (const auto& [name, h] : o.hists_) hists_[name].merge(h);
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << v;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << name
       << "\": " << fmt_double(v, 6);
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : hists_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
       << h.count << ", \"sum\": " << fmt_double(h.sum, 6)
       << ", \"min\": " << fmt_double(h.min, 6)
       << ", \"max\": " << fmt_double(h.max, 6) << ", \"buckets\": {";
    bool bfirst = true;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      os << (bfirst ? "" : ", ") << "\"" << i << "\": " << h.buckets[i];
      bfirst = false;
    }
    os << "}}";
    first = false;
  }
  os << (first ? "}\n" : "\n  }\n");
  os << "}\n";
  return os.str();
}

}  // namespace statsym::obs
