#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {
// Spans this thread has open through SpanScope, innermost last.
thread_local std::vector<std::int64_t> t_open;
}  // namespace

double clock_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t SpanRecorder::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = t_open.empty() ? kNoSpan : t_open.back();
  s.start_ms = clock_ms();
  const std::int64_t id = add(std::move(s));
  t_open.push_back(id);
  return id;
}

void SpanRecorder::close(std::int64_t id) {
  const double end = clock_ms();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ms = end;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::int64_t SpanRecorder::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoSpan) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) {
      const double lo = std::max(s.start_ms, spans_[c].start_ms);
      const double hi = std::min(s.end_ms, spans_[c].end_ms);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open_run = false;
    for (const auto& [lo, hi] : iv) {
      if (open_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open_run = true;
    }
    if (open_run) covered += run_hi - run_lo;

    const double dur = s.end_ms - s.start_ms;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += dur;
    t.self_ms += dur - covered;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ms\": %.4f, \"end_ms\": %.4f, "
                 "\"parent\": %lld, \"request\": %llu}\n",
                 s.name.c_str(), s.start_ms - origin_ms_,
                 s.end_ms - origin_ms_, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
