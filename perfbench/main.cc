// Repo benchmark driver: runs one workload and prints its metrics.
//
//   perfbench --workload {paper-guided|concolic-fleet|serve-fleet}
//             --seed N --seconds S --trace {0|1} [--work-dir DIR]
//
// --trace 0 sets up five times (setup_s is the median), then runs one timed
// pass and prints the end-to-end metrics. --trace 1 runs the workload's
// fixed prefix twice, untraced and then traced, prints the per-layer
// metrics of the traced pass and writes its spans to DIR. The last line of
// stdout is the result JSON; the exit code is 0 only when every verdict
// was correct. README.md documents every metric.
#include <sys/resource.h>
#include <sys/sysinfo.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "fuzz/program_gen.h"
#include "heap.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  std::string work_dir{"."};
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double load_average() {
  struct sysinfo si {};
  if (sysinfo(&si) != 0) return -1.0;
  return static_cast<double>(si.loads[0]) / 65536.0;  // 16-bit fixed point
}

constexpr bool kOptimised =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

double get(const Sums& s, const char* k) {
  const auto it = s.find(k);
  return it == s.end() ? 0.0 : it->second;
}

double span_ms(const std::map<std::string, SpanTotals>& spans, const char* k) {
  const auto it = spans.find(k);
  return it == spans.end() ? 0.0 : it->second.total_ms;
}

// The pass cut into blocks of `block` consecutive completions, as
// [start, end] clock_ms windows. Throughput and memory are medians over
// blocks: one rare very slow or very large analysis (a candidate run to its
// 10 s cap) then marks one block instead of deciding the whole run's figure.
std::vector<std::pair<double, double>> blocks(const PassResult& p,
                                              std::size_t block) {
  std::vector<double> done;
  for (const Item& item : p.items) done.push_back(item.done_ms);
  std::sort(done.begin(), done.end());
  std::vector<std::pair<double, double>> out;
  double prev = p.start_ms;
  for (std::size_t end = block; end <= done.size(); end += block) {
    out.emplace_back(prev, done[end - 1]);
    prev = done[end - 1];
  }
  if (out.empty()) out.emplace_back(p.start_ms, p.start_ms + p.wall_s * 1e3);
  return out;
}

std::vector<Metric> end_to_end(
    const PassResult& p, std::size_t block, double setup_s,
    const std::vector<std::pair<double, double>>& heap) {
  std::vector<double> rates;
  std::vector<double> peaks;
  for (const auto& [lo, hi] : blocks(p, block)) {
    const double n = p.items.size() < block
                         ? static_cast<double>(p.items.size())
                         : static_cast<double>(block);
    rates.push_back(n * 1e3 / std::max(hi - lo, 1e-6));
    double peak = 0.0;
    for (const auto& [t, bytes] : heap) {
      if (t >= lo && t <= hi) peak = std::max(peak, bytes);
    }
    peaks.push_back(peak / (1024.0 * 1024.0));
  }
  std::vector<double> latency;
  double planted = 0.0;
  double detected = 0.0;
  for (const Item& item : p.items) {
    latency.push_back(item.latency_ms);
    if (item.in_check_prefix && item.planted) {
      planted += 1.0;
      detected += item.detected ? 1.0 : 0.0;
    }
  }
  return {
      {"latency_ms_p50", "ms", quantile(latency, 0.5)},
      {"latency_ms_p90", "ms", quantile(latency, 0.9)},
      {"throughput_per_s", "1/s", quantile(rates, 0.5)},
      {"detect_ratio", "ratio", ratio(detected, planted)},
      {"setup_s", "s", setup_s},
      {"peak_heap_mb", "MB", quantile(peaks, 0.5)},
  };
}

// Per-label latency table: each workload's per-analysis cost by target or
// request class.
void print_costs(const PassResult& p) {
  std::map<std::string, std::vector<double>> by_label;
  for (const Item& item : p.items) {
    by_label[item.label].push_back(item.latency_ms);
  }
  std::printf("  per-analysis latency by class:\n");
  for (const auto& [label, v] : by_label) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    std::printf("    %-18s n=%-5zu mean %9.1f ms  p50 %9.1f ms  p90 %9.1f ms\n",
                label.c_str(), v.size(), sum / static_cast<double>(v.size()),
                quantile(v, 0.5), quantile(v, 0.9));
  }
}

// Times are per-analysis means; counts are totals over the traced pass.
// A layer's time comes from the benchmark's spans around its public call,
// or from the program's own *.seconds gauge where no such call exists.
std::vector<Metric> per_layer(const PassResult& plain,
                              const PassResult& traced,
                              const std::map<std::string, SpanTotals>& spans) {
  const Sums& s = traced.sums;
  const double n =
      std::max(1.0, static_cast<double>(traced.items.size()));
  const auto layer_ms = [&](const char* k) {
    return (span_ms(spans, k) + get(s, k)) / n;
  };
  const double collect_ms =
      span_ms(spans, "monitor.collect") + get(s, "monitor.collect");
  const double exec_ms = get(s, "symexec.exec");
  const double warm = get(s, "serve.warm_hits");
  return {
      {"apps.build_ms", "ms", layer_ms("apps.build")},
      {"monitor.collect_ms", "ms", collect_ms / n},
      {"monitor.attempts", "count", get(s, "monitor.attempts")},
      {"monitor.admitted", "count", get(s, "monitor.admitted")},
      {"monitor.admit_ratio", "ratio",
       ratio(get(s, "monitor.admitted"), get(s, "monitor.attempts"))},
      {"monitor.runs_per_s", "1/s",
       ratio(get(s, "monitor.attempts"), collect_ms / 1e3)},
      {"stats.ingest_ms", "ms", layer_ms("stats.ingest")},
      {"stats.fit_ms", "ms", layer_ms("stats.fit")},
      {"stats.candidates", "count", get(s, "stats.candidates")},
      {"analysis.analyze_ms", "ms", layer_ms("analysis.analyze")},
      {"analysis.static_prunes", "count", get(s, "analysis.static_prunes")},
      {"engine.run_ms", "ms", layer_ms("engine.run")},
      {"symexec.exec_ms", "ms", exec_ms / n},
      {"symexec.paths", "count", get(s, "symexec.paths")},
      {"symexec.instructions", "count", get(s, "symexec.instructions")},
      {"symexec.instr_per_s", "1/s",
       ratio(get(s, "symexec.instructions"), exec_ms / 1e3)},
      {"symexec.candidates_tried", "count",
       get(s, "symexec.candidates_tried")},
      {"symexec.clone_bytes", "bytes", get(s, "symexec.clone_bytes")},
      {"concolic.runs", "count", get(s, "concolic.runs")},
      {"solver.queries", "count", get(s, "solver.queries")},
      {"solver.slices", "count", get(s, "solver.slices")},
      {"solver.slices_per_query", "ratio",
       ratio(get(s, "solver.slices"), get(s, "solver.queries"))},
      {"solver.fast_path_ratio", "ratio",
       ratio(get(s, "solver.fast_hits"), get(s, "solver.slices"))},
      {"solver.solves", "count", get(s, "solver.solves")},
      {"solver.solve_ms", "ms", layer_ms("solver.solve")},
      {"serve.wait_ms", "ms", layer_ms("serve.wait")},
      {"serve.service_ms", "ms", layer_ms("serve.service")},
      {"serve.warm_hit_ratio", "ratio",
       ratio(warm, warm + get(s, "serve.cold_slices"))},
      {"serve.errors", "count", get(s, "serve.errors")},
      {"bench.trace_overhead_ratio", "ratio",
       ratio(traced.wall_s, plain.wall_s) - 1.0},
  };
}

// Span names that wrap a whole analysis or the benchmark's own checking,
// rather than a call into one layer.
bool is_layer_span(const std::string& name) {
  return name != "analysis" && name != "serve.request" &&
         name != "bench.check";
}

void print_spans(const std::map<std::string, SpanTotals>& spans) {
  std::vector<std::pair<std::string, SpanTotals>> rows(spans.begin(),
                                                       spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::printf("spans (traced pass, by self time):\n");
  for (const auto& [name, t] : rows) {
    std::printf("  %-20s n=%-6llu total %10.1f ms  self %10.1f ms\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_ms, t.self_ms);
  }
  for (const auto& [name, t] : rows) {
    if (!is_layer_span(name)) continue;
    std::printf("largest layer span by self time: %s\n", name.c_str());
    break;
  }
}

// JSON numbers must be finite; a metric that could not be formed reads 0.
double finite(double v) { return std::isfinite(v) ? v : 0.0; }

int run(const Args& a) {
  std::unique_ptr<Workload> w;
  if (a.workload == "paper-guided") w = make_paper_guided();
  if (a.workload == "concolic-fleet") w = make_concolic_fleet();
  if (a.workload == "serve-fleet") w = make_serve_fleet(a.work_dir);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const double load_start = load_average();
  std::vector<Metric> metrics;
  PassResult plain;
  PassResult traced;

  if (!a.trace) {
    constexpr int kSetups = 5;
    std::vector<double> setup_s;
    for (int r = 0; r < kSetups; ++r) {
      if (r > 0) w->teardown();
      statsym::Stopwatch sw;
      w->setup(a.seed);
      setup_s.push_back(sw.elapsed_seconds());
    }
    PassOptions o;
    o.seconds = a.seconds;
    o.min_items = w->check_items();
    HeapSampler heap;
    plain = w->run(o);
    const std::vector<std::pair<double, double>> samples = heap.stop();
    w->teardown();
    metrics = end_to_end(plain, w->throughput_block(),
                         quantile(setup_s, 0.5), samples);
  } else {
    PassOptions o;
    o.min_items = o.max_items = w->check_items();
    w->setup(a.seed);
    plain = w->run(o);
    w->teardown();
    SpanRecorder rec;
    o.rec = &rec;
    w->setup(a.seed);
    traced = w->run(o);
    w->teardown();
    const std::map<std::string, SpanTotals> spans = rec.totals();
    metrics = per_layer(plain, traced, spans);
    print_spans(spans);
    const double ff = get(traced.sums, "fault_free.attempts");
    if (ff > 0.0) {
      std::printf("fault-free programs: admit ratio %.4f (%.0f of %.0f)\n",
                  get(traced.sums, "fault_free.admitted") / ff,
                  get(traced.sums, "fault_free.admitted"), ff);
    }
    const std::string path = a.work_dir + "/trace-" + a.workload + "-" +
                             std::to_string(a.seed) + ".jsonl";
    if (rec.write_jsonl(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const PassResult* p : {&plain, &traced}) {
    for (const Item& item : p->items) {
      ++attempted;
      if (item.failure.empty()) continue;
      if (failed < 10) {
        std::fprintf(stderr, "perfbench: FAILED: %s\n", item.failure.c_str());
      }
      ++failed;
    }
  }
  const bool correct = failed == 0 && attempted > 0;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name, finite(m.value), m.unit);
  }
  if (!a.trace) {
    const std::size_t n = plain.items.size();
    std::printf("  latency samples %zu, beyond p90 %zu\n", n,
                n - static_cast<std::size_t>(std::ceil(0.9 * n)));
    print_costs(plain);
  }
  std::printf("  failed_ratio %.6g (%zu of %zu analyses)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);
  if (!kOptimised) {
    std::printf("WARNING: non-optimised build; timings are not comparable\n");
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %zu, \"load_start\": %.2f, \"load_end\": %.2f, "
      "\"build_type\": \"%s\", \"optimised\": %s, \"analyses\": %zu, "
      "\"process_peak_rss_mb\": %.1f}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      a.trace ? 1 : 0, statsym::effective_threads(0), load_start,
      load_average(), PERFBENCH_BUILD_TYPE, kOptimised ? "true" : "false",
      attempted, static_cast<double>(ru.ru_maxrss) / 1024.0);

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, finite(metrics[i].value),
                metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "{paper-guided|concolic-fleet|serve-fleet} --seed N "
                 "--seconds S --trace {0|1} [--work-dir DIR]\n");
    return 2;
  }
  // Service requests name generated programs as "fuzz:<seed>".
  statsym::fuzz::register_fuzz_apps();
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
