// The program monitor: an InterpListener that produces sampled RunLogs.
//
// Mirrors the paper's Valgrind/Fjalar instrumentation (§VI-A): at every
// function entry and exit it logs all module globals and the function's
// parameters (plus the return value on exit), with per-record Bernoulli
// sampling at a tunable rate to model partial logging (§III-B). A faulty
// run's trailing records are naturally missing because the run aborts — in
// particular the faulting function's leave record is never captured, which
// is what produces the paper's "var < -infinity" predicates at unreached
// locations (Table V, P7–P10).
#pragma once

#include <optional>

#include "interp/interpreter.h"
#include "monitor/log.h"
#include "support/rng.h"

namespace statsym::monitor {

struct MonitorOptions {
  double sampling_rate{1.0};  // probability each record is kept
  bool log_globals{true};
  bool log_params{true};
  bool log_return{true};
  // Functions whose name starts with this prefix are not instrumented
  // (models Fjalar instrumenting user functions but not libc). The apps'
  // IR stdlib (__strlen, __strcpy, ...) uses the "__" prefix.
  std::string skip_function_prefix{"__"};
};

class Monitor : public interp::InterpListener {
 public:
  Monitor(const ir::Module& m, MonitorOptions opts, Rng rng);

  void on_enter(const interp::Interpreter& interp, const ir::Function& fn,
                std::span<const interp::Value> params) override;
  void on_leave(const interp::Interpreter& interp, const ir::Function& fn,
                std::span<const interp::Value> params,
                const std::optional<interp::Value>& ret) override;

  // Finalises the log after the run completes: stamps the run id and
  // faultiness. Returns the collected log.
  RunLog finish(std::int32_t run_id, const interp::RunResult& result);

 private:
  void record(const interp::Interpreter& interp, const ir::Function& fn,
              std::span<const interp::Value> params,
              const std::optional<interp::Value>& ret, bool leave);

  const ir::Module& m_;
  MonitorOptions opts_;
  Rng rng_;
  RunLog log_;
};

// Convenience driver: runs the program once under the monitor and returns
// the (log, result) pair. `rng` seeds the sampling decisions only. Callers
// that run a module many times pass one shared decoded Program; the Module
// overload decodes it for this run alone.
struct MonitoredRun {
  RunLog log;
  interp::RunResult result;
};

MonitoredRun run_monitored(const interp::Program& p,
                           interp::RuntimeInput input, MonitorOptions opts,
                           Rng rng, std::int32_t run_id);
MonitoredRun run_monitored(const ir::Module& m, interp::RuntimeInput input,
                           MonitorOptions opts, Rng rng, std::int32_t run_id);

}  // namespace statsym::monitor
