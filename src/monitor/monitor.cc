#include "monitor/monitor.h"

#include <cassert>

namespace statsym::monitor {

Monitor::Monitor(const ir::Module& m, MonitorOptions opts, Rng rng)
    : m_(m), opts_(opts), rng_(rng) {}

void Monitor::on_enter(const interp::Interpreter& interp,
                       const ir::Function& fn,
                       std::span<const interp::Value> params) {
  record(interp, fn, params, std::nullopt, /*leave=*/false);
}

void Monitor::on_leave(const interp::Interpreter& interp,
                       const ir::Function& fn,
                       std::span<const interp::Value> params,
                       const std::optional<interp::Value>& ret) {
  record(interp, fn, params, ret, /*leave=*/true);
}

void Monitor::record(const interp::Interpreter& interp,
                     const ir::Function& fn,
                     std::span<const interp::Value> params,
                     const std::optional<interp::Value>& ret, bool leave) {
  // Library-internal functions are not instrumented at all.
  if (ir::is_library_function(fn.name)) return;
  // Partial logging: each record survives with probability sampling_rate.
  ++log_.records_considered;
  if (!rng_.chance(opts_.sampling_rate)) return;

  // `fn` is always an element of m_.functions(), so its id is its offset.
  const auto fid = static_cast<ir::FuncId>(&fn - m_.functions().data());
  assert(fid >= 0 && static_cast<std::size_t>(fid) < m_.functions().size());
  LogRecord rec;
  rec.loc = leave ? leave_loc(fid) : enter_loc(fid);
  rec.vars.reserve(m_.globals().size() + params.size() + (leave ? 1 : 0));

  auto sample_value = [&](const std::string& name, VarKind kind,
                          const interp::Value& v) {
    VarSample& s = rec.vars.emplace_back();
    s.name = name;
    s.kind = kind;
    if (v.is_ref()) {
      // Strings are logged by length only (privacy rule, §III-B).
      s.is_len = true;
      s.value = static_cast<double>(interp.string_length(v));
    } else {
      s.value = static_cast<double>(v.i);
    }
  };

  const auto& globals = m_.globals();
  const std::span<const interp::Value> values = interp.globals();
  for (std::size_t i = 0; i < globals.size(); ++i) {
    sample_value(globals[i].name, VarKind::kGlobal, values[i]);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    sample_value(fn.param_names[i], VarKind::kParam, params[i]);
  }
  if (leave && ret.has_value()) {
    sample_value("ret", VarKind::kReturn, *ret);
  }
  log_.records.push_back(std::move(rec));
}

RunLog Monitor::finish(std::int32_t run_id, const interp::RunResult& result) {
  log_.run_id = run_id;
  log_.faulty = (result.outcome == interp::RunOutcome::kFault);
  if (log_.faulty) log_.fault_function = result.fault.function;
  return std::move(log_);
}

MonitoredRun run_monitored(const interp::Program& p,
                           interp::RuntimeInput input, MonitorOptions opts,
                           Rng rng, std::int32_t run_id) {
  interp::Interpreter it(p, std::move(input));
  Monitor mon(p.module(), opts, rng);
  it.set_listener(&mon);
  MonitoredRun out;
  out.result = it.run();
  out.log = mon.finish(run_id, out.result);
  return out;
}

MonitoredRun run_monitored(const ir::Module& m, interp::RuntimeInput input,
                           MonitorOptions opts, Rng rng, std::int32_t run_id) {
  return run_monitored(interp::Program(m), std::move(input), opts, rng,
                       run_id);
}

}  // namespace statsym::monitor
