// Workload helpers shared by tests, examples and the benchmark harness.
#pragma once

#include "apps/registry.h"
#include "interp/interpreter.h"

namespace statsym::apps {

// Runs the module once (no monitoring) and reports whether it faulted.
bool run_is_faulty(const ir::Module& m, const interp::RuntimeInput& input);

}  // namespace statsym::apps
