#include "apps/workload.h"

namespace statsym::apps {

bool run_is_faulty(const ir::Module& m, const interp::RuntimeInput& input) {
  interp::Interpreter it(m, input);
  return it.run().outcome == interp::RunOutcome::kFault;
}

}  // namespace statsym::apps
