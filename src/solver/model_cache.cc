#include "solver/model_cache.h"

#include <algorithm>

namespace statsym::solver {

bool ModelCache::probe(const ExprPool& pool, std::span<const ExprId> cs,
                       std::span<const VarId> vars, Model& out) const {
  for (const Model& m : models_) {
    bool usable = true;
    for (VarId v : vars) {
      if (!m.contains(v)) {
        usable = false;
        break;
      }
    }
    if (!usable) continue;
    bool sat = true;
    for (ExprId c : cs) {
      if (pool.eval(c, m) == 0) {
        sat = false;
        break;
      }
    }
    if (!sat) continue;
    out.clear();
    out.reserve(vars.size());
    for (VarId v : vars) out.emplace(v, m.at(v));
    return true;
  }
  return false;
}

void ModelCache::remember(const Model& m) {
  if (m.empty()) return;
  if (std::any_of(models_.begin(), models_.end(),
                  [&](const Model& o) { return o == m; })) {
    return;
  }
  models_.push_front(m);
  if (models_.size() > kCapacity) models_.pop_back();
}

}  // namespace statsym::solver
