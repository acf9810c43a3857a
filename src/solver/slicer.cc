#include "solver/slicer.h"

#include <algorithm>
#include <limits>

namespace statsym::solver {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void VarMarks::begin(std::size_t num_vars) {
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  if (stamp_.size() < num_vars) stamp_.resize(num_vars, 0);
}

void Slicer::begin(std::size_t num_vars) {
  first_seen_.begin(num_vars);
  if (first_.size() < num_vars) first_.resize(num_vars);
  used_ = 0;
}

Slice& Slicer::add_slice() {
  if (used_ == slices_.size()) slices_.emplace_back();
  Slice& s = slices_[used_++];
  s.cs.clear();
  return s;
}

std::uint32_t Slicer::find(std::uint32_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

std::span<const Slice> Slicer::whole(const ExprPool& pool,
                                     std::span<const ExprId> cs) {
  begin(pool.num_vars());
  add_slice().cs.assign(cs.begin(), cs.end());
  return {slices_.data(), used_};
}

std::span<const Slice> Slicer::slice(const ExprPool& pool,
                                     std::span<const ExprId> cs) {
  begin(pool.num_vars());
  const auto n = static_cast<std::uint32_t>(cs.size());
  parent_.resize(n);
  // One union-find node per constraint; variables map to the first
  // constraint that mentioned them and union later mentions into it.
  for (std::uint32_t i = 0; i < n; ++i) {
    parent_[i] = i;
    for (const VarId v : pool.vars_of(cs[i])) {
      if (first_seen_.mark(v)) {
        first_[v] = i;
        continue;
      }
      const std::uint32_t a = find(first_[v]);
      const std::uint32_t b = find(i);
      if (a != b) parent_[b] = a;
    }
  }

  // Group constraints by component root, slices ordered by first member. A
  // variable-free constraint is its own component (its node was never
  // joined), so it naturally becomes a singleton slice.
  root_slice_.assign(n, kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t root = find(i);
    if (root_slice_[root] == kNone) {
      root_slice_[root] = static_cast<std::uint32_t>(used_);
      add_slice();
    }
    slices_[root_slice_[root]].cs.push_back(cs[i]);
  }
  return {slices_.data(), used_};
}

}  // namespace statsym::solver
