// Serial instantiation of the k-column multigrid cycles (mg/cycle_any.h):
// HierarchyCycleView adapts mg::Hierarchy to the MultiCycleView concept,
// so the serial hierarchy runs the one V-cycle / FMG implementation that
// dla::DistHierarchy runs, with the same level smoother and coarse factor
// (mg/level_solve.h), on its CSR operators.
#pragma once

#include <vector>

#include "common/config.h"
#include "la/multivec.h"
#include "mg/cycle_any.h"
#include "mg/hierarchy.h"
#include "mg/level_solve.h"

namespace prom::mg {

/// Adapts the serial Hierarchy (with built operators) to the k-column
/// cycle templates: level operators apply through Csr::spmm and the fused
/// residual, restriction through spmm, prolongation through
/// spmv_transpose per column. The view owns the per-level temporaries, so
/// a const Hierarchy stays shareable across threads while each solve
/// builds its own view (MgPreconditioner holds one); one view serves one
/// cycle at a time. The bsr3 and mf formats run only through
/// dla::DistHierarchy.
class HierarchyCycleView {
 public:
  explicit HierarchyCycleView(const Hierarchy& h);

  int num_levels() const { return h_->num_levels(); }
  idx local_n(int l) const { return h_->level(l).a.nrows; }
  int pre_smooth() const { return h_->options().pre_smooth; }
  int post_smooth() const { return h_->options().post_smooth; }
  CycleScratch& scratch(int l) const { return cycle_[l]; }
  void smooth_mv(int l, const la::MultiVec& b, la::MultiVec& x) const;
  void apply_a_mv(int l, const la::MultiVec& x, la::MultiVec& y) const {
    h_->level(l).a.spmm(x, y);
  }
  void restrict_to_mv(int l, const la::MultiVec& xf, la::MultiVec& xc) const {
    h_->level(l).r.spmm(xf, xc);
  }
  void prolong_mv(int l, const la::MultiVec& xc, la::MultiVec& xf) const {
    for (int j = 0; j < xc.cols(); ++j) {
      h_->level(l).r.spmv_transpose(xc.col(j), xf.col(j));
    }
  }
  void coarse_solve_mv(const la::MultiVec& b, la::MultiVec& x) const;

 private:
  const Hierarchy* h_;
  mutable std::vector<CycleScratch> cycle_;
  mutable std::vector<SolveScratch> solve_;
};

}  // namespace prom::mg
