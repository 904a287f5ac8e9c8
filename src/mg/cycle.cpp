#include "mg/cycle.h"

#include "la/backend.h"
#include "la/operator.h"

namespace prom::mg {

HierarchyCycleView::HierarchyCycleView(const Hierarchy& h)
    : h_(&h),
      cycle_(static_cast<std::size_t>(h.num_levels())),
      solve_(static_cast<std::size_t>(h.num_levels())) {}

void HierarchyCycleView::smooth_mv(int l, const la::MultiVec& b,
                                   la::MultiVec& x) const {
  const MgLevel& lv = h_->level(l);
  lv.smooth_mv(la::SerialBackend{}, la::CsrOperator(lv.a), b, x, solve_[l]);
}

void HierarchyCycleView::coarse_solve_mv(const la::MultiVec& b,
                                         la::MultiVec& x) const {
  const int l = num_levels() - 1;
  const MgLevel& lv = h_->level(l);
  if (lv.has_coarse_factor()) {
    lv.coarse_solve_mv(b, x, solve_[l].ldlt_work);
  } else {
    // Single-level hierarchy: a few smoothing steps stand in.
    for (int s = 0; s < 4; ++s) smooth_mv(l, b, x);
  }
}

}  // namespace prom::mg
