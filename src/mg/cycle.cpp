#include "mg/cycle.h"

namespace prom::mg {

void HierarchyCycleView::coarse_solve(std::span<const real> b,
                                      std::span<real> x) const {
  const MgLevel& lv = h->level(h->num_levels() - 1);
  if (lv.sparse_direct != nullptr) {
    lv.sparse_direct->solve(b, x);
  } else if (lv.direct != nullptr) {
    lv.direct->solve(b, x);
  } else if (lv.direct_lu != nullptr) {
    lv.direct_lu->solve(b, x);
  } else {
    // Single-level hierarchy: a few smoothing steps stand in.
    for (int s = 0; s < 4; ++s) lv.smoother->smooth(b, x);
  }
}

void vcycle(const Hierarchy& h, int level, std::span<const real> b,
            std::span<real> x) {
  vcycle_any(HierarchyCycleView{&h}, level, b, x);
}

std::vector<real> fmg_cycle(const Hierarchy& h, std::span<const real> b) {
  return fmg_any(HierarchyCycleView{&h}, b);
}

}  // namespace prom::mg
