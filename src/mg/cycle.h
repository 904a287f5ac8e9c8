// Serial instantiation of the backend-generic multigrid cycles
// (mg/cycle_any.h): HierarchyCycleView adapts mg::Hierarchy to the
// CycleView concept, and vcycle / fmg_cycle keep their original
// signatures as thin wrappers.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "mg/cycle_any.h"
#include "mg/hierarchy.h"

namespace prom::mg {

/// Adapts the serial Hierarchy (with built operators and smoothers) to the
/// single-vector cycle templates, on its CSR operators. The column-blocked
/// cycles (MultiCycleView) and the bsr3/mf formats run only through
/// dla::DistHierarchy.
struct HierarchyCycleView {
  const Hierarchy* h;

  int num_levels() const { return h->num_levels(); }
  idx local_n(int l) const { return h->level(l).a.nrows; }
  int pre_smooth() const { return h->options().pre_smooth; }
  int post_smooth() const { return h->options().post_smooth; }
  void smooth(int l, std::span<const real> b, std::span<real> x) const {
    const MgLevel& lv = h->level(l);
    if (lv.smooth_rows.empty()) {
      lv.smoother->smooth(b, x);
      return;
    }
    // Local smoothing (adaptive refinement levels): run the configured
    // smoother on a scratch copy and keep only the refined-region rows —
    // identical update on those rows to the full sweep, identity
    // elsewhere, for any smoother kind.
    std::vector<real> tmp(x.begin(), x.end());
    lv.smoother->smooth(b, tmp);
    for (idx i : lv.smooth_rows) x[i] = tmp[i];
  }
  void apply_a(int l, std::span<const real> x, std::span<real> y) const {
    h->level(l).a.spmv(x, y);
  }
  void restrict_to(int l, std::span<const real> xf, std::span<real> xc) const {
    h->level(l).r.spmv(xf, xc);
  }
  void prolong(int l, std::span<const real> xc, std::span<real> xf) const {
    h->level(l).r.spmv_transpose(xc, xf);
  }
  void coarse_solve(std::span<const real> b, std::span<real> x) const;
};

/// One V-cycle at `level` for A_level x = b, improving x in place.
void vcycle(const Hierarchy& h, int level, std::span<const real> b,
            std::span<real> x);

/// One full multigrid cycle for A_0 x = b starting from zero; returns x.
std::vector<real> fmg_cycle(const Hierarchy& h, std::span<const real> b);

}  // namespace prom::mg
