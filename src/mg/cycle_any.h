// The V-cycle / full-multigrid implementation, templated over a view — a
// thin adapter exposing one multigrid hierarchy's levels as local-block
// operations; only the level operations (smooth, SpMV, restriction,
// coarse solve) know whether they communicate. Two forms remain: the
// single-vector CycleView templates, which only the serial mg::Hierarchy
// runs, and the k-column MultiCycleView templates, which are the only
// cycles of the distributed dla::DistHierarchy (a single right-hand side
// is a one-column block there).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "la/multivec.h"
#include "la/vec.h"
#include "obs/trace.h"

namespace prom::mg {

enum class CycleKind : std::uint8_t { kV, kFmg };

/// What the cycle templates require of a hierarchy view. All vectors are
/// the local blocks of level vectors (the whole vectors on the serial
/// view); `restrict_to(l, xf, xc)` applies level l's restriction R_l to a
/// level l-1 vector, `prolong(l, xc, xf)` applies R_l^T (overwrite), and
/// `coarse_solve` solves on the coarsest level.
template <class V>
concept CycleView = requires(const V& h, int l, std::span<const real> c,
                             std::span<real> m) {
  { h.num_levels() } -> std::convertible_to<int>;
  { h.local_n(l) } -> std::convertible_to<idx>;
  { h.pre_smooth() } -> std::convertible_to<int>;
  { h.post_smooth() } -> std::convertible_to<int>;
  h.smooth(l, c, m);
  h.apply_a(l, c, m);
  h.restrict_to(l, c, m);
  h.prolong(l, c, m);
  h.coarse_solve(c, m);
};

/// One V-cycle at `level` for A_level x = b, improving x in place
/// (Figure 1 of the paper: pre-smooth, restrict residual, recurse,
/// prolongate correction, post-smooth; direct solve on the coarsest grid).
template <CycleView V>
void vcycle_any(const V& h, int level, std::span<const real> b,
                std::span<real> x) {
  PROM_CHECK(static_cast<idx>(b.size()) == h.local_n(level) &&
             static_cast<idx>(x.size()) == h.local_n(level));

  // Coarse-level agglomeration (views exposing level_inactive): a rank
  // outside this level's active set holds no rows and no exchange-plan
  // roles at or below it, so the whole subtree is skipped. Its share of
  // the level boundary — the restriction / prolongation exchange — runs
  // in the caller's frame, where it still holds plan roles.
  if constexpr (requires {
                  { h.level_inactive(level) } -> std::convertible_to<bool>;
                }) {
    if (h.level_inactive(level)) return;
  }

  if (level + 1 == h.num_levels()) {
    const obs::Span span("mg.coarse_solve", level);
    h.coarse_solve(b, x);
    return;
  }

  {
    const obs::Span span("mg.smooth", level);
    for (int s = 0; s < h.pre_smooth(); ++s) h.smooth(level, b, x);
  }

  // Residual and its restriction.
  std::vector<real> r(b.size());
  {
    const obs::Span span("mg.residual", level);
    h.apply_a(level, x, r);
    la::waxpby(1, b, -1, r, r);
  }
  std::vector<real> rc(static_cast<std::size_t>(h.local_n(level + 1)));
  {
    const obs::Span span("mg.restrict", level);
    h.restrict_to(level + 1, r, rc);
  }

  // Coarse-grid correction.
  std::vector<real> xc(rc.size(), 0);
  vcycle_any(h, level + 1, rc, xc);

  // Prolongate (R^T) and add.
  {
    const obs::Span span("mg.prolong", level);
    std::vector<real> dx(x.size());
    h.prolong(level + 1, xc, dx);
    la::axpy(1, dx, x);
  }

  {
    const obs::Span span("mg.smooth", level);
    for (int s = 0; s < h.post_smooth(); ++s) h.smooth(level, b, x);
  }
}

/// One full multigrid cycle for A_0 x = b starting from zero; returns x.
template <CycleView V>
std::vector<real> fmg_any(const V& h, std::span<const real> b) {
  const int nl = h.num_levels();
  // Restrict the right-hand side to every level.
  std::vector<std::vector<real>> bs(static_cast<std::size_t>(nl));
  bs[0].assign(b.begin(), b.end());
  for (int l = 1; l < nl; ++l) {
    const obs::Span span("mg.restrict", l - 1);
    bs[l].resize(static_cast<std::size_t>(h.local_n(l)));
    h.restrict_to(l, bs[l - 1], bs[l]);
  }

  // Coarsest solve, then work upward: prolongate and V-cycle at each grid.
  std::vector<real> x(bs[nl - 1].size(), 0);
  vcycle_any(h, nl - 1, bs[nl - 1], x);
  for (int l = nl - 2; l >= 0; --l) {
    std::vector<real> xf(static_cast<std::size_t>(h.local_n(l)));
    {
      const obs::Span span("mg.prolong", l);
      h.prolong(l + 1, x, xf);
    }
    x = std::move(xf);
    vcycle_any(h, l, bs[l], x);
  }
  return x;
}

/// One cycle of the requested kind as a preconditioner application
/// y = M^{-1} x (the serial MG-PCG preconditioner body).
template <CycleView V>
void apply_cycle(const V& h, CycleKind kind, std::span<const real> x,
                 std::span<real> y) {
  if (kind == CycleKind::kFmg) {
    const std::vector<real> z = fmg_any(h, x);
    std::copy(z.begin(), z.end(), y.begin());
  } else {
    std::fill(y.begin(), y.end(), real{0});
    vcycle_any(h, 0, x, y);
  }
}

/// Per-level temporaries of the k-column cycles below, owned by the
/// hierarchy so repeat cycles allocate nothing: each is reshaped with
/// MultiVec::resize, which zero-fills and never shrinks capacity. Level
/// l's r and dx have level l's rows, rc and xc level l+1's (the restricted
/// residual and the coarse correction); the FMG cycle keeps level l's
/// right-hand side in b and its iterate in x (levels >= 1).
struct CycleScratch {
  la::MultiVec r, rc, xc, dx;
  la::MultiVec b, x;
};

/// What the k-column cycle templates require of a hierarchy view: the
/// level operations over k columns at once, column j bitwise the k = 1
/// operation on that column. All blocks are the local blocks of level
/// vectors; `restrict_to_mv(l, xf, xc)` applies level l's restriction R_l
/// to a level l-1 block, `prolong_mv(l, xc, xf)` applies R_l^T
/// (overwrite), `coarse_solve_mv` solves on the coarsest level, and
/// `scratch(l)` hands out level l's reusable temporaries.
template <class V>
concept MultiCycleView = requires(const V& h, int l, const la::MultiVec& c,
                                  la::MultiVec& m) {
  { h.num_levels() } -> std::convertible_to<int>;
  { h.local_n(l) } -> std::convertible_to<idx>;
  { h.pre_smooth() } -> std::convertible_to<int>;
  { h.post_smooth() } -> std::convertible_to<int>;
  { h.scratch(l) } -> std::same_as<CycleScratch&>;
  h.smooth_mv(l, c, m);
  h.apply_a_mv(l, c, m);
  h.restrict_to_mv(l, c, m);
  h.prolong_mv(l, c, m);
  h.coarse_solve_mv(c, m);
};

/// Column-blocked V-cycle at `level` for A_level X = B, improving X in
/// place, with one exchange per level operation. Column j is bitwise the
/// k = 1 cycle on that column (the per-column BLAS-1 updates run in the
/// single-vector order).
template <MultiCycleView V>
void vcycle_any_mv(const V& h, int level, const la::MultiVec& b,
                   la::MultiVec& x) {
  const int k = b.cols();
  PROM_CHECK(b.rows() == h.local_n(level) && x.rows() == h.local_n(level) &&
             x.cols() == k);

  // Same agglomeration guard as the single-vector vcycle_any.
  if constexpr (requires {
                  { h.level_inactive(level) } -> std::convertible_to<bool>;
                }) {
    if (h.level_inactive(level)) return;
  }

  if (level + 1 == h.num_levels()) {
    const obs::Span span("mg.coarse_solve", level);
    h.coarse_solve_mv(b, x);
    return;
  }

  {
    const obs::Span span("mg.smooth", level);
    for (int s = 0; s < h.pre_smooth(); ++s) h.smooth_mv(level, b, x);
  }

  CycleScratch& ws = h.scratch(level);
  const idx n = h.local_n(level);
  const idx nc = h.local_n(level + 1);
  // Residual and its restriction.
  ws.r.resize(n, k);
  {
    const obs::Span span("mg.residual", level);
    h.apply_a_mv(level, x, ws.r);
    for (int j = 0; j < k; ++j) {
      la::waxpby(1, b.col(j), -1, ws.r.col(j), ws.r.col(j));
    }
  }
  ws.rc.resize(nc, k);
  {
    const obs::Span span("mg.restrict", level);
    h.restrict_to_mv(level + 1, ws.r, ws.rc);
  }

  // Coarse-grid correction from a zero start.
  ws.xc.resize(nc, k);
  vcycle_any_mv(h, level + 1, ws.rc, ws.xc);

  // Prolongate (R^T) and add.
  {
    const obs::Span span("mg.prolong", level);
    ws.dx.resize(n, k);
    h.prolong_mv(level + 1, ws.xc, ws.dx);
    for (int j = 0; j < k; ++j) la::axpy(1, ws.dx.col(j), x.col(j));
  }

  {
    const obs::Span span("mg.smooth", level);
    for (int s = 0; s < h.post_smooth(); ++s) h.smooth_mv(level, b, x);
  }
}

/// Column-blocked full multigrid cycle for A_0 X = B from zero, written
/// into x (level 0's shape); column j is bitwise the k = 1 cycle on that
/// column.
template <MultiCycleView V>
void fmg_any_mv(const V& h, const la::MultiVec& b, la::MultiVec& x) {
  const int nl = h.num_levels();
  const int k = b.cols();
  PROM_CHECK(b.rows() == h.local_n(0) && x.rows() == h.local_n(0) &&
             x.cols() == k);
  // Level l's right-hand side and iterate: b and x themselves on level 0,
  // the level's scratch below it.
  const auto rhs = [&](int l) -> const la::MultiVec& {
    return l == 0 ? b : h.scratch(l).b;
  };
  const auto iterate = [&](int l) -> la::MultiVec& {
    return l == 0 ? x : h.scratch(l).x;
  };

  // Restrict the right-hand side to every level.
  for (int l = 1; l < nl; ++l) {
    const obs::Span span("mg.restrict", l - 1);
    h.scratch(l).b.resize(h.local_n(l), k);
    h.restrict_to_mv(l, rhs(l - 1), h.scratch(l).b);
  }

  // Coarsest solve from a zero start, then work upward: prolongate and
  // V-cycle at each grid.
  iterate(nl - 1).resize(h.local_n(nl - 1), k);
  vcycle_any_mv(h, nl - 1, rhs(nl - 1), iterate(nl - 1));
  for (int l = nl - 2; l >= 0; --l) {
    {
      const obs::Span span("mg.prolong", l);
      iterate(l).resize(h.local_n(l), k);
      h.prolong_mv(l + 1, iterate(l + 1), iterate(l));
    }
    vcycle_any_mv(h, l, rhs(l), iterate(l));
  }
}

/// Column-blocked preconditioner application Y = M^{-1} X (the MG-PCG
/// preconditioner body of the distributed solve); column j is bitwise the
/// k = 1 application on that column.
template <MultiCycleView V>
void apply_cycle_mv(const V& h, CycleKind kind, const la::MultiVec& x,
                    la::MultiVec& y) {
  if (kind == CycleKind::kFmg) {
    fmg_any_mv(h, x, y);
  } else {
    for (int j = 0; j < x.cols(); ++j) {
      std::fill(y.col(j).begin(), y.col(j).end(), real{0});
    }
    vcycle_any_mv(h, 0, x, y);
  }
}

}  // namespace prom::mg
