// The paper's solver: conjugate gradient preconditioned with one multigrid
// cycle (§7.2: "preconditioned conjugate gradient (PCG), preconditioned
// with one 'full' multigrid cycle"). CycleKind lives in mg/cycle_any.h
// with the backend-generic cycle templates.
#pragma once

#include <span>

#include "la/krylov.h"
#include "la/operator.h"
#include "mg/cycle.h"
#include "mg/hierarchy.h"

namespace prom::mg {

/// Adapts one multigrid cycle to the preconditioner interface.
class MgPreconditioner final : public la::LinearOperator {
 public:
  MgPreconditioner(const Hierarchy& h, CycleKind kind) : h_(&h), kind_(kind) {}

  idx rows() const override { return h_->level(0).a.nrows; }
  idx cols() const override { return rows(); }
  void apply(std::span<const real> x, std::span<real> y) const override;

 private:
  const Hierarchy* h_;
  CycleKind kind_;
};

struct MgSolveOptions {
  real rtol = 1e-6;
  int max_iters = 200;
  CycleKind cycle = CycleKind::kFmg;
  bool track_history = false;
  /// Operator format of the solve phase. The serial drivers below run
  /// kCsr only and reject the others; bsr3 and mf run through
  /// dla::DistHierarchy (dla/dist_mg.h), on one rank for a serial solve.
  MatrixFormat format = MatrixFormat::kCsr;
  /// Outer Krylov driver (mg_krylov_solve / dist_mg_krylov_solve): PCG
  /// for SPD operators, GMRES/BiCGStab for non-symmetric ones. The MG
  /// preconditioner is a fixed linear operator (the cycle never adapts to
  /// its input), so right-preconditioned GMRES is valid as-is.
  la::KrylovKind krylov = la::KrylovKind::kPcg;
  int restart = 50;  ///< GMRES subspace dimension per cycle
};

/// The single MgSolveOptions -> KrylovOptions mapping, shared by the
/// serial and distributed MG-PCG drivers so the stopping criterion cannot
/// drift between backends (both feed la::pcg_any, which applies
/// la::krylov_converged).
inline la::KrylovOptions to_krylov_options(const MgSolveOptions& opts) {
  la::KrylovOptions kopts;
  kopts.rtol = opts.rtol;
  kopts.max_iters = opts.max_iters;
  kopts.track_history = opts.track_history;
  return kopts;
}

/// The MgSolveOptions -> GmresOptions mapping, shared by the serial and
/// distributed MG-GMRES drivers (same tolerance discipline as
/// to_krylov_options).
inline la::GmresOptions to_gmres_options(const MgSolveOptions& opts) {
  la::GmresOptions gopts;
  gopts.rtol = opts.rtol;
  gopts.max_iters = opts.max_iters;
  gopts.restart = opts.restart;
  gopts.track_history = opts.track_history;
  return gopts;
}

/// Solves A_0 x = b with MG-preconditioned CG; x holds the initial guess.
la::KrylovResult mg_pcg_solve(const Hierarchy& h, std::span<const real> b,
                              std::span<real> x,
                              const MgSolveOptions& opts = {});

/// Solves A_0 x = b with the Krylov driver selected by `opts.krylov` —
/// MG-preconditioned CG, GMRES(m), or BiCGStab. The non-symmetric drivers
/// right-precondition with the same cycle.
la::KrylovResult mg_krylov_solve(const Hierarchy& h, std::span<const real> b,
                                 std::span<real> x,
                                 const MgSolveOptions& opts = {});

}  // namespace prom::mg
