// The paper's nonlinear solution procedure (§7.2): full Newton with
// displacement-driven load steps, each linear solve done by multigrid-
// preconditioned CG with the dynamic relative tolerance
//   rtol_1 = 1e-4,   rtol_m = min(1e-3, 1e-1 * ||r_m|| / ||r_{m-1}||),
// and convergence declared when the energy norm of the correction falls
// to 1e-20 of the first correction's:
//   |dx_m^T r_m| < 1e-20 * |dx_0^T r_0|.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "fem/assembly.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"

namespace prom::nonlinear {

struct NewtonOptions {
  int max_newton_iters = 25;
  /// Energy-norm drop declaring Newton convergence (paper: 1e-20... of the
  /// first correction; the energy is quadratic so this is ~1e-10 in norm).
  real energy_rtol = 1e-16;
  real first_linear_rtol = 1e-4;  ///< paper's rtol_1
  real max_linear_rtol = 1e-3;    ///< cap on the dynamic tolerance
  real rtol_residual_factor = 0.1;  ///< the 1e-1 in the dynamic heuristic
  int max_linear_iters = 300;
  mg::CycleKind cycle = mg::CycleKind::kFmg;
  /// When MG-preconditioned CG breaks down on an indefinite tangent, retry
  /// the linear solve with FMG-preconditioned restarted GMRES (which does
  /// not require positive definiteness; cf. the multigrid-enhanced GMRES
  /// of [18] the paper cites for elasto-plastic problems).
  bool gmres_fallback = true;
  /// Evaluate the tangent of the *first* iteration of each load step at
  /// the previous converged state. The trial state concentrates the whole
  /// boundary-displacement increment in the constrained dofs' neighbor
  /// layer, where a finite-deformation tangent can lose positive
  /// definiteness; the converged-state tangent is SPD.
  bool initial_stiffness_first_iter = true;
  /// > 0: run each Newton linear solve distributed over this many virtual
  /// ranks — per-iteration matrix setup (the Galerkin chain + smoothers)
  /// is then the row-distributed dla::DistHierarchy::build, reusing the
  /// serially-built grids. 0 keeps the serial path. The GMRES breakdown
  /// fallback runs on the same distributed hierarchy.
  int dist_ranks = 0;
};

struct NewtonStepReport {
  bool converged = false;
  int newton_iters = 0;
  std::vector<int> linear_iters;      ///< PCG iterations per Newton iter
  std::vector<real> linear_rtols;     ///< dynamic tolerance used
  std::vector<real> residual_norms;   ///< ||r|| at the start of each iter
  real plastic_fraction = 0;          ///< after commit (Fig 13 left)
};

/// Drives `problem` through `num_steps` equal displacement increments of
/// the DofMap's prescribed values (step s applies scale s/num_steps).
/// The multigrid hierarchy's grids are built once from the fine mesh and
/// the unloaded tangent; only the operators are rebuilt per Newton
/// iteration (the paper's per-matrix "matrix setup" phase).
class NewtonDriver {
 public:
  NewtonDriver(fem::FeProblem& problem, const mg::MgOptions& mg_opts,
               const NewtonOptions& opts = {});

  /// Runs one load step at BC scale `bc_scale`, updating the state.
  NewtonStepReport solve_step(real bc_scale);

  /// Like solve_step, but rolls back and retries in half-steps (up to
  /// `depth` 3) when the step fails — FEAP-style adaptive load stepping.
  NewtonStepReport solve_step_adaptive(real target_scale, int depth = 0);

  /// Runs `num_steps` uniform steps to scale 1; returns per-step reports.
  std::vector<NewtonStepReport> run_load_steps(int num_steps);

  const std::vector<real>& displacement() const { return u_free_; }
  const mg::Hierarchy& hierarchy() const { return hierarchy_; }

  /// Total matrix ("matrix setup") rebuilds so far — one per Newton iter.
  int matrix_setups() const { return matrix_setups_; }

 private:
  /// Distributed linear solve: builds the per-tangent DistHierarchy on
  /// opts_.dist_ranks virtual ranks and runs distributed MG-PCG, retried
  /// with MG-GMRES on breakdown (NewtonOptions::gmres_fallback); `dx` is
  /// scattered back to the serial ordering.
  la::KrylovResult solve_linear_distributed(std::span<const real> rhs,
                                            std::span<real> dx,
                                            const mg::MgSolveOptions& so);

  fem::FeProblem* problem_;
  NewtonOptions opts_;
  mg::Hierarchy hierarchy_;
  std::vector<real> u_free_;
  std::vector<idx> vertex_owner_;  ///< fine-mesh partition (dist mode)
  real committed_scale_ = 0;
  int matrix_setups_ = 0;
};

}  // namespace prom::nonlinear
