#include "nonlinear/newton.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "dla/dist_mg.h"
#include "la/vec.h"
#include "partition/rcb.h"
#include "parx/runtime.h"

namespace prom::nonlinear {
namespace {

/// The retry after a PCG breakdown on an indefinite tangent: restarted
/// GMRES(40) with the same MG preconditioner and tolerance still produces
/// a usable Newton direction.
mg::MgSolveOptions gmres_fallback_options(mg::MgSolveOptions so) {
  so.krylov = la::KrylovKind::kGmres;
  so.restart = 40;
  return so;
}

}  // namespace

NewtonDriver::NewtonDriver(fem::FeProblem& problem,
                           const mg::MgOptions& mg_opts,
                           const NewtonOptions& opts)
    : problem_(&problem), opts_(opts) {
  // Mesh setup (grids + restriction operators), paid once: built from the
  // unloaded tangent, which is SPD by construction. In distributed mode
  // the serial matrix setup is skipped entirely — every per-iteration
  // Galerkin chain is built row-distributed from the fine tangent.
  fem::LinearSystem sys = fem::assemble_linear_system(problem);
  if (opts_.dist_ranks > 0) {
    hierarchy_ = mg::Hierarchy::build_grids(problem.mesh(), problem.dofmap(),
                                            std::move(sys.stiffness), mg_opts);
    vertex_owner_ = partition::rcb_partition(problem.mesh().coords(),
                                             opts_.dist_ranks);
  } else {
    hierarchy_ = mg::Hierarchy::build(problem.mesh(), problem.dofmap(),
                                      std::move(sys.stiffness), mg_opts);
  }
  u_free_.assign(static_cast<std::size_t>(problem.dofmap().num_free()), 0);
}

la::KrylovResult NewtonDriver::solve_linear_distributed(
    std::span<const real> rhs, std::span<real> dx,
    const mg::MgSolveOptions& so) {
  la::KrylovResult result;
  parx::Runtime::run(opts_.dist_ranks, [&](parx::Comm& comm) {
    // Matrix setup, distributed: the Galerkin chain, smoothers, and
    // coarse factorization for the current tangent.
    const dla::DistHierarchy dist =
        dla::DistHierarchy::build(comm, hierarchy_, vertex_owner_);
    const auto& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    const idx nloc = rows.local_size(comm.rank());
    std::vector<real> b_local(static_cast<std::size_t>(nloc));
    std::vector<real> x_local(static_cast<std::size_t>(nloc), 0);
    for (idx i = 0; i < nloc; ++i) b_local[i] = rhs[perm[b0 + i]];
    la::KrylovResult lin =
        dla::dist_mg_krylov_solve(comm, dist, b_local, x_local, so);
    // Breakdown is decided from allreduced scalars, so every rank takes
    // the same branch.
    if (lin.breakdown && opts_.gmres_fallback) {
      std::fill(x_local.begin(), x_local.end(), real{0});
      lin = dla::dist_mg_krylov_solve(comm, dist, b_local, x_local,
                                      gmres_fallback_options(so));
    }
    // Ranks own disjoint index ranges, so the scatter back to the serial
    // ordering is race-free; the result is identical on every rank.
    for (idx i = 0; i < nloc; ++i) dx[perm[b0 + i]] = x_local[i];
    if (comm.rank() == 0) result = lin;
  });
  return result;
}

NewtonStepReport NewtonDriver::solve_step(real bc_scale) {
  fem::FeProblem& prob = *problem_;
  const fem::DofMap& dofmap = prob.dofmap();
  NewtonStepReport report;

  // Residual at the trial state (previous displacement, new BC scale).
  auto residual_at = [&](std::span<const real> u_free) {
    const std::vector<real> u_full = dofmap.full_from_free(u_free, bc_scale);
    const fem::AssemblyResult res =
        prob.assemble(u_full, /*want_stiffness=*/false);
    std::vector<real> rhs(res.f_int.size());
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = -res.f_int[i];
    return rhs;
  };

  std::vector<real> rhs = residual_at(u_free_);
  real first_energy = 0;
  real first_rnorm = 0;
  real prev_rnorm = 0;
  for (int m = 0; m < opts_.max_newton_iters; ++m) {
    const real rnorm = la::nrm2(rhs);
    report.residual_norms.push_back(rnorm);

    // Tangent at the current state — except on the first iteration, where
    // the trial state carries the un-equilibrated BC increment and the
    // previous converged state is used instead (see NewtonOptions).
    const real tangent_scale = (m == 0 && opts_.initial_stiffness_first_iter)
                                   ? committed_scale_
                                   : bc_scale;
    const std::vector<real> u_tan = dofmap.full_from_free(u_free_, tangent_scale);
    fem::AssemblyResult asmres = prob.assemble(u_tan, /*want_stiffness=*/true);

    // Dynamic linear tolerance (§7.2).
    real rtol = opts_.first_linear_rtol;
    if (m > 0 && prev_rnorm > 0) {
      rtol = std::min(opts_.max_linear_rtol,
                      opts_.rtol_residual_factor * rnorm / prev_rnorm);
      rtol = std::max(rtol, real{1e-12});
    }
    prev_rnorm = rnorm;

    // Matrix setup: new Galerkin chain + smoothers on the fixed grids
    // (performed inside the distributed build in dist mode).
    if (opts_.dist_ranks > 0) {
      hierarchy_.set_fine_matrix(std::move(asmres.stiffness));
    } else {
      hierarchy_.update_fine_matrix(std::move(asmres.stiffness));
    }
    ++matrix_setups_;

    // Linear solve for the increment.
    std::vector<real> dx(rhs.size(), 0);
    mg::MgSolveOptions so;
    so.rtol = rtol;
    so.max_iters = opts_.max_linear_iters;
    so.cycle = opts_.cycle;
    la::KrylovResult lin = opts_.dist_ranks > 0
                               ? solve_linear_distributed(rhs, dx, so)
                               : mg::mg_pcg_solve(hierarchy_, rhs, dx, so);
    if (lin.breakdown && opts_.gmres_fallback && opts_.dist_ranks == 0) {
      std::fill(dx.begin(), dx.end(), real{0});
      lin = mg::mg_krylov_solve(hierarchy_, rhs, dx,
                                gmres_fallback_options(so));
    }
    report.linear_iters.push_back(lin.iterations);
    report.linear_rtols.push_back(rtol);
    ++report.newton_iters;

    // Backtracking: damp the increment until the trial state is evaluable
    // (no inverted elements) and the residual does not blow up.
    real damping = 1;
    std::vector<real> u_try(u_free_.size());
    std::vector<real> rhs_new;
    bool accepted = false;
    for (int bt = 0; bt < 8 && !accepted; ++bt, damping *= real{0.5}) {
      la::copy(u_free_, u_try);
      la::axpy(damping, dx, u_try);
      try {
        rhs_new = residual_at(u_try);
      } catch (const Error&) {
        continue;  // inverted element: halve the step
      }
      const real new_norm = la::nrm2(rhs_new);
      if (std::isfinite(new_norm) &&
          (new_norm <= 4 * rnorm || bt == 7)) {
        accepted = true;
      }
    }
    if (!accepted) break;  // stuck: report non-convergence
    la::copy(u_try, u_free_);
    const real energy = std::fabs(damping * la::dot(dx, rhs));
    rhs = std::move(rhs_new);
    const real new_rnorm = la::nrm2(rhs);

    // Energy-norm convergence test |dx^T r| (§7.2); the residual-drop
    // condition guards against a zero correction from a CG breakdown
    // masquerading as convergence.
    if (m == 0) {
      first_energy = energy;
      first_rnorm = rnorm;
      if (rnorm == 0 || new_rnorm == 0) {
        report.converged = true;
        break;
      }
    } else if (energy < opts_.energy_rtol * first_energy &&
               new_rnorm < real{0.5} * first_rnorm) {
      report.converged = true;
      break;
    }
    // No usable search direction and no progress: give up on this step.
    if (lin.iterations == 0 && lin.breakdown && energy == 0) break;
  }

  // Accept the step: commit plastic state at the converged configuration.
  if (report.converged) {
    const std::vector<real> u_full = dofmap.full_from_free(u_free_, bc_scale);
    prob.assemble(u_full, /*want_stiffness=*/false);
    prob.commit();
    committed_scale_ = bc_scale;
    report.plastic_fraction = prob.plastic_fraction();
  } else {
    PROM_WARN("Newton step did not converge in " << report.newton_iters
                                                 << " iterations");
  }
  return report;
}

NewtonStepReport NewtonDriver::solve_step_adaptive(real target_scale,
                                                   int depth) {
  // Snapshot so a failed attempt can roll back cleanly.
  const std::vector<real> u_saved = u_free_;
  const real scale_saved = committed_scale_;
  std::vector<fem::J2State> state_saved = problem_->snapshot_state();

  NewtonStepReport report;
  bool failed = false;
  try {
    report = solve_step(target_scale);
    failed = !report.converged;
  } catch (const Error&) {
    failed = true;  // e.g. element inversion on the initial trial state
  }
  if (!failed) return report;

  u_free_ = u_saved;
  committed_scale_ = scale_saved;
  problem_->restore_state(std::move(state_saved));
  if (depth >= 3) {
    report.converged = false;
    return report;
  }

  // Two half-steps; aggregate their iteration counts into one report.
  const real mid = scale_saved + (target_scale - scale_saved) / 2;
  NewtonStepReport first = solve_step_adaptive(mid, depth + 1);
  if (!first.converged) return first;
  NewtonStepReport second = solve_step_adaptive(target_scale, depth + 1);
  second.newton_iters += first.newton_iters;
  second.linear_iters.insert(second.linear_iters.begin(),
                             first.linear_iters.begin(),
                             first.linear_iters.end());
  second.linear_rtols.insert(second.linear_rtols.begin(),
                             first.linear_rtols.begin(),
                             first.linear_rtols.end());
  second.residual_norms.insert(second.residual_norms.begin(),
                               first.residual_norms.begin(),
                               first.residual_norms.end());
  return second;
}

std::vector<NewtonStepReport> NewtonDriver::run_load_steps(int num_steps) {
  PROM_CHECK(num_steps >= 1);
  std::vector<NewtonStepReport> reports;
  reports.reserve(static_cast<std::size_t>(num_steps));
  for (int s = 1; s <= num_steps; ++s) {
    reports.push_back(solve_step_adaptive(
        static_cast<real>(s) / static_cast<real>(num_steps), 0));
  }
  return reports;
}

}  // namespace prom::nonlinear
