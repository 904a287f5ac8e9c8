// Quickstart: solve a 3D elasticity problem with the fully automatic
// unstructured multigrid solver in a few lines — the workflow §1 of the
// paper promises ("the user need only provide the fine grid").
//
//   1. build (or load) a finite element mesh,
//   2. mark Dirichlet constraints,
//   3. assemble the stiffness matrix,
//   4. let the solver coarsen the mesh automatically (MIS + Delaunay) and
//      run multigrid-preconditioned CG.
//
// Usage: quickstart [n]   (default n = 10: an n x n x n hex cube)
//
// Every solve runs on one virtual rank of the distributed stack, with the
// calls app::SolveService makes: mg::Hierarchy builds the grids and
// restrictions (mesh setup), dla::DistHierarchy the Galerkin operators,
// smoothers and coarse factorization (matrix setup), and
// dla::dist_mg_krylov_solve runs the solve.
//
// Run with PROM_TRACE=trace.json to get a Chrome-trace timeline of the
// phases below plus the per-level multigrid cycle components (open it at
// ui.perfetto.dev). The solve phase runs the node-block (BAIJ-style 3x3)
// kernels by default; PROM_MATRIX=csr switches it to the scalar CSR
// reference, and PROM_MATRIX=mf applies the finest level matrix-free from
// batched element data (coarse levels stay assembled). The iteration
// count and residual history match the CSR path to rounding either way.
// PROM_EQUATION=poisson_het|advdiff swaps the elasticity problem for a
// scalar equation class (jump-coefficient Poisson under MG-PCG, SUPG
// advection-diffusion under right-preconditioned MG-GMRES) on the same
// cube — scalar classes run CSR rows, which are their 1x1 node blocks
// (PROM_MATRIX=mf is rejected: no elasticity element kernels).
// PROM_REFINE=r runs r adaptive solve-estimate-mark-refine rounds first
// (app/refine.h) and solves on the locally refined tet mesh, with the
// refinement levels stacked above the MIS chain. Either switch takes one
// path through the app factory's model problem, whose fem::DofMap carries
// the equation class's dofs per vertex; main's four steps are the plain
// elasticity case.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "app/refine.h"
#include "common/error.h"
#include "dla/dist_mg.h"
#include "fem/assembly.h"
#include "mesh/generate.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "obs/trace.h"
#include "parx/runtime.h"

namespace {

using namespace prom;

void print_refined(const app::AdaptiveLoop& loop) {
  std::printf("adaptive refinement: %d rounds, unknowns",
              static_cast<int>(loop.rounds.size()));
  for (idx u : loop.round_unknowns) std::printf(" %d", u);
  std::printf(", %d cells\n", loop.final_mesh().num_cells());
}

/// Matrix setup and solve of A x = rhs on one virtual rank. `grids` holds
/// the grids, restrictions and fine matrix (mg::Hierarchy::build_grids*);
/// `mf` supplies the fine-level element data for MatrixFormat::kMf.
/// Prints one line per level (the operator nnz comes from the distributed
/// levels) and the solve outcome; returns the process exit code.
int solve_on_one_rank(const mg::Hierarchy& grids, idx num_vertices,
                      std::span<const real> rhs,
                      const mg::MgSolveOptions& opts,
                      const dla::MfProblem& mf) {
  const std::vector<idx> owner(static_cast<std::size_t>(num_vertices), 0);
  la::KrylovResult result;
  parx::Runtime::run(1, [&](parx::Comm& comm) {
    dla::DistHierarchy dist;
    {
      const obs::Span span("phase.matrix_setup");
      dist = dla::DistHierarchy::build(
          comm, grids, owner, opts.format,
          opts.format == mg::MatrixFormat::kMf ? &mf : nullptr);
    }
    for (int l = 0; l < dist.num_levels(); ++l) {
      std::printf("level %d: %d vertices, %zu free dofs, nnz(A) = %zu\n", l,
                  grids.level(l).num_vertices,
                  grids.level(l).free_dofs.size(),
                  dist.level(l).a.local_matrix().vals.size());
    }
    // On one rank the distributed numbering is the serial one permuted.
    const std::vector<idx>& perm = dist.permutation(0);
    std::vector<real> b(rhs.size());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = rhs[perm[i]];
    std::vector<real> x(rhs.size(), 0.0);
    const obs::Span span("phase.solve");
    result = dla::dist_mg_krylov_solve(comm, dist, b, x, opts);
  });
  std::printf("FMG-%s: %d iterations, relative residual %.2e, %s\n",
              opts.krylov == la::KrylovKind::kPcg ? "PCG" : "GMRES",
              result.iterations, result.final_relres,
              result.converged ? "converged" : "NOT converged");
  return result.converged ? 0 : 1;
}

/// The model-problem path, taken for a scalar equation class or when
/// PROM_REFINE > 0: the app factory's problem on the same cube, solved
/// with the equation class's default smoother + Krylov driver. With
/// refinement rounds the adaptive loop refines the (tet-split) cube where
/// the error indicator is largest, and the solve runs on the refined
/// hierarchy — refinement levels with local smoothing above the
/// automatic MIS/Delaunay chain.
int run_model_problem(app::EquationClass eq, idx n, int refine_rounds,
                      const mg::MgSolveOptions& opts) {
  // Fail fast instead of silently solving in CSR: the scalar classes
  // have no elasticity element kernels for mf. Their bsr3 node blocks
  // are 1x1, the CSR rows.
  PROM_CHECK_MSG(eq == app::EquationClass::kElasticity ||
                     opts.format != mg::MatrixFormat::kMf,
                 "quickstart: scalar equation classes (poisson_het, advdiff) "
                 "support only PROM_MATRIX=csr or bsr3; mf is "
                 "elasticity-only");
  app::ModelProblem p;
  {
    const obs::Span span("phase.mesh");
    switch (eq) {
      case app::EquationClass::kElasticity:
        p = app::make_box_problem(n);
        break;
      case app::EquationClass::kPoissonHet:
        p = app::make_poisson_het_problem(n, 1e3);
        break;
      case app::EquationClass::kAdvDiff:
        p = app::make_advdiff_problem(n, 10.0);
        break;
    }
  }
  const mg::MgOptions mo = app::default_mg_options(eq);

  app::AdaptiveLoop loop;
  const mesh::Mesh* fine_mesh = &p.mesh;
  const fem::DofMap* fine_dofmap = &p.dofmap;
  fem::LinearSystem sys;
  mg::Hierarchy grids;
  if (refine_rounds > 0) {
    app::AdaptiveOptions ao;
    ao.rounds = refine_rounds;
    ao.mg = mo;
    loop = app::run_adaptive_refinement(p, ao);
    print_refined(loop);
    fine_mesh = &loop.final_mesh();
    fine_dofmap = &loop.final_dofmap();
    sys = std::move(loop.sys);
    const obs::Span span("phase.mesh_setup");
    grids = mg::Hierarchy::build_grids_refined(
        loop.mesh_ptrs(), loop.dofmap_ptrs(), loop.rounds,
        std::move(sys.stiffness), mo);
  } else {
    {
      const obs::Span span("phase.fine_grid");
      sys = app::assemble_system(p, p.mesh, p.dofmap);
    }
    std::printf("assembled %d unknowns (%lld nonzeros, %s)\n",
                sys.stiffness.nrows,
                static_cast<long long>(sys.stiffness.nnz()),
                app::to_string(eq));
    const obs::Span span("phase.mesh_setup");
    grids = mg::Hierarchy::build_grids(p.mesh, p.dofmap,
                                       std::move(sys.stiffness), mo);
  }
  const dla::MfProblem mf{fine_mesh, &p.materials, fine_dofmap,
                          /*bbar=*/true};
  return solve_on_one_rank(grids, fine_mesh->num_vertices(), sys.rhs, opts,
                           mf);
}

}  // namespace

int main(int argc, char** argv) {
  const idx n = argc > 1 ? std::atoi(argv[1]) : 10;

  mg::MgSolveOptions opts;
  opts.rtol = 1e-8;
  opts.format = mg::matrix_format_from_env();
  const app::EquationClass eq = app::equation_from_env();
  opts.krylov = app::default_krylov(eq);
  const int refine_rounds = app::refine_rounds_from_env();
  if (eq != app::EquationClass::kElasticity || refine_rounds > 0) {
    return run_model_problem(eq, n, refine_rounds, opts);
  }

  // 1. The fine grid: a unit cube of n^3 hexahedra, one elastic material.
  mesh::Mesh mesh;
  {
    const obs::Span span("phase.mesh");
    mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
  }

  // 2. Constraints: clamp the bottom face, press the top face down.
  fem::DofMap dofmap(mesh.num_vertices());
  {
    const obs::Span span("phase.constraints");
    dofmap.fix_all(
        mesh.vertices_where([](const Vec3& p) { return p.z < 1e-12; }), 0.0);
    for (idx v :
         mesh.vertices_where([](const Vec3& p) { return p.z > 1 - 1e-12; })) {
      dofmap.fix(v, 2, -0.05);
    }
    dofmap.finalize();
  }

  // 3. Assemble the linear elastic stiffness matrix.
  const std::vector<fem::Material> materials(1);  // E = 1, nu = 0.3
  fem::LinearSystem sys;
  {
    const obs::Span span("phase.fine_grid");
    fem::FeProblem problem(mesh, materials, dofmap);
    sys = fem::assemble_linear_system(problem);
  }
  std::printf("assembled %d unknowns (%lld nonzeros)\n", sys.stiffness.nrows,
              static_cast<long long>(sys.stiffness.nnz()));

  // 4. Automatic coarsening (mesh setup: grids + restrictions), then the
  // Galerkin coarse operators + smoothers (matrix setup) and
  // full-multigrid-preconditioned CG on one rank.
  mg::Hierarchy grids;
  {
    const obs::Span span("phase.mesh_setup");
    grids = mg::Hierarchy::build_grids(mesh, dofmap,
                                       std::move(sys.stiffness), {});
  }
  const dla::MfProblem mf{&mesh, &materials, &dofmap, /*bbar=*/true};
  return solve_on_one_rank(grids, mesh.num_vertices(), sys.rhs, opts, mf);
}
