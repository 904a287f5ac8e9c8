// "Athena" — the end-to-end experiment driver of Figure 8: generate the
// model problem, partition it, create the fine grid (assembly), build the
// grid hierarchy (mesh setup), build the Galerkin operators (matrix
// setup), and run the solve phase on virtual ranks, with per-phase wall
// times and the §6 flop/traffic measurements the benches print.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "fem/assembly.h"
#include "fem/scalar.h"
#include "mesh/generate.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "nonlinear/newton.h"
#include "obs/report.h"
#include "perf/efficiency.h"
#include "perf/model.h"

namespace prom::app {

/// Which PDE the model problem discretizes. Elasticity is the paper's
/// 3-dof-per-vertex system; the scalar classes (block size 1) stress the
/// same hierarchy machinery with coefficient jumps and non-symmetry.
enum class EquationClass : std::uint8_t {
  kElasticity,  ///< 3D linear elasticity (SPD, block size 3)
  kPoissonHet,  ///< jump-coefficient Poisson (SPD, block size 1)
  kAdvDiff,     ///< SUPG advection-diffusion (non-symmetric, block size 1)
};
const char* to_string(EquationClass eq);
/// PROM_EQUATION=elasticity|poisson_het|advdiff (default elasticity).
/// Fails fast on an unknown value.
EquationClass equation_from_env();

/// Solver defaults appropriate to an equation class. The SPD classes keep
/// the paper's configuration (PCG, processor-block Jacobi, LDL^T
/// coarsest); advection-diffusion swaps in damped point Jacobi —
/// BlockJacobi's LDL^T block factors and Chebyshev's eigenvalue bounds
/// both assume symmetry — plus a partial-pivoting LU coarsest solve.
mg::MgOptions default_mg_options(EquationClass eq);
/// PCG for the SPD classes, right-preconditioned GMRES(m) for
/// advection-diffusion.
la::KrylovKind default_krylov(EquationClass eq);

/// A ready-to-solve model problem (mesh + constraints + coefficients).
/// `dofmap` carries the equation class's dofs per vertex; elasticity
/// reads `materials`, the scalar classes `coeffs`.
struct ModelProblem {
  EquationClass equation = EquationClass::kElasticity;
  mesh::Mesh mesh;
  fem::DofMap dofmap{0};
  std::vector<fem::Material> materials;
  fem::ScalarCoefficients coeffs;

  /// Applies the problem's Dirichlet constraints to a dof map over any
  /// mesh of its domain (adaptive refinement creates new boundary
  /// vertices; bisection midpoints of a boundary face stay on its plane,
  /// so the factories' coordinate predicates still apply). The callback
  /// fixes dofs only; make_dofmap finalizes. Set by every factory; null
  /// for hand-built problems, which then cannot be refined.
  std::function<void(const mesh::Mesh&, fem::DofMap&)> fix_bcs;

  /// The finalized dof map of this problem on `m` (a mesh of its
  /// domain): 3 dofs per vertex for elasticity, 1 for the scalar classes,
  /// fix_bcs applied. Requires fix_bcs.
  fem::DofMap make_dofmap(const mesh::Mesh& m) const;
};

/// The problem's linear system K_ff u_f = rhs on mesh `m` of its domain
/// under the constraints `dofmap`: the elasticity tangent at the
/// unloaded state with the displacement-driven load, or the scalar
/// operator with its source load less the Dirichlet coupling.
fem::LinearSystem assemble_system(const ModelProblem& problem,
                                  const mesh::Mesh& m,
                                  const fem::DofMap& dofmap);

/// The paper's §7 concentric-spheres problem: symmetric BCs on the three
/// cut faces, uniform crushing displacement on the top face.
ModelProblem make_sphere_problem(const mesh::SphereInCubeParams& params,
                                 real crush);

/// A homogeneous elastic cube: bottom clamped, top pressed down; the
/// simple scalable problem used by tests and the quickstart.
ModelProblem make_box_problem(idx n, real crush = 0.05,
                              fem::Material material = {});

/// Jump-coefficient Poisson on the unit cube (n^3 hex cells): diffusion
/// `contrast` inside the centered half-cube [1/4, 3/4]^3 and 1 outside
/// (sampled per quadrature point; the interface aligns with element faces
/// when 4 divides n); u = 0 on the bottom face, u = 1 on the top, natural
/// elsewhere; unit volume source.
ModelProblem make_poisson_het_problem(idx n, real contrast = 1e3);

/// Reaction-dominated scalar problem on the unit cube (n^3 hex cells):
/// -lap(u) + c u = f with constant reaction c = `reaction`, manufactured
/// so u = sin(pi x) sin(pi y) sin(pi z) exactly (f = (3 pi^2 + c) u,
/// u = 0 on the whole boundary). SPD at any c, so it runs the
/// kPoissonHet configuration (MG-PCG); the MMS gate checks O(h^2) L2
/// convergence, exercising the ScalarCoefficients::reaction term.
ModelProblem make_reaction_problem(idx n, real reaction = 1e3);

/// SUPG advection-diffusion on the unit cube (n^3 hex cells): skew
/// velocity v = (1, 1/2, 1/4)/|.|, isotropic diffusion kappa = |v|/peclet
/// (so `peclet` is the global Péclet number |v| L / kappa at L = 1);
/// u = 1 on the inflow face x = 0, u = 0 on the outflow face x = 1,
/// natural side walls; unit volume source. Non-symmetric: solve with
/// GMRES or BiCGStab.
ModelProblem make_advdiff_problem(idx n, real peclet = 10);

struct LinearStudyConfig {
  int nranks = 2;
  real rtol = 1e-4;             ///< the paper's first-linear-solve tolerance
  int max_iters = 200;
  mg::MgOptions mg;
  mg::CycleKind cycle = mg::CycleKind::kFmg;
  /// Solve-phase matrix format (PROM_MATRIX=csr|bsr3|mf, bsr3 when
  /// unset): kBsr3 re-blocks every elasticity level operator into 3x3
  /// node blocks and ships whole node blocks in the ghost exchange (a
  /// scalar class's 1x1 node blocks are its CSR rows); kCsr is the scalar
  /// reference; kMf (elasticity only) applies the finest level
  /// matrix-free from batched element data (coarse levels stay
  /// assembled). Iteration counts and residual histories match kCsr to
  /// rounding in every case.
  mg::MatrixFormat format = mg::matrix_format_from_env();
  /// When non-empty, the study's obs report (report.json schema) is
  /// written here after the run.
  std::string report_path;
};

/// Everything Figures 10-12 and Table 2 need from one linear solve.
struct LinearStudyReport {
  idx unknowns = 0;
  int ranks = 0;
  int levels = 0;
  int iterations = 0;
  bool converged = false;

  // Wall-clock phase breakdown on the host (Figure 10's phases). Mesh
  // setup is serial (grids only); matrix setup and solve run distributed
  // on the virtual ranks.
  double wall_partition = 0;     ///< Athena: partitioning
  double wall_fine_grid = 0;     ///< FEAP: fine grid creation (assembly)
  double wall_mesh_setup = 0;    ///< Prometheus: coarse grid construction
  double wall_matrix_setup = 0;  ///< Epimetheus: distributed RAR^T + smoothers
  double wall_solve = 0;         ///< PETSc: the actual MG-PCG solve

  // Per-phase measurements across virtual ranks (§6).
  perf::PhaseStats setup_phase;  ///< distributed matrix setup
  /// This-rank flops spent in the Galerkin triple products alone, maxed
  /// over ranks (the matrix-setup scaling quantity).
  std::int64_t max_rank_galerkin_flops = 0;
  perf::PhaseStats solve_phase;
  double modeled_solve_time = 0;   ///< machine-model seconds
  double modeled_mflops = 0;       ///< total modeled Mflop/s in MG iterations

  /// The full observability report of the study's tracing window (phases,
  /// level-resolved cycle components, metrics). Every wall/traffic field
  /// above is derived from it — there is no separate stopwatch path.
  obs::Report obs;

  perf::RunMeasurement measurement() const;
};

/// Runs the distributed first linear solve of `problem` on virtual ranks.
LinearStudyReport run_linear_study(const ModelProblem& problem,
                                   const LinearStudyConfig& config);

/// The scaled-problem series of §7 (~constant work per rank): returns the
/// sphere parameters and rank count for step `i` of the series, starting
/// from `base_ranks` ranks at `layers_per_shell` == 1.
struct ScaledCase {
  mesh::SphereInCubeParams params;
  int ranks;
};
std::vector<ScaledCase> scaled_series(int num_cases, int base_ranks = 2);

}  // namespace prom::app
