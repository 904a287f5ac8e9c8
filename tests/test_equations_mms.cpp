// Method-of-manufactured-solutions convergence for the scalar equation
// classes: a known exact solution is imposed through the source term and
// Dirichlet data on the whole boundary, and the discrete L2 error must
// (a) vanish for solutions in the trilinear space (linears) and
// (b) contract at O(h^2) under uniform refinement for smooth polynomial
// and trigonometric solutions — on the structured box and on the warped
// sphere-in-cube mesh. Solves run through the scalar multigrid hierarchy
// (PCG for diffusion, right-preconditioned GMRES for advection-diffusion),
// so the whole block-size-1 stack is on the hook, not just the assembly.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "fem/scalar.h"
#include "la/krylov.h"
#include "mesh/generate.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"

namespace prom {
namespace {

struct Exact {
  std::function<real(const Vec3&)> u;
  std::function<Vec3(const Vec3&)> grad;
  std::function<real(const Vec3&)> laplace;
};

Exact linear_exact() {
  Exact e;
  e.u = [](const Vec3& x) { return 1.0 + 2.0 * x.x - 3.0 * x.y + 4.0 * x.z; };
  e.grad = [](const Vec3&) { return Vec3{2.0, -3.0, 4.0}; };
  e.laplace = [](const Vec3&) { return real{0}; };
  return e;
}

Exact quadratic_exact() {
  Exact e;
  e.u = [](const Vec3& x) {
    return x.x * x.x + 2.0 * x.y * x.y + 3.0 * x.z * x.z - x.x * x.y;
  };
  e.grad = [](const Vec3& x) {
    return Vec3{2.0 * x.x - x.y, 4.0 * x.y - x.x, 6.0 * x.z};
  };
  e.laplace = [](const Vec3&) { return real{12}; };
  return e;
}

Exact trig_exact(real length) {
  const real w = M_PI / length;
  Exact e;
  e.u = [w](const Vec3& x) {
    return std::sin(w * x.x) * std::sin(w * x.y) * std::sin(w * x.z);
  };
  e.grad = [w](const Vec3& x) {
    return Vec3{w * std::cos(w * x.x) * std::sin(w * x.y) * std::sin(w * x.z),
                w * std::sin(w * x.x) * std::cos(w * x.y) * std::sin(w * x.z),
                w * std::sin(w * x.x) * std::sin(w * x.y) * std::cos(w * x.z)};
  };
  e.laplace = [w](const Vec3& x) {
    return -3.0 * w * w * std::sin(w * x.x) * std::sin(w * x.y) *
           std::sin(w * x.z);
  };
  return e;
}

struct Pde {
  real kappa = 1;           ///< isotropic diffusion coefficient
  Vec3 velocity{0, 0, 0};   ///< constant advection field (zero = Poisson)
  real reaction = 0;        ///< constant reaction coefficient c
  bool supg = false;
};

/// Assembles and solves the MMS problem on `mesh` with every boundary
/// vertex pinned to the exact solution, returning the L2 error.
real mms_l2_error(const mesh::Mesh& mesh, const Exact& exact, const Pde& pde,
                  std::vector<std::function<bool(const Vec3&)>> boundary) {
  fem::DofMap dm(mesh.num_vertices(), 1);
  for (const auto& pred : boundary) {
    for (idx v : mesh.vertices_where(pred)) {
      dm.fix(v, 0, exact.u(mesh.coord(v)));
    }
  }
  dm.finalize();
  EXPECT_GT(dm.num_free(), 0);

  fem::ScalarCoefficients coeffs;
  const real kappa = pde.kappa;
  const Vec3 vel = pde.velocity;
  coeffs.diffusion = [kappa](idx, const Vec3&) {
    return kappa * Mat3::identity();
  };
  if (!(vel == Vec3{})) {
    coeffs.velocity = [vel](idx, const Vec3&) { return vel; };
  }
  const real c = pde.reaction;
  if (c != 0) {
    coeffs.reaction = [c](idx, const Vec3&) { return c; };
  }
  coeffs.supg = pde.supg;
  // f = -kappa lap(u) + v . grad(u) + c u, the strong residual of the
  // exact solution.
  coeffs.source = [kappa, vel, c, &exact](idx, const Vec3& x) {
    return -kappa * exact.laplace(x) + dot(vel, exact.grad(x)) +
           c * exact.u(x);
  };

  fem::LinearSystem sys = fem::assemble_scalar_system(mesh, dm, coeffs);
  const bool symmetric = vel == Vec3{};
  mg::MgOptions mo =
      app::default_mg_options(symmetric ? app::EquationClass::kPoissonHet
                                        : app::EquationClass::kAdvDiff);
  mo.coarsest_max_dofs = 100;
  std::vector<real> rhs = std::move(sys.rhs);
  const mg::Hierarchy h =
      mg::Hierarchy::build(mesh, dm, std::move(sys.stiffness), mo);
  EXPECT_EQ(h.block_size(), 1);

  mg::MgSolveOptions so;
  so.rtol = 1e-11;
  so.max_iters = 400;
  so.krylov = app::default_krylov(symmetric ? app::EquationClass::kPoissonHet
                                            : app::EquationClass::kAdvDiff);
  std::vector<real> x(rhs.size(), 0);
  const la::KrylovResult r = mg::mg_krylov_solve(h, rhs, x, so);
  EXPECT_TRUE(r.converged);

  const std::vector<real> full = dm.full_from_free(x);
  return fem::scalar_l2_error(mesh, full, exact.u);
}

std::vector<std::function<bool(const Vec3&)>> box_boundary(real side) {
  const real eps = 1e-9 * side;
  return {[=](const Vec3& x) { return x.x < eps || x.x > side - eps; },
          [=](const Vec3& x) { return x.y < eps || x.y > side - eps; },
          [=](const Vec3& x) { return x.z < eps || x.z > side - eps; }};
}

mesh::Mesh unit_box(idx n) {
  return mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
}

TEST(EquationsMms, PoissonReproducesLinearExactly) {
  // Trilinear elements contain linears: the discrete solution is the
  // interpolant, exact to solver tolerance.
  const real err = mms_l2_error(unit_box(5), linear_exact(), {.kappa = 2.0},
                                box_boundary(1));
  EXPECT_LE(err, 1e-9);
}

TEST(EquationsMms, AdvdiffReproducesLinearExactly) {
  // SUPG is consistent (the stabilization tests the strong residual, zero
  // for the exact linear), so exactness survives the stabilized form.
  Pde pde;
  pde.kappa = 0.1;
  pde.velocity = {1.0, 0.5, 0.25};
  pde.supg = true;
  const real err =
      mms_l2_error(unit_box(5), linear_exact(), pde, box_boundary(1));
  EXPECT_LE(err, 1e-9);
}

struct RateCase {
  const char* name;
  Exact exact;
  Pde pde;
};

TEST(EquationsMms, ReactionReproducesLinearExactly) {
  // The mass term of a linear solution integrates exactly under both
  // quadrature rules, so -lap(u) + c u = f keeps linears in the discrete
  // kernel of the error.
  const real err = mms_l2_error(unit_box(5), linear_exact(),
                                {.kappa = 1.0, .reaction = 50.0},
                                box_boundary(1));
  EXPECT_LE(err, 1e-9);
}

TEST(EquationsMms, SecondOrderL2RatesOnBox) {
  const RateCase cases[] = {
      {"poisson_quadratic", quadratic_exact(), {.kappa = 1.0}},
      {"poisson_trig", trig_exact(1.0), {.kappa = 1.0}},
      {"reaction_trig",
       trig_exact(1.0),
       {.kappa = 1.0, .reaction = 1e3}},  // reaction-dominated
      {"advdiff_quadratic",
       quadratic_exact(),
       {.kappa = 0.5, .velocity = {1.0, 0.5, 0.25}, .supg = true}},
      {"advdiff_trig",
       trig_exact(1.0),
       {.kappa = 0.5, .velocity = {1.0, 0.5, 0.25}, .supg = true}},
  };
  for (const RateCase& c : cases) {
    const real e_coarse =
        mms_l2_error(unit_box(4), c.exact, c.pde, box_boundary(1));
    const real e_fine =
        mms_l2_error(unit_box(8), c.exact, c.pde, box_boundary(1));
    ASSERT_GT(e_coarse, 0) << c.name;
    ASSERT_GT(e_fine, 0) << c.name;
    const real rate = std::log2(e_coarse / e_fine);
    EXPECT_GE(rate, 1.8) << c.name << ": e(h)=" << e_coarse
                         << " e(h/2)=" << e_fine;
    // Reaction dominance pushes the discrete solution toward the L2
    // projection, which superconverges at these coarse sizes (observed
    // rate ~3 at n=4->8); the looser ceiling still catches an
    // accidentally-exact manufactured solution.
    const real ceiling = c.pde.reaction > 1 ? 3.5 : 2.8;
    EXPECT_LE(rate, ceiling) << c.name << ": superconvergence artifact?";
  }
}

TEST(EquationsMms, ReactionFactoryConvergesAtSecondOrder) {
  // The app factory's manufactured reaction problem end to end: assemble
  // through ScalarCoefficients::reaction, solve through the scalar MG
  // stack, and gate the L2 rate against u = sin(pi x)sin(pi y)sin(pi z).
  const auto exact = [](const Vec3& x) {
    return std::sin(M_PI * x.x) * std::sin(M_PI * x.y) * std::sin(M_PI * x.z);
  };
  real errs[2];
  for (int step = 0; step < 2; ++step) {
    const idx n = step == 0 ? 4 : 8;
    const app::ModelProblem p = app::make_reaction_problem(n);
    fem::LinearSystem sys =
        fem::assemble_scalar_system(p.mesh, p.dofmap, p.coeffs);
    mg::MgOptions mo = app::default_mg_options(p.equation);
    mo.coarsest_max_dofs = 100;
    std::vector<real> rhs = std::move(sys.rhs);
    const mg::Hierarchy h =
        mg::Hierarchy::build(p.mesh, p.dofmap, std::move(sys.stiffness), mo);
    mg::MgSolveOptions so;
    so.rtol = 1e-11;
    so.max_iters = 400;
    so.krylov = app::default_krylov(p.equation);
    std::vector<real> x(rhs.size(), 0);
    const la::KrylovResult r = mg::mg_krylov_solve(h, rhs, x, so);
    ASSERT_TRUE(r.converged);
    const std::vector<real> full = p.dofmap.full_from_free(x);
    errs[step] = fem::scalar_l2_error(p.mesh, full, exact);
    ASSERT_GT(errs[step], 0);
  }
  const real rate = std::log2(errs[0] / errs[1]);
  EXPECT_GE(rate, 1.8) << "e(h)=" << errs[0] << " e(h/2)=" << errs[1];
  // Same reaction-dominated superconvergence allowance as the rate table.
  EXPECT_LE(rate, 3.5);
}

TEST(EquationsMms, SecondOrderL2RateOnSphereMesh) {
  // The warped sphere-in-cube mesh: non-affine hexes, curved interior
  // layers. layers_per_shell doubles every element count exactly, so the
  // two meshes are an exact h -> h/2 refinement pair.
  mesh::SphereInCubeParams params;
  params.num_shells = 3;
  params.base_core_layers = 2;
  params.base_outer_layers = 2;
  const real side = params.cube_side;
  const Exact exact = trig_exact(side);

  // Start from layers_per_shell = 2: the single-layer mesh is still
  // pre-asymptotic for this solution (rate ~1.5).
  real errs[2];
  for (int step = 0; step < 2; ++step) {
    params.layers_per_shell = 2 * (step + 1);
    const mesh::Mesh mesh = mesh::sphere_in_cube_octant(params);
    errs[step] =
        mms_l2_error(mesh, exact, {.kappa = 1.0}, box_boundary(side));
  }
  ASSERT_GT(errs[0], 0);
  ASSERT_GT(errs[1], 0);
  const real rate = std::log2(errs[0] / errs[1]);
  EXPECT_GE(rate, 1.7) << "e(h)=" << errs[0] << " e(h/2)=" << errs[1];
}

}  // namespace
}  // namespace prom
