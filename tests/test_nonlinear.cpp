#include <gtest/gtest.h>

#include <cmath>

#include "app/driver.h"
#include "la/vec.h"
#include "nonlinear/newton.h"

namespace prom::nonlinear {
namespace {

/// Small Neo-Hookean cube, bottom clamped, top pressed down.
app::ModelProblem nh_cube(idx n, real crush) {
  fem::Material soft;
  soft.model = fem::MaterialModel::kNeoHookean;
  soft.youngs = 1.0;
  soft.poisson = 0.3;
  return app::make_box_problem(n, crush, soft);
}

TEST(Newton, ConvergesOnNeoHookeanCube) {
  const app::ModelProblem model = nh_cube(3, 0.1);
  fem::FeProblem prob(model.mesh, model.materials, model.dofmap);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 100;
  NewtonDriver driver(prob, mopts);
  const NewtonStepReport rep = driver.solve_step(1.0);
  EXPECT_TRUE(rep.converged);
  EXPECT_LE(rep.newton_iters, 10);
  // The residual history decreases sharply at the end (superlinear tail).
  ASSERT_GE(rep.residual_norms.size(), 2u);
  EXPECT_LT(rep.residual_norms.back(), 1e-4 * rep.residual_norms.front());
}

TEST(Newton, LinearProblemConvergesInOneIteration) {
  // For a purely linear material, Newton's first full correction solves
  // the problem; iteration 2 only confirms convergence.
  const app::ModelProblem model = app::make_box_problem(3, 0.05);
  fem::FeProblem prob(model.mesh, model.materials, model.dofmap);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 100;
  NewtonOptions nopts;
  nopts.first_linear_rtol = 1e-10;  // tight solve so one step suffices
  NewtonDriver driver(prob, mopts, nopts);
  const NewtonStepReport rep = driver.solve_step(1.0);
  EXPECT_TRUE(rep.converged);
  EXPECT_LE(rep.newton_iters, 2);
}

TEST(Newton, DynamicToleranceLoosensAfterFirstIteration) {
  const app::ModelProblem model = nh_cube(3, 0.15);
  fem::FeProblem prob(model.mesh, model.materials, model.dofmap);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 100;
  NewtonOptions nopts;
  NewtonDriver driver(prob, mopts, nopts);
  const NewtonStepReport rep = driver.solve_step(1.0);
  ASSERT_TRUE(rep.converged);
  ASSERT_GE(rep.linear_rtols.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.linear_rtols[0], nopts.first_linear_rtol);
  for (std::size_t m = 1; m < rep.linear_rtols.size(); ++m) {
    EXPECT_LE(rep.linear_rtols[m], nopts.max_linear_rtol + 1e-15);
  }
}

TEST(Newton, LoadStepsReachFullDisplacement) {
  const app::ModelProblem model = nh_cube(3, 0.12);
  fem::FeProblem prob(model.mesh, model.materials, model.dofmap);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 100;
  NewtonDriver driver(prob, mopts);
  const auto reports = driver.run_load_steps(4);
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& rep : reports) EXPECT_TRUE(rep.converged);
  // The final state carries meaningful displacement.
  EXPECT_GT(la::nrm2(driver.displacement()), 1e-4);
  EXPECT_GE(driver.matrix_setups(), 4);
}

TEST(Newton, PlasticityAccumulatesAcrossSteps) {
  // Hard J2 cube sheared beyond yield: plastic fraction is monotone
  // nondecreasing over load steps (the Fig 13 left property).
  fem::Material hard = fem::Material::paper_hard();
  app::ModelProblem model = app::make_box_problem(2, 0.0, hard);
  // Shear the top instead of crushing it.
  model.dofmap = fem::DofMap(model.mesh.num_vertices());
  const real eps = 1e-12;
  model.dofmap.fix_all(model.mesh.vertices_where(
                           [&](const Vec3& p) { return p.z < eps; }),
                       0);
  for (idx v : model.mesh.vertices_where(
           [&](const Vec3& p) { return p.z > 1 - eps; })) {
    model.dofmap.fix(v, 0, 0.02);
    model.dofmap.fix(v, 1, 0);
    model.dofmap.fix(v, 2, 0);
  }
  model.dofmap.finalize();
  fem::FeProblem prob(model.mesh, model.materials, model.dofmap);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 60;
  NewtonDriver driver(prob, mopts);
  const auto reports = driver.run_load_steps(5);
  real prev = 0;
  bool any_plastic = false;
  for (const auto& rep : reports) {
    ASSERT_TRUE(rep.converged);
    EXPECT_GE(rep.plastic_fraction, prev - 1e-12);
    prev = rep.plastic_fraction;
    if (rep.plastic_fraction > 0) any_plastic = true;
  }
  EXPECT_TRUE(any_plastic);
  EXPECT_GT(reports.back().plastic_fraction, 0.5);
}

TEST(Newton, AdaptiveSubsteppingRecoversFromAggressiveStep) {
  // A single huge step on a soft NH cube: solve_step_adaptive must either
  // converge directly or succeed via substeps; the state must be usable.
  fem::Material soft;
  soft.model = fem::MaterialModel::kNeoHookean;
  soft.youngs = 1.0;
  soft.poisson = 0.45;
  const app::ModelProblem model = app::make_box_problem(2, 0.35, soft);
  fem::FeProblem prob(model.mesh, model.materials, model.dofmap);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 60;
  NewtonDriver driver(prob, mopts);
  const NewtonStepReport rep = driver.solve_step_adaptive(1.0);
  EXPECT_TRUE(rep.converged);
}

TEST(Newton, DistributedStepRetriesBreakdownWithGmres) {
  // A crushed Neo-Hookean cube whose tangent loses definiteness mid-step:
  // PCG breaks down and the MG-GMRES retry must run on the distributed
  // path as it does on the serial one. On one rank the distributed step
  // then reproduces the serial one.
  const app::ModelProblem model = nh_cube(4, 0.15);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 100;
  const auto run = [&](int dist_ranks) {
    fem::FeProblem prob(model.mesh, model.materials, model.dofmap);
    NewtonOptions nopts;
    nopts.dist_ranks = dist_ranks;
    NewtonDriver driver(prob, mopts, nopts);
    return driver.solve_step(1.0);
  };
  const NewtonStepReport serial = run(0);
  ASSERT_TRUE(serial.converged);

  const NewtonStepReport one = run(1);
  EXPECT_TRUE(one.converged);
  EXPECT_EQ(one.newton_iters, serial.newton_iters);
  EXPECT_EQ(one.linear_iters, serial.linear_iters);
  ASSERT_EQ(one.residual_norms.size(), serial.residual_norms.size());
  for (std::size_t m = 0; m < serial.residual_norms.size(); ++m) {
    EXPECT_NEAR(one.residual_norms[m], serial.residual_norms[m],
                1e-12 * serial.residual_norms[m])
        << "Newton iteration " << m;
  }

  const NewtonStepReport two = run(2);
  EXPECT_TRUE(two.converged);
  EXPECT_LE(two.newton_iters, serial.newton_iters);
}

TEST(Newton, MixedMaterialSphereStepMatchesPaperIterationBand) {
  // One load step of the §7 problem at small scale: first linear solve
  // iteration count lands in the paper's 20-40 band.
  mesh::SphereInCubeParams sp;
  sp.num_shells = 5;
  sp.base_core_layers = 1;
  sp.base_outer_layers = 1;
  const app::ModelProblem model = app::make_sphere_problem(sp, 0.12);
  fem::FeProblem prob(model.mesh, model.materials, model.dofmap);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 300;
  NewtonDriver driver(prob, mopts);
  const NewtonStepReport rep = driver.solve_step(1.0);
  ASSERT_TRUE(rep.converged);
  ASSERT_FALSE(rep.linear_iters.empty());
  EXPECT_GT(rep.linear_iters[0], 3);
  EXPECT_LT(rep.linear_iters[0], 60);
}

}  // namespace
}  // namespace prom::nonlinear
