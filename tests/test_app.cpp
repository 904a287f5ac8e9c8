#include <gtest/gtest.h>

#include "app/driver.h"

namespace prom::app {
namespace {

TEST(MakeSphereProblem, BoundaryConditionsMatchPaper) {
  mesh::SphereInCubeParams sp;
  sp.num_shells = 3;
  sp.base_core_layers = 1;
  sp.base_outer_layers = 1;
  const ModelProblem p = make_sphere_problem(sp, 0.36);
  EXPECT_EQ(p.materials.size(), 2u);
  // Symmetry faces: normal components fixed to zero; top: z fixed to
  // -crush; everything else free.
  const real side = sp.cube_side;
  for (idx v = 0; v < p.mesh.num_vertices(); ++v) {
    const Vec3& x = p.mesh.coord(v);
    const bool on_x0 = x.x < 1e-9;
    const bool on_top = x.z > side - 1e-9;
    EXPECT_EQ(p.dofmap.is_constrained(p.dofmap.dof_of(v, 0)), on_x0);
    if (on_top) {
      EXPECT_TRUE(p.dofmap.is_constrained(p.dofmap.dof_of(v, 2)));
      EXPECT_DOUBLE_EQ(p.dofmap.bc_value(p.dofmap.dof_of(v, 2)), -0.36);
    }
  }
}

TEST(MakeBoxProblem, ClampsBottomPressesTop) {
  const ModelProblem p = make_box_problem(2, 0.1);
  idx clamped = 0, pressed = 0;
  for (idx v = 0; v < p.mesh.num_vertices(); ++v) {
    if (p.dofmap.is_constrained(p.dofmap.dof_of(v, 0))) ++clamped;
    const idx zdof = p.dofmap.dof_of(v, 2);
    if (p.dofmap.is_constrained(zdof) && p.dofmap.bc_value(zdof) < 0) {
      ++pressed;
    }
  }
  EXPECT_EQ(clamped, 9);
  EXPECT_EQ(pressed, 9);
}

TEST(ScaledSeries, SizesAndRanksGrowTogether) {
  const auto series = scaled_series(5);
  ASSERT_EQ(series.size(), 5u);
  idx prev_res = 0;
  int prev_ranks = 0;
  for (const ScaledCase& c : series) {
    const idx res = mesh::sphere_in_cube_resolution(c.params);
    EXPECT_GT(res, prev_res);
    EXPECT_GE(c.ranks, prev_ranks);
    EXPECT_EQ(c.params.num_shells, 17);
    prev_res = res;
    prev_ranks = c.ranks;
  }
  // Truncation honored.
  EXPECT_EQ(scaled_series(2).size(), 2u);
}

TEST(RunLinearStudy, EndToEndSmallSphere) {
  mesh::SphereInCubeParams sp;
  sp.num_shells = 3;
  sp.base_core_layers = 1;
  sp.base_outer_layers = 1;
  const ModelProblem p = make_sphere_problem(sp, 0.36);
  LinearStudyConfig cfg;
  cfg.nranks = 2;
  cfg.mg.coarsest_max_dofs = 150;
  const LinearStudyReport rep = run_linear_study(p, cfg);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(rep.iterations, 0);
  EXPECT_GE(rep.levels, 2);
  EXPECT_EQ(rep.ranks, 2);
  EXPECT_GT(rep.unknowns, 0);
  EXPECT_GT(rep.solve_phase.total_flops(), 0);
  EXPECT_GT(rep.modeled_solve_time, 0.0);
  EXPECT_GT(rep.modeled_mflops, 0.0);
  EXPECT_GT(rep.solve_phase.load_balance(), 0.3);
  EXPECT_LE(rep.solve_phase.load_balance(), 1.0);
  // Wall phases were measured.
  EXPECT_GT(rep.wall_fine_grid, 0.0);
  EXPECT_GT(rep.wall_mesh_setup, 0.0);
  EXPECT_GT(rep.wall_solve, 0.0);
}

TEST(RunLinearStudy, IterationsStableAcrossRankCounts) {
  // The same problem on 1, 2 and 4 virtual ranks: convergence must not
  // deteriorate (§4.5: "we do not see deterioration in convergence rates
  // with the use of multiple processors").
  mesh::SphereInCubeParams sp;
  sp.num_shells = 3;
  sp.base_core_layers = 1;
  sp.base_outer_layers = 1;
  const ModelProblem p = make_sphere_problem(sp, 0.36);
  int base_iters = 0;
  for (int ranks : {1, 2, 4}) {
    LinearStudyConfig cfg;
    cfg.nranks = ranks;
    cfg.mg.coarsest_max_dofs = 150;
    const LinearStudyReport rep = run_linear_study(p, cfg);
    ASSERT_TRUE(rep.converged);
    if (ranks == 1) {
      base_iters = rep.iterations;
    } else {
      EXPECT_LE(rep.iterations, base_iters + 5);
    }
  }
}

TEST(RunLinearStudy, MeasurementConversion) {
  mesh::SphereInCubeParams sp;
  sp.num_shells = 3;
  sp.base_core_layers = 1;
  sp.base_outer_layers = 1;
  const ModelProblem p = make_sphere_problem(sp, 0.36);
  LinearStudyConfig cfg;
  cfg.nranks = 2;
  cfg.mg.coarsest_max_dofs = 150;
  const LinearStudyReport rep = run_linear_study(p, cfg);
  const perf::RunMeasurement m = rep.measurement();
  EXPECT_EQ(m.ranks, rep.ranks);
  EXPECT_EQ(m.unknowns, rep.unknowns);
  EXPECT_EQ(m.iterations, rep.iterations);
  EXPECT_EQ(m.solve_flops, rep.solve_phase.total_flops());
}

}  // namespace
}  // namespace prom::app
