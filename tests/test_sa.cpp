#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "app/driver.h"
#include "la/vec.h"
#include "mg/sa.h"
#include "mg/solver.h"

namespace prom::mg {
namespace {

struct Built {
  app::ModelProblem model;
  fem::LinearSystem sys;
};

Built build_box(idx n) {
  Built b;
  b.model = app::make_box_problem(n);
  fem::FeProblem fe(b.model.mesh, b.model.materials, b.model.dofmap);
  b.sys = fem::assemble_linear_system(fe);
  return b;
}

TEST(RigidBodyModes, AnnihilatedByFreeFreeStiffness) {
  // On an unconstrained mesh, K * rbm = 0 for all six modes.
  const mesh::Mesh m = mesh::box_hex(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  fem::DofMap free_map(m.num_vertices());  // no constraints
  fem::FeProblem fe(m, {fem::Material{}}, free_map);
  const std::vector<real> u0(free_map.num_dofs(), 0.0);
  const fem::AssemblyResult res = fe.assemble(u0, true);
  const std::vector<real> rbm = rigid_body_modes(m, free_map);
  const idx n = free_map.num_free();
  std::vector<real> ku(static_cast<std::size_t>(n));
  for (int c = 0; c < 6; ++c) {
    const std::span<const real> mode(rbm.data() + static_cast<std::size_t>(c) * n,
                                     static_cast<std::size_t>(n));
    res.stiffness.spmv(mode, ku);
    real err = 0, scale = la::nrm2(mode);
    for (real v : ku) err = std::max(err, std::abs(v));
    EXPECT_LT(err, 1e-10 * std::max(scale, real{1})) << "mode " << c;
  }
}

TEST(RigidBodyModes, RespectsConstrainedDofLayout) {
  const mesh::Mesh m = mesh::box_hex(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  fem::DofMap dm(m.num_vertices());
  dm.fix(0, 1, 0.0);
  dm.finalize();
  const std::vector<real> rbm = rigid_body_modes(m, dm);
  EXPECT_EQ(rbm.size(), static_cast<std::size_t>(dm.num_free()) * 6);
  // Translation mode in x: 1 exactly at x-components, 0 elsewhere.
  for (idx i = 0; i < dm.num_free(); ++i) {
    const idx dof = dm.free_dofs()[i];
    EXPECT_DOUBLE_EQ(rbm[i], dof % 3 == 0 ? 1.0 : 0.0);
  }
}

TEST(AggregateNodes, CoversAllNodesWithReduction) {
  const mesh::Mesh m = mesh::box_hex(6, 6, 6, {0, 0, 0}, {1, 1, 1});
  const graph::Graph g = m.vertex_graph();
  idx num_agg = 0;
  const std::vector<idx> agg = aggregate_nodes(g, &num_agg);
  EXPECT_GT(num_agg, 0);
  EXPECT_LT(num_agg, g.num_vertices() / 3);
  std::set<idx> used;
  for (idx a : agg) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, num_agg);
    used.insert(a);
  }
  EXPECT_EQ(static_cast<idx>(used.size()), num_agg);
}

TEST(AggregateNodes, EmptyGraphMakesSingletons) {
  const graph::Graph g = graph::Graph::from_edges(5, {});
  idx num_agg = 0;
  const std::vector<idx> agg = aggregate_nodes(g, &num_agg);
  EXPECT_EQ(num_agg, 5);
}

class SaSizes : public ::testing::TestWithParam<idx> {};

TEST_P(SaSizes, PcgConvergesMeshIndependently) {
  const Built b = build_box(GetParam());
  MgOptions mo;
  mo.coarsest_max_dofs = 300;
  const Hierarchy h = build_smoothed_aggregation(
      b.model.mesh, b.model.dofmap, b.sys.stiffness, mo);
  ASSERT_GE(h.num_levels(), 2);
  std::vector<real> x(b.sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-8;
  const la::KrylovResult res = mg_pcg_solve(h, b.sys.rhs, x, so);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 30);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SaSizes, ::testing::Values(6, 9, 12));

TEST(Sa, TentativeProlongatorReproducesRigidModes) {
  // P (restricted RBM coefficients) must reproduce the RBMs: since the
  // coarse candidates are the per-aggregate QR factors R, B = P_tent B_c
  // holds; after smoothing, P B_c = (I - w D^-1 A) B, and A annihilates
  // the RBMs on a free-free problem, so P B_c == B exactly. Verify on a
  // translation mode with a constrained problem's coarse operator being
  // SPD (indirect check: coarse operator SPD and prolongated coarse
  // constants approximate fine constants).
  const Built b = build_box(6);
  MgOptions mo;
  mo.coarsest_max_dofs = 300;
  const Hierarchy h = build_smoothed_aggregation(
      b.model.mesh, b.model.dofmap, b.sys.stiffness, mo);
  ASSERT_GE(h.num_levels(), 2);
  for (int l = 0; l < h.num_levels(); ++l) {
    EXPECT_LT(h.level(l).a.symmetry_error(),
              1e-9 * std::abs(h.level(l).a.vals[0]) + 1e-12)
        << "level " << l;
  }
  // Coarse grid sizes shrink.
  for (int l = 1; l < h.num_levels(); ++l) {
    EXPECT_LT(h.level(l).a.nrows, h.level(l - 1).a.nrows);
  }
}

TEST(Sa, HandlesMaterialJumpProblem) {
  mesh::SphereInCubeParams sp;
  sp.num_shells = 5;
  sp.base_core_layers = 1;
  sp.base_outer_layers = 1;
  const app::ModelProblem model = app::make_sphere_problem(sp, 0.36);
  fem::FeProblem fe(model.mesh, model.materials, model.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);
  MgOptions mo;
  mo.coarsest_max_dofs = 400;
  const Hierarchy h = build_smoothed_aggregation(model.mesh, model.dofmap,
                                                 sys.stiffness, mo);
  std::vector<real> x(sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-4;
  so.max_iters = 150;
  const la::KrylovResult res = mg_pcg_solve(h, sys.rhs, x, so);
  EXPECT_TRUE(res.converged);
}

TEST(Sa, ChebyshevSmootherWorksInHierarchy) {
  const Built b = build_box(8);
  MgOptions mo;
  mo.smoother = SmootherKind::kChebyshev;
  mo.cheby_degree = 3;
  const Hierarchy h = Hierarchy::build(b.model.mesh, b.model.dofmap,
                                       b.sys.stiffness, mo);
  // The shared level solve (mg/level_solve.h): Chebyshev bounds on every
  // level but the coarsest, which holds the dense factor instead.
  ASSERT_GE(h.num_levels(), 2);
  for (int l = 0; l + 1 < h.num_levels(); ++l) {
    EXPECT_EQ(h.level(l).kind, SmootherKind::kChebyshev) << "level " << l;
    EXPECT_GT(h.level(l).cheby_lmax, h.level(l).cheby_lmin) << "level " << l;
    EXPECT_FALSE(h.level(l).has_coarse_factor()) << "level " << l;
  }
  EXPECT_NE(h.level(h.num_levels() - 1).direct, nullptr);
  std::vector<real> x(b.sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-8;
  const la::KrylovResult res = mg_pcg_solve(h, b.sys.rhs, x, so);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 30);
}

}  // namespace
}  // namespace prom::mg
