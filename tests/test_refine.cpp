// Adaptive local refinement (ISSUE 10): the Kuhn hex-to-tet split, Rivara
// longest-edge bisection with conformity closure, the residual-based
// error indicators, the refined multigrid hierarchy with local smoothing,
// and the app-level solve-estimate-mark-refine loop. Everything here is
// serial; the distributed equivalence lives in test_dist_refine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "app/refine.h"
#include "common/error.h"
#include "common/parallel.h"
#include "fem/assembly.h"
#include "fem/indicator.h"
#include "fem/scalar.h"
#include "mesh/generate.h"
#include "mesh/refine.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "partition/rcb.h"

namespace prom {
namespace {

mesh::Mesh unit_tet_box(idx n) {
  return mesh::hex_to_tet(mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1}));
}

TEST(HexToTet, SplitsEveryHexIntoSixPositiveTets) {
  const mesh::Mesh hex = mesh::box_hex(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  const mesh::Mesh tet = mesh::hex_to_tet(hex);
  EXPECT_EQ(tet.kind(), mesh::CellKind::kTet4);
  EXPECT_EQ(tet.num_cells(), 6 * hex.num_cells());
  // The split adds no vertices (dof maps built on the hex mesh stay
  // valid) and preserves the volume exactly as a sum of tet volumes.
  EXPECT_EQ(tet.num_vertices(), hex.num_vertices());
  EXPECT_NEAR(tet.volume(), hex.volume(), 1e-12);
  for (idx e = 0; e < tet.num_cells(); ++e) {
    EXPECT_GT(mesh::cell_volume(tet, e), 0) << "cell " << e;
  }
  EXPECT_TRUE(mesh::is_conforming(tet));
  // Materials follow the parent hex.
  for (idx e = 0; e < tet.num_cells(); ++e) {
    EXPECT_EQ(tet.material(e), hex.material(e / 6));
  }
}

TEST(HexToTet, TetMeshPassesThrough) {
  const mesh::Mesh tet = unit_tet_box(2);
  const mesh::Mesh again = mesh::hex_to_tet(tet);
  EXPECT_EQ(again.num_cells(), tet.num_cells());
  EXPECT_EQ(again.num_vertices(), tet.num_vertices());
}

TEST(RefineLocal, BisectionIsConformingAndVolumePreserving) {
  const mesh::Mesh m = unit_tet_box(3);
  const std::vector<idx> marked = {0, 7, 41};
  const mesh::RefineResult r = mesh::refine_local(m, marked);

  EXPECT_TRUE(mesh::is_conforming(r.mesh));
  EXPECT_NEAR(r.mesh.volume(), m.volume(), 1e-12);
  EXPECT_GT(r.mesh.num_cells(), m.num_cells());
  EXPECT_EQ(r.num_parent_vertices, m.num_vertices());
  EXPECT_EQ(static_cast<idx>(r.cell_changed.size()), m.num_cells());
  for (idx e : marked) EXPECT_TRUE(r.cell_changed[e]) << "cell " << e;

  // Old vertices keep their ids and coordinates; midpoints sit exactly
  // at the average of their parent endpoints.
  for (idx v = 0; v < m.num_vertices(); ++v) {
    EXPECT_EQ(std::memcmp(&r.mesh.coord(v), &m.coord(v), sizeof(Vec3)), 0);
  }
  for (std::size_t k = 0; k < r.vertex_parents.size(); ++k) {
    const idx mid = r.num_parent_vertices + static_cast<idx>(k);
    const auto& par = r.vertex_parents[k];
    ASSERT_LT(par[0], mid);
    ASSERT_LT(par[1], mid);
    const Vec3 expect = (r.mesh.coord(par[0]) + r.mesh.coord(par[1])) * 0.5;
    const Vec3 got = r.mesh.coord(mid);
    EXPECT_EQ(std::memcmp(&got, &expect, sizeof(Vec3)), 0) << "midpoint "
                                                           << mid;
  }

  // Every refined cell maps to a live ancestor, and unchanged cells map
  // to themselves with identical connectivity.
  ASSERT_EQ(static_cast<idx>(r.parent_cell.size()), r.mesh.num_cells());
  for (idx e = 0; e < r.mesh.num_cells(); ++e) {
    ASSERT_GE(r.parent_cell[e], 0);
    ASSERT_LT(r.parent_cell[e], m.num_cells());
  }
  idx unchanged = 0;
  for (idx e = 0; e < r.mesh.num_cells(); ++e) {
    const idx p = r.parent_cell[e];
    if (r.cell_changed[p]) continue;
    ++unchanged;
    const auto a = r.mesh.cell(e);
    const auto b = m.cell(p);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  EXPECT_GT(unchanged, 0);
}

TEST(RefineLocal, DeterministicAcrossCallsAndThreads) {
  const mesh::Mesh m = unit_tet_box(3);
  std::vector<real> eta(static_cast<std::size_t>(m.num_cells()));
  for (idx e = 0; e < m.num_cells(); ++e) {
    eta[e] = std::sin(0.1 * static_cast<real>(e)) + 1.5;
  }
  const std::vector<idx> marked = mesh::mark_fraction(eta, 0.15);

  common::set_kernel_threads(1);
  const mesh::RefineResult a = mesh::refine_local(m, marked);
  common::set_kernel_threads(8);
  const mesh::RefineResult b = mesh::refine_local(m, marked);
  common::set_kernel_threads(0);

  ASSERT_EQ(a.mesh.num_cells(), b.mesh.num_cells());
  ASSERT_EQ(a.mesh.num_vertices(), b.mesh.num_vertices());
  EXPECT_EQ(std::memcmp(a.mesh.coords().data(), b.mesh.coords().data(),
                        a.mesh.coords().size() * sizeof(Vec3)),
            0);
  for (idx e = 0; e < a.mesh.num_cells(); ++e) {
    const auto ca = a.mesh.cell(e);
    const auto cb = b.mesh.cell(e);
    ASSERT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin())) << e;
  }
  EXPECT_EQ(a.parent_cell, b.parent_cell);
  EXPECT_EQ(a.vertex_parents, b.vertex_parents);
}

TEST(RefineLocal, RepeatedRoundsStayConforming) {
  mesh::Mesh m = unit_tet_box(2);
  for (int round = 0; round < 3; ++round) {
    // Mark a deterministic pseudo-random 10%.
    std::vector<real> eta(static_cast<std::size_t>(m.num_cells()));
    for (idx e = 0; e < m.num_cells(); ++e) {
      eta[e] = std::fmod(static_cast<real>(e) * 0.61803, 1.0);
    }
    const std::vector<idx> marked = mesh::mark_fraction(eta, 0.1);
    mesh::RefineResult r = mesh::refine_local(m, marked);
    ASSERT_TRUE(mesh::is_conforming(r.mesh)) << "round " << round;
    ASSERT_NEAR(r.mesh.volume(), m.volume(), 1e-12) << "round " << round;
    m = std::move(r.mesh);
  }
}

TEST(MarkFraction, PicksLargestWithDeterministicTies) {
  const std::vector<real> eta = {0.5, 2.0, 2.0, 0.1, 3.0, 2.0};
  // ceil(0.5 * 6) = 3: the 3.0 and the two smallest-id 2.0s.
  const std::vector<idx> marked = mesh::mark_fraction(eta, 0.5);
  EXPECT_EQ(marked, (std::vector<idx>{1, 2, 4}));
  // Always at least one cell.
  EXPECT_EQ(mesh::mark_fraction(eta, 1e-9).size(), 1u);
  EXPECT_EQ(mesh::mark_fraction(eta, 1e-9)[0], 4);
}

// A globally linear solution has element-wise constant flux/stress with
// no jumps, so the indicators must vanish identically.
TEST(Indicator, LinearFieldsHaveZeroIndicator) {
  const mesh::Mesh m = unit_tet_box(3);

  std::vector<real> u_scalar(static_cast<std::size_t>(m.num_vertices()));
  for (idx v = 0; v < m.num_vertices(); ++v) {
    const Vec3& x = m.coord(v);
    u_scalar[v] = 1.0 + 2.0 * x.x - 3.0 * x.y + 0.5 * x.z;
  }
  fem::ScalarCoefficients coeffs;
  coeffs.diffusion = [](idx, const Vec3&) { return Mat3::identity(); };
  const std::vector<real> eta_s =
      fem::scalar_error_indicator(m, u_scalar, coeffs);
  ASSERT_EQ(static_cast<idx>(eta_s.size()), m.num_cells());
  for (real e : eta_s) EXPECT_NEAR(e, 0, 1e-12);

  std::vector<real> u_elast(3 * static_cast<std::size_t>(m.num_vertices()));
  for (idx v = 0; v < m.num_vertices(); ++v) {
    const Vec3& x = m.coord(v);
    u_elast[3 * v + 0] = 0.1 * x.x + 0.02 * x.y;
    u_elast[3 * v + 1] = -0.05 * x.y;
    u_elast[3 * v + 2] = 0.03 * x.z + 0.01 * x.x;
  }
  const std::vector<fem::Material> mats(1);
  const std::vector<real> eta_e =
      fem::elasticity_error_indicator(m, u_elast, mats);
  ASSERT_EQ(static_cast<idx>(eta_e.size()), m.num_cells());
  for (real e : eta_e) EXPECT_NEAR(e, 0, 1e-10);
}

// A kink in the gradient across the x = 0.5 plane: the flux-jump terms
// must concentrate the indicator in the cells touching that plane.
TEST(Indicator, FluxJumpConcentratesAtKink) {
  const mesh::Mesh m = unit_tet_box(4);
  std::vector<real> u(static_cast<std::size_t>(m.num_vertices()));
  for (idx v = 0; v < m.num_vertices(); ++v) {
    const real x = m.coord(v).x;
    u[v] = x < 0.5 ? x : 1.0 - x;  // tent: du/dx jumps at x = 0.5
  }
  fem::ScalarCoefficients coeffs;
  coeffs.diffusion = [](idx, const Vec3&) { return Mat3::identity(); };
  const std::vector<real> eta = fem::scalar_error_indicator(m, u, coeffs);

  real eta_kink = 0, eta_far = 0;
  for (idx e = 0; e < m.num_cells(); ++e) {
    const Vec3 c = m.centroid(e);
    if (std::fabs(c.x - 0.5) < 0.25) {
      eta_kink = std::max(eta_kink, eta[e]);
    } else {
      eta_far = std::max(eta_far, eta[e]);
    }
  }
  EXPECT_GT(eta_kink, 0);
  EXPECT_NEAR(eta_far, 0, 1e-12);
}

TEST(RefinedHierarchy, ElasticitySolveConvergesWithLocalSmoothing) {
  // Two bisection rounds on the tet box, then the refined hierarchy:
  // refinement levels (with masked smoothing) above the MIS chain.
  const app::ModelProblem p = app::make_box_problem(4);
  app::AdaptiveOptions ao;
  ao.rounds = 2;
  app::AdaptiveLoop loop = app::run_adaptive_refinement(p, ao);
  ASSERT_EQ(loop.rounds.size(), 2u);
  ASSERT_EQ(loop.dofmaps.size(), 3u);
  ASSERT_TRUE(mesh::is_conforming(loop.final_mesh()));
  // Refinement must actually grow the problem.
  ASSERT_GT(loop.round_unknowns[2], loop.round_unknowns[0]);

  mg::MgOptions mo;
  mo.coarsest_max_dofs = 200;
  const std::vector<real> rhs = loop.sys.rhs;
  la::Csr a = loop.sys.stiffness;
  const mg::Hierarchy h = mg::Hierarchy::build_refined(
      loop.mesh_ptrs(), loop.dofmap_ptrs(), loop.rounds, std::move(a), mo);

  // Levels 1..rounds are the refinement levels: identity vertex
  // inheritance and a non-empty local-smoothing mask.
  ASSERT_GE(h.num_levels(), 3);
  for (int l = 1; l <= 2; ++l) {
    EXPECT_FALSE(h.level(l).smooth_rows.empty()) << "level " << l;
    EXPECT_LT(h.level(l).smooth_rows.size(), h.level(l).free_dofs.size())
        << "level " << l << ": mask should be local, not global";
  }
  EXPECT_TRUE(h.level(0).smooth_rows.empty());

  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  std::vector<real> x(rhs.size(), 0);
  const la::KrylovResult r = mg::mg_pcg_solve(h, rhs, x, so);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 60);

  // True residual check against the assembled operator.
  std::vector<real> ax(rhs.size());
  loop.sys.stiffness.spmv(x, ax);
  real num = 0, den = 0;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    num += (rhs[i] - ax[i]) * (rhs[i] - ax[i]);
    den += rhs[i] * rhs[i];
  }
  EXPECT_LE(std::sqrt(num / den), 1e-7);
}

TEST(RefinedHierarchy, ScalarRefinedSolveMatchesUnrefinedHierarchy) {
  // The refined hierarchy and a plain MIS hierarchy on the *same* final
  // mesh solve the same linear system: solutions must agree to solver
  // tolerance even though the level structures differ.
  const app::ModelProblem p = app::make_poisson_het_problem(4, 1e3);
  app::AdaptiveOptions ao;
  ao.rounds = 2;
  app::AdaptiveLoop loop = app::run_adaptive_refinement(p, ao);

  mg::MgOptions mo = app::default_mg_options(p.equation);
  const std::vector<real>& rhs = loop.sys.rhs;
  mg::MgSolveOptions so;
  so.rtol = 1e-10;
  so.max_iters = 400;

  la::Csr a1 = loop.sys.stiffness;
  const mg::Hierarchy h_ref = mg::Hierarchy::build_refined(
      loop.mesh_ptrs(), loop.dofmap_ptrs(), loop.rounds, std::move(a1), mo);
  std::vector<real> x_ref(rhs.size(), 0);
  ASSERT_TRUE(mg::mg_pcg_solve(h_ref, rhs, x_ref, so).converged);

  la::Csr a2 = loop.sys.stiffness;
  const mg::Hierarchy h_mis = mg::Hierarchy::build(
      loop.final_mesh(), loop.final_dofmap(), std::move(a2), mo);
  std::vector<real> x_mis(rhs.size(), 0);
  ASSERT_TRUE(mg::mg_pcg_solve(h_mis, rhs, x_mis, so).converged);

  real scale = 0;
  for (real v : x_mis) scale = std::max(scale, std::fabs(v));
  ASSERT_GT(scale, 0);
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    EXPECT_NEAR(x_ref[i], x_mis[i], 1e-7 * scale) << "entry " << i;
  }
}

TEST(RefinedHierarchy, RejectsAFamilyWhoseMapsDisagree) {
  // An elasticity family whose base map carries one dof per vertex:
  // build_grids_refined must refuse it by name instead of expanding the
  // restrictions at the wrong block size.
  const app::ModelProblem p = app::make_box_problem(3);
  app::AdaptiveOptions ao;
  ao.rounds = 1;
  const app::AdaptiveLoop loop = app::run_adaptive_refinement(p, ao);
  const fem::DofMap scalar_base(loop.base.num_vertices(), 1);
  const std::vector<const fem::DofMap*> mixed = {&scalar_base,
                                                 &loop.final_dofmap()};
  try {
    (void)mg::Hierarchy::build_grids_refined(loop.mesh_ptrs(), mixed,
                                             loop.rounds, loop.sys.stiffness);
    ADD_FAILURE() << "a family with mixed dofs per vertex was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("same dofs per vertex"),
              std::string::npos)
        << e.what();
  }
}

TEST(AdaptiveLoop, RefinesWhereTheIndicatorSaysAndRebalances) {
  // Jump-coefficient Poisson concentrates error at the coefficient
  // interface; the marked region should cluster there, and the fresh RCB
  // cut of the refined mesh must stay balanced while the inherited
  // partition degrades.
  const app::ModelProblem p = app::make_poisson_het_problem(4, 1e4);
  app::AdaptiveOptions ao;
  ao.rounds = 3;
  ao.mark_fraction = 0.1;
  app::AdaptiveLoop loop = app::run_adaptive_refinement(p, ao);
  ASSERT_EQ(loop.rounds.size(), 3u);
  ASSERT_TRUE(mesh::is_conforming(loop.final_mesh()));

  const int nranks = 4;
  const std::vector<idx> base_owner =
      partition::rcb_partition(loop.base.coords(), nranks);
  const std::vector<idx> inherited = app::inherit_owners(loop, base_owner);
  ASSERT_EQ(static_cast<idx>(inherited.size()),
            loop.final_mesh().num_vertices());
  const std::vector<idx> fresh =
      partition::rcb_partition(loop.final_mesh().coords(), nranks);

  const real imb_inherited = app::partition_imbalance(inherited, nranks);
  const real imb_fresh = app::partition_imbalance(fresh, nranks);
  // The acceptance bar: post-rebalance max/mean row imbalance <= 1.2.
  EXPECT_LE(imb_fresh, 1.2);
  // Rebalancing must not be worse than inheriting the stale cut.
  EXPECT_LE(imb_fresh, imb_inherited + 1e-12);
}

TEST(AdaptiveLoop, RequiresBcRefitter) {
  app::ModelProblem p = app::make_box_problem(3);
  p.fix_bcs = nullptr;  // hand-built problems cannot be refined
  app::AdaptiveOptions ao;
  ao.rounds = 1;
  EXPECT_THROW(app::run_adaptive_refinement(p, ao), prom::Error);
}

}  // namespace
}  // namespace prom
