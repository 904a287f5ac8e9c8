#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "fem/assembly.h"
#include "fem/matrix_free.h"
#include "la/dense.h"
#include "la/krylov.h"
#include "mesh/generate.h"

namespace prom::fem {
namespace {

/// Runs `fn`, which must throw a prom::Error whose message contains
/// `needle`.
template <typename Fn>
void expect_error_naming(Fn&& fn, const std::string& needle) {
  try {
    fn();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    return;
  }
  ADD_FAILURE() << "no prom::Error naming " << needle;
}

TEST(DofMap, FixAndFinalize) {
  for (const int dpv : {1, 3}) {
    SCOPED_TRACE("dofs per vertex " + std::to_string(dpv));
    DofMap dm(4, dpv);
    EXPECT_EQ(dm.dofs_per_vertex(), dpv);
    EXPECT_EQ(dm.num_dofs(), 4 * dpv);
    EXPECT_EQ(dm.num_free(), 4 * dpv);
    const idx last = dm.dof_of(0, dpv - 1);
    dm.fix(0, dpv - 1, -1.5);
    dm.fix(3, 0, 0.0);
    dm.finalize();
    EXPECT_EQ(dm.num_free(), 4 * dpv - 2);
    EXPECT_TRUE(dm.is_constrained(last));
    EXPECT_DOUBLE_EQ(dm.bc_value(last), -1.5);
    EXPECT_EQ(dm.free_index(last), kInvalidIdx);
    EXPECT_NE(dm.free_index(dm.dof_of(1, 0)), kInvalidIdx);
    // Free dofs are numbered in ascending dof order; at one dof per
    // vertex the dof is the vertex, so that is ascending vertex id.
    std::vector<idx> ascending;
    for (idx d = 0; d < dm.num_dofs(); ++d) {
      if (!dm.is_constrained(d)) ascending.push_back(d);
    }
    EXPECT_EQ(dm.free_dofs(), ascending);
    for (idx i = 0; i < dm.num_free(); ++i) {
      EXPECT_EQ(dm.free_index(ascending[i]), i);
    }
    if (dpv == 1) {
      EXPECT_EQ(dm.free_dofs(), (std::vector<idx>{1, 2}));
    }

    dm.scale_bc(2);
    EXPECT_DOUBLE_EQ(dm.bc_value(last), -3.0);

    // fix_all prescribes every component of each listed vertex.
    dm.fix_all(std::vector<idx>{1}, 0.5);
    dm.finalize();
    EXPECT_EQ(dm.num_free(), 3 * dpv - 2);
    for (int c = 0; c < dpv; ++c) {
      EXPECT_DOUBLE_EQ(dm.bc_value(dm.dof_of(1, c)), 0.5);
      EXPECT_EQ(dm.free_index(dm.dof_of(1, c)), kInvalidIdx);
    }
  }
}

TEST(DofMap, FullFreeRoundTrip) {
  for (const int dpv : {1, 3}) {
    SCOPED_TRACE("dofs per vertex " + std::to_string(dpv));
    DofMap dm(2, dpv);
    dm.fix(0, 0, 2.0);
    dm.finalize();
    const idx nfree = 2 * dpv - 1;
    ASSERT_EQ(dm.num_free(), nfree);
    std::vector<real> free_values(static_cast<std::size_t>(nfree));
    for (idx i = 0; i < nfree; ++i) free_values[i] = 10.0 + i;
    const auto full = dm.full_from_free(free_values);
    ASSERT_EQ(static_cast<idx>(full.size()), 2 * dpv);
    EXPECT_DOUBLE_EQ(full[0], 2.0);
    EXPECT_DOUBLE_EQ(full[1], 10.0);
    const auto back = dm.free_from_full(full);
    EXPECT_EQ(back, free_values);
    // Scaled BC insertion.
    const auto half = dm.full_from_free(free_values, 0.5);
    EXPECT_DOUBLE_EQ(half[0], 1.0);
  }
}

TEST(DofMap, FixRejectsAComponentPastDofsPerVertex) {
  DofMap scalar(2, 1);
  expect_error_naming([&] { scalar.fix(0, 1, 0.0); }, "DofMap::fix");
  DofMap elastic(2);
  expect_error_naming([&] { elastic.fix(1, 3, 0.0); }, "DofMap::fix");
  EXPECT_NO_THROW(elastic.fix(1, 2, 0.0));
  expect_error_naming([] { (void)DofMap(2, 0); }, "dofs per vertex");
}

TEST(DofMap, ElasticityConsumersRejectAScalarMap) {
  const mesh::Mesh m = mesh::box_hex(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  const DofMap scalar(m.num_vertices(), 1);
  const std::vector<Material> mats = {Material{}};
  expect_error_naming([&] { (void)FeProblem(m, mats, scalar); },
                      "FeProblem");
  expect_error_naming(
      [&] { (void)MatrixFreeOperator::build(m, mats, scalar); },
      "MatrixFreeOperator::build");
}

TEST(DofMap, ScaleBc) {
  DofMap dm(1);
  dm.fix(0, 1, 4.0);
  dm.scale_bc(0.25);
  EXPECT_DOUBLE_EQ(dm.bc_value(1), 1.0);
}

class AssemblyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = mesh::box_hex(3, 3, 3, {0, 0, 0}, {1, 1, 1});
    dofmap_ = DofMap(mesh_.num_vertices());
    const real eps = 1e-12;
    dofmap_.fix_all(
        mesh_.vertices_where([&](const Vec3& p) { return p.z < eps; }), 0);
    for (idx v : mesh_.vertices_where(
             [&](const Vec3& p) { return p.z > 1 - eps; })) {
      dofmap_.fix(v, 2, -0.01);
    }
    dofmap_.finalize();
  }

  mesh::Mesh mesh_;
  DofMap dofmap_{0};
};

TEST_F(AssemblyFixture, StiffnessSymmetricPositiveDefinite) {
  FeProblem prob(mesh_, {Material{}}, dofmap_);
  const LinearSystem sys = assemble_linear_system(prob);
  EXPECT_EQ(sys.stiffness.nrows, dofmap_.num_free());
  EXPECT_LT(sys.stiffness.symmetry_error(), 1e-12);
  // SPD: dense LDLT succeeds.
  la::DenseMatrix dense(sys.stiffness.nrows, sys.stiffness.ncols);
  const auto d = sys.stiffness.to_dense_rowmajor();
  for (idx i = 0; i < sys.stiffness.nrows; ++i) {
    for (idx j = 0; j < sys.stiffness.ncols; ++j) {
      dense(i, j) = d[static_cast<std::size_t>(i) * sys.stiffness.ncols + j];
    }
  }
  EXPECT_TRUE(la::DenseLdlt(dense).ok());
}

TEST_F(AssemblyFixture, LinearSolveMatchesDirectSolve) {
  FeProblem prob(mesh_, {Material{}}, dofmap_);
  const LinearSystem sys = assemble_linear_system(prob);
  // CG solution.
  std::vector<real> x_cg(sys.rhs.size(), 0.0);
  const la::CsrOperator op(sys.stiffness);
  la::KrylovOptions kopts;
  kopts.rtol = 1e-12;
  kopts.max_iters = 5000;
  ASSERT_TRUE(la::cg(op, sys.rhs, x_cg, kopts).converged);
  // Dense direct solution.
  la::DenseMatrix dense(sys.stiffness.nrows, sys.stiffness.ncols);
  const auto d = sys.stiffness.to_dense_rowmajor();
  for (idx i = 0; i < sys.stiffness.nrows; ++i) {
    for (idx j = 0; j < sys.stiffness.ncols; ++j) {
      dense(i, j) = d[static_cast<std::size_t>(i) * sys.stiffness.ncols + j];
    }
  }
  la::DenseLdlt ldlt(dense);
  ASSERT_TRUE(ldlt.ok());
  std::vector<real> x_direct(sys.rhs.size());
  ldlt.solve(sys.rhs, x_direct);
  for (std::size_t i = 0; i < x_cg.size(); ++i) {
    EXPECT_NEAR(x_cg[i], x_direct[i], 1e-8);
  }
}

TEST_F(AssemblyFixture, ResidualVanishesAtEquilibrium) {
  // f_int at the solved displacement is zero on the free dofs.
  FeProblem prob(mesh_, {Material{}}, dofmap_);
  const LinearSystem sys = assemble_linear_system(prob);
  std::vector<real> x(sys.rhs.size(), 0.0);
  const la::CsrOperator op(sys.stiffness);
  la::KrylovOptions kopts;
  kopts.rtol = 1e-13;
  kopts.max_iters = 5000;
  ASSERT_TRUE(la::cg(op, sys.rhs, x, kopts).converged);
  const auto u_full = prob.dofmap().full_from_free(x);
  const AssemblyResult res = prob.assemble(u_full, false);
  real rnorm = 0;
  for (real v : res.f_int) rnorm = std::max(rnorm, std::fabs(v));
  EXPECT_LT(rnorm, 1e-10);
}

TEST_F(AssemblyFixture, CompressionProducesDownwardDisplacementField) {
  FeProblem prob(mesh_, {Material{}}, dofmap_);
  const LinearSystem sys = assemble_linear_system(prob);
  std::vector<real> x(sys.rhs.size(), 0.0);
  const la::CsrOperator op(sys.stiffness);
  la::KrylovOptions kopts;
  kopts.rtol = 1e-10;
  kopts.max_iters = 5000;
  ASSERT_TRUE(la::cg(op, sys.rhs, x, kopts).converged);
  const auto u_full = prob.dofmap().full_from_free(x);
  // All z-displacements between the BC values.
  for (idx v = 0; v < mesh_.num_vertices(); ++v) {
    const real uz = u_full[dofmap_.dof_of(v, 2)];
    EXPECT_LE(uz, 1e-12);
    EXPECT_GE(uz, -0.01 - 1e-12);
  }
}

TEST_F(AssemblyFixture, BcCouplingMatchesExplicitProduct) {
  // bc_coupling must equal K_fc * u_c computed from an unconstrained
  // reference assembly.
  FeProblem prob(mesh_, {Material{}}, dofmap_);
  const std::vector<real> u_zero(dofmap_.num_dofs(), 0.0);
  const AssemblyResult res = prob.assemble(u_zero, true);

  // Reference: unconstrained problem (no BCs) gives the full matrix.
  DofMap free_map(mesh_.num_vertices());
  FeProblem full_prob(mesh_, {Material{}}, free_map);
  const AssemblyResult full = full_prob.assemble(u_zero, true);
  // K_fc u_c: rows = free dofs of dofmap_, cols = constrained with values.
  for (idx d = 0; d < dofmap_.num_dofs(); ++d) {
    const idx fi = dofmap_.free_index(d);
    if (fi == kInvalidIdx) continue;
    real expected = 0;
    for (idx c = 0; c < dofmap_.num_dofs(); ++c) {
      if (!dofmap_.is_constrained(c)) continue;
      expected += full.stiffness.at(d, c) * dofmap_.bc_value(c);
    }
    EXPECT_NEAR(res.bc_coupling[fi], expected, 1e-12);
  }
}

// --- Matrix-free element cross-check ---------------------------------------
// fem::mf_element_apply runs one element through the batched SIMD kernel;
// it must reproduce Ke x for the assembled unloaded-state tangent on every
// element shape the meshers produce (axis-aligned, stretched, rotated and
// perturbed hexes; reference and distorted tets; warped sphere-mesh cells).

la::Csr element_stiffness(mesh::CellKind kind, std::span<const Vec3> coords,
                          const Material& mat) {
  const int nen = mesh::nodes_per_cell(kind);
  std::vector<idx> cell(static_cast<std::size_t>(nen));
  std::iota(cell.begin(), cell.end(), idx{0});
  const mesh::Mesh m(kind, std::vector<Vec3>(coords.begin(), coords.end()),
                     std::move(cell), {0});
  const DofMap dm(nen);  // nothing fixed: Ke over all 3*nen dofs
  FeProblem prob(m, {mat}, dm);
  return assemble_linear_system(prob).stiffness;
}

void expect_mf_matches_element(mesh::CellKind kind,
                               std::span<const Vec3> coords,
                               const Material& mat, Rng& rng,
                               const std::string& label) {
  const idx n = 3 * mesh::nodes_per_cell(kind);
  const la::Csr ke = element_stiffness(kind, coords, mat);
  ASSERT_EQ(ke.nrows, n) << label;
  real scale = 0;
  for (real v : ke.vals) scale = std::max(scale, std::abs(v));
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<real> x(static_cast<std::size_t>(n));
    for (real& v : x) v = 2 * rng.next_real() - 1;
    std::vector<real> y_ref(x.size());
    ke.spmv(x, y_ref);
    const std::vector<real> y_mf = mf_element_apply(mat, coords, x, true);
    for (idx i = 0; i < n; ++i) {
      EXPECT_NEAR(y_mf[i], y_ref[i], 1e-12 * scale)
          << label << ", trial " << trial << ", dof " << i;
    }
  }
}

TEST(MatrixFreeElement, MatchesAssembledKeOnHexAndTetOrientations) {
  Rng rng(20260808);
  const std::vector<Material> mats = {Material{}, Material::paper_soft(),
                                      Material::paper_hard()};
  const char* mat_names[] = {"elastic", "neo-hookean", "j2"};

  const std::vector<Vec3> unit_hex = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                      {0, 1, 0}, {0, 0, 1}, {1, 0, 1},
                                      {1, 1, 1}, {0, 1, 1}};
  // Anisotropic stretch (thin-slab-like aspect ratios).
  std::vector<Vec3> stretched = unit_hex;
  for (Vec3& p : stretched) p = {4 * p.x, p.y, real{0.25} * p.z};
  // Rigid rotation (30 degrees about z then 45 about x) — must leave Ke's
  // action on rotated vectors consistent; here it just exercises a fully
  // populated Jacobian.
  const real c30 = std::cos(0.5), s30 = std::sin(0.5);
  const real c45 = std::cos(0.8), s45 = std::sin(0.8);
  std::vector<Vec3> rotated = unit_hex;
  for (Vec3& p : rotated) {
    const Vec3 q = {c30 * p.x - s30 * p.y, s30 * p.x + c30 * p.y, p.z};
    p = {q.x, c45 * q.y - s45 * q.z, s45 * q.y + c45 * q.z};
  }
  // Random perturbation, small enough to keep every det J positive.
  std::vector<Vec3> jiggled = unit_hex;
  for (Vec3& p : jiggled) {
    p = {p.x + real{0.15} * (2 * rng.next_real() - 1),
         p.y + real{0.15} * (2 * rng.next_real() - 1),
         p.z + real{0.15} * (2 * rng.next_real() - 1)};
  }

  const std::vector<Vec3> ref_tet = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::vector<Vec3> skew_tet = {
      {0.1, 0, 0.05}, {1.3, 0.2, 0}, {0.3, 0.9, 0.1}, {0.2, 0.4, 1.5}};

  struct Case {
    mesh::CellKind kind;
    const std::vector<Vec3>* coords;
    const char* name;
  };
  const Case cases[] = {
      {mesh::CellKind::kHex8, &unit_hex, "unit hex"},
      {mesh::CellKind::kHex8, &stretched, "stretched hex"},
      {mesh::CellKind::kHex8, &rotated, "rotated hex"},
      {mesh::CellKind::kHex8, &jiggled, "perturbed hex"},
      {mesh::CellKind::kTet4, &ref_tet, "reference tet"},
      {mesh::CellKind::kTet4, &skew_tet, "skewed tet"},
  };
  for (const Case& c : cases) {
    for (std::size_t mi = 0; mi < mats.size(); ++mi) {
      expect_mf_matches_element(c.kind, *c.coords, mats[mi], rng,
                                std::string(c.name) + " / " + mat_names[mi]);
    }
  }
}

TEST(MatrixFreeElement, MatchesAssembledKeOnSphereMeshCells) {
  // The warped cells the paper's sphere-in-cube mesher actually emits,
  // with the Table 1 material each cell carries.
  mesh::SphereInCubeParams p;
  p.num_shells = 5;
  p.base_core_layers = 2;
  p.base_outer_layers = 2;
  const mesh::Mesh m = mesh::sphere_in_cube_octant(p);
  const std::vector<Material> mats = {Material::paper_soft(),
                                      Material::paper_hard()};
  Rng rng(7);
  const int nen = mesh::nodes_per_cell(m.kind());
  const idx stride = std::max<idx>(1, m.num_cells() / 24);
  for (idx e = 0; e < m.num_cells(); e += stride) {
    std::vector<Vec3> coords(static_cast<std::size_t>(nen));
    const auto cell = m.cell(e);
    for (int a = 0; a < nen; ++a) coords[a] = m.coord(cell[a]);
    expect_mf_matches_element(m.kind(), coords, mats[m.material(e)], rng,
                              "sphere cell " + std::to_string(e));
  }
}

TEST(FeProblem, PlasticFractionLifecycle) {
  // One hard element sheared far beyond yield; commit() latches state.
  mesh::Mesh m = mesh::box_hex(1, 1, 1, {0, 0, 0}, {1, 1, 1});
  DofMap dm(m.num_vertices());
  const real eps = 1e-12;
  dm.fix_all(m.vertices_where([&](const Vec3& p) { return p.z < eps; }), 0);
  for (idx v :
       m.vertices_where([&](const Vec3& p) { return p.z > 1 - eps; })) {
    dm.fix(v, 0, 0.05);  // shear the top
    dm.fix(v, 1, 0.0);
    dm.fix(v, 2, 0.0);
  }
  dm.finalize();
  FeProblem prob(m, {Material::paper_hard()}, dm);
  EXPECT_DOUBLE_EQ(prob.plastic_fraction(), 0.0);
  const std::vector<real> zeros(dm.num_free(), 0.0);
  const auto u_full = dm.full_from_free(zeros);
  const AssemblyResult res = prob.assemble(u_full, false);
  EXPECT_GT(res.plastic_gauss_points, 0);
  EXPECT_EQ(res.hard_gauss_points, 8);
  EXPECT_DOUBLE_EQ(prob.plastic_fraction(), 0.0);  // not yet committed
  prob.commit();
  EXPECT_GT(prob.plastic_fraction(), 0.0);
  // Snapshot / restore round trip.
  auto snap = prob.snapshot_state();
  prob.restore_state(std::vector<J2State>(snap.size()));
  EXPECT_DOUBLE_EQ(prob.plastic_fraction(), 0.0);
  prob.restore_state(std::move(snap));
  EXPECT_GT(prob.plastic_fraction(), 0.0);
}

TEST(FeProblem, RejectsBadMaterialIndex) {
  mesh::Mesh m = mesh::box_hex(1, 1, 1, {0, 0, 0}, {1, 1, 1});
  DofMap dm(m.num_vertices());
  EXPECT_THROW(FeProblem(m, {}, dm), Error);
}

}  // namespace
}  // namespace prom::fem
