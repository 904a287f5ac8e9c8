// Property tests for the scalar (block-size-1) assembly path: symmetry of
// pure-diffusion stiffness, the constant nullspace under pure-Neumann BCs,
// SPD vs deliberate non-symmetry, bitwise kernel-thread determinism, and
// agreement of the block-size-1 Galerkin chain with an explicitly formed
// R A R^T triple product.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "app/driver.h"
#include "coarsen/restriction.h"
#include "common/error.h"
#include "common/parallel.h"
#include "fem/scalar.h"
#include "la/csr.h"
#include "la/dense.h"
#include "la/krylov.h"
#include "mesh/generate.h"
#include "mg/hierarchy.h"

namespace prom {
namespace {

fem::ScalarCoefficients diffusion_only() {
  fem::ScalarCoefficients c;
  c.diffusion = [](idx, const Vec3& x) {
    // Smoothly varying anisotropic but symmetric tensor.
    Mat3 k = (1.0 + 0.5 * x.x) * Mat3::identity();
    k(0, 1) = k(1, 0) = 0.1 * x.y;
    return k;
  };
  return c;
}

fem::ScalarCoefficients advdiff_coeffs() {
  fem::ScalarCoefficients c;
  c.diffusion = [](idx, const Vec3&) { return 0.05 * Mat3::identity(); };
  c.velocity = [](idx, const Vec3&) { return Vec3{1.0, 0.5, 0.25}; };
  c.source = [](idx, const Vec3&) { return real{1}; };
  c.supg = true;
  return c;
}

/// All-Dirichlet dofmap (value 0 on the whole boundary of the unit box).
fem::DofMap dirichlet_map(const mesh::Mesh& mesh) {
  fem::DofMap dm(mesh.num_vertices(), 1);
  const real eps = 1e-9;
  dm.fix_all(mesh.vertices_where([&](const Vec3& x) {
    return x.x < eps || x.x > 1 - eps || x.y < eps || x.y > 1 - eps ||
           x.z < eps || x.z > 1 - eps;
  }),
             0);
  dm.finalize();
  return dm;
}

real max_abs(const la::Csr& a) {
  real m = 0;
  for (real v : a.vals) m = std::max(m, std::fabs(v));
  return m;
}

/// max |a_ij - a_ji| over all entries.
real asymmetry(const la::Csr& a) {
  const la::Csr at = a.transposed();
  real m = 0;
  for (idx i = 0; i < a.nrows; ++i) {
    // Same sparsity pattern either way (FEM graphs are structurally
    // symmetric), and from_triplets sorts columns, so rows align.
    EXPECT_EQ(a.rowptr[i + 1] - a.rowptr[i],
              at.rowptr[i + 1] - at.rowptr[i]);
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      EXPECT_EQ(a.colidx[k], at.colidx[k]);
      m = std::max(m, std::fabs(a.vals[k] - at.vals[k]));
    }
  }
  return m;
}

TEST(ScalarAssemblyProp, PureDiffusionStiffnessIsSymmetric) {
  const mesh::Mesh mesh = mesh::box_hex(5, 5, 5, {0, 0, 0}, {1, 1, 1});
  const fem::DofMap dm = dirichlet_map(mesh);
  const fem::ScalarAssembly a =
      fem::assemble_scalar(mesh, dm, diffusion_only());
  ASSERT_GT(a.stiffness.nrows, 0);
  EXPECT_LE(asymmetry(a.stiffness), 1e-14 * max_abs(a.stiffness));
}

TEST(ScalarAssemblyProp, PureNeumannDiffusionHasConstantNullspace) {
  // No constraints, no advection/reaction: K * ones == 0 (constants are in
  // the kernel — every row sums to zero up to quadrature rounding).
  const mesh::Mesh mesh = mesh::box_hex(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  fem::DofMap dm(mesh.num_vertices(), 1);  // all free
  const fem::ScalarAssembly a =
      fem::assemble_scalar(mesh, dm, diffusion_only());
  ASSERT_EQ(a.stiffness.nrows, mesh.num_vertices());
  std::vector<real> ones(static_cast<std::size_t>(a.stiffness.nrows), 1.0);
  std::vector<real> y(ones.size());
  a.stiffness.spmv(ones, y);
  const real scale = max_abs(a.stiffness);
  for (real v : y) EXPECT_NEAR(v, 0.0, 1e-13 * scale);
}

TEST(ScalarAssemblyProp, DiffusionIsSpdAdvectionIsNot) {
  const mesh::Mesh mesh = mesh::box_hex(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  const fem::DofMap dm = dirichlet_map(mesh);

  // Dirichlet diffusion: positive definite — LDL^T succeeds with all
  // pivots positive (DenseLdlt rejects non-positive pivots by design).
  const fem::ScalarAssembly diff =
      fem::assemble_scalar(mesh, dm, diffusion_only());
  la::DenseMatrix d(diff.stiffness.nrows, diff.stiffness.ncols);
  for (idx i = 0; i < diff.stiffness.nrows; ++i) {
    for (nnz_t k = diff.stiffness.rowptr[i]; k < diff.stiffness.rowptr[i + 1];
         ++k) {
      d(i, diff.stiffness.colidx[k]) = diff.stiffness.vals[k];
    }
  }
  EXPECT_TRUE(la::DenseLdlt(d).ok());

  // The advective term breaks symmetry by a detectable margin.
  const fem::ScalarAssembly ad =
      fem::assemble_scalar(mesh, dm, advdiff_coeffs());
  EXPECT_GE(asymmetry(ad.stiffness), 1e-3 * max_abs(ad.stiffness));
}

TEST(ScalarAssemblyProp, BitwiseDeterministicAcrossKernelThreads) {
  const mesh::Mesh mesh = mesh::box_hex(6, 6, 6, {0, 0, 0}, {1, 1, 1});
  const fem::DofMap dm = dirichlet_map(mesh);
  const fem::ScalarCoefficients coeffs = advdiff_coeffs();

  common::set_kernel_threads(1);
  const fem::LinearSystem ref = fem::assemble_scalar_system(mesh, dm, coeffs);
  for (int threads : {2, 8}) {
    common::set_kernel_threads(threads);
    const fem::LinearSystem got =
        fem::assemble_scalar_system(mesh, dm, coeffs);
    ASSERT_EQ(got.stiffness.vals.size(), ref.stiffness.vals.size())
        << threads << " threads";
    EXPECT_EQ(got.stiffness.rowptr, ref.stiffness.rowptr);
    EXPECT_EQ(got.stiffness.colidx, ref.stiffness.colidx);
    for (std::size_t k = 0; k < ref.stiffness.vals.size(); ++k) {
      ASSERT_EQ(got.stiffness.vals[k], ref.stiffness.vals[k])
          << threads << " threads, nnz " << k;
    }
    ASSERT_EQ(got.rhs.size(), ref.rhs.size());
    for (std::size_t i = 0; i < ref.rhs.size(); ++i) {
      ASSERT_EQ(got.rhs[i], ref.rhs[i]) << threads << " threads, row " << i;
    }
  }
  common::set_kernel_threads(0);  // restore the default policy
}

TEST(ScalarAssemblyProp, RejectsAnElasticityDofMap) {
  const mesh::Mesh mesh = mesh::box_hex(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  const fem::DofMap elastic(mesh.num_vertices());  // 3 dofs per vertex
  try {
    (void)fem::assemble_scalar(mesh, elastic, diffusion_only());
    ADD_FAILURE() << "assemble_scalar accepted a 3-dof map";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("assemble_scalar"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScalarGalerkin, ExpandRestrictionAtNcompOneIsIdentityExpansion) {
  // With one dof per vertex and every dof free, the dof expansion must
  // return the vertex-weight restriction unchanged.
  const mesh::Mesh mesh = mesh::box_hex(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  std::vector<idx> selected;
  for (idx v = 0; v < mesh.num_vertices(); v += 3) selected.push_back(v);
  const graph::Graph g = mesh.vertex_graph();
  const coarsen::RestrictionResult rr =
      coarsen::build_restriction(mesh.coords(), selected, {}, &g);

  std::vector<idx> fine_free(static_cast<std::size_t>(mesh.num_vertices()));
  for (idx v = 0; v < mesh.num_vertices(); ++v) fine_free[v] = v;
  std::vector<idx> coarse_free(selected.size());
  for (std::size_t c = 0; c < selected.size(); ++c) {
    coarse_free[c] = static_cast<idx>(c);
  }
  const la::Csr r = coarsen::expand_restriction_to_dofs(
      rr.r_vertex, fine_free, coarse_free, /*ncomp=*/1);
  EXPECT_EQ(r.nrows, rr.r_vertex.nrows);
  EXPECT_EQ(r.ncols, rr.r_vertex.ncols);
  EXPECT_EQ(r.rowptr, rr.r_vertex.rowptr);
  EXPECT_EQ(r.colidx, rr.r_vertex.colidx);
  EXPECT_EQ(r.vals, rr.r_vertex.vals);
}

TEST(ScalarGalerkin, CoarseOperatorMatchesExplicitTripleProduct) {
  // The scalar hierarchy's Galerkin operator must agree with the triple
  // product assembled the long way: spgemm(spgemm(R, A), R^T).
  const app::ModelProblem p = app::make_poisson_het_problem(6, 1e3);
  fem::LinearSystem sys =
      fem::assemble_scalar_system(p.mesh, p.dofmap, p.coeffs);
  mg::MgOptions mo;
  mo.coarsest_max_dofs = 20;
  const mg::Hierarchy h =
      mg::Hierarchy::build(p.mesh, p.dofmap, std::move(sys.stiffness), mo);
  ASSERT_GE(h.num_levels(), 2);
  EXPECT_EQ(h.block_size(), 1);

  for (int l = 1; l < h.num_levels(); ++l) {
    const la::Csr& r = h.level(l).r;
    const la::Csr& a_fine = h.level(l - 1).a;
    const la::Csr expl = la::spgemm(la::spgemm(r, a_fine), r.transposed());
    const la::Csr& got = h.level(l).a;
    ASSERT_EQ(got.nrows, expl.nrows) << "level " << l;
    const real scale = max_abs(expl);
    // Entry-by-entry through dense probes of each row, tolerant of
    // explicit zeros from differing patterns.
    std::vector<real> row_e(static_cast<std::size_t>(expl.ncols));
    std::vector<real> row_g(static_cast<std::size_t>(expl.ncols));
    for (idx i = 0; i < expl.nrows; ++i) {
      std::fill(row_e.begin(), row_e.end(), 0.0);
      std::fill(row_g.begin(), row_g.end(), 0.0);
      for (nnz_t k = expl.rowptr[i]; k < expl.rowptr[i + 1]; ++k) {
        row_e[expl.colidx[k]] = expl.vals[k];
      }
      for (nnz_t k = got.rowptr[i]; k < got.rowptr[i + 1]; ++k) {
        row_g[got.colidx[k]] = got.vals[k];
      }
      for (idx j = 0; j < expl.ncols; ++j) {
        ASSERT_NEAR(row_g[j], row_e[j], 1e-12 * scale)
            << "level " << l << " entry (" << i << "," << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace prom
