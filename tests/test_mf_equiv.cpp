// Matrix-free operator equivalence battery (fem/matrix_free.h +
// dla/dist_mf.h): the on-the-fly element apply must reproduce the
// assembled CSR and BSR3 operators to reassociation rounding on
// randomized meshes and vectors, must be bitwise reproducible across
// kernel thread counts (the bit-determinism contract of
// common/parallel.h), and the distributed apply must match the serial one
// bitwise per owned row at every rank count — which is what lets
// PROM_MATRIX=mf reproduce the assembled solver's iterate history.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "app/driver.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dla/dist_bsr.h"
#include "dla/dist_mf.h"
#include "dla/dist_mg.h"
#include "fem/assembly.h"
#include "fem/matrix_free.h"
#include "mesh/generate.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "parx/runtime.h"

namespace prom {
namespace {

/// Restores the kernel thread count on scope exit so a failing assertion
/// cannot leak a setting into later tests.
struct ScopedKernelThreads {
  int saved;
  explicit ScopedKernelThreads(int n) : saved(common::kernel_threads()) {
    common::set_kernel_threads(n);
  }
  ~ScopedKernelThreads() { common::set_kernel_threads(saved); }
};

std::vector<real> random_vector(std::size_t n, Rng& rng) {
  std::vector<real> x(n);
  for (real& v : x) v = 2 * rng.next_real() - 1;
  return x;
}

/// A meshed elasticity problem with randomized Dirichlet data: the box and
/// sphere meshers' geometry, a clamped bottom plus a handful of randomly
/// fixed dofs so the constrained-slot masking is exercised away from the
/// structured faces.
struct TestProblem {
  mesh::Mesh mesh;
  std::vector<fem::Material> materials;
  fem::DofMap dofmap{0};
  la::Csr k;  ///< assembled K_ff
};

TestProblem make_problem(mesh::Mesh mesh, std::vector<fem::Material> mats,
                         Rng& rng) {
  TestProblem p;
  p.mesh = std::move(mesh);
  p.materials = std::move(mats);
  p.dofmap = fem::DofMap(p.mesh.num_vertices());
  const Aabb box = p.mesh.bounding_box();
  const real zmin = box.lo.z;
  p.dofmap.fix_all(p.mesh.vertices_where(
                       [zmin](const Vec3& q) { return q.z < zmin + 1e-9; }),
                   0.0);
  for (int i = 0; i < 10; ++i) {
    const idx v = static_cast<idx>(rng.next_below(
        static_cast<std::uint64_t>(p.mesh.num_vertices())));
    p.dofmap.fix(v, static_cast<int>(rng.next_below(3)),
                 0.01 * (2 * rng.next_real() - 1));
  }
  p.dofmap.finalize();
  fem::FeProblem fe(p.mesh, p.materials, p.dofmap);
  p.k = fem::assemble_linear_system(fe).stiffness;
  return p;
}

std::vector<TestProblem> equivalence_problems(Rng& rng) {
  std::vector<TestProblem> out;
  out.push_back(
      make_problem(mesh::box_hex(4, 5, 3, {0, 0, 0}, {1.3, 1, 0.7}),
                   {fem::Material{}}, rng));
  mesh::SphereInCubeParams sp;
  sp.num_shells = 3;
  sp.base_core_layers = 2;
  sp.base_outer_layers = 2;
  out.push_back(make_problem(mesh::sphere_in_cube_octant(sp),
                             {fem::Material::paper_soft(),
                              fem::Material::paper_hard()},
                             rng));
  return out;
}

/// y = K_ff x through the bsr3 operator the solve path runs: a one-rank
/// dla::DistBsr over the assembled free-dof matrix, whose partly
/// constrained nodes carry padding slots.
std::vector<real> dist_bsr3_apply(const TestProblem& p,
                                  const std::vector<real>& x) {
  const idx n = p.k.nrows;
  std::vector<idx> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), idx{0});
  std::vector<real> y(x.size());
  parx::Runtime::run(1, [&](parx::Comm& comm) {
    const dla::RowDist rows = dla::RowDist::block(n, 1);
    const dla::DistCsr a(comm, p.k, rows, rows);
    const dla::DistBsr bsr =
        dla::DistBsr::build(comm, a, perm, p.dofmap.free_dofs());
    la::MultiVec xm(n, 1), ym(n, 1);
    std::copy(x.begin(), x.end(), xm.col_data(0));
    bsr.spmm(comm, xm, ym);
    std::copy(ym.col(0).begin(), ym.col(0).end(), y.begin());
  });
  return y;
}

// --- assembled-operator equivalence ----------------------------------------

TEST(MfEquivalence, ApplyMatchesCsrAndBsr3OnRandomizedProblems) {
  Rng rng(0xA11CE);
  for (const TestProblem& p : equivalence_problems(rng)) {
    const idx n = p.k.nrows;
    ASSERT_GT(n, 0);
    const fem::MatrixFreeOperator mf =
        fem::MatrixFreeOperator::build(p.mesh, p.materials, p.dofmap);
    ASSERT_EQ(mf.rows(), n);

    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<real> x =
          random_vector(static_cast<std::size_t>(n), rng);
      std::vector<real> y_csr(x.size()), y_mf(x.size());
      p.k.spmv(x, y_csr);
      const std::vector<real> y_bsr = dist_bsr3_apply(p, x);
      mf.apply(x, y_mf);
      real scale = 0;
      for (real v : y_csr) scale = std::max(scale, std::fabs(v));
      ASSERT_GT(scale, 0);
      for (idx i = 0; i < n; ++i) {
        EXPECT_NEAR(y_mf[i], y_csr[i], 1e-12 * scale)
            << "csr entry " << i << ", trial " << trial;
        EXPECT_NEAR(y_mf[i], y_bsr[i], 1e-12 * scale)
            << "bsr entry " << i << ", trial " << trial;
      }

      // Fused residual: one subtraction per entry on top of the apply —
      // bitwise equal to compose-then-subtract (la/backend.h contract).
      const std::vector<real> b =
          random_vector(static_cast<std::size_t>(n), rng);
      std::vector<real> r_fused(x.size());
      mf.residual(b, x, r_fused);
      for (idx i = 0; i < n; ++i) {
        EXPECT_EQ(r_fused[i], b[i] - y_mf[i]) << "residual entry " << i;
      }
    }
  }
}

// --- kernel-thread bit determinism -----------------------------------------

TEST(MfEquivalence, ApplyIsBitwiseIdenticalAcrossKernelThreadCounts) {
  Rng rng(0xDE7);
  for (const TestProblem& p : equivalence_problems(rng)) {
    const idx n = p.k.nrows;
    const fem::MatrixFreeOperator mf =
        fem::MatrixFreeOperator::build(p.mesh, p.materials, p.dofmap);
    const std::vector<real> x =
        random_vector(static_cast<std::size_t>(n), rng);
    std::vector<real> y_ref(x.size());
    {
      const ScopedKernelThreads one(1);
      mf.apply(x, y_ref);
    }
    for (int threads : {2, 8}) {
      const ScopedKernelThreads t(threads);
      std::vector<real> y(x.size());
      mf.apply(x, y);
      for (idx i = 0; i < n; ++i) {
        EXPECT_EQ(y[i], y_ref[i]) << threads << " threads, entry " << i;
      }
    }
  }
}

// --- serial vs distributed -------------------------------------------------

TEST(MfEquivalence, DistMfRejectsAOneDofPerVertexMap) {
  // The element kernels are elasticity's: a one-dof-per-vertex map must
  // fail by name, before any slot is indexed at the wrong stride.
  const app::ModelProblem p = app::make_poisson_het_problem(3);
  const la::Csr k = app::assemble_system(p, p.mesh, p.dofmap).stiffness;
  const std::vector<fem::Material> mats = {fem::Material{}};
  const idx n = k.nrows;
  std::vector<idx> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), idx{0});
  std::string what;
  parx::Runtime::run(1, [&](parx::Comm& comm) {
    const dla::RowDist rows = dla::RowDist::block(n, 1);
    const dla::DistCsr a(comm, k, rows, rows);
    const dla::MfProblem mf{&p.mesh, &mats, &p.dofmap, /*bbar=*/true};
    try {
      (void)dla::DistMf::build(comm, mf, a, perm);
    } catch (const Error& e) {
      what = e.what();
    }
  });
  EXPECT_NE(what.find("DistMf::build"), std::string::npos) << what;
}

struct DistProblem {
  app::ModelProblem model;
  mg::Hierarchy hierarchy;
  std::vector<real> rhs;
};

DistProblem build_dist_problem() {
  DistProblem p;
  p.model = app::make_box_problem(6);
  fem::FeProblem fe(p.model.mesh, p.model.materials, p.model.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mo;
  mo.smoother = mg::SmootherKind::kJacobi;
  mo.coarsest_max_dofs = 60;  // multi-level hierarchy on a small box
  p.rhs = std::move(sys.rhs);
  p.hierarchy = mg::Hierarchy::build(p.model.mesh, p.model.dofmap,
                                     std::move(sys.stiffness), mo);
  return p;
}

std::vector<idx> block_owner(idx nv, int p) {
  std::vector<idx> owner(static_cast<std::size_t>(nv));
  for (idx v = 0; v < nv; ++v) {
    owner[static_cast<std::size_t>(v)] =
        static_cast<idx>((static_cast<std::int64_t>(v) * p) / nv);
  }
  return owner;
}

class MfEquivRanks : public ::testing::TestWithParam<int> {};

TEST_P(MfEquivRanks, DistributedSpmvMatchesSerialBitwise) {
  const DistProblem prob = build_dist_problem();
  const fem::MatrixFreeOperator serial = fem::MatrixFreeOperator::build(
      prob.model.mesh, prob.model.materials, prob.model.dofmap);
  Rng rng(0x5EED);
  const std::vector<real> x = random_vector(prob.rhs.size(), rng);
  std::vector<real> y_ref(x.size());
  serial.apply(x, y_ref);

  const dla::MfProblem mfp{&prob.model.mesh, &prob.model.materials,
                           &prob.model.dofmap, true};
  const std::vector<idx> owner =
      block_owner(prob.model.mesh.num_vertices(), GetParam());
  std::vector<real> y(x.size(), 0);
  parx::Runtime::run(GetParam(), [&](parx::Comm& comm) {
    const dla::DistHierarchy dist = dla::DistHierarchy::build(
        comm, prob.hierarchy, owner, mg::MatrixFormat::kMf, &mfp);
    ASSERT_NE(dist.level(0).a_mf, nullptr);
    const auto& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    const idx nloc = rows.local_size(comm.rank());
    la::MultiVec x_local(nloc, 1);
    for (idx i = 0; i < nloc; ++i) x_local.col(0)[i] = x[perm[b0 + i]];
    la::MultiVec y_local(nloc, 1);
    dist.level(0).a_mf->spmm(comm, x_local, y_local);
    for (idx i = 0; i < nloc; ++i) y[perm[b0 + i]] = y_local.col(0)[i];
  });
  // Pass B accumulates each owned row's element contributions in
  // ascending global element order on every rank — identical to the
  // serial order, so the match is bitwise, not just close.
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y[i], y_ref[i]) << "entry " << i;
  }
}

TEST_P(MfEquivRanks, MfPcgHistoryMatchesSerialCsr) {
  const DistProblem prob = build_dist_problem();
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_pcg_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  ASSERT_FALSE(ref.history.empty());

  // Distributed mf PCG at this rank count: identical iteration count, same
  // residual history to reassociation rounding.
  mg::MgSolveOptions so_mf = so;
  so_mf.format = mg::MatrixFormat::kMf;
  const dla::MfProblem mfp{&prob.model.mesh, &prob.model.materials,
                           &prob.model.dofmap, true};
  const std::vector<idx> owner =
      block_owner(prob.model.mesh.num_vertices(), GetParam());
  std::vector<la::KrylovResult> results(
      static_cast<std::size_t>(GetParam()));
  parx::Runtime::run(GetParam(), [&](parx::Comm& comm) {
    const dla::DistHierarchy dist = dla::DistHierarchy::build(
        comm, prob.hierarchy, owner, mg::MatrixFormat::kMf, &mfp);
    const auto& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    const idx nloc = rows.local_size(comm.rank());
    std::vector<real> b_local(static_cast<std::size_t>(nloc));
    for (idx i = 0; i < nloc; ++i) b_local[i] = prob.rhs[perm[b0 + i]];
    std::vector<real> x_local(static_cast<std::size_t>(nloc), 0);
    results[comm.rank()] =
        dist_mg_krylov_solve(comm, dist, b_local, x_local, so_mf);
  });
  const la::KrylovResult& d = results[0];
  EXPECT_TRUE(d.converged);
  EXPECT_EQ(d.iterations, ref.iterations);
  ASSERT_EQ(d.history.size(), ref.history.size());
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    EXPECT_NEAR(d.history[i], ref.history[i], 1e-12 * ref.history[0])
        << "dist mf history entry " << i;
  }
  // Collective deterministic reductions: every rank reports identical
  // results.
  for (int r = 1; r < GetParam(); ++r) {
    EXPECT_EQ(results[r].iterations, d.iterations);
    EXPECT_EQ(results[r].final_relres, d.final_relres);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, MfEquivRanks, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace prom
