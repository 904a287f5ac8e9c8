#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.h"
#include "app/driver.h"
#include "app/refine.h"
#include "common/rng.h"
#include "dla/dist_csr.h"
#include "dla/dist_krylov.h"
#include "dla/dist_mg.h"
#include "dla/dist_vec.h"
#include "dla/parx_backend.h"
#include "fem/assembly.h"
#include "la/krylov.h"
#include "la/vec.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "partition/rcb.h"

namespace prom::dla {
namespace {

la::Csr poisson1d(idx n) {
  std::vector<la::Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return la::Csr::from_triplets(n, n, t);
}

std::vector<real> random_vec(idx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> v(static_cast<std::size_t>(n));
  for (real& x : v) x = rng.next_real() - 0.5;
  return v;
}

/// Entries [lo, lo + n) of `v` as a one-column block.
la::MultiVec one_column(const std::vector<real>& v, idx lo, idx n) {
  la::MultiVec m(n, 1);
  std::copy(v.begin() + lo, v.begin() + lo + n, m.col_data(0));
  return m;
}

TEST(RowDist, BlockSplit) {
  const RowDist d = RowDist::block(10, 3);
  EXPECT_EQ(d.nranks(), 3);
  EXPECT_EQ(d.global_size(), 10);
  EXPECT_EQ(d.local_size(0) + d.local_size(1) + d.local_size(2), 10);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(9), 2);
  for (idx g = 0; g < 10; ++g) {
    const int r = d.owner(g);
    EXPECT_GE(g, d.begin(r));
    EXPECT_LT(g, d.end(r));
  }
}

TEST(RowDist, FromSortedOwners) {
  const std::vector<idx> owners = {0, 0, 1, 1, 1, 3};
  const RowDist d = RowDist::from_sorted_owners(owners, 4);
  EXPECT_EQ(d.local_size(0), 2);
  EXPECT_EQ(d.local_size(1), 3);
  EXPECT_EQ(d.local_size(2), 0);
  EXPECT_EQ(d.local_size(3), 1);
  // Non-monotone owners rejected.
  const std::vector<idx> bad = {1, 0};
  EXPECT_THROW(RowDist::from_sorted_owners(bad, 2), Error);
}

class DlaRanks : public ::testing::TestWithParam<int> {};

TEST_P(DlaRanks, DistDotMatchesSerial) {
  const int p = GetParam();
  const idx n = 101;
  const auto a = random_vec(n, 1), b = random_vec(n, 2);
  const real serial = la::dot(a, b);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    // The reduction every distributed solver runs.
    const ParxBackend be{&comm};
    const idx lo = dist.begin(comm.rank()), hi = dist.end(comm.rank());
    const real mine = be.dot(std::span<const real>(a).subspan(lo, hi - lo),
                             std::span<const real>(b).subspan(lo, hi - lo));
    EXPECT_NEAR(mine, serial, 1e-12);
    EXPECT_NEAR(be.norm2(std::span<const real>(a).subspan(lo, hi - lo)),
                la::nrm2(a), 1e-12);
  });
}

TEST_P(DlaRanks, DistSpmvMatchesSerial) {
  const int p = GetParam();
  const idx n = 73;
  const la::Csr a = poisson1d(n);
  const auto x = random_vec(n, 3);
  std::vector<real> y_ref(n);
  a.spmv(x, y_ref);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    const idx lo = dist.begin(comm.rank());
    const idx ln = dist.local_size(comm.rank());
    const la::MultiVec xl = one_column(x, lo, ln);
    la::MultiVec yl(ln, 1);
    da.spmm(comm, xl, yl);
    for (idx i = 0; i < ln; ++i) {
      EXPECT_NEAR(yl.col(0)[i], y_ref[lo + i], 1e-13);
    }
  });
}

// A local block keeps each row in global column order, so in its
// [owned | ghost] numbering a ghost column below the owned range precedes
// the owned ones; `at` must still find every stored entry.
TEST_P(DlaRanks, LocalBlockAtReadsEveryStoredEntry) {
  const int p = GetParam();
  const idx n = 60;
  Rng rng(11);
  std::vector<la::Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 4.0 + rng.next_real()});
    for (int k = 0; k < 6; ++k) {
      t.push_back({i, static_cast<idx>(rng.next_below(n)),
                   rng.next_real() - 0.5});
    }
  }
  const la::Csr a = la::Csr::from_triplets(n, n, t);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    const la::Csr& local = da.local_matrix();
    const idx lo = dist.begin(comm.rank());
    for (idx i = 0; i < local.nrows; ++i) {
      for (nnz_t k = local.rowptr[i]; k < local.rowptr[i + 1]; ++k) {
        const idx j = local.colidx[k];
        EXPECT_EQ(local.at(i, j), a.at(lo + i, da.global_col(j)))
            << "rank " << comm.rank() << ", local entry (" << i << ", " << j
            << ")";
      }
    }
  });
}

TEST_P(DlaRanks, DistSpmvTransposeMatchesSerial) {
  const int p = GetParam();
  const idx n = 40, m = 25;
  // Rectangular random matrix (restriction-like).
  Rng rng(7);
  std::vector<la::Triplet> t;
  for (int k = 0; k < 120; ++k) {
    t.push_back({static_cast<idx>(rng.next_below(m)),
                 static_cast<idx>(rng.next_below(n)),
                 rng.next_real()});
  }
  const la::Csr r = la::Csr::from_triplets(m, n, t);
  const auto x = random_vec(m, 4);
  std::vector<real> y_ref(n);
  r.spmv_transpose(x, y_ref);
  const RowDist rows = RowDist::block(m, p);
  const RowDist cols = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr dr(comm, r, rows, cols);
    const la::MultiVec xl =
        one_column(x, rows.begin(comm.rank()), rows.local_size(comm.rank()));
    la::MultiVec yl(cols.local_size(comm.rank()), 1);
    dr.spmm_transpose(comm, xl, yl);
    const idx clo = cols.begin(comm.rank());
    for (idx i = 0; i < yl.rows(); ++i) {
      EXPECT_NEAR(yl.col(0)[i], y_ref[clo + i], 1e-12);
    }
  });
}

TEST_P(DlaRanks, DistPcgMatchesSerialIterationForIteration) {
  const int p = GetParam();
  const idx n = 64;
  const la::Csr a = poisson1d(n);
  const auto b = random_vec(n, 5);
  // Serial CG reference.
  std::vector<real> x_ref(n, 0.0);
  la::KrylovOptions opts;
  opts.rtol = 1e-10;
  const la::CsrOperator op(a);
  const la::KrylovResult serial = la::cg(op, b, x_ref, opts);
  ASSERT_TRUE(serial.converged);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    const DistCsrOperator dop(da);
    const idx lo = dist.begin(comm.rank());
    const idx ln = dist.local_size(comm.rank());
    const la::MultiVec bl = one_column(b, lo, ln);
    la::MultiVec xl(ln, 1);
    const la::KrylovResult res =
        dist_pcg_multi(comm, dop, nullptr, bl, xl, opts)[0];
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, serial.iterations);
    for (idx i = 0; i < ln; ++i) {
      EXPECT_NEAR(xl.col(0)[i], x_ref[lo + i], 1e-8);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, DlaRanks, ::testing::Values(1, 2, 3, 5, 8));

// GMRES on A = diag(1, 0) with b = e2: the first Arnoldi step finds
// A v = 0, so the least-squares triangle is singular. The serial and the
// distributed solver both report a breakdown, without throwing, and keep
// x at its value from the restart.
TEST(DistKrylov, GmresReportsSingularHessenbergAsBreakdown) {
  const std::vector<la::Triplet> diag = {{0, 0, 1.0}};
  const la::Csr a = la::Csr::from_triplets(2, 2, diag);
  const std::vector<real> b = {0.0, 1.0};
  std::vector<real> x(2, 0.0);
  const la::CsrOperator op(a);
  la::KrylovResult serial;
  EXPECT_NO_THROW(serial = la::gmres(op, nullptr, b, x));
  EXPECT_TRUE(serial.breakdown);
  EXPECT_FALSE(serial.converged);
  EXPECT_EQ(x, std::vector<real>(2, 0.0));

  const RowDist dist = RowDist::block(2, 2);
  parx::Runtime::run(2, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    const DistCsrOperator dop(da);
    const std::vector<real> bl = {b[dist.begin(comm.rank())]};
    std::vector<real> xl = {0.0};
    la::KrylovResult res;
    EXPECT_NO_THROW(res = dist_gmres(comm, dop, nullptr, bl, xl));
    EXPECT_TRUE(res.breakdown);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(xl[0], 0.0);
  });
}


class DistMgRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistMgRanks, MatchesSerialMgIterationCounts) {
  const int p = GetParam();
  const app::ModelProblem model = app::make_box_problem(6);
  fem::FeProblem fe(model.mesh, model.materials, model.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 150;
  const mg::Hierarchy serial_h =
      mg::Hierarchy::build(model.mesh, model.dofmap, sys.stiffness, mopts);

  // Serial reference.
  std::vector<real> x_ref(sys.rhs.size(), 0.0);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  const la::KrylovResult serial = mg_pcg_solve(serial_h, sys.rhs, x_ref, so);
  ASSERT_TRUE(serial.converged);

  const auto owner = partition::rcb_partition(model.mesh.coords(), p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistHierarchy dh = DistHierarchy::build(comm, serial_h, owner);
    const auto& perm = dh.permutation(0);
    const RowDist& rows = dh.level(0).a.row_dist();
    const idx lo = rows.begin(comm.rank());
    const idx ln = rows.local_size(comm.rank());
    std::vector<real> bl(static_cast<std::size_t>(ln)), xl(ln, 0.0);
    for (idx i = 0; i < ln; ++i) bl[i] = sys.rhs[perm[lo + i]];
    const la::KrylovResult res = dist_mg_krylov_solve(comm, dh, bl, xl, so);
    EXPECT_TRUE(res.converged);
    // Identical grids and a processor-block smoother: iteration counts may
    // differ slightly from serial but must stay in the same band (the
    // paper's "no deterioration in convergence rates with the use of
    // multiple processors").
    EXPECT_LE(res.iterations, serial.iterations + 6);
    // Distributed solution must solve the system (check via residual).
    for (idx i = 0; i < ln; ++i) {
      EXPECT_NEAR(xl[i], x_ref[perm[lo + i]], 1e-5);
    }
  });
}

TEST_P(DistMgRanks, GatherAllReassemblesVector) {
  const int p = GetParam();
  const idx n = 37;
  const auto full = random_vec(n, 6);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const la::MultiVec local =
        one_column(full, dist.begin(comm.rank()), dist.local_size(comm.rank()));
    la::MultiVec gathered;
    dist_gather_all_mv(comm, dist, local, gathered);
    ASSERT_EQ(gathered.rows(), n);
    EXPECT_TRUE(std::equal(full.begin(), full.end(), gathered.col_data(0)));
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistMgRanks, ::testing::Values(1, 2, 4));

// The k-column cycles keep their per-level temporaries in the hierarchy
// (DistMgLevel::cycle_scratch), and the sweeps, the masked smoothing copy
// and the coarse solve theirs (DistMgLevel::solve_scratch), across calls.
// Reusing one hierarchy across block widths and cycle kinds must give the
// bits of a fresh hierarchy: a coarse correction, FMG iterate, residual
// block or gathered right-hand side left over from an earlier call would
// show here.
void expect_reuse_matches_fresh(const mg::Hierarchy& serial_h,
                                const std::vector<idx>& owner,
                                mg::MatrixFormat format) {
  parx::Runtime::run(2, [&](parx::Comm& comm) {
    const DistHierarchy reused =
        DistHierarchy::build(comm, serial_h, owner, format);
    const idx n = reused.level(0).local_n();
    for (const mg::CycleKind kind : {mg::CycleKind::kV, mg::CycleKind::kFmg}) {
      for (const int k : {3, 1, 3}) {
        la::MultiVec x(n, k);
        for (int j = 0; j < k; ++j) {
          for (idx i = 0; i < n; ++i) {
            const real t = static_cast<real>((i + 1) * (j + 1));
            x.col(j)[i] = std::sin(0.01 * t + comm.rank());
          }
        }
        la::MultiVec got(n, k), want(n, k);
        DistMgPreconditioner(reused, kind).apply_mv(comm, x, got);
        const DistHierarchy fresh =
            DistHierarchy::build(comm, serial_h, owner, format);
        DistMgPreconditioner(fresh, kind).apply_mv(comm, x, want);
        for (int j = 0; j < k; ++j) {
          EXPECT_EQ(std::memcmp(got.col_data(j), want.col_data(j),
                                static_cast<std::size_t>(n) * sizeof(real)),
                    0)
              << (kind == mg::CycleKind::kV ? "V" : "FMG") << ", k = " << k
              << ", column " << j << ", rank " << comm.rank();
        }
      }
    }
  });
}

TEST(DistMgScratch, ReusedHierarchyMatchesFreshBitwise) {
  const app::ModelProblem model = app::make_box_problem(6);
  fem::FeProblem fe(model.mesh, model.materials, model.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 60;
  const mg::Hierarchy serial_h =
      mg::Hierarchy::build(model.mesh, model.dofmap, sys.stiffness, mopts);
  ASSERT_GE(serial_h.num_levels(), 3);
  const auto owner = partition::rcb_partition(model.mesh.coords(), 2);
  for (const mg::MatrixFormat format :
       {mg::MatrixFormat::kCsr, mg::MatrixFormat::kBsr3}) {
    SCOPED_TRACE(format == mg::MatrixFormat::kCsr ? "csr" : "bsr3");
    expect_reuse_matches_fresh(serial_h, owner, format);
  }
}

// The same on a refined hierarchy: its refinement level (level 1 after
// one round) smooths only the refined region (the masked step), here on
// node blocks.
TEST(DistMgScratch, ReusedMaskedLevelMatchesFreshBitwise) {
  app::AdaptiveOptions ao;
  ao.rounds = 1;
  ao.mark_fraction = 0.15;
  app::AdaptiveLoop loop =
      app::run_adaptive_refinement(app::make_box_problem(4), ao);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 60;
  const mg::Hierarchy serial_h = mg::Hierarchy::build_grids_refined(
      loop.mesh_ptrs(), loop.dofmap_ptrs(), loop.rounds,
      std::move(loop.sys.stiffness), mopts);
  ASSERT_GE(serial_h.num_levels(), 3);
  ASSERT_FALSE(serial_h.level(1).smooth_rows.empty());
  const auto owner =
      partition::rcb_partition(loop.final_mesh().coords(), 2);
  expect_reuse_matches_fresh(serial_h, owner, mg::MatrixFormat::kBsr3);
}

}  // namespace
}  // namespace prom::dla
