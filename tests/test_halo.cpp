// Gates for the latency-hiding halo exchange: the interior/boundary split
// is a true partition with interior rows touching no ghost column, and
// the overlapped schedule (post sends, compute interior, drain peers in
// arrival order, finish boundary) is BIT-identical to the synchronous
// rank-ordered path for spmm/residual/transpose, in both the CSR and
// node-block BSR formats, at 1/2/8 kernel threads and for one-column and
// wider blocks — even when peers stagger their sends adversarially.
// Column j of a k-column call is bitwise the k = 1 call on that column.
// The node-block operators of a constrained problem (padded constrained
// components) must also reproduce their level's CSR operator bit for bit.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "app/driver.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dla/dist_bsr.h"
#include "dla/dist_csr.h"
#include "dla/dist_mg.h"
#include "dla/dist_vec.h"
#include "dla/halo.h"
#include "fem/assembly.h"
#include "mg/hierarchy.h"
#include "partition/rcb.h"

namespace prom::dla {
namespace {

/// Random sparse matrix with a full diagonal and `extra` couplings per
/// row at varied strides, so block-distributed rows get ghost columns
/// from several peers.
la::Csr random_coupled(idx n, idx extra, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0 + rng.next_real()});
    for (idx k = 0; k < extra; ++k) {
      const idx j = static_cast<idx>(rng.next_below(n));
      if (j != i) t.push_back({i, j, rng.next_real() - 0.5});
    }
  }
  return la::Csr::from_triplets(n, n, t);
}

std::vector<real> random_vec(idx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> v(static_cast<std::size_t>(n));
  for (real& x : v) x = rng.next_real() - 0.5;
  return v;
}

void expect_bitwise_equal(const la::MultiVec& a, const la::MultiVec& b,
                          const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int j = 0; j < a.cols(); ++j) {
    EXPECT_EQ(std::memcmp(a.col_data(j), b.col_data(j),
                          static_cast<std::size_t>(a.rows()) * sizeof(real)),
              0)
        << what << ", column " << j << ": results differ bitwise";
  }
}

/// Rows [lo, lo + n) of k global random vectors (seeds seed..seed+k-1).
la::MultiVec random_block(idx nglobal, idx lo, idx n, int k,
                          std::uint64_t seed) {
  la::MultiVec m(n, k);
  for (int j = 0; j < k; ++j) {
    const auto g = random_vec(nglobal, seed + j);
    std::copy(g.begin() + lo, g.begin() + lo + n, m.col_data(j));
  }
  return m;
}

/// Column j of `m` as a one-column block.
la::MultiVec column(const la::MultiVec& m, int j) {
  la::MultiVec c(m.rows(), 1);
  std::copy(m.col(j).begin(), m.col(j).end(), c.col_data(0));
  return c;
}

/// This rank's rows of k global random vectors (seeds seed..seed+k-1) in
/// the level's distributed numbering (perm[global] = serial index).
la::MultiVec local_random_block(const std::vector<idx>& perm,
                                const RowDist& rows, int rank, int k,
                                std::uint64_t seed) {
  const idx lo = rows.begin(rank);
  la::MultiVec m(rows.local_size(rank), k);
  for (int j = 0; j < k; ++j) {
    const auto g = random_vec(rows.global_size(), seed + j);
    for (idx i = 0; i < m.rows(); ++i) m.col_data(j)[i] = g[perm[lo + i]];
  }
  return m;
}

/// Restores the halo mode (and kernel threads) when a test exits.
struct HaloModeGuard {
  ~HaloModeGuard() {
    set_halo_mode(HaloMode::kOverlap);
    common::set_kernel_threads(0);
  }
};

constexpr int kThreadCounts[] = {1, 2, 8};

class HaloRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRanks, InteriorBoundarySplitIsAPartition) {
  const int p = GetParam();
  const idx n = 211;
  const la::Csr a = random_coupled(n, 6, 11);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    const idx n_own = dist.local_size(comm.rank());
    const la::Csr& lm = da.local_matrix();
    std::vector<int> seen(static_cast<std::size_t>(lm.nrows), 0);
    for (idx i : da.interior_rows()) {
      ASSERT_GE(i, 0);
      ASSERT_LT(i, lm.nrows);
      seen[i] += 1;
      // Interior rows reference owned columns only.
      for (nnz_t k = lm.rowptr[i]; k < lm.rowptr[i + 1]; ++k) {
        EXPECT_LT(lm.colidx[k], n_own);
      }
    }
    for (idx i : da.boundary_rows()) {
      ASSERT_GE(i, 0);
      ASSERT_LT(i, lm.nrows);
      seen[i] += 1;
      // Boundary rows reference at least one ghost column.
      bool has_ghost = false;
      for (nnz_t k = lm.rowptr[i]; k < lm.rowptr[i + 1]; ++k) {
        has_ghost = has_ghost || lm.colidx[k] >= n_own;
      }
      EXPECT_TRUE(has_ghost);
    }
    // interior ∪ boundary covers every row exactly once.
    for (idx i = 0; i < lm.nrows; ++i) EXPECT_EQ(seen[i], 1);
    // Single rank has no ghosts at all.
    if (comm.size() == 1) {
      EXPECT_EQ(da.num_ghosts(), 0);
      EXPECT_EQ(static_cast<idx>(da.interior_rows().size()), lm.nrows);
    }
  });
}

TEST_P(HaloRanks, CsrOverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const HaloModeGuard guard;
  const idx n = 193;
  const la::Csr a = random_coupled(n, 5, 23);
  const RowDist dist = RowDist::block(n, p);
  for (const int threads : kThreadCounts) {
    common::set_kernel_threads(threads);
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistCsr da(comm, a, dist, dist);
      const idx lo = dist.begin(comm.rank());
      const idx ln = dist.local_size(comm.rank());
      for (const int k : {1, 3}) {
        const la::MultiVec xl = random_block(n, lo, ln, k, 3);
        const la::MultiVec bl = random_block(n, lo, ln, k, 4);
        la::MultiVec y_sync(ln, k), y_over(ln, k), r_sync(ln, k),
            r_over(ln, k);
        set_halo_mode(HaloMode::kSync);
        da.spmm(comm, xl, y_sync);
        da.residual_mv(comm, bl, xl, r_sync);
        set_halo_mode(HaloMode::kOverlap);
        da.spmm(comm, xl, y_over);
        da.residual_mv(comm, bl, xl, r_over);
        expect_bitwise_equal(y_over, y_sync, "csr spmm");
        expect_bitwise_equal(r_over, r_sync, "csr residual_mv");
      }
    });
  }
}

TEST_P(HaloRanks, CsrTransposeOverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const HaloModeGuard guard;
  const idx nrows = 150, ncols = 90;
  Rng rng(31);
  std::vector<la::Triplet> t;
  for (int k = 0; k < 700; ++k) {
    t.push_back({static_cast<idx>(rng.next_below(nrows)),
                 static_cast<idx>(rng.next_below(ncols)),
                 rng.next_real() - 0.5});
  }
  const la::Csr r = la::Csr::from_triplets(nrows, ncols, t);
  const RowDist rows = RowDist::block(nrows, p);
  const RowDist cols = RowDist::block(ncols, p);
  for (const int threads : kThreadCounts) {
    common::set_kernel_threads(threads);
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistCsr dr(comm, r, rows, cols);
      const idx cn = cols.local_size(comm.rank());
      for (const int k : {1, 3}) {
        const la::MultiVec xl =
            random_block(nrows, rows.begin(comm.rank()),
                         rows.local_size(comm.rank()), k, 5);
        la::MultiVec y_sync(cn, k), y_over(cn, k);
        set_halo_mode(HaloMode::kSync);
        dr.spmm_transpose(comm, xl, y_sync);
        set_halo_mode(HaloMode::kOverlap);
        dr.spmm_transpose(comm, xl, y_over);
        expect_bitwise_equal(y_over, y_sync, "csr transpose");
      }
    });
  }
}

TEST_P(HaloRanks, Bsr3OverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const HaloModeGuard guard;
  // Real node-block operators: every level of the elasticity hierarchy of
  // a small constrained box problem, distributed with an RCB vertex
  // partition.
  const app::ModelProblem model = app::make_box_problem(5);
  fem::FeProblem fe(model.mesh, model.materials, model.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 150;
  const mg::Hierarchy serial_h =
      mg::Hierarchy::build(model.mesh, model.dofmap, sys.stiffness, mopts);
  ASSERT_GE(serial_h.num_levels(), 2);
  const auto owner = partition::rcb_partition(model.mesh.coords(), p);
  constexpr int k = 3;
  for (const int threads : kThreadCounts) {
    common::set_kernel_threads(threads);
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistHierarchy dh = DistHierarchy::build(comm, serial_h, owner,
                                                    mg::MatrixFormat::kBsr3);
      for (int l = 0; l < dh.num_levels(); ++l) {
        ASSERT_NE(dh.level(l).a_bsr, nullptr);
        const DistBsr& da = *dh.level(l).a_bsr;
        const DistCsr& ac = dh.level(l).a;
        const RowDist& rows = ac.row_dist();
        const la::MultiVec xm = local_random_block(
            dh.permutation(l), rows, comm.rank(), k, 7 + 10 * l);
        const la::MultiVec bm = local_random_block(
            dh.permutation(l), rows, comm.rank(), k, 107 + 10 * l);
        // Block rows partition into interior + boundary.
        EXPECT_EQ(static_cast<idx>(da.interior_brows().size() +
                                   da.boundary_brows().size()),
                  da.local_matrix().nbrows);
        const idx ln = xm.rows();
        la::MultiVec y_sync(ln, k), y_over(ln, k), r_sync(ln, k),
            r_over(ln, k);
        set_halo_mode(HaloMode::kSync);
        da.spmm(comm, xm, y_sync);
        da.residual_mv(comm, bm, xm, r_sync);
        set_halo_mode(HaloMode::kOverlap);
        da.spmm(comm, xm, y_over);
        da.residual_mv(comm, bm, xm, r_over);
        expect_bitwise_equal(y_over, y_sync, "bsr3 spmm overlap vs sync");
        expect_bitwise_equal(r_over, r_sync,
                             "bsr3 residual_mv overlap vs sync");

        // Column j of the k-column calls is the k = 1 call on column j.
        for (int j = 0; j < k; ++j) {
          const la::MultiVec xj = column(xm, j);
          la::MultiVec yj(ln, 1), rj(ln, 1);
          da.spmm(comm, xj, yj);
          da.residual_mv(comm, column(bm, j), xj, rj);
          expect_bitwise_equal(yj, column(y_over, j), "bsr3 spmm k = 1");
          expect_bitwise_equal(rj, column(r_over, j),
                               "bsr3 residual_mv k = 1");
        }

        // The padded node blocks against the level's CSR operator.
        la::MultiVec y_csr(ln, k), r_csr(ln, k);
        ac.spmm(comm, xm, y_csr);
        ac.residual_mv(comm, bm, xm, r_csr);
        expect_bitwise_equal(y_over, y_csr, "bsr3 vs csr spmm");
        expect_bitwise_equal(r_over, r_csr, "bsr3 vs csr residual_mv");
      }
    });
  }
}

// "pN" names let the CI rank matrix select one rank count per job with
// --gtest_filter='*/pN'.
INSTANTIATE_TEST_SUITE_P(Ranks, HaloRanks, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "p" + std::to_string(info.param);
                         });

TEST(Halo, StaggeredPeerSendsDrainInArrivalOrder) {
  // Adversarial timing: low ranks enter the exchange long after high
  // ranks, so a rank-ordered drain would idle on already-delivered
  // messages and (worse) an arrival-order drain must still produce the
  // synchronous bits. Repeat with rotating stagger patterns.
  const HaloModeGuard guard;
  const int p = 5;
  const idx n = 150;
  const la::Csr a = random_coupled(n, 8, 47);
  const RowDist dist = RowDist::block(n, p);

  // Synchronous reference, no stagger.
  std::vector<real> ref(static_cast<std::size_t>(n));
  set_halo_mode(HaloMode::kSync);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    const idx lo = dist.begin(comm.rank());
    const idx ln = dist.local_size(comm.rank());
    la::MultiVec yl(ln, 1);
    da.spmm(comm, random_block(n, lo, ln, 1, 9), yl);
    std::copy(yl.col(0).begin(), yl.col(0).end(), ref.begin() + lo);
  });

  set_halo_mode(HaloMode::kOverlap);
  for (int round = 0; round < 4; ++round) {
    std::vector<real> got(static_cast<std::size_t>(n));
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistCsr da(comm, a, dist, dist);
      const idx lo = dist.begin(comm.rank());
      const idx ln = dist.local_size(comm.rank());
      const la::MultiVec xl = random_block(n, lo, ln, 1, 9);
      la::MultiVec yl(ln, 1);
      // Rotate which ranks lag: delayed ranks post their sends late.
      const int lag = (comm.rank() + round) % p;
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * lag));
      da.spmm(comm, xl, yl);
      std::copy(yl.col(0).begin(), yl.col(0).end(), got.begin() + lo);
    });
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(real)),
              0)
        << "staggered overlap round " << round << " differs from sync";
  }
}

TEST(Halo, ModeSwitchRoundTrips) {
  const HaloModeGuard guard;
  set_halo_mode(HaloMode::kSync);
  EXPECT_EQ(halo_mode(), HaloMode::kSync);
  set_halo_mode(HaloMode::kOverlap);
  EXPECT_EQ(halo_mode(), HaloMode::kOverlap);
}

TEST(Halo, PlanCountsMatchGhosts) {
  const int p = 4;
  const idx n = 101;
  const la::Csr a = random_coupled(n, 4, 91);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    // Every ghost column is filled by exactly one peer's segment.
    EXPECT_EQ(da.halo_plan().recv_count(),
              static_cast<std::int64_t>(da.num_ghosts()));
    EXPECT_EQ(da.halo_plan().num_recv_peers() == 0, da.num_ghosts() == 0);
  });
}

}  // namespace
}  // namespace prom::dla
