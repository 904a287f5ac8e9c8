// Gates for the halo exchange (post sends, drain peers in rank order, run
// the whole local kernel): the distributed CSR spmm/residual reproduce the
// rows of the serial product of the global matrix bit for bit, and the
// transpose (reverse exchange) is bitwise the same at any kernel-thread
// count, at 1/2/4/8 ranks and for one-column and wider blocks — also when
// peers stagger their sends. Column j of a k-column call is bitwise the
// k = 1 call on that column. The node-block operators of a constrained
// problem (padded constrained components) must reproduce their level's
// CSR operator bit for bit.
#include <gtest/gtest.h>

#include <array>
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

/// Rows [lo, lo + n) of every column of `m`.
la::MultiVec rows_of(const la::MultiVec& m, idx lo, idx n) {
  la::MultiVec r(n, m.cols());
  for (int j = 0; j < m.cols(); ++j) {
    std::copy(m.col_data(j) + lo, m.col_data(j) + lo + n, r.col_data(j));
  }
  return r;
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

/// Restores the kernel threads when a test exits.
struct ThreadsGuard {
  ~ThreadsGuard() { common::set_kernel_threads(0); }
};

constexpr int kThreadCounts[] = {1, 2, 8};

class HaloRanks : public ::testing::TestWithParam<int> {};

// Each local row keeps its global column order, so the distributed
// products are the serial products' rows bit for bit.
TEST_P(HaloRanks, CsrOverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const ThreadsGuard guard;
  const idx n = 193;
  const la::Csr a = random_coupled(n, 5, 23);
  const RowDist dist = RowDist::block(n, p);
  for (const int k : {1, 3}) {
    const la::MultiVec x = random_block(n, 0, n, k, 3);
    const la::MultiVec b = random_block(n, 0, n, k, 4);
    la::MultiVec y_ref(n, k), r_ref(n, k);
    a.spmm(x, y_ref);
    a.residual_mv(b, x, r_ref);
    for (const int threads : kThreadCounts) {
      common::set_kernel_threads(threads);
      parx::Runtime::run(p, [&](parx::Comm& comm) {
        const DistCsr da(comm, a, dist, dist);
        const idx lo = dist.begin(comm.rank());
        const idx ln = dist.local_size(comm.rank());
        la::MultiVec y(ln, k), r(ln, k);
        da.spmm(comm, rows_of(x, lo, ln), y);
        da.residual_mv(comm, rows_of(b, lo, ln), rows_of(x, lo, ln), r);
        expect_bitwise_equal(y, rows_of(y_ref, lo, ln), "csr spmm");
        expect_bitwise_equal(r, rows_of(r_ref, lo, ln), "csr residual_mv");
      });
    }
  }
}

/// The distributed transpose (one reverse exchange, contributions summed
/// in fixed peer order) at `threads` kernel threads: every rank's owned
/// block of R^T X for k = 1 and k = 3, indexed [rank][k == 3].
std::vector<std::array<la::MultiVec, 2>> distributed_transpose(
    const la::Csr& r, const RowDist& rows, const RowDist& cols, int threads,
    int stagger_ms = 0, int round = 0) {
  const int p = rows.nranks();
  std::vector<std::array<la::MultiVec, 2>> out(static_cast<std::size_t>(p));
  common::set_kernel_threads(threads);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr dr(comm, r, rows, cols);
    const int rank = comm.rank();
    for (const int k : {1, 3}) {
      const la::MultiVec xl = random_block(r.nrows, rows.begin(rank),
                                           rows.local_size(rank), k, 5);
      la::MultiVec& y = out[rank][k == 3 ? 1 : 0];
      y.resize(cols.local_size(rank), k);
      // Rotate which ranks lag: delayed ranks post their sends late.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(stagger_ms * ((rank + round) % p)));
      dr.spmm_transpose(comm, xl, y);
    }
  });
  return out;
}

la::Csr random_rectangular(idx nrows, idx ncols, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  for (int k = 0; k < 700; ++k) {
    t.push_back({static_cast<idx>(rng.next_below(nrows)),
                 static_cast<idx>(rng.next_below(ncols)),
                 rng.next_real() - 0.5});
  }
  return la::Csr::from_triplets(nrows, ncols, t);
}

// The reverse exchange sums colliding contributions in fixed peer order,
// so the result does not depend on the kernel-thread count.
TEST_P(HaloRanks, CsrTransposeOverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const ThreadsGuard guard;
  const la::Csr r = random_rectangular(150, 90, 31);
  const RowDist rows = RowDist::block(r.nrows, p);
  const RowDist cols = RowDist::block(r.ncols, p);
  const auto ref = distributed_transpose(r, rows, cols, 1);
  for (const int threads : {2, 8}) {
    const auto got = distributed_transpose(r, rows, cols, threads);
    for (int rank = 0; rank < p; ++rank) {
      for (int w = 0; w < 2; ++w) {
        expect_bitwise_equal(got[rank][w], ref[rank][w], "csr transpose");
      }
    }
  }
}

TEST_P(HaloRanks, Bsr3OverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const ThreadsGuard guard;
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
      // Every level but the coarsest: its direct solve reads the gathered
      // CSR operator, so it builds no node blocks.
      EXPECT_EQ(dh.level(dh.num_levels() - 1).a_bsr, nullptr);
      for (int l = 0; l + 1 < dh.num_levels(); ++l) {
        ASSERT_NE(dh.level(l).a_bsr, nullptr);
        const DistBsr& da = *dh.level(l).a_bsr;
        const DistCsr& ac = dh.level(l).a;
        const RowDist& rows = ac.row_dist();
        const la::MultiVec xm = local_random_block(
            dh.permutation(l), rows, comm.rank(), k, 7 + 10 * l);
        const la::MultiVec bm = local_random_block(
            dh.permutation(l), rows, comm.rank(), k, 107 + 10 * l);
        const idx ln = xm.rows();
        la::MultiVec y(ln, k), r(ln, k);
        da.spmm(comm, xm, y);
        da.residual_mv(comm, bm, xm, r);

        // Column j of the k-column calls is the k = 1 call on column j.
        for (int j = 0; j < k; ++j) {
          const la::MultiVec xj = column(xm, j);
          la::MultiVec yj(ln, 1), rj(ln, 1);
          da.spmm(comm, xj, yj);
          da.residual_mv(comm, column(bm, j), xj, rj);
          expect_bitwise_equal(yj, column(y, j), "bsr3 spmm k = 1");
          expect_bitwise_equal(rj, column(r, j), "bsr3 residual_mv k = 1");
        }

        // The padded node blocks against the level's CSR operator.
        la::MultiVec y_csr(ln, k), r_csr(ln, k);
        ac.spmm(comm, xm, y_csr);
        ac.residual_mv(comm, bm, xm, r_csr);
        expect_bitwise_equal(y, y_csr, "bsr3 vs csr spmm");
        expect_bitwise_equal(r, r_csr, "bsr3 vs csr residual_mv");
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
  // ranks, in rotating patterns. The forward product must still be the
  // rows of the serial product, and the transpose the unstaggered one.
  const ThreadsGuard guard;
  const int p = 5;
  const idx n = 150;
  const la::Csr a = random_coupled(n, 8, 47);
  const RowDist dist = RowDist::block(n, p);
  const la::MultiVec x = random_block(n, 0, n, 1, 9);
  la::MultiVec y_ref(n, 1);
  a.spmm(x, y_ref);

  const la::Csr r = random_rectangular(150, 90, 31);
  const RowDist rows = RowDist::block(r.nrows, p);
  const RowDist cols = RowDist::block(r.ncols, p);
  const auto t_ref = distributed_transpose(r, rows, cols, 1);

  for (int round = 0; round < 4; ++round) {
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistCsr da(comm, a, dist, dist);
      const idx lo = dist.begin(comm.rank());
      const idx ln = dist.local_size(comm.rank());
      la::MultiVec yl(ln, 1);
      const int lag = (comm.rank() + round) % p;
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * lag));
      da.spmm(comm, rows_of(x, lo, ln), yl);
      expect_bitwise_equal(yl, rows_of(y_ref, lo, ln), "staggered spmm");
    });
    const auto got = distributed_transpose(r, rows, cols, 1, 3, round);
    for (int rank = 0; rank < p; ++rank) {
      for (int w = 0; w < 2; ++w) {
        expect_bitwise_equal(got[rank][w], t_ref[rank][w],
                             "staggered transpose");
      }
    }
  }
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
