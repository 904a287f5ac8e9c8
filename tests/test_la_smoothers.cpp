#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/parallel.h"
#include "la/operator.h"
#include "la/vec.h"
#include "mg/hierarchy.h"
#include "mg/level_solve.h"
#include "partition/greedy.h"

namespace prom::la {
namespace {

/// 2D Poisson 5-point stencil on an n x n grid.
Csr poisson2d(idx n) {
  auto id = [n](idx i, idx j) { return i * n + j; };
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      t.push_back({id(i, j), id(i, j), 4.0});
      if (i > 0) t.push_back({id(i, j), id(i - 1, j), -1.0});
      if (i + 1 < n) t.push_back({id(i, j), id(i + 1, j), -1.0});
      if (j > 0) t.push_back({id(i, j), id(i, j - 1), -1.0});
      if (j + 1 < n) t.push_back({id(i, j), id(i, j + 1), -1.0});
    }
  }
  return Csr::from_triplets(n * n, n * n, t);
}

real residual_norm(const Csr& a, std::span<const real> b,
                   std::span<const real> x) {
  std::vector<real> r(b.size());
  a.spmv(x, r);
  waxpby(1, b, -1, r, r);
  return nrm2(r);
}

/// The shared level smoother built on the whole of `a`, as the serial
/// hierarchy builds a level's.
mg::LevelSolve build(const Csr& a, const mg::MgOptions& mo) {
  mg::LevelSolve s;
  s.build_smoother(SerialBackend{}, CsrOperator(a), a, 0, mo);
  return s;
}

/// One smoothing step of `s` on one vector (a one-column block).
void smooth(const mg::LevelSolve& s, const Csr& a, std::span<const real> b,
            std::span<real> x) {
  const idx n = a.nrows;
  MultiVec bm(n, 1), xm(n, 1);
  std::copy(b.begin(), b.end(), bm.col_data(0));
  std::copy(x.begin(), x.end(), xm.col_data(0));
  mg::SolveScratch ws;
  s.smooth_mv(SerialBackend{}, CsrOperator(a), bm, xm, ws);
  std::copy(xm.col(0).begin(), xm.col(0).end(), x.begin());
}

// Explicit values keep each kind's test-instance name (the parameter's
// bytes) stable.
enum class Kind { kJacobi = 0, kChebyshev = 1, kBlockJacobi = 2 };

class SmootherKinds : public ::testing::TestWithParam<Kind> {
 protected:
  mg::LevelSolve make(const Csr& a) {
    mg::MgOptions mo;
    switch (GetParam()) {
      case Kind::kJacobi:
        mo.smoother = mg::SmootherKind::kJacobi;
        mo.omega = 0.67;
        return build(a, mo);
      case Kind::kChebyshev:
        mo.smoother = mg::SmootherKind::kChebyshev;
        mo.cheby_degree = 3;
        return build(a, mo);
      case Kind::kBlockJacobi:
        break;
    }
    mg::LevelSolve s;
    s.set_block_jacobi(a, partition::contiguous_blocks(a.nrows, 6), 0.6);
    return s;
  }
};

TEST_P(SmootherKinds, EveryStepReducesResidual) {
  const Csr a = poisson2d(10);
  const mg::LevelSolve smoother = make(a);
  std::vector<real> b(100, 1.0), x(100, 0.0);
  real prev = residual_norm(a, b, x);
  for (int step = 0; step < 15; ++step) {
    smooth(smoother, a, b, x);
    const real now = residual_norm(a, b, x);
    EXPECT_LT(now, prev);
    prev = now;
  }
}

TEST_P(SmootherKinds, FixedPointIsExactSolution) {
  // Smoothing at the exact solution must not move it.
  const Csr a = poisson2d(6);
  const mg::LevelSolve smoother = make(a);
  std::vector<real> x_true(36);
  for (idx i = 0; i < 36; ++i) x_true[i] = std::sin(i * 0.3);
  std::vector<real> b(36);
  a.spmv(x_true, b);
  std::vector<real> x = x_true;
  smooth(smoother, a, b, x);
  for (idx i = 0; i < 36; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST_P(SmootherKinds, DampsHighFrequencyFasterThanLow) {
  // The defining property of a smoother (§2 of the paper): one step must
  // reduce the highest-frequency error mode by a much larger factor than
  // the lowest-frequency one.
  const idx n = 32;
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  const Csr a = Csr::from_triplets(n, n, t);
  const mg::LevelSolve smoother = make(a);

  auto damping_of_mode = [&](int k) {
    std::vector<real> e(n), x(n), b(n, 0.0);
    for (idx i = 0; i < n; ++i) {
      e[i] = std::sin(M_PI * k * (i + 1.0) / (n + 1.0));
    }
    x = e;  // error = x - 0
    smooth(smoother, a, b, x);
    return nrm2(x) / nrm2(e);
  };
  const real low = damping_of_mode(1);
  const real high = damping_of_mode(n - 1);
  EXPECT_LT(high, 0.7);
  EXPECT_GT(low, high * 1.5);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SmootherKinds,
                         ::testing::Values(Kind::kJacobi, Kind::kChebyshev,
                                           Kind::kBlockJacobi));

// The one sweep implementation against a textbook loop: x_i += omega *
// (b_i - sum_j a_ij x_j) / a_ii, with the row sum accumulated in ascending
// column order from zero, as the CSR kernels do.
TEST(Jacobi, SweepMatchesTextbookLoopBitwise) {
  const Csr a = poisson2d(12);
  const idx n = a.nrows;
  mg::MgOptions mo;
  mo.smoother = mg::SmootherKind::kJacobi;
  mo.omega = 0.67;
  const mg::LevelSolve s = build(a, mo);
  std::vector<real> b(n), x0(n);
  for (idx i = 0; i < n; ++i) {
    b[i] = std::sin(0.37 * i);
    x0[i] = std::cos(0.11 * i);
  }
  const std::vector<real> d = a.diagonal();
  std::vector<real> want = x0;
  for (idx i = 0; i < n; ++i) {
    real sum = 0;
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      sum += a.vals[k] * x0[a.colidx[k]];
    }
    want[i] += 0.67 * (1 / d[i]) * (b[i] - sum);
  }
  std::vector<real> got = x0;
  smooth(s, a, b, got);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(real)), 0);
}

TEST(BlockJacobi, RejectsOverlappingBlocks) {
  const Csr a = poisson2d(3);
  std::vector<std::vector<idx>> blocks = {{0, 1, 2}, {2, 3, 4},
                                          {5, 6, 7, 8}};
  mg::LevelSolve s;
  EXPECT_THROW(s.set_block_jacobi(a, blocks, 0.6), Error);
}

TEST(BlockJacobi, RejectsIncompleteCover) {
  const Csr a = poisson2d(3);
  std::vector<std::vector<idx>> blocks = {{0, 1, 2}};
  mg::LevelSolve s;
  EXPECT_THROW(s.set_block_jacobi(a, blocks, 0.6), Error);
}

TEST(BlockJacobi, SingleBlockIsDirectSolve) {
  // One block spanning everything: x_new = x + omega*(A^{-1} r); with
  // omega = 1 and x0 = 0 this is the exact solution.
  const Csr a = poisson2d(4);
  mg::LevelSolve smoother;
  smoother.set_block_jacobi(a, partition::contiguous_blocks(16, 1), 1.0);
  std::vector<real> x_true(16, 2.0), b(16), x(16, 0.0);
  a.spmv(x_true, b);
  smooth(smoother, a, b, x);
  for (idx i = 0; i < 16; ++i) EXPECT_NEAR(x[i], 2.0, 1e-11);
}

TEST(BlockJacobi, GraphPartitionedBlocksMatchPaperDensity) {
  const Csr a = poisson2d(20);  // 400 unknowns
  const auto blocks = partition::block_jacobi_blocks(pattern_graph(a), 6);
  // ceil(6 * 400 / 1000) = 3 blocks.
  EXPECT_EQ(blocks.size(), 3u);
  // The default options are the paper's: block Jacobi at that density.
  const mg::LevelSolve smoother = build(a, mg::MgOptions{});
  EXPECT_EQ(smoother.kind, mg::SmootherKind::kBlockJacobi);
  EXPECT_EQ(smoother.blocks, blocks);
  EXPECT_EQ(smoother.factors.size(), 3u);
}

// Column j of the block-Jacobi sweep on k columns is bitwise equal to the
// one-column sweep of that column, at any column count and kernel thread
// count (20 blocks span three kSmootherBlockGrain chunks).
TEST(BlockJacobi, BlockedSweepMatchesSingleSweepBitwise) {
  const Csr a = poisson2d(30);  // 900 unknowns
  const idx n = a.nrows;
  mg::LevelSolve s;
  s.set_block_jacobi(a, partition::contiguous_blocks(n, 20), 0.6);
  const CsrOperator op(a);
  mg::SolveScratch ws;  // reused across widths and thread counts
  for (int k : {1, 3, 8, 16}) {
    MultiVec b(n, k), x0(n, k);
    for (int j = 0; j < k; ++j) {
      for (idx i = 0; i < n; ++i) {
        b.col_data(j)[i] = std::sin(0.37 * i + j);
        x0.col_data(j)[i] = std::cos(0.11 * i - 2.0 * j);
      }
    }
    common::set_kernel_threads(1);
    std::vector<std::vector<real>> ref(k);
    for (int j = 0; j < k; ++j) {
      ref[j].assign(x0.col(j).begin(), x0.col(j).end());
      smooth(s, a, b.col(j), ref[j]);
    }
    for (int threads : {1, 2, 8}) {
      common::set_kernel_threads(threads);
      MultiVec x = x0;
      s.smooth_mv(SerialBackend{}, op, b, x, ws);
      for (int j = 0; j < k; ++j) {
        EXPECT_EQ(std::memcmp(x.col_data(j), ref[j].data(), n * sizeof(real)),
                  0)
            << "k=" << k << " threads=" << threads << " column " << j;
      }
    }
  }
  common::set_kernel_threads(0);
}

TEST(ContiguousBlocks, PartitionExactly) {
  const auto blocks = partition::contiguous_blocks(10, 3);
  idx total = 0;
  for (const auto& b : blocks) total += static_cast<idx>(b.size());
  EXPECT_EQ(total, 10);
  EXPECT_EQ(blocks.size(), 3u);
  // More blocks than elements: degenerate singleton blocks.
  const auto tiny = partition::contiguous_blocks(2, 5);
  EXPECT_EQ(tiny.size(), 2u);
}

}  // namespace
}  // namespace prom::la
