#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/rng.h"
#include "la/dense.h"

namespace prom::la {
namespace {

/// Random SPD matrix A = B^T B + n*I.
DenseMatrix random_spd(idx n, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix b(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) b(i, j) = rng.next_real() - 0.5;
  }
  DenseMatrix a(n, n);
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      real sum = 0;
      for (idx k = 0; k < n; ++k) sum += b(k, i) * b(k, j);
      a(i, j) = sum + (i == j ? n : real{0});
    }
  }
  return a;
}

TEST(DenseMatrix, MatvecIdentity) {
  const DenseMatrix eye = DenseMatrix::identity(3);
  std::vector<real> x = {1, 2, 3}, y(3);
  eye.matvec(x, y);
  EXPECT_EQ(y, x);
}

TEST(DenseMatrix, MatvecRectangular) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 2) = 4;
  std::vector<real> x = {1, 1, 1}, y(2);
  a.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 4);
}

class LdltSizes : public ::testing::TestWithParam<idx> {};

TEST_P(LdltSizes, SolveRecoversKnownSolution) {
  const idx n = GetParam();
  const DenseMatrix a = random_spd(n, 42 + n);
  // Manufactured solution.
  std::vector<real> x_true(n), b(n), x(n);
  for (idx i = 0; i < n; ++i) x_true[i] = std::sin(i + 1.0);
  a.matvec(x_true, b);
  DenseLdlt ldlt(a);
  ASSERT_TRUE(ldlt.ok());
  ldlt.solve(b, x);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LdltSizes,
                         ::testing::Values(1, 2, 3, 5, 10, 33, 100));

/// Random symmetric, strictly diagonally dominant matrix: SPD at O(n^2)
/// cost, so the blocked-solve sweep can afford n = 700.
DenseMatrix random_dominant(idx n, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = j + 1; i < n; ++i) a(i, j) = a(j, i) = rng.next_real() - 0.5;
    a(j, j) = n;
  }
  return a;
}

bool same_bits(real a, real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The textbook row-oriented substitution, Lx = b then D then L^T, each
// entry accumulated in ascending index order. The reference the solve
// kernel must reproduce bit for bit.
std::vector<real> row_oriented_solve(const DenseMatrix& l,
                                     const std::vector<real>& d,
                                     const std::vector<real>& b) {
  const idx n = l.rows();
  std::vector<real> x(n);
  for (idx i = 0; i < n; ++i) {
    real yi = b[i];
    for (idx k = 0; k < i; ++k) yi -= l(i, k) * x[k];
    x[i] = yi;
  }
  for (idx i = 0; i < n; ++i) x[i] /= d[i];
  for (idx i = n - 1; i >= 0; --i) {
    real xi = x[i];
    for (idx k = i + 1; k < n; ++k) xi -= l(k, i) * x[k];
    x[i] = xi;
  }
  return x;
}

// A = L D L^T with small-integer L and power-of-two D factors exactly, so
// the test knows the factor the solver holds and can run the reference
// substitution on it. Every column of a blocked solve, packed or scalar,
// must match that reference bitwise.
TEST(Ldlt, SolveMatchesRowOrientedSubstitutionBitwise) {
  const idx n = 40;
  Rng rng(17);
  DenseMatrix l = DenseMatrix::identity(n);
  std::vector<real> d(n);
  for (idx j = 0; j < n; ++j) {
    d[j] = std::ldexp(1.0, static_cast<int>(rng.next_real() * 4));
    for (idx i = j + 1; i < n; ++i) {
      l(i, j) = std::floor(rng.next_real() * 5) - 2;
    }
  }
  DenseMatrix a(n, n);
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      for (idx k = 0; k < n; ++k) a(i, j) += l(i, k) * d[k] * l(j, k);
    }
  }
  const DenseLdlt f(a);
  ASSERT_TRUE(f.ok());
  for (int k : {1, 5}) {
    std::vector<real> b(static_cast<std::size_t>(n) * k), x(b.size());
    for (real& v : b) v = rng.next_real() - 0.5;
    f.solve(b, x, k);
    std::vector<real> bj(n);
    for (int j = 0; j < k; ++j) {
      for (idx i = 0; i < n; ++i) {
        bj[i] = b[static_cast<std::size_t>(i) * k + j];
      }
      const std::vector<real> ref = row_oriented_solve(l, d, bj);
      for (idx i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(x[static_cast<std::size_t>(i) * k + j], ref[i]))
            << "k=" << k << " column " << j << " row " << i;
      }
    }
  }
}

class LdltBlocked : public ::testing::TestWithParam<idx> {};

// Column j of a k-column blocked solve is bitwise equal to the k = 1
// solve of that column, for every k the solve stack can pass (odd k and
// k past one kernel pass included).
TEST_P(LdltBlocked, EveryColumnMatchesSingleSolveBitwise) {
  const idx n = GetParam();
  const DenseLdlt f(random_dominant(n, 11 + n));
  ASSERT_TRUE(f.ok());
  Rng rng(5 + n);
  std::vector<real> bj(n), xj(n);
  for (int k = 1; k <= kMaxRhsBlock; ++k) {
    std::vector<real> b(static_cast<std::size_t>(n) * k), x(b.size());
    for (real& v : b) v = rng.next_real() - 0.5;
    f.solve(b, x, k);
    for (int j = 0; j < k; ++j) {
      for (idx i = 0; i < n; ++i) {
        bj[i] = b[static_cast<std::size_t>(i) * k + j];
      }
      f.solve(bj, xj);
      for (idx i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(x[static_cast<std::size_t>(i) * k + j], xj[i]))
            << "n=" << n << " k=" << k << " column " << j << " row " << i;
      }
    }
    // In place (b and x the same span) gives the same bits.
    f.solve(b, b, k);
    ASSERT_EQ(std::memcmp(b.data(), x.data(), b.size() * sizeof(real)), 0)
        << "in-place solve differs at n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LdltBlocked,
                         ::testing::Values(1, 2, 3, 17, 167, 700));

// The MultiVec overload is the same kernel on column-major storage.
TEST(Ldlt, MultiVecSolveMatchesSingleSolveBitwise) {
  const idx n = 40;
  const int k = 11;
  const DenseLdlt f(random_spd(n, 3));
  ASSERT_TRUE(f.ok());
  Rng rng(9);
  MultiVec b(n, k), x(n, k);
  for (int j = 0; j < k; ++j) {
    for (idx i = 0; i < n; ++i) b.col_data(j)[i] = rng.next_real() - 0.5;
  }
  f.solve(b, x);
  std::vector<real> xj(n);
  for (int j = 0; j < k; ++j) {
    f.solve(b.col(j), xj);
    EXPECT_EQ(std::memcmp(x.col_data(j), xj.data(), n * sizeof(real)), 0)
        << "column " << j;
  }
}

TEST(Ldlt, DetectsIndefiniteMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = -1;
  EXPECT_FALSE(DenseLdlt(a).ok());
}

TEST(Ldlt, DetectsSingularMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = a(1, 0) = 1;
  a(1, 1) = 1;  // rank 1
  EXPECT_FALSE(DenseLdlt(a).ok());
}

TEST(Ldlt, SolveOnFailedFactorizationThrows) {
  DenseMatrix a(1, 1);
  a(0, 0) = -1;
  DenseLdlt f(a);
  ASSERT_FALSE(f.ok());
  std::vector<real> b = {1}, x = {0};
  EXPECT_THROW(f.solve(b, x), Error);
  std::vector<real> b3 = {1, 2, 3}, x3(3);
  EXPECT_THROW(f.solve(b3, x3, 3), Error);
  MultiVec bm(1, 2), xm(1, 2);
  EXPECT_THROW(f.solve(bm, xm), Error);
}

TEST(Ldlt, BlockedSolveRejectsMismatchedSizes) {
  const DenseLdlt f(random_spd(4, 1));
  ASSERT_TRUE(f.ok());
  std::vector<real> b(8), x(8), short_x(7);
  EXPECT_THROW(f.solve(b, x, 0), Error);
  EXPECT_THROW(f.solve(b, x, 3), Error);
  EXPECT_THROW(f.solve(b, short_x, 2), Error);
}

TEST(Ldlt, IllConditionedStillAccurate) {
  // Diagonal spread of 1e10 — LDLT of an SPD diagonal-ish matrix.
  const idx n = 20;
  DenseMatrix a(n, n);
  for (idx i = 0; i < n; ++i) a(i, i) = std::pow(10.0, i % 11 - 5);
  for (idx i = 0; i + 1 < n; ++i) {
    const real off = 1e-3 * std::min(a(i, i), a(i + 1, i + 1));
    a(i, i + 1) = a(i + 1, i) = off;
  }
  DenseLdlt f(a);
  ASSERT_TRUE(f.ok());
  std::vector<real> x_true(n, 1.0), b(n), x(n);
  a.matvec(x_true, b);
  f.solve(b, x);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(x[i], 1.0, 1e-8);
}

}  // namespace
}  // namespace prom::la
