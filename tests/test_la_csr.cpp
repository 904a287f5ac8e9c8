#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "la/csr.h"
#include "la/vec.h"

namespace prom::la {
namespace {

Csr random_sparse(idx nrows, idx ncols, idx nnz_target, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  for (idx k = 0; k < nnz_target; ++k) {
    t.push_back({static_cast<idx>(rng.next_below(nrows)),
                 static_cast<idx>(rng.next_below(ncols)),
                 rng.next_real() - 0.5});
  }
  return Csr::from_triplets(nrows, ncols, t);
}

std::vector<real> random_vec(idx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> v(static_cast<std::size_t>(n));
  for (real& x : v) x = rng.next_real() - 0.5;
  return v;
}

/// Dense reference SpMV.
std::vector<real> dense_spmv(const Csr& a, std::span<const real> x) {
  const std::vector<real> d = a.to_dense_rowmajor();
  std::vector<real> y(static_cast<std::size_t>(a.nrows), 0);
  for (idx i = 0; i < a.nrows; ++i) {
    for (idx j = 0; j < a.ncols; ++j) {
      y[i] += d[static_cast<std::size_t>(i) * a.ncols + j] * x[j];
    }
  }
  return y;
}

TEST(Csr, FromTripletsSumsDuplicates) {
  std::vector<Triplet> t = {{0, 0, 1.0}, {0, 0, 2.0}, {1, 2, 5.0}};
  const Csr a = Csr::from_triplets(2, 3, t);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
}

TEST(Csr, ColumnsSortedWithinRows) {
  std::vector<Triplet> t = {{0, 5, 1}, {0, 1, 1}, {0, 3, 1}};
  const Csr a = Csr::from_triplets(1, 6, t);
  EXPECT_EQ(a.colidx, (std::vector<idx>{1, 3, 5}));
}

TEST(Csr, EmptyRowsHandled) {
  std::vector<Triplet> t = {{3, 0, 1.0}};
  const Csr a = Csr::from_triplets(5, 2, t);
  EXPECT_EQ(a.nnz(), 1);
  std::vector<real> y(5);
  a.spmv(std::vector<real>{2, 0}, y);
  EXPECT_EQ(y, (std::vector<real>{0, 0, 0, 2, 0}));
}

class CsrRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrRandom, SpmvMatchesDense) {
  const Csr a = random_sparse(17, 23, 120, GetParam());
  const std::vector<real> x = random_vec(23, GetParam() + 1);
  std::vector<real> y(17);
  a.spmv(x, y);
  const std::vector<real> ref = dense_spmv(a, x);
  for (idx i = 0; i < 17; ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
}

TEST_P(CsrRandom, TransposeIsInvolutionAndConsistent) {
  const Csr a = random_sparse(11, 7, 40, GetParam());
  const Csr at = a.transposed();
  EXPECT_EQ(at.nrows, 7);
  EXPECT_EQ(at.ncols, 11);
  const Csr att = at.transposed();
  EXPECT_EQ(att.to_dense_rowmajor(), a.to_dense_rowmajor());
  // spmv_transpose(a) == spmv(at)
  const std::vector<real> x = random_vec(11, GetParam() + 3);
  std::vector<real> y1(7), y2(7);
  a.spmv_transpose(x, y1);
  at.spmv(x, y2);
  for (idx i = 0; i < 7; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST_P(CsrRandom, SpgemmMatchesDense) {
  const Csr a = random_sparse(8, 12, 40, GetParam());
  const Csr b = random_sparse(12, 6, 40, GetParam() + 7);
  const Csr c = spgemm(a, b);
  const auto da = a.to_dense_rowmajor();
  const auto db = b.to_dense_rowmajor();
  const auto dc = c.to_dense_rowmajor();
  for (idx i = 0; i < 8; ++i) {
    for (idx j = 0; j < 6; ++j) {
      real ref = 0;
      for (idx k = 0; k < 12; ++k) {
        ref += da[static_cast<std::size_t>(i) * 12 + k] *
               db[static_cast<std::size_t>(k) * 6 + j];
      }
      EXPECT_NEAR(dc[static_cast<std::size_t>(i) * 6 + j], ref, 1e-12);
    }
  }
}

TEST_P(CsrRandom, GalerkinProductSymmetricForSymmetricA) {
  // A = S + S^T (symmetric), R random rectangular; R A R^T symmetric.
  const Csr s = random_sparse(10, 10, 50, GetParam());
  Csr a;
  {
    std::vector<Triplet> t;
    for (idx i = 0; i < 10; ++i) {
      for (nnz_t k = s.rowptr[i]; k < s.rowptr[i + 1]; ++k) {
        t.push_back({i, s.colidx[k], s.vals[k]});
        t.push_back({s.colidx[k], i, s.vals[k]});
      }
    }
    a = Csr::from_triplets(10, 10, t);
  }
  const Csr r = random_sparse(4, 10, 20, GetParam() + 11);
  const Csr coarse = galerkin_product(r, a);
  EXPECT_EQ(coarse.nrows, 4);
  EXPECT_EQ(coarse.ncols, 4);
  EXPECT_LT(coarse.symmetry_error(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 99u));

TEST(Csr, Identity) {
  const Csr eye = Csr::identity(4);
  std::vector<real> x = {1, 2, 3, 4}, y(4);
  eye.spmv(x, y);
  EXPECT_EQ(y, x);
}

TEST(Csr, DiagonalExtraction) {
  std::vector<Triplet> t = {{0, 0, 2}, {1, 0, 7}, {2, 2, -3}};
  const Csr a = Csr::from_triplets(3, 3, t);
  EXPECT_EQ(a.diagonal(), (std::vector<real>{2, 0, -3}));
}

TEST(Csr, SymmetryError) {
  std::vector<Triplet> t = {{0, 1, 2.0}, {1, 0, 2.5}};
  const Csr a = Csr::from_triplets(2, 2, t);
  EXPECT_NEAR(a.symmetry_error(), 0.5, 1e-15);
}

TEST(Csr, DropSmallKeepsDiagonal) {
  std::vector<Triplet> t = {{0, 0, 1e-12}, {0, 1, 1.0}, {1, 0, 1e-14}};
  const Csr a = Csr::from_triplets(2, 2, t);
  const Csr b = drop_small(a, 1e-10);
  EXPECT_DOUBLE_EQ(b.at(0, 0), 1e-12);  // diagonal kept
  EXPECT_DOUBLE_EQ(b.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(b.at(1, 0), 0.0);  // off-diagonal dropped
}

TEST(Csr, OutOfRangeTripletThrows) {
  std::vector<Triplet> t = {{0, 5, 1.0}};
  EXPECT_THROW(Csr::from_triplets(2, 2, t), Error);
}

}  // namespace
}  // namespace prom::la
