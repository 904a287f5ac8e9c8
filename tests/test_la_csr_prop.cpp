// Property-based randomized tests for the CSR algebra (ISSUE 1 satellite):
// seeded-RNG triplet soups checked against dense references. These are the
// hardening layer under the threaded kernel work — every property must
// hold for arbitrary sparsity patterns, duplicate entries, empty rows and
// rectangular shapes, independent of how the kernels are parallelized.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "la/csr.h"

namespace prom::la {
namespace {

struct RandomProblem {
  idx nrows;
  idx ncols;
  std::vector<Triplet> triplets;
  std::vector<real> dense;  // row-major nrows x ncols reference
};

/// Random triplet soup with duplicates; the dense reference accumulates
/// the same entries, so `from_triplets` duplicate-summing is exercised.
RandomProblem random_problem(Rng& rng, idx max_dim = 40) {
  RandomProblem p;
  p.nrows = 1 + static_cast<idx>(rng.next_below(max_dim));
  p.ncols = 1 + static_cast<idx>(rng.next_below(max_dim));
  const std::size_t ntrip = rng.next_below(
      4 * static_cast<std::uint64_t>(p.nrows) * p.ncols / 3 + 1);
  p.dense.assign(static_cast<std::size_t>(p.nrows) * p.ncols, real{0});
  p.triplets.reserve(ntrip);
  for (std::size_t t = 0; t < ntrip; ++t) {
    const idx i = static_cast<idx>(rng.next_below(p.nrows));
    const idx j = static_cast<idx>(rng.next_below(p.ncols));
    const real v = 2 * rng.next_real() - 1;
    p.triplets.push_back({i, j, v});
    p.dense[static_cast<std::size_t>(i) * p.ncols + j] += v;
  }
  return p;
}

std::vector<real> random_vector(Rng& rng, idx n) {
  std::vector<real> x(static_cast<std::size_t>(n));
  for (real& v : x) v = 2 * rng.next_real() - 1;
  return x;
}

constexpr int kTrials = 200;
constexpr real kTol = 1e-12;

TEST(CsrProperty, FromTripletsMatchesDenseAccumulation) {
  Rng rng(0xC5511);
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomProblem p = random_problem(rng);
    const Csr m = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
    ASSERT_EQ(m.nrows, p.nrows);
    ASSERT_EQ(m.ncols, p.ncols);
    const std::vector<real> got = m.to_dense_rowmajor();
    ASSERT_EQ(got.size(), p.dense.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      // Both sides accumulate the same values; ordering may differ, so
      // compare with a tolerance scaled to the duplicate count.
      ASSERT_NEAR(got[k], p.dense[k], 1e-13 * (p.triplets.size() + 1))
          << "trial " << trial << " flat index " << k;
    }
    // Rows must be sorted and duplicate-free.
    for (idx i = 0; i < m.nrows; ++i) {
      for (nnz_t k = m.rowptr[i] + 1; k < m.rowptr[i + 1]; ++k) {
        ASSERT_LT(m.colidx[k - 1], m.colidx[k]);
      }
    }
  }
}

/// Test-local reference for from_triplets' documented summation order: a
/// stable sort by (row, col), then each run of duplicates summed from a
/// zero seed in emission order.
Csr reference_from_triplets(idx nrows, idx ncols, std::vector<Triplet> t) {
  std::stable_sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  Csr m;
  m.nrows = nrows;
  m.ncols = ncols;
  m.rowptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  for (std::size_t k = 0; k < t.size();) {
    const idx row = t[k].row, col = t[k].col;
    real sum = 0;
    for (; k < t.size() && t[k].row == row && t[k].col == col; ++k) {
      sum += t[k].value;
    }
    m.colidx.push_back(col);
    m.vals.push_back(sum);
    ++m.rowptr[row + 1];
  }
  for (idx i = 0; i < nrows; ++i) m.rowptr[i + 1] += m.rowptr[i];
  return m;
}

TEST(CsrProperty, FromTripletsMatchesStableSortReferenceBitwise) {
  Rng rng(0x7219);
  for (int trial = 0; trial < kTrials; ++trial) {
    const idx nrows = 1 + static_cast<idx>(rng.next_below(60));
    const idx ncols = 1 + static_cast<idx>(rng.next_below(60));
    // A small pool of positions in a few rows: heavy duplicates, and the
    // rows outside the pool stay empty.
    const idx npos = 1 + static_cast<idx>(rng.next_below(12));
    const idx nused = 1 + static_cast<idx>(rng.next_below(nrows));
    std::vector<std::pair<idx, idx>> pos;
    for (idx q = 0; q < npos; ++q) {
      pos.emplace_back(static_cast<idx>(rng.next_below(nused)),
                       static_cast<idx>(rng.next_below(ncols)));
    }
    std::vector<Triplet> t;
    const std::size_t ntrip = rng.next_below(400);
    for (std::size_t k = 0; k < ntrip; ++k) {
      const auto [i, j] = pos[rng.next_below(pos.size())];
      // Magnitudes over 16 decades, so another summation order would
      // change the rounded sums.
      const real v = (2 * rng.next_real() - 1) *
                     std::pow(10.0, static_cast<int>(rng.next_below(17)) - 8);
      t.push_back({i, j, v});
    }
    const Csr got = Csr::from_triplets(nrows, ncols, t);
    const Csr ref = reference_from_triplets(nrows, ncols, t);
    ASSERT_EQ(got.nrows, nrows);
    ASSERT_EQ(got.ncols, ncols);
    ASSERT_EQ(got.rowptr, ref.rowptr) << "trial " << trial;
    ASSERT_EQ(got.colidx, ref.colidx) << "trial " << trial;
    ASSERT_EQ(got.vals.size(), ref.vals.size());
    EXPECT_EQ(std::memcmp(got.vals.data(), ref.vals.data(),
                          got.vals.size() * sizeof(real)),
              0)
        << "trial " << trial;
  }
}

TEST(CsrProperty, FromTripletsRejectsOutOfRangeTriplet) {
  const std::vector<Triplet> bad_col = {{0, 0, 1.0}, {1, 3, 1.0}};
  EXPECT_THROW(Csr::from_triplets(2, 3, bad_col), Error);
  const std::vector<Triplet> bad_row = {{2, 0, 1.0}};
  EXPECT_THROW(Csr::from_triplets(2, 3, bad_row), Error);
  const std::vector<Triplet> negative = {{0, -1, 1.0}};
  EXPECT_THROW(Csr::from_triplets(2, 3, negative), Error);
}

TEST(CsrProperty, SpmvMatchesDenseMatvec) {
  Rng rng(0x5917);
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomProblem p = random_problem(rng);
    const Csr m = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
    const std::vector<real> x = random_vector(rng, p.ncols);
    std::vector<real> y(static_cast<std::size_t>(p.nrows));
    m.spmv(x, y);
    for (idx i = 0; i < p.nrows; ++i) {
      real want = 0;
      for (idx j = 0; j < p.ncols; ++j) {
        want += p.dense[static_cast<std::size_t>(i) * p.ncols + j] * x[j];
      }
      ASSERT_NEAR(y[i], want, kTol * (p.triplets.size() + 1))
          << "trial " << trial << " row " << i;
    }

    // spmv_add must add exactly one spmv on top of the seed vector.
    std::vector<real> y2 = random_vector(rng, p.nrows);
    const std::vector<real> y2_before = y2;
    m.spmv_add(x, y2);
    for (idx i = 0; i < p.nrows; ++i) {
      ASSERT_NEAR(y2[i] - y2_before[i], y[i], kTol * (p.triplets.size() + 1));
    }
  }
}

TEST(CsrProperty, SpmvTransposeMatchesDenseMatvec) {
  Rng rng(0x7A57E);
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomProblem p = random_problem(rng);
    const Csr m = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
    const std::vector<real> x = random_vector(rng, p.nrows);
    std::vector<real> y(static_cast<std::size_t>(p.ncols));
    m.spmv_transpose(x, y);
    for (idx j = 0; j < p.ncols; ++j) {
      real want = 0;
      for (idx i = 0; i < p.nrows; ++i) {
        want += p.dense[static_cast<std::size_t>(i) * p.ncols + j] * x[i];
      }
      ASSERT_NEAR(y[j], want, kTol * (p.triplets.size() + 1))
          << "trial " << trial << " col " << j;
    }
  }
}

TEST(CsrProperty, TransposeRoundTripIsExact) {
  Rng rng(0x1207);
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomProblem p = random_problem(rng);
    const Csr m = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
    const Csr tt = m.transposed().transposed();
    ASSERT_EQ(tt.nrows, m.nrows);
    ASSERT_EQ(tt.ncols, m.ncols);
    ASSERT_EQ(tt.rowptr, m.rowptr);
    ASSERT_EQ(tt.colidx, m.colidx);
    ASSERT_EQ(tt.vals, m.vals);  // permutation only — bitwise round trip

    // And A^T x == spmv_transpose(A, x) exactly up to summation order.
    const std::vector<real> x = random_vector(rng, p.nrows);
    std::vector<real> via_t(static_cast<std::size_t>(p.ncols));
    std::vector<real> via_kernel(static_cast<std::size_t>(p.ncols));
    m.transposed().spmv(x, via_t);
    m.spmv_transpose(x, via_kernel);
    for (idx j = 0; j < p.ncols; ++j) {
      ASSERT_NEAR(via_t[j], via_kernel[j], kTol * (p.triplets.size() + 1));
    }
  }
}

TEST(CsrProperty, SymmetryErrorZeroOnSymmetrizedInput) {
  Rng rng(0x5E44);
  for (int trial = 0; trial < kTrials; ++trial) {
    RandomProblem p = random_problem(rng);
    // Symmetrize: emit every triplet mirrored. The (i,j) and (j,i) slots
    // then receive the same values in the same emission order, and
    // from_triplets sums duplicates in emission order, so the mirrored
    // slots are bitwise equal.
    const idx n = std::max(p.nrows, p.ncols);
    std::vector<Triplet> sym;
    sym.reserve(2 * p.triplets.size());
    for (const Triplet& t : p.triplets) {
      sym.push_back(t);
      sym.push_back({t.col, t.row, t.value});
    }
    const Csr m = Csr::from_triplets(n, n, sym);
    EXPECT_EQ(m.symmetry_error(), 0.0) << "trial " << trial;

    // A generic random square matrix, by contrast, should not be
    // symmetric (sanity that the check can fail).
    if (p.nrows == p.ncols && !p.triplets.empty()) {
      const Csr plain = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
      const std::vector<real> d = plain.to_dense_rowmajor();
      real asym = 0;
      for (idx i = 0; i < p.nrows; ++i) {
        for (idx j = 0; j < p.ncols; ++j) {
          asym = std::max(asym,
                          std::fabs(d[static_cast<std::size_t>(i) * p.ncols +
                                      j] -
                                    d[static_cast<std::size_t>(j) * p.ncols +
                                      i]));
        }
      }
      EXPECT_NEAR(plain.symmetry_error(), asym, kTol);
    }
  }
}

TEST(CsrProperty, SpgemmMatchesDenseProduct) {
  Rng rng(0x69E44);
  for (int trial = 0; trial < 60; ++trial) {
    const RandomProblem pa = random_problem(rng, 24);
    RandomProblem pb = random_problem(rng, 24);
    // Force compatible shapes: B is (A.ncols x pb.ncols).
    for (Triplet& t : pb.triplets) t.row %= pa.ncols;
    pb.nrows = pa.ncols;
    const Csr a = Csr::from_triplets(pa.nrows, pa.ncols, pa.triplets);
    const Csr b = Csr::from_triplets(pb.nrows, pb.ncols, pb.triplets);
    const Csr c = spgemm(a, b);
    const std::vector<real> da = a.to_dense_rowmajor();
    const std::vector<real> db = b.to_dense_rowmajor();
    const std::vector<real> dc = c.to_dense_rowmajor();
    for (idx i = 0; i < a.nrows; ++i) {
      for (idx j = 0; j < b.ncols; ++j) {
        real want = 0;
        for (idx k = 0; k < a.ncols; ++k) {
          want += da[static_cast<std::size_t>(i) * a.ncols + k] *
                  db[static_cast<std::size_t>(k) * b.ncols + j];
        }
        ASSERT_NEAR(dc[static_cast<std::size_t>(i) * c.ncols + j], want,
                    1e-11)
            << "trial " << trial << " (" << i << ", " << j << ")";
      }
    }
  }
}

// ---- row kernels at every column count ------------------------------------

/// Ragged random matrix for the row kernels: several kRowGrain chunks,
/// empty rows, row lengths up to 48, and values over 40 binades so that
/// any change of summation order shows in the bits.
Csr ragged_matrix(Rng& rng, idx nrows, idx ncols) {
  std::vector<Triplet> t;
  for (idx i = 0; i < nrows; ++i) {
    const idx len =
        rng.next_below(6) == 0 ? 0 : 1 + static_cast<idx>(rng.next_below(48));
    for (idx q = 0; q < len; ++q) {
      const int binade = static_cast<int>(rng.next_below(41)) - 20;
      t.push_back({i, static_cast<idx>(rng.next_below(ncols)),
                   std::ldexp(2 * rng.next_real() - 1, binade)});
    }
  }
  return Csr::from_triplets(nrows, ncols, t);
}

/// The textbook row loop: (A x)[i] with the row's terms added in ascending
/// column order from a zero seed.
real row_times(const Csr& a, std::span<const real> x, idx i) {
  real sum = 0;
  for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
    sum += a.vals[k] * x[a.colidx[k]];
  }
  return sum;
}

MultiVec random_multivec(Rng& rng, idx n, int k) {
  MultiVec m(n, k);
  for (int j = 0; j < k; ++j) {
    for (real& v : m.col(j)) v = 2 * rng.next_real() - 1;
  }
  return m;
}

/// Half of the rows of an n-row matrix, shuffled (not ascending).
std::vector<idx> shuffled_half(Rng& rng, idx n) {
  std::vector<idx> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), idx{0});
  for (std::size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.next_below(i + 1)]);
  }
  rows.resize(rows.size() / 2);
  return rows;
}

bool same_bits(real a, real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(CsrProperty, RowKernelsMatchAscendingRowLoopBitwiseAtEveryWidth) {
  Rng rng(0xB10C);
  const Csr a = ragged_matrix(rng, 1000, 900);
  const std::vector<idx> rows = shuffled_half(rng, a.nrows);
  std::vector<char> listed(static_cast<std::size_t>(a.nrows), 0);
  for (idx i : rows) listed[i] = 1;
  for (int k = 1; k <= kMaxRhsBlock; ++k) {
    const MultiVec x = random_multivec(rng, a.ncols, k);
    const MultiVec b = random_multivec(rng, a.nrows, k);
    const MultiVec seed = random_multivec(rng, a.nrows, k);
    for (const int threads : {1, 2, 8}) {
      common::set_kernel_threads(threads);
      MultiVec y = seed, r = seed, ys = seed, rs = seed;
      a.spmm(x, y);
      a.residual_mv(b, x, r);
      a.spmm_rows(x, ys, rows);
      a.residual_mv_rows(b, x, rs, rows);
      // The single-vector kernels, on column 0.
      std::vector<real> v(seed.col(0).begin(), seed.col(0).end());
      std::vector<real> va = v, vr = v;
      a.spmv(x.col(0), v);
      a.spmv_add(x.col(0), va);
      a.residual(b.col(0), x.col(0), vr);
      common::set_kernel_threads(0);
      int wrong = 0;
      for (int j = 0; j < k; ++j) {
        for (idx i = 0; i < a.nrows; ++i) {
          const real ax = row_times(a, x.col(j), i);
          const real res = b.col(j)[i] - ax;
          const real old = seed.col(j)[i];
          wrong += !same_bits(y.col(j)[i], ax);
          wrong += !same_bits(r.col(j)[i], res);
          wrong += !same_bits(ys.col(j)[i], listed[i] ? ax : old);
          wrong += !same_bits(rs.col(j)[i], listed[i] ? res : old);
          if (j > 0) continue;
          wrong += !same_bits(v[i], ax);
          wrong += !same_bits(va[i], old + ax);
          wrong += !same_bits(vr[i], res);
        }
      }
      ASSERT_EQ(wrong, 0) << "k = " << k << ", threads = " << threads;
    }
  }
}

}  // namespace
}  // namespace prom::la
