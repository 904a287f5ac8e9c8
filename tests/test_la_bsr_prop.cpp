// Property suite for the node-block (BAIJ-style) kernel layer (la/bsr.h):
// lossless CSR round-trips, bitwise agreement of every blocked row kernel
// with its scalar counterpart (the BSR SpMV preserves CSR's per-scalar-row
// accumulation order, so "agreement" means equality, not tolerance), and
// the thread-count determinism gate of common/parallel.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/bsr.h"
#include "la/csr.h"

namespace prom {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

template <typename Fn>
auto with_threads(int t, const Fn& fn) {
  common::set_kernel_threads(t);
  auto out = fn();
  common::set_kernel_threads(0);
  return out;
}

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << what << ": results differ bitwise";
}

/// Random block matrix written straight into the block arrays: each
/// block row draws `draws_per_row(rng)` block columns (repeats collapse,
/// so rows vary in length and may be empty) and every block entry is
/// `entry(rng)`.
template <class Draws, class Entry>
la::Bsr3 random_bsr(Rng& rng, idx nbrows, idx nbcols,
                    const Draws& draws_per_row, const Entry& entry) {
  la::Bsr3 m;
  m.nbrows = nbrows;
  m.nbcols = nbcols;
  m.browptr.assign(static_cast<std::size_t>(nbrows) + 1, 0);
  std::vector<idx> bcols;
  for (idx i = 0; i < nbrows; ++i) {
    bcols.clear();
    for (idx k = draws_per_row(rng); k > 0; --k) {
      bcols.push_back(static_cast<idx>(rng.next_below(nbcols)));
    }
    std::sort(bcols.begin(), bcols.end());
    bcols.erase(std::unique(bcols.begin(), bcols.end()), bcols.end());
    m.bcolidx.insert(m.bcolidx.end(), bcols.begin(), bcols.end());
    for (std::size_t e = 0; e < bcols.size() * la::Bsr3::kBlockSize; ++e) {
      m.vals.push_back(entry(rng));
    }
    m.browptr[i + 1] = static_cast<nnz_t>(m.bcolidx.size());
  }
  return m;
}

/// Uniform entries in [-0.5, 0.5) and a fixed number of draws per row.
la::Bsr3 random_bsr(Rng& rng, idx nbrows, idx nbcols, idx draws_per_row) {
  return random_bsr(
      rng, nbrows, nbcols, [&](Rng&) { return draws_per_row; },
      [](Rng& r) { return r.next_real() - 0.5; });
}

std::vector<real> random_vec(Rng& rng, idx n) {
  std::vector<real> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_real() - 0.5;
  return x;
}

TEST(BsrRoundTrip, CsrThereAndBackIsLossless) {
  Rng rng(17);
  const la::Bsr3 m = random_bsr(rng, 40, 30, 5);
  const la::Csr s = m.to_csr();
  ASSERT_EQ(s.nrows, m.rows());
  ASSERT_EQ(s.ncols, m.cols());
  ASSERT_EQ(s.nnz(), m.nblocks() * 9);
  const la::Bsr3 back = la::Bsr3::from_csr(s);
  ASSERT_EQ(back.nbrows, m.nbrows);
  ASSERT_EQ(back.nbcols, m.nbcols);
  expect_bitwise_equal(back.browptr, m.browptr, "browptr");
  expect_bitwise_equal(back.bcolidx, m.bcolidx, "bcolidx");
  expect_bitwise_equal(back.vals, m.vals, "vals");
}

TEST(BsrRoundTrip, FromCsrKeepsEveryScalarEntry) {
  Rng rng(18);
  // A scalar matrix with ragged (non-block) sparsity: blocking fills with
  // explicit zeros and must not move any value.
  std::vector<la::Triplet> trip;
  const idx n = 36;
  for (idx i = 0; i < n; ++i) {
    for (int k = 0; k < 4; ++k) {
      trip.push_back({i, static_cast<idx>(rng.next_below(n)),
                      rng.next_real() - 0.5});
    }
  }
  const la::Csr a = la::Csr::from_triplets(n, n, trip);
  const la::Bsr3 m = la::Bsr3::from_csr(a);
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      real aij = 0;
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        if (a.colidx[k] == j) aij = a.vals[k];
      }
      ASSERT_EQ(m.at(i, j), aij) << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(BsrKernels, SpmvMatchesCsrBitwise) {
  Rng rng(19);
  const la::Bsr3 m = random_bsr(rng, 50, 40, 6);
  const la::Csr s = m.to_csr();
  const std::vector<real> x = random_vec(rng, m.cols());
  std::vector<real> yb(static_cast<std::size_t>(m.rows()));
  std::vector<real> ys(yb.size());
  m.spmv(x, yb);
  s.spmv(x, ys);
  expect_bitwise_equal(yb, ys, "spmv");

  // spmv_add on top of an existing vector.
  std::vector<real> zb = random_vec(rng, m.rows());
  std::vector<real> zs = zb;
  m.spmv_add(x, zb);
  for (std::size_t i = 0; i < zs.size(); ++i) zs[i] += ys[i];
  expect_bitwise_equal(zb, zs, "spmv_add");

  // The fused residual: same bits as spmv followed by b - y.
  const std::vector<real> b = random_vec(rng, m.rows());
  std::vector<real> rb(b.size());
  m.residual(b, x, rb);
  std::vector<real> rs(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) rs[i] = b[i] - ys[i];
  expect_bitwise_equal(rb, rs, "residual");
}

/// Ragged random block matrix for the row kernels: several
/// kBlockRowGrain chunks, empty block rows, up to 16 blocks per row, and
/// values over 40 binades so that any change of summation order shows in
/// the bits.
la::Bsr3 ragged_bsr(Rng& rng, idx nbrows, idx nbcols) {
  return random_bsr(
      rng, nbrows, nbcols,
      [](Rng& r) {
        return r.next_below(6) == 0 ? idx{0}
                                    : 1 + static_cast<idx>(r.next_below(16));
      },
      [](Rng& r) {
        const int binade = static_cast<int>(r.next_below(41)) - 20;
        return std::ldexp(2 * r.next_real() - 1, binade);
      });
}

/// The textbook row loop: (A x)[3 i + r] with the row's terms added in
/// ascending block column, then ascending scalar column, from a zero seed.
real brow_times(const la::Bsr3& a, std::span<const real> x, idx i, int r) {
  real sum = 0;
  for (nnz_t k = a.browptr[i]; k < a.browptr[i + 1]; ++k) {
    for (int c = 0; c < 3; ++c) {
      sum += a.vals[static_cast<std::size_t>(k) * 9 + r * 3 + c] *
             x[static_cast<std::size_t>(a.bcolidx[k]) * 3 + c];
    }
  }
  return sum;
}

la::MultiVec random_multivec(Rng& rng, idx n, int k) {
  la::MultiVec m(n, k);
  for (int j = 0; j < k; ++j) {
    for (real& v : m.col(j)) v = rng.next_real() - 0.5;
  }
  return m;
}

bool same_bits(real a, real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(BsrKernels, RowKernelsMatchAscendingRowLoopBitwiseAtEveryWidth) {
  Rng rng(0xB5B);
  const la::Bsr3 a = ragged_bsr(rng, 400, 350);
  // Half of the block rows, shuffled (not ascending).
  std::vector<idx> brows(static_cast<std::size_t>(a.nbrows));
  std::iota(brows.begin(), brows.end(), idx{0});
  for (std::size_t i = brows.size() - 1; i > 0; --i) {
    std::swap(brows[i], brows[rng.next_below(i + 1)]);
  }
  brows.resize(brows.size() / 2);
  std::vector<char> listed(static_cast<std::size_t>(a.nbrows), 0);
  for (idx i : brows) listed[i] = 1;
  for (int k = 1; k <= la::kMaxRhsBlock; ++k) {
    const la::MultiVec x = random_multivec(rng, a.cols(), k);
    const la::MultiVec b = random_multivec(rng, a.rows(), k);
    const la::MultiVec seed = random_multivec(rng, a.rows(), k);
    for (const int threads : kThreadCounts) {
      common::set_kernel_threads(threads);
      la::MultiVec y = seed, r = seed, ys = seed, rs = seed;
      a.spmm(x, y);
      a.residual_mv(b, x, r);
      a.spmm_brows(x, ys, brows);
      a.residual_mv_brows(b, x, rs, brows);
      // The single-vector kernels, on column 0.
      std::vector<real> v(seed.col(0).begin(), seed.col(0).end());
      std::vector<real> va = v, vr = v;
      a.spmv(x.col(0), v);
      a.spmv_add(x.col(0), va);
      a.residual(b.col(0), x.col(0), vr);
      common::set_kernel_threads(0);
      int wrong = 0;
      for (int j = 0; j < k; ++j) {
        for (idx i = 0; i < a.nbrows; ++i) {
          for (int rr = 0; rr < 3; ++rr) {
            const idx s = 3 * i + rr;
            const real ax = brow_times(a, x.col(j), i, rr);
            const real res = b.col(j)[s] - ax;
            const real old = seed.col(j)[s];
            wrong += !same_bits(y.col(j)[s], ax);
            wrong += !same_bits(r.col(j)[s], res);
            wrong += !same_bits(ys.col(j)[s], listed[i] ? ax : old);
            wrong += !same_bits(rs.col(j)[s], listed[i] ? res : old);
            if (j > 0) continue;
            wrong += !same_bits(v[s], ax);
            wrong += !same_bits(va[s], old + ax);
            wrong += !same_bits(vr[s], res);
          }
        }
      }
      ASSERT_EQ(wrong, 0) << "k = " << k << ", threads = " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Thread-count determinism gate: every blocked kernel must produce
// BIT-identical results at 1, 2, and 8 kernel threads.

TEST(BsrDeterminism, KernelsAreThreadCountInvariant) {
  Rng rng(27);
  const la::Bsr3 a = random_bsr(rng, 900, 900, 6);
  const std::vector<real> x = random_vec(rng, a.cols());
  const std::vector<real> b = random_vec(rng, a.rows());

  struct Outputs {
    std::vector<real> spmv, resid;
  };
  auto run = [&] {
    Outputs o;
    o.spmv.resize(static_cast<std::size_t>(a.rows()));
    a.spmv(x, o.spmv);
    o.resid.resize(static_cast<std::size_t>(a.rows()));
    a.residual(b, x, o.resid);
    return o;
  };

  const Outputs ref = with_threads(kThreadCounts[0], run);
  for (std::size_t t = 1; t < std::size(kThreadCounts); ++t) {
    const Outputs got = with_threads(kThreadCounts[t], run);
    expect_bitwise_equal(got.spmv, ref.spmv, "spmv");
    expect_bitwise_equal(got.resid, ref.resid, "residual");
  }
}

}  // namespace
}  // namespace prom
