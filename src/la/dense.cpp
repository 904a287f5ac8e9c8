#include "la/dense.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/flops.h"
#include "la/simd.h"

namespace prom::la {
namespace {

#ifdef PROM_SIMD_VECTOR_EXT
using Lanes = RealPair;
#else
using Lanes = real;
#endif
constexpr int kLanes = sizeof(Lanes) / sizeof(real);

/// Columns per pass of the blocked LDL^T solve. A pass keeps one
/// accumulator per column live, so 8 columns fill four SSE2 registers and
/// cover the solve service's default block of right-hand sides; wider
/// blocks take several passes.
constexpr int kColsPerPass = 8;

Lanes load_lanes(const real* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store_lanes(real* p, Lanes v) { std::memcpy(p, &v, sizeof(v)); }

/// Entries of an order-n lower triangle, diagonal included.
std::size_t packed_size(idx n) {
  return static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) + 1) / 2;
}

/// One pass of the LDL^T solve over W adjacent columns of the
/// row-interleaved x (row stride k, solved in place): the first P * kLanes
/// columns as packs, the last R one at a time. A pack lane performs the
/// same binary64 operation as the scalar code, so every column goes
/// through exactly the operations of a k = 1 solve. `l` is the packed
/// factor: column c holds rows c..n-1 contiguously.
template <int W>
void ldlt_pass(const real* l, const real* d, idx n, std::size_t k, real* x) {
  constexpr int P = W / kLanes;
  constexpr int R = W % kLanes;
  constexpr int kTail = P * kLanes;
  // Forward L y = b, column-oriented: once y_c is final, subtract its
  // multiple from every later row, walking column c of L contiguously.
  // Row i still receives its subtractions in ascending c. lc[i - c] is
  // L(i, c).
  const real* lc = l;
  for (idx c = 0; c < n; lc += n - c, ++c) {
    const real* yc = x + c * k;
    std::array<Lanes, P> yp;
    std::array<real, R> yr;
    for (int p = 0; p < P; ++p) yp[p] = load_lanes(yc + p * kLanes);
    for (int r = 0; r < R; ++r) yr[r] = yc[kTail + r];
    for (idx i = c + 1; i < n; ++i) {
      const real lic = lc[i - c];
      real* xi = x + i * k;
      for (int p = 0; p < P; ++p) {
        real* xp = xi + p * kLanes;
        store_lanes(xp, load_lanes(xp) - lic * yp[p]);
      }
      for (int r = 0; r < R; ++r) xi[kTail + r] -= lic * yr[r];
    }
  }
  // Diagonal D z = y, then backward L^T x = z as a dot product over
  // column i of L in ascending m, one accumulator per column; the walk
  // runs the packed columns from the last back to the first, and
  // li[m - i] is L(m, i).
  const real* li = l + packed_size(n);
  for (idx i = n - 1; i >= 0; --i) {
    li -= n - i;
    real* xi = x + i * k;
    std::array<Lanes, P> ap;
    std::array<real, R> ar;
    for (int p = 0; p < P; ++p) ap[p] = load_lanes(xi + p * kLanes) / d[i];
    for (int r = 0; r < R; ++r) ar[r] = xi[kTail + r] / d[i];
    for (idx m = i + 1; m < n; ++m) {
      const real lmi = li[m - i];
      const real* xm = x + m * k;
      for (int p = 0; p < P; ++p) ap[p] -= lmi * load_lanes(xm + p * kLanes);
      for (int r = 0; r < R; ++r) ar[r] -= lmi * xm[kTail + r];
    }
    for (int p = 0; p < P; ++p) store_lanes(xi + p * kLanes, ap[p]);
    for (int r = 0; r < R; ++r) xi[kTail + r] = ar[r];
  }
}

template <std::size_t... I>
constexpr auto make_ldlt_passes(std::index_sequence<I...>) {
  return std::array{&ldlt_pass<static_cast<int>(I) + 1>...};
}

/// kLdltPasses[w - 1] solves w columns in one pass.
constexpr auto kLdltPasses =
    make_ldlt_passes(std::make_index_sequence<kColsPerPass>{});

}  // namespace

void DenseMatrix::matvec(std::span<const real> x, std::span<real> y) const {
  PROM_CHECK(static_cast<idx>(x.size()) == cols_ &&
             static_cast<idx>(y.size()) == rows_);
  for (idx i = 0; i < rows_; ++i) y[i] = 0;
  for (idx j = 0; j < cols_; ++j) {
    const real xj = x[j];
    for (idx i = 0; i < rows_; ++i) y[i] += (*this)(i, j) * xj;
  }
  count_flops(2LL * rows_ * cols_);
}

DenseMatrix DenseMatrix::identity(idx n) {
  DenseMatrix m(n, n);
  for (idx i = 0; i < n; ++i) m(i, i) = 1;
  return m;
}

DenseLdlt::DenseLdlt(const DenseMatrix& a)
    : n_(a.rows()), l_(packed_size(a.rows())), d_(a.rows(), real{0}) {
  PROM_CHECK(a.rows() == a.cols());
  const idx n = n_;
  // Column-by-column LDL^T using the lower triangle of `a`. Column j is
  // updated by every earlier column k in ascending k, each a contiguous
  // sweep over rows j..n-1 of both packed columns, so every L(i, j) (and
  // d_j, its row-j entry) takes its subtractions in ascending k.
  real* lj = l_.data();  // packed column j: lj[i - j] is L(i, j)
  for (idx j = 0; j < n; lj += n - j, ++j) {
    for (idx i = j; i < n; ++i) lj[i - j] = a(i, j);
    const real* lk = l_.data();
    for (idx k = 0; k < j; lk += n - k, ++k) {
      const real wk = lk[j - k] * d_[k];  // (L D)(j, k)
      const real* lkj = lk + (j - k);  // lkj[t] is L(j + t, k)
      for (idx t = 0; t < n - j; ++t) lj[t] -= lkj[t] * wk;
    }
    const real dj = lj[0];
    if (!(std::isfinite(dj)) || dj <= real{0}) {
      ok_ = false;
      return;
    }
    d_[j] = dj;
    lj[0] = 1;
    for (idx t = 1; t < n - j; ++t) lj[t] /= dj;
  }
  count_flops(n * static_cast<std::int64_t>(n) * n / 3);
  ok_ = true;
}

void DenseLdlt::solve(std::span<const real> b, std::span<real> x,
                      int k) const {
  PROM_CHECK_MSG(ok_, "DenseLdlt::solve on a failed factorization");
  PROM_CHECK(k >= 1);
  const std::size_t len = static_cast<std::size_t>(n_) * k;
  PROM_CHECK(b.size() == len && x.size() == len);
  if (x.data() != b.data()) std::copy(b.begin(), b.end(), x.begin());
  for (int j0 = 0; j0 < k; j0 += kColsPerPass) {
    const int w = std::min(kColsPerPass, k - j0);
    kLdltPasses[w - 1](l_.data(), d_.data(), n_, k, x.data() + j0);
  }
  count_flops(2LL * n_ * n_ * k);
}

void DenseLdlt::solve(const MultiVec& b, MultiVec& x,
                      std::vector<real>& work) const {
  const int k = b.cols();
  PROM_CHECK(b.rows() == n_ && x.rows() == n_ && x.cols() == k);
  work.resize(static_cast<std::size_t>(n_) * k);
  for (int j = 0; j < k; ++j) {
    const real* bj = b.col_data(j);
    for (idx i = 0; i < n_; ++i) {
      work[static_cast<std::size_t>(i) * k + j] = bj[i];
    }
  }
  solve(work, work, k);
  for (int j = 0; j < k; ++j) {
    real* xj = x.col_data(j);
    for (idx i = 0; i < n_; ++i) {
      xj[i] = work[static_cast<std::size_t>(i) * k + j];
    }
  }
}

DenseLu::DenseLu(const DenseMatrix& a)
    : n_(a.rows()), lu_(a), piv_(static_cast<std::size_t>(a.rows())) {
  PROM_CHECK(a.rows() == a.cols());
  const idx n = n_;
  for (idx k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k at or below the
    // diagonal.
    idx p = k;
    real pmax = std::fabs(lu_(k, k));
    for (idx i = k + 1; i < n; ++i) {
      const real v = std::fabs(lu_(i, k));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    piv_[k] = p;
    if (!(std::isfinite(pmax)) || pmax == real{0}) {
      ok_ = false;
      return;
    }
    if (p != k) {
      for (idx j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
    }
    const real pivot = lu_(k, k);
    for (idx i = k + 1; i < n; ++i) {
      const real lik = lu_(i, k) / pivot;
      lu_(i, k) = lik;
      for (idx j = k + 1; j < n; ++j) lu_(i, j) -= lik * lu_(k, j);
    }
  }
  count_flops(2LL * n * n * n / 3);
  ok_ = true;
}

void DenseLu::solve(std::span<const real> b, std::span<real> x) const {
  PROM_CHECK_MSG(ok_, "DenseLu::solve on a failed factorization");
  PROM_CHECK(static_cast<idx>(b.size()) == n_ &&
             static_cast<idx>(x.size()) == n_);
  const idx n = n_;
  for (idx i = 0; i < n; ++i) x[i] = b[i];
  // Apply the pivot row swaps in factorization order.
  for (idx k = 0; k < n; ++k) {
    if (piv_[k] != k) std::swap(x[k], x[piv_[k]]);
  }
  // Forward solve L y = P b (unit diagonal).
  for (idx i = 0; i < n; ++i) {
    real yi = x[i];
    for (idx k = 0; k < i; ++k) yi -= lu_(i, k) * x[k];
    x[i] = yi;
  }
  // Backward solve U x = y.
  for (idx i = n - 1; i >= 0; --i) {
    real xi = x[i];
    for (idx k = i + 1; k < n; ++k) xi -= lu_(i, k) * x[k];
    x[i] = xi / lu_(i, i);
  }
  count_flops(2LL * n * n);
}

}  // namespace prom::la
