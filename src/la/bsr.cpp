#include "la/bsr.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.h"
#include "la/row_passes.h"

namespace prom::la {
namespace {

using namespace detail;

/// Block rows per parallel chunk. A fixed constant: the chunk decomposition
/// is part of the bit-determinism contract (common/parallel.h), so it may
/// depend on the matrix but never on the thread count. 128 block rows of
/// BS=3 cover ~the same scalar span as la/csr.cpp's kRowGrain.
constexpr idx kBlockRowGrain = 128;

/// Columns per pass of the block-row kernel: a pass keeps K x BS
/// accumulators in registers. For BS = 3 on the elasticity box (n = 16,
/// one thread) at k = 8, two 4-wide passes (12 accumulators) ran as fast
/// as or faster than one 8-wide pass, whose 24 accumulators spill next to
/// the 9 block values, and mostly faster than four 2-wide passes over the
/// block structure.
constexpr int kPassWidth = 4;

/// One pass over block rows brows[tb..te) (block rows tb..te when
/// `brows` is null) for the K columns j0..j0+K. Each scalar row of each
/// column adds its terms in ascending block-column, then ascending
/// scalar-column order from a zero seed — the scalar CSR walk of the same
/// row, and the order of the K = 1 pass, so column j of any call is
/// bitwise the single-vector product.
template <int BS, int K, RowOut Out>
nnz_t brows_pass(const Bsr<BS>& a, const Cols& p, int j0, const idx* brows,
                 idx tb, idx te) {
  constexpr int kBlockSize = BS * BS;
  const real* x[K];
  const real* b[K];
  real* y[K];
  for (int j = 0; j < K; ++j) {
    x[j] = p.x[j0 + j];
    b[j] = p.b[j0 + j];
    y[j] = p.y[j0 + j];
  }
  const nnz_t* browptr = a.browptr.data();
  const idx* bcolidx = a.bcolidx.data();
  const real* vals = a.vals.data();
  nnz_t visited = 0;
  for (idx t = tb; t < te; ++t) {
    const idx i = brows != nullptr ? brows[t] : t;
    real acc[K][BS] = {};
    for (nnz_t k = browptr[i]; k < browptr[i + 1]; ++k) {
      const real* blk = vals + static_cast<std::size_t>(k) * kBlockSize;
      const std::size_t xoff = static_cast<std::size_t>(bcolidx[k]) * BS;
      for (int j = 0; j < K; ++j) {
        const real* xj = x[j] + xoff;
        for (int r = 0; r < BS; ++r) {
          for (int c = 0; c < BS; ++c) acc[j][r] += blk[r * BS + c] * xj[c];
        }
      }
    }
    const std::size_t base = static_cast<std::size_t>(i) * BS;
    for (int j = 0; j < K; ++j) {
      for (int r = 0; r < BS; ++r) store<Out>(y[j], b[j], base + r, acc[j][r]);
    }
    visited += browptr[i + 1] - browptr[i];
  }
  return visited;
}

template <int BS, RowOut Out, std::size_t... I>
constexpr std::array<PassFn<Bsr<BS>>, sizeof...(I)> make_passes(
    std::index_sequence<I...>) {
  return {&brows_pass<BS, static_cast<int>(I) + 1, Out>...};
}

/// The block-row kernel behind every product: k columns of p over the
/// listed block rows (all block rows in order when `brows` is null).
template <int BS, RowOut Out>
void run_brows(const Bsr<BS>& a, const Cols& p, int k, const idx* brows,
               idx n) {
  static constexpr auto kPasses =
      make_passes<BS, Out>(std::make_index_sequence<kPassWidth>{});
  run_passes(a, kPasses, p, k, brows, n, kBlockRowGrain,
             2 * Bsr<BS>::kBlockSize, Out == RowOut::kResidual ? BS : 0);
}

template <int BS>
void check_shapes(const Bsr<BS>& a, std::span<const real> x,
                  std::span<const real> y) {
  PROM_CHECK(static_cast<idx>(x.size()) == a.cols() &&
             static_cast<idx>(y.size()) == a.rows());
}

template <int BS>
void check_mv_shapes(const Bsr<BS>& a, const MultiVec& x, const MultiVec& y) {
  PROM_CHECK(x.rows() == a.cols() && y.rows() == a.rows() &&
             x.cols() == y.cols() && x.cols() >= 1);
}

}  // namespace

template <int BS>
void Bsr<BS>::spmv(std::span<const real> x, std::span<real> y) const {
  check_shapes(*this, x, y);
  run_brows<BS, RowOut::kSet>(*this, one_col(x, y), 1, nullptr, nbrows);
}

template <int BS>
void Bsr<BS>::spmv_add(std::span<const real> x, std::span<real> y) const {
  check_shapes(*this, x, y);
  run_brows<BS, RowOut::kAdd>(*this, one_col(x, y), 1, nullptr, nbrows);
}

template <int BS>
void Bsr<BS>::residual(std::span<const real> b, std::span<const real> x,
                       std::span<real> r) const {
  check_shapes(*this, x, r);
  PROM_CHECK(static_cast<idx>(b.size()) == rows());
  run_brows<BS, RowOut::kResidual>(*this, one_col(x, r, b), 1, nullptr,
                                   nbrows);
}

template <int BS>
void Bsr<BS>::spmm(const MultiVec& x, MultiVec& y) const {
  check_mv_shapes(*this, x, y);
  run_brows<BS, RowOut::kSet>(*this, mv_cols(x, y), x.cols(), nullptr,
                              nbrows);
}

template <int BS>
void Bsr<BS>::residual_mv(const MultiVec& b, const MultiVec& x,
                          MultiVec& r) const {
  check_mv_shapes(*this, x, r);
  PROM_CHECK(b.rows() == rows() && b.cols() == x.cols());
  run_brows<BS, RowOut::kResidual>(*this, mv_cols(x, r, &b), x.cols(),
                                   nullptr, nbrows);
}

template <int BS>
void Bsr<BS>::spmm_brows(const MultiVec& x, MultiVec& y,
                         std::span<const idx> brows) const {
  check_mv_shapes(*this, x, y);
  run_brows<BS, RowOut::kSet>(*this, mv_cols(x, y), x.cols(), brows.data(),
                              static_cast<idx>(brows.size()));
}

template <int BS>
void Bsr<BS>::residual_mv_brows(const MultiVec& b, const MultiVec& x,
                                MultiVec& r, std::span<const idx> brows) const {
  check_mv_shapes(*this, x, r);
  PROM_CHECK(b.rows() == rows() && b.cols() == x.cols());
  run_brows<BS, RowOut::kResidual>(*this, mv_cols(x, r, &b), x.cols(),
                                   brows.data(),
                                   static_cast<idx>(brows.size()));
}

template <int BS>
real Bsr<BS>::at(idx i, idx j) const {
  PROM_CHECK(i >= 0 && i < rows() && j >= 0 && j < cols());
  const idx bi = i / BS, bj = j / BS;
  const auto begin = bcolidx.begin() + browptr[bi];
  const auto end = bcolidx.begin() + browptr[bi + 1];
  const auto it = std::lower_bound(begin, end, bj);
  if (it == end || *it != bj) return 0;
  const std::size_t k = static_cast<std::size_t>(it - bcolidx.begin());
  return vals[k * kBlockSize + (i % BS) * BS + (j % BS)];
}

template <int BS>
Csr Bsr<BS>::to_csr() const {
  Csr m;
  m.nrows = rows();
  m.ncols = cols();
  m.rowptr.assign(static_cast<std::size_t>(m.nrows) + 1, 0);
  for (idx i = 0; i < nbrows; ++i) {
    const nnz_t row_blocks = browptr[i + 1] - browptr[i];
    for (int r = 0; r < BS; ++r) {
      m.rowptr[static_cast<std::size_t>(i) * BS + r + 1] = row_blocks * BS;
    }
  }
  for (idx i = 0; i < m.nrows; ++i) m.rowptr[i + 1] += m.rowptr[i];
  m.colidx.resize(static_cast<std::size_t>(m.rowptr[m.nrows]));
  m.vals.resize(m.colidx.size());
  for (idx i = 0; i < nbrows; ++i) {
    for (int r = 0; r < BS; ++r) {
      nnz_t pos = m.rowptr[static_cast<std::size_t>(i) * BS + r];
      for (nnz_t k = browptr[i]; k < browptr[i + 1]; ++k) {
        const real* blk =
            vals.data() + static_cast<std::size_t>(k) * kBlockSize;
        for (int c = 0; c < BS; ++c) {
          m.colidx[pos] = bcolidx[k] * BS + c;
          m.vals[pos] = blk[r * BS + c];
          ++pos;
        }
      }
    }
  }
  return m;
}

template <int BS>
Bsr<BS> Bsr<BS>::from_csr(const Csr& a) {
  PROM_CHECK_MSG(a.nrows % BS == 0 && a.ncols % BS == 0,
                 "Bsr::from_csr needs dimensions divisible by the block size");
  Bsr m;
  m.nbrows = a.nrows / BS;
  m.nbcols = a.ncols / BS;
  m.browptr.assign(static_cast<std::size_t>(m.nbrows) + 1, 0);
  // Pass 1: per block row, the sorted union of the scalar rows' block
  // columns (scalar columns are sorted, so each row contributes a sorted
  // run and a merge via marker + sort stays cheap).
  std::vector<idx> marker(static_cast<std::size_t>(m.nbcols), kInvalidIdx);
  std::vector<std::vector<idx>> row_bcols(static_cast<std::size_t>(m.nbrows));
  for (idx bi = 0; bi < m.nbrows; ++bi) {
    auto& bcols = row_bcols[bi];
    for (int r = 0; r < BS; ++r) {
      const idx i = bi * BS + r;
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        const idx bj = a.colidx[k] / BS;
        if (marker[bj] != bi) {
          marker[bj] = bi;
          bcols.push_back(bj);
        }
      }
    }
    std::sort(bcols.begin(), bcols.end());
    m.browptr[bi + 1] = m.browptr[bi] + static_cast<nnz_t>(bcols.size());
  }
  m.bcolidx.resize(static_cast<std::size_t>(m.browptr[m.nbrows]));
  m.vals.assign(m.bcolidx.size() * kBlockSize, real{0});
  // Pass 2: scatter values into their blocks.
  for (idx bi = 0; bi < m.nbrows; ++bi) {
    const nnz_t base = m.browptr[bi];
    const auto& bcols = row_bcols[bi];
    std::copy(bcols.begin(), bcols.end(), m.bcolidx.begin() + base);
    for (int r = 0; r < BS; ++r) {
      const idx i = bi * BS + r;
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        const idx bj = a.colidx[k] / BS;
        const auto it = std::lower_bound(bcols.begin(), bcols.end(), bj);
        const nnz_t pos = base + static_cast<nnz_t>(it - bcols.begin());
        m.vals[static_cast<std::size_t>(pos) * kBlockSize + r * BS +
               a.colidx[k] % BS] = a.vals[k];
      }
    }
  }
  return m;
}

template struct Bsr<3>;

}  // namespace prom::la
