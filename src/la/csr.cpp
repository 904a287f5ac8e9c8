#include "la/csr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "la/row_passes.h"

namespace prom::la {
namespace {

using namespace detail;

/// Rows per parallel chunk for row-partitioned kernels. Fixed constants:
/// the chunk decomposition is part of the bit-determinism contract (see
/// common/parallel.h), so it may depend on the matrix but never on the
/// thread count.
constexpr idx kRowGrain = 256;
constexpr idx kSpgemmGrain = 1024;
constexpr idx kMergeGrain = 8192;

/// Transpose-SpMV scatter chunks. Each chunk owns a private accumulator of
/// `ncols` reals, so the count is capped to bound memory (8 x ncols reals).
idx transpose_grain(idx nrows) {
  return std::max<idx>(2048, (nrows + 7) / 8);
}

/// Columns per pass of the row kernel: a pass keeps one accumulator per
/// column in a register. On the elasticity box (n = 16, one thread) at
/// k = 8, one 8-wide pass ran 12-30% faster than two 4-wide passes, which
/// stream the matrix twice; at k = 16 two 8-wide passes stayed ahead of
/// one 16-wide pass, whose 16 accumulators and 16 column pointers
/// outgrow the registers.
constexpr int kPassWidth = 8;

/// One pass over rows tb..te for the K columns j0..j0+K. Each column adds
/// its row's terms in ascending column order from a zero seed, exactly
/// the order of the K = 1 pass, so column j of any call is bitwise the
/// single-vector product.
template <int K, RowOut Out>
nnz_t rows_pass(const Csr& a, const Cols& p, int j0, idx tb, idx te) {
  const real* x[K];
  const real* b[K];
  real* y[K];
  for (int j = 0; j < K; ++j) {
    x[j] = p.x[j0 + j];
    b[j] = p.b[j0 + j];
    y[j] = p.y[j0 + j];
  }
  const nnz_t* rowptr = a.rowptr.data();
  const idx* colidx = a.colidx.data();
  const real* vals = a.vals.data();
  for (idx i = tb; i < te; ++i) {
    real acc[K] = {};
    for (nnz_t kk = rowptr[i]; kk < rowptr[i + 1]; ++kk) {
      const real v = vals[kk];
      const idx c = colidx[kk];
      for (int j = 0; j < K; ++j) acc[j] += v * x[j][c];
    }
    for (int j = 0; j < K; ++j) store<Out>(y[j], b[j], i, acc[j]);
  }
  return rowptr[te] - rowptr[tb];
}

template <RowOut Out, std::size_t... I>
constexpr std::array<PassFn<Csr>, sizeof...(I)> make_passes(
    std::index_sequence<I...>) {
  return {&rows_pass<static_cast<int>(I) + 1, Out>...};
}

/// The row kernel behind every product: k columns of p over every row.
template <RowOut Out>
void run_rows(const Csr& a, const Cols& p, int k) {
  static constexpr auto kPasses =
      make_passes<Out>(std::make_index_sequence<kPassWidth>{});
  run_passes(a, kPasses, p, k, a.nrows, kRowGrain, 2,
             Out == RowOut::kResidual ? 1 : 0);
}

void check_shapes(const Csr& a, std::span<const real> x,
                  std::span<const real> y) {
  PROM_CHECK(static_cast<idx>(x.size()) == a.ncols &&
             static_cast<idx>(y.size()) == a.nrows);
}

void check_mv_shapes(const Csr& a, const MultiVec& x, const MultiVec& y) {
  PROM_CHECK(x.rows() == a.ncols && y.rows() == a.nrows &&
             x.cols() == y.cols() && x.cols() >= 1);
}

}  // namespace

void Csr::spmv(std::span<const real> x, std::span<real> y) const {
  check_shapes(*this, x, y);
  run_rows<RowOut::kSet>(*this, one_col(x, y), 1);
}

void Csr::spmv_transpose(std::span<const real> x, std::span<real> y) const {
  PROM_CHECK(static_cast<idx>(x.size()) == nrows &&
             static_cast<idx>(y.size()) == ncols);
  const idx grain = transpose_grain(nrows);
  const idx nchunks = common::chunk_count(0, nrows, grain);
  if (nchunks <= 1) {
    std::fill(y.begin(), y.end(), real{0});
    for (idx i = 0; i < nrows; ++i) {
      const real xi = x[i];
      for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
        y[colidx[k]] += vals[k] * xi;
      }
    }
    count_flops(2 * nnz());
    return;
  }
  // Scatter into per-chunk accumulators (disjoint by construction), then
  // merge them column-parallel in fixed chunk order — the merge order is a
  // function of the decomposition, so any thread count produces the same
  // bits.
  std::vector<real> partial(static_cast<std::size_t>(nchunks) * ncols,
                            real{0});
  common::parallel_for(0, nrows, grain, [&](idx rb, idx re) {
    real* acc = partial.data() + static_cast<std::size_t>(rb / grain) * ncols;
    for (idx i = rb; i < re; ++i) {
      const real xi = x[i];
      for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
        acc[colidx[k]] += vals[k] * xi;
      }
    }
  });
  common::parallel_for(0, ncols, kMergeGrain, [&](idx jb, idx je) {
    for (idx j = jb; j < je; ++j) {
      real sum = 0;
      for (idx c = 0; c < nchunks; ++c) {
        sum += partial[static_cast<std::size_t>(c) * ncols + j];
      }
      y[j] = sum;
    }
  });
  count_flops(2 * nnz());
}

void Csr::spmm(const MultiVec& x, MultiVec& y) const {
  check_mv_shapes(*this, x, y);
  run_rows<RowOut::kSet>(*this, mv_cols(x, y), x.cols());
}

void Csr::residual_mv(const MultiVec& b, const MultiVec& x,
                      MultiVec& r) const {
  check_mv_shapes(*this, x, r);
  PROM_CHECK(b.rows() == nrows && b.cols() == x.cols());
  run_rows<RowOut::kResidual>(*this, mv_cols(x, r, &b), x.cols());
}

std::vector<real> Csr::apply(std::span<const real> x) const {
  std::vector<real> y(static_cast<std::size_t>(nrows));
  spmv(x, y);
  return y;
}

real Csr::at(idx i, idx j) const {
  PROM_CHECK(i >= 0 && i < nrows && j >= 0 && j < ncols);
  for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
    if (colidx[k] == j) return vals[k];
  }
  return 0;
}

Csr Csr::transposed() const {
  Csr t;
  t.nrows = ncols;
  t.ncols = nrows;
  t.rowptr.assign(static_cast<std::size_t>(ncols) + 1, 0);
  for (idx j : colidx) t.rowptr[j + 1]++;
  for (idx j = 0; j < ncols; ++j) t.rowptr[j + 1] += t.rowptr[j];
  t.colidx.resize(colidx.size());
  t.vals.resize(vals.size());
  std::vector<nnz_t> next(t.rowptr.begin(), t.rowptr.end() - 1);
  for (idx i = 0; i < nrows; ++i) {
    for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const nnz_t pos = next[colidx[k]]++;
      t.colidx[pos] = i;
      t.vals[pos] = vals[k];
    }
  }
  return t;  // columns are sorted because rows were traversed in order
}

std::vector<real> Csr::diagonal() const {
  std::vector<real> d(static_cast<std::size_t>(nrows), real{0});
  for (idx i = 0; i < nrows; ++i) {
    for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      if (colidx[k] == i) d[i] = vals[k];
    }
  }
  return d;
}

real Csr::symmetry_error() const {
  if (nrows != ncols) return std::numeric_limits<real>::infinity();
  real err = 0;
  for (idx i = 0; i < nrows; ++i) {
    for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      err = std::max(err, std::fabs(vals[k] - at(colidx[k], i)));
    }
  }
  return err;
}

Csr Csr::from_triplets(idx nrows, idx ncols,
                       std::span<std::vector<Triplet>> chunks) {
  // Stable counting sort by row: bucket i holds row i's (col, value)
  // pairs in emission order, chunk after chunk. Every range is checked
  // before any write; each chunk is released once it is bucketed.
  std::vector<nnz_t> start(static_cast<std::size_t>(nrows) + 1, 0);
  for (const std::vector<Triplet>& chunk : chunks) {
    for (const Triplet& t : chunk) {
      PROM_CHECK(t.row >= 0 && t.row < nrows && t.col >= 0 && t.col < ncols);
      ++start[t.row + 1];
    }
  }
  for (idx i = 0; i < nrows; ++i) start[i + 1] += start[i];
  std::vector<idx> bcol(static_cast<std::size_t>(start[nrows]));
  std::vector<real> bval(static_cast<std::size_t>(start[nrows]));
  {
    std::vector<nnz_t> next(start.begin(), start.end() - 1);
    for (std::vector<Triplet>& chunk : chunks) {
      for (const Triplet& t : chunk) {
        const nnz_t pos = next[t.row]++;
        bcol[pos] = t.col;
        bval[pos] = t.value;
      }
      std::vector<Triplet>().swap(chunk);
    }
  }

  // One pass per row with a marker array and a dense accumulator: each
  // (i, j) sums its duplicates from a zero seed in bucket (= emission)
  // order. The row's unique entries, column-sorted, are written back over
  // the front of the buckets (never past the bucket being read), and the
  // result is copied out at its exact size.
  Csr m;
  m.nrows = nrows;
  m.ncols = ncols;
  m.rowptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  std::vector<idx> marker(static_cast<std::size_t>(ncols), kInvalidIdx);
  std::vector<real> acc(static_cast<std::size_t>(ncols));
  nnz_t out = 0;
  for (idx i = 0; i < nrows; ++i) {
    const nnz_t row_begin = out;
    for (nnz_t k = start[i]; k < start[i + 1]; ++k) {
      const idx c = bcol[k];
      if (marker[c] != i) {
        marker[c] = i;
        acc[c] = 0;
        bcol[out++] = c;
      }
      acc[c] += bval[k];
    }
    std::sort(bcol.begin() + row_begin, bcol.begin() + out);
    for (nnz_t k = row_begin; k < out; ++k) bval[k] = acc[bcol[k]];
    m.rowptr[i + 1] = out;
  }
  m.colidx.assign(bcol.begin(), bcol.begin() + out);
  m.vals.assign(bval.begin(), bval.begin() + out);
  return m;
}

Csr Csr::from_triplets(idx nrows, idx ncols, std::vector<Triplet> triplets) {
  return from_triplets(nrows, ncols, std::span(&triplets, 1));
}

graph::Graph pattern_graph(const Csr& a) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      if (a.colidx[k] > i && a.colidx[k] < a.nrows) {
        edges.emplace_back(i, a.colidx[k]);
      }
    }
  }
  return graph::Graph::from_edges(a.nrows, edges);
}

Csr Csr::identity(idx n) {
  Csr m;
  m.nrows = m.ncols = n;
  m.rowptr.resize(static_cast<std::size_t>(n) + 1);
  m.colidx.resize(static_cast<std::size_t>(n));
  m.vals.assign(static_cast<std::size_t>(n), real{1});
  for (idx i = 0; i <= n; ++i) m.rowptr[i] = i;
  for (idx i = 0; i < n; ++i) m.colidx[i] = i;
  return m;
}

std::vector<real> Csr::to_dense_rowmajor() const {
  std::vector<real> d(static_cast<std::size_t>(nrows) * ncols, real{0});
  for (idx i = 0; i < nrows; ++i) {
    for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      d[static_cast<std::size_t>(i) * ncols + colidx[k]] = vals[k];
    }
  }
  return d;
}

Csr spgemm(const Csr& a, const Csr& b) {
  PROM_CHECK(a.ncols == b.nrows);
  Csr c;
  c.nrows = a.nrows;
  c.ncols = b.ncols;
  c.rowptr.assign(static_cast<std::size_t>(a.nrows) + 1, 0);

  // Row-parallel Gustavson: each fixed chunk of rows runs the classic
  // serial algorithm into private buffers (every row's accumulation order
  // is identical to the serial code, so results are bit-identical for any
  // thread count), then the chunk outputs are concatenated in chunk order.
  struct ChunkOut {
    std::vector<idx> cols;
    std::vector<real> vals;
    std::vector<nnz_t> row_nnz;
    std::int64_t flops = 0;
  };
  const idx nchunks = common::chunk_count(0, a.nrows, kSpgemmGrain);
  std::vector<ChunkOut> outs(static_cast<std::size_t>(nchunks));
  common::parallel_for(0, a.nrows, kSpgemmGrain, [&](idx rb, idx re) {
    ChunkOut& out = outs[rb / kSpgemmGrain];
    out.row_nnz.reserve(static_cast<std::size_t>(re - rb));
    // Gustavson: a dense accumulator over the columns of C per row of A.
    // Rows stamp the marker with their (globally unique) index, so one
    // allocation serves the whole chunk.
    std::vector<real> acc(static_cast<std::size_t>(b.ncols), real{0});
    std::vector<idx> marker(static_cast<std::size_t>(b.ncols), kInvalidIdx);
    std::vector<idx> cols_in_row;
    for (idx i = rb; i < re; ++i) {
      cols_in_row.clear();
      for (nnz_t ka = a.rowptr[i]; ka < a.rowptr[i + 1]; ++ka) {
        const idx j = a.colidx[ka];
        const real av = a.vals[ka];
        for (nnz_t kb = b.rowptr[j]; kb < b.rowptr[j + 1]; ++kb) {
          const idx col = b.colidx[kb];
          if (marker[col] != i) {
            marker[col] = i;
            acc[col] = 0;
            cols_in_row.push_back(col);
          }
          acc[col] += av * b.vals[kb];
          out.flops += 2;
        }
      }
      std::sort(cols_in_row.begin(), cols_in_row.end());
      for (idx col : cols_in_row) {
        out.cols.push_back(col);
        out.vals.push_back(acc[col]);
      }
      out.row_nnz.push_back(static_cast<nnz_t>(cols_in_row.size()));
    }
  });

  std::int64_t flops = 0;
  std::vector<nnz_t> chunk_offset(static_cast<std::size_t>(nchunks) + 1, 0);
  for (idx ch = 0; ch < nchunks; ++ch) {
    const ChunkOut& out = outs[ch];
    flops += out.flops;
    chunk_offset[ch + 1] = chunk_offset[ch] +
                           static_cast<nnz_t>(out.cols.size());
    for (std::size_t r = 0; r < out.row_nnz.size(); ++r) {
      const idx i = ch * kSpgemmGrain + static_cast<idx>(r);
      c.rowptr[i + 1] = c.rowptr[i] + out.row_nnz[r];
    }
  }
  c.colidx.resize(static_cast<std::size_t>(chunk_offset[nchunks]));
  c.vals.resize(static_cast<std::size_t>(chunk_offset[nchunks]));
  common::parallel_for(0, nchunks, 1, [&](idx cb, idx ce) {
    for (idx ch = cb; ch < ce; ++ch) {
      std::copy(outs[ch].cols.begin(), outs[ch].cols.end(),
                c.colidx.begin() + chunk_offset[ch]);
      std::copy(outs[ch].vals.begin(), outs[ch].vals.end(),
                c.vals.begin() + chunk_offset[ch]);
    }
  });
  count_flops(flops);
  return c;
}

Csr galerkin_product(const Csr& r, const Csr& a) {
  PROM_CHECK(r.ncols == a.nrows && a.nrows == a.ncols);
  const Csr rt = r.transposed();
  const Csr art = spgemm(a, rt);
  return spgemm(r, art);
}

Csr drop_small(const Csr& a, real tol) {
  Csr m;
  m.nrows = a.nrows;
  m.ncols = a.ncols;
  m.rowptr.assign(static_cast<std::size_t>(a.nrows) + 1, 0);
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      if (std::fabs(a.vals[k]) > tol || a.colidx[k] == i) {
        m.colidx.push_back(a.colidx[k]);
        m.vals.push_back(a.vals[k]);
      }
    }
    m.rowptr[i + 1] = static_cast<nnz_t>(m.colidx.size());
  }
  return m;
}

}  // namespace prom::la
