#include "la/sparse_chol.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/flops.h"
#include "graph/graph.h"
#include "graph/order.h"

namespace prom::la {

SparseCholesky::SparseCholesky(const Csr& a, const Options& opts)
    : n_(a.nrows) {
  PROM_CHECK(a.nrows == a.ncols);
  const idx n = n_;

  // Fill-reducing preordering on the matrix adjacency graph.
  if (opts.use_rcm && n > 1) {
    perm_ = graph::reverse_cuthill_mckee(pattern_graph(a));
  } else {
    perm_.resize(static_cast<std::size_t>(n));
    std::iota(perm_.begin(), perm_.end(), idx{0});
  }
  iperm_.resize(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) iperm_[perm_[i]] = i;

  // Left-looking LL^T on the permuted matrix. Column patterns grow
  // dynamically; row_cols[i] lists (column k, position of L(i,k)) pairs
  // for finished columns k with a nonzero in row i.
  colptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  diag_.assign(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<std::pair<idx, nnz_t>>> row_cols(
      static_cast<std::size_t>(n));

  std::vector<real> w(static_cast<std::size_t>(n), 0);
  std::vector<char> touched(static_cast<std::size_t>(n), 0);
  std::vector<idx> pattern;

  for (idx j = 0; j < n; ++j) {
    // Load column j of the permuted A (entries at/below the diagonal).
    pattern.clear();
    const idx oj = perm_[j];
    for (nnz_t k = a.rowptr[oj]; k < a.rowptr[oj + 1]; ++k) {
      const idx i = iperm_[a.colidx[k]];
      if (i < j) continue;
      if (!touched[i]) {
        touched[i] = 1;
        w[i] = 0;
        if (i != j) pattern.push_back(i);
      }
      w[i] += a.vals[k];
    }
    if (!touched[j]) {
      touched[j] = 1;
      w[j] = 0;
    }
    w[j] += opts.shift;

    // Subtract contributions of all finished columns with L(j,k) != 0.
    for (const auto& [k, pos] : row_cols[j]) {
      const real ljk = values_[pos];
      for (nnz_t q = pos; q < colptr_[k + 1]; ++q) {
        const idx i = rowidx_[q];
        if (!touched[i]) {
          touched[i] = 1;
          w[i] = 0;
          pattern.push_back(i);
        }
        w[i] -= ljk * values_[q];
      }
      factor_flops_ += 2 * (colptr_[k + 1] - pos);
    }

    const real djj = w[j];
    touched[j] = 0;
    if (!(std::isfinite(djj)) || djj <= 0) {
      for (idx i : pattern) touched[i] = 0;
      ok_ = false;
      return;
    }
    const real ljj = std::sqrt(djj);
    diag_[j] = ljj;

    std::sort(pattern.begin(), pattern.end());
    for (idx i : pattern) {
      touched[i] = 0;
      const real lij = w[i] / ljj;
      if (lij != 0) {
        // Record this entry's position for the future column i update.
        row_cols[i].emplace_back(j, static_cast<nnz_t>(values_.size()));
        rowidx_.push_back(i);
        values_.push_back(lij);
      }
    }
    factor_flops_ += static_cast<std::int64_t>(pattern.size()) + 2;
    colptr_[j + 1] = static_cast<nnz_t>(values_.size());
  }
  count_flops(factor_flops_);
  ok_ = true;
}

nnz_t SparseCholesky::factor_nnz() const {
  return static_cast<nnz_t>(values_.size()) + n_;
}

void SparseCholesky::solve(std::span<const real> b, std::span<real> x) const {
  PROM_CHECK_MSG(ok_, "SparseCholesky::solve on a failed factorization");
  PROM_CHECK(static_cast<idx>(b.size()) == n_ &&
             static_cast<idx>(x.size()) == n_);
  const idx n = n_;
  std::vector<real> z(static_cast<std::size_t>(n));
  for (idx j = 0; j < n; ++j) z[j] = b[perm_[j]];
  // Forward: L z = b.
  for (idx j = 0; j < n; ++j) {
    z[j] /= diag_[j];
    const real zj = z[j];
    for (nnz_t q = colptr_[j]; q < colptr_[j + 1]; ++q) {
      z[rowidx_[q]] -= values_[q] * zj;
    }
  }
  // Backward: L^T y = z.
  for (idx j = n - 1; j >= 0; --j) {
    real sum = z[j];
    for (nnz_t q = colptr_[j]; q < colptr_[j + 1]; ++q) {
      sum -= values_[q] * z[rowidx_[q]];
    }
    z[j] = sum / diag_[j];
  }
  for (idx j = 0; j < n; ++j) x[perm_[j]] = z[j];
  count_flops(4 * static_cast<std::int64_t>(values_.size()) + 4LL * n);
}

}  // namespace prom::la
