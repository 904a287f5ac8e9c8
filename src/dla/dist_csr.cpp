#include "dla/dist_csr.h"

#include <algorithm>

#include "common/error.h"
#include "obs/trace.h"

namespace prom::dla {
namespace {

// Forward ghost exchange; the HaloPlan's reverse (transpose) path uses
// kTagGhost + 1.
constexpr int kTagGhost = 301;

}  // namespace

void DistCsr::init_from_local(parx::Comm& comm, const la::Csr& local_rows) {
  PROM_CHECK(local_rows.nrows == rows_.local_size(rank_));
  PROM_CHECK(local_rows.ncols == cols_.global_size());
  const idx c0 = cols_.begin(rank_), c1 = cols_.end(rank_);
  const idx n_local_cols = c1 - c0;

  // Ghost columns: every referenced column outside my owned range, sorted
  // ascending by global id. O(local nnz log) — never touches global size.
  ghost_cols_.clear();
  for (idx c : local_rows.colidx) {
    if (c < c0 || c >= c1) ghost_cols_.push_back(c);
  }
  std::sort(ghost_cols_.begin(), ghost_cols_.end());
  ghost_cols_.erase(std::unique(ghost_cols_.begin(), ghost_cols_.end()),
                    ghost_cols_.end());

  const auto ghost_slot = [&](idx c) {
    return static_cast<idx>(
        std::lower_bound(ghost_cols_.begin(), ghost_cols_.end(), c) -
        ghost_cols_.begin());
  };

  // Local matrix with remapped columns (storage order preserved).
  local_.nrows = local_rows.nrows;
  local_.ncols = n_local_cols + static_cast<idx>(ghost_cols_.size());
  local_.rowptr = local_rows.rowptr;
  local_.vals = local_rows.vals;
  local_.colidx.resize(local_rows.colidx.size());
  for (std::size_t k = 0; k < local_rows.colidx.size(); ++k) {
    const idx c = local_rows.colidx[k];
    local_.colidx[k] =
        c >= c0 && c < c1 ? c - c0 : n_local_cols + ghost_slot(c);
  }

  // Build the exchange plan: tell each owner which of its entries I need.
  std::vector<std::vector<idx>> requests(comm.size());
  for (idx g : ghost_cols_) requests[cols_.owner(g)].push_back(g);
  const auto incoming = comm.alltoallv(requests);

  plan_ = HaloPlan{};
  for (int r = 0; r < comm.size(); ++r) {
    if (r == rank_) continue;
    if (!incoming[r].empty()) {
      std::vector<idx> local_ids;
      local_ids.reserve(incoming[r].size());
      for (idx g : incoming[r]) {
        PROM_CHECK(cols_.owner(g) == rank_);
        local_ids.push_back(g - c0);
      }
      plan_.add_send(r, std::move(local_ids));
    }
    if (!requests[r].empty()) {
      // Absolute x_ext slots: the ghost block starts after the owned cols.
      std::vector<idx> slots;
      slots.reserve(requests[r].size());
      for (idx g : requests[r]) slots.push_back(n_local_cols + ghost_slot(g));
      plan_.add_recv(r, std::move(slots));
    }
  }
  plan_.finalize(kTagGhost);
}

DistCsr::DistCsr(parx::Comm& comm, const la::Csr& a, RowDist row_dist,
                 RowDist col_dist)
    : rank_(comm.rank()),
      rows_(std::move(row_dist)),
      cols_(std::move(col_dist)) {
  PROM_CHECK(rows_.global_size() == a.nrows);
  PROM_CHECK(cols_.global_size() == a.ncols);
  PROM_CHECK(rows_.nranks() == comm.size() && cols_.nranks() == comm.size());

  // Slice my rows out of the replicated matrix, keeping global columns.
  const idx r0 = rows_.begin(rank_), r1 = rows_.end(rank_);
  la::Csr mine;
  mine.nrows = r1 - r0;
  mine.ncols = a.ncols;
  mine.rowptr.assign(static_cast<std::size_t>(mine.nrows) + 1, 0);
  for (idx i = r0; i < r1; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      mine.colidx.push_back(a.colidx[k]);
      mine.vals.push_back(a.vals[k]);
    }
    mine.rowptr[i - r0 + 1] = static_cast<nnz_t>(mine.colidx.size());
  }
  init_from_local(comm, mine);
}

DistCsr DistCsr::from_local_rows(parx::Comm& comm, const la::Csr& local_rows,
                                 RowDist row_dist, RowDist col_dist) {
  DistCsr d;
  d.rank_ = comm.rank();
  d.rows_ = std::move(row_dist);
  d.cols_ = std::move(col_dist);
  PROM_CHECK(d.rows_.nranks() == comm.size() &&
             d.cols_.nranks() == comm.size());
  d.init_from_local(comm, local_rows);
  return d;
}

DistCsr DistCsr::from_global_permuted(parx::Comm& comm, const la::Csr& a,
                                      RowDist row_dist, RowDist col_dist,
                                      std::span<const idx> row_perm,
                                      std::span<const idx> col_perm) {
  PROM_CHECK(row_dist.global_size() == a.nrows);
  PROM_CHECK(col_dist.global_size() == a.ncols);
  PROM_CHECK(static_cast<idx>(row_perm.size()) == a.nrows &&
             static_cast<idx>(col_perm.size()) == a.ncols);
  const int rank = comm.rank();
  const idx r0 = row_dist.begin(rank), r1 = row_dist.end(rank);

  // Inverse column permutation (index bookkeeping, no matrix values).
  std::vector<idx> col_inv(static_cast<std::size_t>(a.ncols));
  for (idx j = 0; j < a.ncols; ++j) col_inv[col_perm[j]] = j;

  la::Csr mine;
  mine.nrows = r1 - r0;
  mine.ncols = a.ncols;
  mine.rowptr.assign(static_cast<std::size_t>(mine.nrows) + 1, 0);
  std::vector<std::pair<idx, real>> row;
  for (idx i = r0; i < r1; ++i) {
    const idx old_row = row_perm[i];
    row.clear();
    for (nnz_t k = a.rowptr[old_row]; k < a.rowptr[old_row + 1]; ++k) {
      row.emplace_back(col_inv[a.colidx[k]], a.vals[k]);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [c, v] : row) {
      mine.colidx.push_back(c);
      mine.vals.push_back(v);
    }
    mine.rowptr[i - r0 + 1] = static_cast<nnz_t>(mine.colidx.size());
  }
  return from_local_rows(comm, mine, std::move(row_dist),
                         std::move(col_dist));
}

void DistCsr::spmm(parx::Comm& comm, const la::MultiVec& x_local,
                   la::MultiVec& y_local) const {
  const idx n_own = cols_.local_size(rank_);
  const int k = x_local.cols();
  PROM_CHECK(x_local.rows() == n_own && y_local.rows() == local_.nrows &&
             y_local.cols() == k);
  if (x_ext_mv_.rows() != local_.ncols || x_ext_mv_.cols() != k) {
    x_ext_mv_.resize(local_.ncols, k);
  }

  plan_.post_mv(comm, x_local);
  for (int j = 0; j < k; ++j) {
    std::copy(x_local.col_data(j), x_local.col_data(j) + n_own,
              x_ext_mv_.col_data(j));
  }
  plan_.finish_mv(comm, x_ext_mv_);
  const obs::Span span("halo.local");
  local_.spmm(x_ext_mv_, y_local);
}

void DistCsr::residual_mv(parx::Comm& comm, const la::MultiVec& b_local,
                          const la::MultiVec& x_local,
                          la::MultiVec& r_local) const {
  const idx n_own = cols_.local_size(rank_);
  const int k = x_local.cols();
  PROM_CHECK(x_local.rows() == n_own && b_local.rows() == local_.nrows &&
             r_local.rows() == local_.nrows && b_local.cols() == k &&
             r_local.cols() == k);
  if (x_ext_mv_.rows() != local_.ncols || x_ext_mv_.cols() != k) {
    x_ext_mv_.resize(local_.ncols, k);
  }

  plan_.post_mv(comm, x_local);
  for (int j = 0; j < k; ++j) {
    std::copy(x_local.col_data(j), x_local.col_data(j) + n_own,
              x_ext_mv_.col_data(j));
  }
  plan_.finish_mv(comm, x_ext_mv_);
  const obs::Span span("halo.local");
  local_.residual_mv(b_local, x_ext_mv_, r_local);
}

void DistCsr::spmm_transpose(parx::Comm& comm, const la::MultiVec& x_local,
                             la::MultiVec& y_local) const {
  const idx n_own_cols = cols_.local_size(rank_);
  const int k = x_local.cols();
  PROM_CHECK(x_local.rows() == local_.nrows && y_local.rows() == n_own_cols &&
             y_local.cols() == k);
  if (y_ext_mv_.rows() != local_.ncols || y_ext_mv_.cols() != k) {
    y_ext_mv_.resize(local_.ncols, k);
  }

  // Per-column local transpose over the extended column space (already
  // deterministic), then ONE blocked reverse exchange ships every
  // column's ghost contributions per peer. Every owned entry of y_local
  // is overwritten by the copy, so no zero-fill.
  for (int j = 0; j < k; ++j) {
    local_.spmv_transpose(x_local.col(j), y_ext_mv_.col(j));
  }
  plan_.reverse_post_mv(comm, y_ext_mv_);
  for (int j = 0; j < k; ++j) {
    std::copy(y_ext_mv_.col_data(j), y_ext_mv_.col_data(j) + n_own_cols,
              y_local.col_data(j));
  }
  plan_.reverse_accumulate_mv(comm, y_local);
}

}  // namespace prom::dla
