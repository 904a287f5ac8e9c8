// Distributed CSR matrices: each rank stores the rows it owns; columns are
// split into the locally-owned block and "ghost" columns whose values are
// fetched from their owners by a precomputed neighbor-exchange plan before
// each SpMV — the standard PETSc-style MPIAIJ pattern the paper's solve
// phase runs on.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "dla/dist_vec.h"
#include "dla/halo.h"
#include "la/csr.h"
#include "parx/runtime.h"

namespace prom::dla {

class DistCsr {
 public:
  DistCsr() = default;

  /// Builds this rank's slice of the global matrix `a` (replicated input;
  /// only rows [row_dist.begin(rank), end(rank)) are stored). `col_dist`
  /// describes the distribution of the input vector. Collective.
  DistCsr(parx::Comm& comm, const la::Csr& a, RowDist row_dist,
          RowDist col_dist);

  /// Builds from this rank's rows only: `local_rows` holds the owned rows
  /// (in owning order) with *global* column indices. This is how the
  /// distributed matrix-setup phase assembles operators — no rank ever
  /// materializes a global matrix. Collective (builds the exchange plan).
  static DistCsr from_local_rows(parx::Comm& comm, const la::Csr& local_rows,
                                 RowDist row_dist, RowDist col_dist);

  /// Slices rows [row_dist.begin(rank), end(rank)) of the *permuted* view
  /// of the replicated matrix `a` (out[i][j] = a[row_perm[i]][col_perm[j]])
  /// without forming the permuted global matrix. Used only on the fine
  /// level and for restrictions, whose serial inputs already exist.
  static DistCsr from_global_permuted(parx::Comm& comm, const la::Csr& a,
                                      RowDist row_dist, RowDist col_dist,
                                      std::span<const idx> row_perm,
                                      std::span<const idx> col_perm);

  const RowDist& row_dist() const { return rows_; }
  const RowDist& col_dist() const { return cols_; }
  idx local_rows() const { return local_.nrows; }
  idx num_ghosts() const { return static_cast<idx>(ghost_cols_.size()); }

  /// Global ids of this rank's ghost columns, ascending.
  const std::vector<idx>& ghost_cols() const { return ghost_cols_; }

  /// Global column id of a local column index (owned or ghost).
  idx global_col(idx local_col) const {
    const idx n_own = cols_.local_size(rank_);
    return local_col < n_own ? cols_.begin(rank_) + local_col
                             : ghost_cols_[local_col - n_own];
  }

  /// The exchange plan (persistent staging; see dla/halo.h).
  const HaloPlan& halo_plan() const { return plan_; }

  /// Y_local = A X on the local blocks of k distributed vectors: one ghost
  /// exchange (one message per peer carrying all k columns), then one
  /// matrix pass over every local row serves every column. Column j is
  /// bitwise the k = 1 call on that column; a single vector is a
  /// one-column block. Collective.
  void spmm(parx::Comm& comm, const la::MultiVec& x_local,
            la::MultiVec& y_local) const;

  /// R_local = B - A X, fused (same bits as spmm + subtraction, see
  /// la/backend.h). Collective.
  void residual_mv(parx::Comm& comm, const la::MultiVec& b_local,
                   const la::MultiVec& x_local, la::MultiVec& r_local) const;

  /// Y_local = A^T X distributed: each rank computes its rows' scatter
  /// contributions and ships them to the owners of the output in one
  /// reverse message per peer carrying all k columns (prolongation when
  /// only R is stored). Collective.
  void spmm_transpose(parx::Comm& comm, const la::MultiVec& x_local,
                      la::MultiVec& y_local) const;

  /// The local rows with *local* column indexing: columns [0, n_local) are
  /// owned, [n_local, n_local + n_ghost) are ghosts. On a square operator
  /// with aligned row and column distributions, owned column i is local
  /// row i, so the leading n_local columns are the processor-local
  /// diagonal block the level smoother reads.
  const la::Csr& local_matrix() const { return local_; }

 private:
  /// Shared construction core: remaps the owned rows (global column ids)
  /// into the [owned | ghost] local indexing and builds the neighbor
  /// exchange plan with its persistent staging. Collective.
  void init_from_local(parx::Comm& comm, const la::Csr& local_rows);

  int rank_ = 0;
  RowDist rows_;
  RowDist cols_;
  la::Csr local_;                 // local rows, remapped columns
  std::vector<idx> ghost_cols_;   // global ids of ghost columns (sorted)
  HaloPlan plan_;                 // ghost exchange (forward + reverse)
  // Persistent [owned | ghost] work blocks, reshaped lazily (no allocation
  // once the widest block has been seen): the owned prefix is rewritten
  // on every call and every ghost slot belongs to exactly one peer's recv
  // segment, so no per-call zero-fill is needed.
  mutable la::MultiVec x_ext_mv_;
  mutable la::MultiVec y_ext_mv_;  // spmm_transpose scratch
};

}  // namespace prom::dla
