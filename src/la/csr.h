// Compressed sparse row matrices — the PETSc-substitute storage used for
// stiffness matrices, restriction operators, and Galerkin coarse grid
// operators (A_coarse = R A R^T, §3 of the paper).
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "graph/graph.h"
#include "la/multivec.h"

namespace prom::la {

/// One (row, col, value) entry used during assembly.
struct Triplet {
  idx row;
  idx col;
  real value;
};

/// CSR sparse matrix. Column indices are unique within each row and
/// ascending in the numbering the matrix was built in. That need not be
/// its own column numbering: a dla::DistCsr local block keeps each row in
/// global column order, so in its [owned | ghost] numbering a ghost column
/// below the owned range comes before the owned ones. Readers that look an
/// entry up (at, diagonal) therefore scan the row.
///
/// Every product below runs one row kernel, in passes of at most 8
/// columns (a k-column call makes ceil(k / 8) passes over each chunk of
/// rows); the single-vector products are its one-column pass. Order
/// contract: each output entry is its row's terms added in ascending
/// column order from a zero seed, so column j of a blocked product is
/// bitwise the single-vector product of column j, at any thread count.
struct Csr {
  idx nrows = 0;
  idx ncols = 0;
  std::vector<nnz_t> rowptr;  // size nrows + 1
  std::vector<idx> colidx;    // size nnz
  std::vector<real> vals;     // size nnz

  nnz_t nnz() const { return rowptr.empty() ? 0 : rowptr.back(); }

  /// y = A x
  void spmv(std::span<const real> x, std::span<real> y) const;

  /// y = A^T x (no explicit transpose formed)
  void spmv_transpose(std::span<const real> x, std::span<real> y) const;

  /// Y = A X, column-blocked. Each pass over the matrix serves up to 8
  /// columns; each column accumulates in exactly spmv's order, so column
  /// j of the result is bitwise identical to spmv on X.col(j).
  void spmm(const MultiVec& x, MultiVec& y) const;

  /// R = B - A X, fused column-blocked residual: exactly the bits of spmm
  /// followed by R = B - Y (see la/backend.h on why the fusion is
  /// lossless).
  void residual_mv(const MultiVec& b, const MultiVec& x, MultiVec& r) const;

  /// Convenience: returns A x as a new vector.
  std::vector<real> apply(std::span<const real> x) const;

  /// Value at (i, j); 0 if the entry is not stored. Scans row i.
  real at(idx i, idx j) const;

  /// Explicit transpose.
  Csr transposed() const;

  /// Main diagonal (missing entries give 0). Scans each row whole.
  std::vector<real> diagonal() const;

  /// max_ij |A_ij - A_ji| — symmetry check for tests and assertions.
  real symmetry_error() const;

  /// Builds from triplets handed over as a list of chunks (the per-chunk
  /// buffers of a parallel assembly); duplicate (i, j) entries are summed
  /// (the finite element assembly convention). O(nnz + nrows + ncols): a
  /// stable counting sort by row straight out of the chunks, then one
  /// pass per row with a marker array and a dense accumulator, and a sort
  /// of each row's unique columns. Summation order: the duplicates of
  /// (i, j) sum from a zero seed in emission order — chunk 0's triplets
  /// first, each chunk in its own order — so any chunking of one triplet
  /// sequence gives the same bits. Every triplet's range is checked
  /// before anything is written (a rejected call leaves every chunk as it
  /// was). Each chunk is released as soon as it is bucketed, before the
  /// per-row compaction, so the triplets are never held twice; the result
  /// is allocated at its exact size.
  static Csr from_triplets(idx nrows, idx ncols,
                           std::span<std::vector<Triplet>> chunks);

  /// The single-chunk case (restriction and prolongation builders).
  static Csr from_triplets(idx nrows, idx ncols,
                           std::vector<Triplet> triplets);

  static Csr identity(idx n);

  /// Dense conversion for tests and the coarsest-level direct solver.
  std::vector<real> to_dense_rowmajor() const;
};

/// C = A * B (Gustavson's algorithm).
Csr spgemm(const Csr& a, const Csr& b);

/// The Galerkin triple product R A R^T (the paper's coarse grid operator,
/// §3). R is n_coarse x n_fine, A is n_fine x n_fine.
Csr galerkin_product(const Csr& r, const Csr& a);

/// Adjacency graph of the pattern of `a`: one edge {i, j} per stored
/// (i, j) with i < j < a.nrows — the diagonal and the columns past the
/// square leading block (a distributed local block's ghost columns) are
/// skipped. For a structurally symmetric `a` that is its whole graph.
graph::Graph pattern_graph(const Csr& a);

/// Drops stored entries with |value| <= tol (tidies coarse operators).
Csr drop_small(const Csr& a, real tol);

}  // namespace prom::la
