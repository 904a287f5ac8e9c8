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

/// CSR sparse matrix. Column indices are sorted and unique within each row.
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

  /// y += A x
  void spmv_add(std::span<const real> x, std::span<real> y) const;

  /// y = A^T x (no explicit transpose formed)
  void spmv_transpose(std::span<const real> x, std::span<real> y) const;

  /// r = b - A x, fused. Exactly the bits of spmv followed by
  /// r[i] = b[i] - y[i] (see la/backend.h on why the fusion is lossless).
  void residual(std::span<const real> b, std::span<const real> x,
                std::span<real> r) const;

  /// Y = A X, column-blocked. Each pass over the matrix serves up to 8
  /// columns; each column accumulates in exactly spmv's order, so column
  /// j of the result is bitwise identical to spmv on X.col(j).
  void spmm(const MultiVec& x, MultiVec& y) const;

  /// R = B - A X, fused column-blocked residual (bitwise = per-column
  /// `residual`).
  void residual_mv(const MultiVec& b, const MultiVec& x, MultiVec& r) const;

  /// Y[i] = (A X)[i] for the listed rows only; other entries of Y are not
  /// touched. Each row accumulates exactly as in spmm, so splitting the
  /// row space across calls reproduces spmm's bits.
  void spmm_rows(const MultiVec& x, MultiVec& y,
                 std::span<const idx> rows) const;

  /// R[i] = B[i] - (A X)[i] for the listed rows only.
  void residual_mv_rows(const MultiVec& b, const MultiVec& x, MultiVec& r,
                        std::span<const idx> rows) const;

  /// Convenience: returns A x as a new vector.
  std::vector<real> apply(std::span<const real> x) const;

  /// Value at (i, j); 0 if the entry is not stored. O(log row length).
  real at(idx i, idx j) const;

  /// Explicit transpose.
  Csr transposed() const;

  /// Main diagonal (missing entries give 0).
  std::vector<real> diagonal() const;

  /// max_ij |A_ij - A_ji| — symmetry check for tests and assertions.
  real symmetry_error() const;

  /// Builds from triplets; duplicate (i, j) entries are summed (the finite
  /// element assembly convention). O(nnz + nrows + ncols): a stable
  /// counting sort by row, then one pass per row with a marker array and a
  /// dense accumulator, and a sort of each row's unique columns. Summation
  /// order: the duplicates of (i, j) sum from a zero seed in emission
  /// order (their order in `triplets`). Every triplet's range is checked
  /// before anything is written, and the result is allocated at its exact
  /// size.
  static Csr from_triplets(idx nrows, idx ncols,
                           std::span<const Triplet> triplets);

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
