// Block-sparse-row matrices with dense BS x BS blocks — the PETSc BAIJ
// substitute. 3D elasticity carries 3 dofs per mesh node, so stiffness
// matrices are naturally sparse matrices of dense 3x3 node blocks; storing
// them blocked cuts the column-index traffic of memory-bound kernels by
// BS^2 and is what made the paper's per-node Mflop/s rates attainable
// (Adams & Demmel ran Prometheus on PETSc block matrices throughout).
//
// Every kernel follows the intra-rank determinism contract of
// common/parallel.h: fixed grains, per-chunk private accumulators, merges
// in chunk order. SpMV additionally preserves the scalar accumulation
// order of la::Csr — within each scalar row, terms are added in ascending
// scalar-column order (blocks are sorted by block column; the BS lanes of
// a block are visited in order) — so a Bsr built from a Csr produces
// bit-identical products, and the CSR and BSR solve paths yield the same
// residual histories. Every product runs one block-row kernel, in passes
// of at most 4 columns (4 x BS accumulators); the single-vector products
// are its one-column pass, so column j of a blocked product is bitwise
// the single-vector product of column j.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "la/csr.h"

namespace prom::la {

/// BSR sparse matrix of dense BS x BS blocks. Block-column indices are
/// sorted and unique within each block row; `vals` stores each block
/// row-major, BS*BS reals per block.
template <int BS>
struct Bsr {
  static_assert(BS >= 1);
  static constexpr int kBlock = BS;
  static constexpr int kBlockSize = BS * BS;

  idx nbrows = 0;  // block rows
  idx nbcols = 0;  // block cols
  std::vector<nnz_t> browptr;  // size nbrows + 1
  std::vector<idx> bcolidx;    // size nblocks
  std::vector<real> vals;      // size nblocks * BS * BS

  nnz_t nblocks() const { return browptr.empty() ? 0 : browptr.back(); }
  idx rows() const { return BS * nbrows; }
  idx cols() const { return BS * nbcols; }

  /// y = A x (scalar vectors of length cols() / rows()).
  void spmv(std::span<const real> x, std::span<real> y) const;

  /// y += A x
  void spmv_add(std::span<const real> x, std::span<real> y) const;

  /// r = b - A x, fused (same bits as spmv followed by r = b - y).
  void residual(std::span<const real> b, std::span<const real> x,
                std::span<real> r) const;

  /// Y = A X, column-blocked: each pass over the block structure feeds
  /// the accumulators of up to 4 columns, each in spmv's order (column j
  /// bitwise equals spmv on X.col(j)).
  void spmm(const MultiVec& x, MultiVec& y) const;

  /// R = B - A X, fused column-blocked residual.
  void residual_mv(const MultiVec& b, const MultiVec& x, MultiVec& r) const;

  /// Y = A X restricted to the listed block rows; other entries of Y are
  /// not touched. Each block row accumulates exactly as in spmm, so
  /// splitting the block-row space across calls reproduces spmm's bits.
  void spmm_brows(const MultiVec& x, MultiVec& y,
                  std::span<const idx> brows) const;

  /// R = B - A X restricted to the listed block rows.
  void residual_mv_brows(const MultiVec& b, const MultiVec& x, MultiVec& r,
                         std::span<const idx> brows) const;

  /// Scalar value at (i, j); 0 if no covering block is stored.
  real at(idx i, idx j) const;

  /// Lossless scalar view: every stored block expands to BS*BS CSR
  /// entries (explicit zeros included), columns sorted.
  Csr to_csr() const;

  /// Blocks a CSR matrix whose dimensions are divisible by BS. Lossless:
  /// unstored scalar entries become explicit zeros inside their block.
  static Bsr from_csr(const Csr& a);
};

using Bsr3 = Bsr<3>;

extern template struct Bsr<3>;

}  // namespace prom::la
