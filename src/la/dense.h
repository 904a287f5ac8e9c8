// Small dense matrices and an LDL^T factorization. Used for: the redundant
// direct solve on the coarsest multigrid level, the diagonal blocks of the
// block-Jacobi smoother, and element-level computations in `fem`.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "la/multivec.h"

namespace prom::la {

/// Column-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(idx rows, idx cols)
      : rows_(rows), cols_(cols),
        a_(static_cast<std::size_t>(rows) * cols, real{0}) {}

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }

  real& operator()(idx i, idx j) {
    return a_[static_cast<std::size_t>(j) * rows_ + i];
  }
  real operator()(idx i, idx j) const {
    return a_[static_cast<std::size_t>(j) * rows_ + i];
  }

  std::span<const real> data() const { return a_; }
  std::span<real> data() { return a_; }

  /// y = A x
  void matvec(std::span<const real> x, std::span<real> y) const;

  /// Identity matrix of order n.
  static DenseMatrix identity(idx n);

 private:
  idx rows_ = 0, cols_ = 0;
  std::vector<real> a_;
};

/// LDL^T factorization (no pivoting) of a symmetric matrix; intended for
/// the symmetric positive definite systems this project produces. A
/// non-positive or vanishing pivot marks the factorization as failed
/// rather than producing NaNs. The unit lower factor is stored packed by
/// columns (column c holds rows c..n-1 contiguously, n(n+1)/2 values), so
/// a solve streams only the triangle it reads.
class DenseLdlt {
 public:
  /// Factors A (reads the lower triangle). O(n^3/3).
  explicit DenseLdlt(const DenseMatrix& a);

  bool ok() const { return ok_; }
  idx n() const { return n_; }

  /// Solves A X = B for k columns stored row-interleaved: entry (i, j) of
  /// B and X sits at [i * k + j], so k = 1 is a plain vector. b and x are
  /// either the same span or disjoint. Requires ok().
  ///
  /// This is the factor's only substitution kernel. Column j gets exactly
  /// the arithmetic of a k = 1 solve of that column: the forward pass runs
  /// column-oriented (for each c, update rows i > c, contiguous in the
  /// packed column) and the backward pass dot-oriented, but each entry
  /// still sees its subtractions one at a time in ascending index order.
  /// So column j is bitwise equal to solving it alone, at any k.
  void solve(std::span<const real> b, std::span<real> x, int k = 1) const;

  /// Column-blocked solve of the columns of b through the kernel above.
  /// `work` stages the row-interleaved copy; it is resized as needed and
  /// keeps its capacity, so a caller that holds it allocates once.
  void solve(const MultiVec& b, MultiVec& x, std::vector<real>& work) const;

 private:
  idx n_ = 0;
  bool ok_ = false;
  std::vector<real> l_;  // unit lower triangle, packed by columns
  std::vector<real> d_;  // diagonal of D
};

/// LU factorization with partial pivoting — the general-matrix counterpart
/// of DenseLdlt, used for the redundant coarsest-level solve of
/// non-symmetric operators (advection–diffusion Galerkin chains). A
/// vanishing pivot (singular to working precision) marks the
/// factorization as failed rather than producing NaNs.
class DenseLu {
 public:
  DenseLu() = default;
  /// Factors P A = L U. O(2n^3/3).
  explicit DenseLu(const DenseMatrix& a);

  bool ok() const { return ok_; }
  idx n() const { return n_; }

  /// Solves A x = b. Requires ok().
  void solve(std::span<const real> b, std::span<real> x) const;

 private:
  idx n_ = 0;
  bool ok_ = false;
  DenseMatrix lu_;          // packed L (unit diagonal implied) and U
  std::vector<idx> piv_;    // row of the k-th pivot
};

}  // namespace prom::la
