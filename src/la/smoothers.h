// Multigrid smoothers (§2: "simple iterative methods ... reduce the high
// frequency error"). The paper's configuration is one pre- and one
// post-smoothing step of damped Richardson preconditioned with block
// Jacobi, the blocks produced by a graph partitioner at 6 blocks per 1,000
// unknowns (§7.2). Jacobi and symmetric Gauss–Seidel are provided both as
// baselines and for tests.
//
// A smoother performs the stationary update  x <- x + M^{-1} (b - A x)
// (possibly damped); all smoothers here are symmetric in the energy sense
// required for use inside a CG preconditioner.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/config.h"
#include "la/csr.h"
#include "la/dense.h"

namespace prom::la {

class Smoother {
 public:
  virtual ~Smoother() = default;

  /// One smoothing step, updating x in place. b is the right-hand side of
  /// A x = b for the matrix bound at construction.
  virtual void smooth(std::span<const real> b, std::span<real> x) const = 0;

  virtual idx n() const = 0;
};

/// Damped (point) Jacobi: x += omega * D^{-1} (b - A x).
class JacobiSmoother final : public Smoother {
 public:
  JacobiSmoother(const Csr& a, real omega = 0.67);
  void smooth(std::span<const real> b, std::span<real> x) const override;
  idx n() const override { return a_->nrows; }

 private:
  const Csr* a_;
  real omega_;
  std::vector<real> inv_diag_;
};

/// Symmetric Gauss–Seidel: one forward then one backward sweep.
class SymmetricGaussSeidel final : public Smoother {
 public:
  explicit SymmetricGaussSeidel(const Csr& a);
  void smooth(std::span<const real> b, std::span<real> x) const override;
  idx n() const override { return a_->nrows; }

 private:
  const Csr* a_;
  std::vector<real> inv_diag_;
};

/// Damped block Jacobi: x += omega * blkdiag(A)^{-1} (b - A x), with the
/// diagonal blocks factored once (dense LDL^T). `blocks[k]` lists the row
/// indices of block k; blocks must partition [0, n).
class BlockJacobiSmoother final : public Smoother {
 public:
  BlockJacobiSmoother(const Csr& a, std::vector<std::vector<idx>> blocks,
                      real omega = 0.6);
  void smooth(std::span<const real> b, std::span<real> x) const override;
  idx n() const override { return a_->nrows; }

  idx num_blocks() const { return static_cast<idx>(blocks_.size()); }

 private:
  const Csr* a_;
  real omega_;
  std::vector<std::vector<idx>> blocks_;
  std::vector<DenseLdlt> factors_;
};

/// Chebyshev polynomial smoother on the Jacobi-preconditioned operator
/// D^{-1}A, of fixed degree, targeting the upper part [lmax/eig_ratio,
/// 1.1 lmax] of the spectrum (the GAMG-lineage smoother; spectral radius
/// estimated by power iteration at construction). Symmetric, so valid
/// inside a CG preconditioner.
class ChebyshevSmoother final : public Smoother {
 public:
  explicit ChebyshevSmoother(const Csr& a, int degree = 3,
                             real eig_ratio = 30);
  void smooth(std::span<const real> b, std::span<real> x) const override;
  idx n() const override { return a_->nrows; }

  real lambda_max() const { return lmax_; }

 private:
  const Csr* a_;
  int degree_;
  real lmin_ = 0, lmax_ = 0;
  std::vector<real> inv_diag_;
};

/// Partitions [0, n) into contiguous index blocks of roughly equal size —
/// the fallback when no graph partitioner is supplied.
std::vector<std::vector<idx>> contiguous_blocks(idx n, idx nblocks);

/// 1 / diag(a), checked nonzero — the diagonal scaling every point-wise
/// smoother needs (also used by the distributed levels on their local
/// diagonal blocks).
std::vector<real> inverted_diagonal(const Csr& a);

/// Extracts and factors (dense LDL^T, with diagonal-shift escalation for
/// non-SPD blocks) the diagonal blocks of `a` listed in `blocks` — shared
/// by the serial BlockJacobiSmoother and the distributed processor-block
/// smoothers. Columns >= a.nrows (ghost columns of a distributed local
/// matrix) are ignored.
std::vector<DenseLdlt> factor_diagonal_blocks(
    const Csr& a, std::span<const std::vector<idx>> blocks);

}  // namespace prom::la
