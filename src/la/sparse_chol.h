// Sparse Cholesky factorization (left-looking, with reverse Cuthill-McKee
// fill-reducing preordering): the *direct solver baseline* the paper's
// introduction argues against ("direct methods possess sub-optimal time
// and space complexity, as the scale of the problems increase") —
// bench_direct_vs_mg measures the crossover. The multigrid coarsest level
// is constant-size and factored densely (mg/level_solve.h).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/config.h"
#include "la/csr.h"

namespace prom::la {

struct SparseCholOptions {
  bool use_rcm = true;  ///< reverse Cuthill-McKee preordering
  real shift = 0;       ///< diagonal shift added before factoring
};

class SparseCholesky {
 public:
  using Options = SparseCholOptions;

  /// Factors the SPD matrix `a` (reads the full symmetric pattern).
  /// Check ok() before solving.
  explicit SparseCholesky(const Csr& a, const Options& opts = {});

  bool ok() const { return ok_; }
  idx n() const { return n_; }

  /// Number of nonzeros in the factor L (fill measure).
  nnz_t factor_nnz() const;

  /// Flops spent in the numeric factorization (for crossover studies).
  std::int64_t factor_flops() const { return factor_flops_; }

  /// Solves A x = b (forward + backward substitution). Requires ok().
  void solve(std::span<const real> b, std::span<real> x) const;

 private:
  idx n_ = 0;
  bool ok_ = false;
  std::int64_t factor_flops_ = 0;
  std::vector<idx> perm_;      // new -> old
  std::vector<idx> iperm_;     // old -> new
  // L in compressed sparse column form, diagonal stored separately.
  std::vector<nnz_t> colptr_;
  std::vector<idx> rowidx_;
  std::vector<real> values_;
  std::vector<real> diag_;
};

}  // namespace prom::la
