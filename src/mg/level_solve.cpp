#include "mg/level_solve.h"

#include <cmath>

#include "common/error.h"
#include "mg/hierarchy.h"
#include "partition/greedy.h"

namespace prom::mg {
namespace {

/// 1 / diag(a), checked nonzero: the diagonal scaling of the point-wise
/// smoothers.
std::vector<real> inverted_diagonal(const la::Csr& a) {
  std::vector<real> d = a.diagonal();
  for (real& v : d) {
    PROM_CHECK_MSG(v != real{0}, "smoother needs a nonzero diagonal");
    v = real{1} / v;
  }
  return d;
}

/// LDL^T of `a`. A diagonal block of an SPD matrix is SPD in exact
/// arithmetic, but ill-conditioned (or, inside Newton, mildly indefinite)
/// operators can defeat the unpivoted factorization, so a relative
/// diagonal shift starting at 1e-12 * `scale` is escalated until it
/// succeeds — the standard manufactured-SPD fallback (cf. PETSc's
/// pc_factor_shift). A shifted factor degrades the smoother or the coarse
/// solve, never the correctness of the Krylov answer.
la::DenseLdlt shifted_ldlt(const la::DenseMatrix& a, real scale,
                           const char* what) {
  la::DenseLdlt f(a);
  for (real shift = 1e-12 * scale; !f.ok(); shift *= 10) {
    la::DenseMatrix shifted = a;
    for (idx i = 0; i < a.rows(); ++i) shifted(i, i) += shift;
    f = la::DenseLdlt(shifted);
    PROM_CHECK_MSG(shift < 1e30, what);
  }
  return f;
}

}  // namespace

void LevelSolve::set_smoother(const la::Csr& diag, const MgOptions& mo) {
  kind = mo.smoother;
  omega = mo.omega;
  switch (kind) {
    case SmootherKind::kJacobi:
      inv_diag = inverted_diagonal(diag);
      break;
    case SmootherKind::kChebyshev:
      inv_diag = inverted_diagonal(diag);
      cheby_degree = std::max(1, mo.cheby_degree);
      break;
    case SmootherKind::kBlockJacobi:
      set_block_jacobi(diag,
                       partition::block_jacobi_blocks(la::pattern_graph(diag),
                                                      mo.bj_blocks_per_1000),
                       mo.omega);
      break;
  }
}

void LevelSolve::set_block_jacobi(const la::Csr& diag,
                                  std::vector<std::vector<idx>> blocks_in,
                                  real omega_in) {
  kind = SmootherKind::kBlockJacobi;
  omega = omega_in;
  blocks = std::move(blocks_in);
  const idx n = diag.nrows;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  idx total = 0;
  for (const auto& block : blocks) {
    for (idx i : block) {
      PROM_CHECK(i >= 0 && i < n);
      PROM_CHECK_MSG(!seen[i], "block Jacobi blocks overlap");
      seen[i] = 1;
      ++total;
    }
  }
  PROM_CHECK_MSG(total == n, "block Jacobi blocks must cover all rows");

  factors.clear();
  factors.reserve(blocks.size());
  std::vector<idx> local_of(static_cast<std::size_t>(n), kInvalidIdx);
  for (const auto& block : blocks) {
    const idx bn = static_cast<idx>(block.size());
    // Gather the dense diagonal block. Blocks are small (≈ 170 unknowns at
    // the paper's 6-per-1000 density), so dense extraction is fine.
    for (idx li = 0; li < bn; ++li) local_of[block[li]] = li;
    la::DenseMatrix blk(bn, bn);
    real max_diag = 0;
    for (idx li = 0; li < bn; ++li) {
      const idx gi = block[li];
      for (nnz_t k = diag.rowptr[gi]; k < diag.rowptr[gi + 1]; ++k) {
        if (diag.colidx[k] >= n) continue;  // ghost column
        const idx lj = local_of[diag.colidx[k]];
        if (lj != kInvalidIdx) blk(li, lj) = diag.vals[k];
        if (diag.colidx[k] == gi) max_diag = std::max(max_diag, diag.vals[k]);
      }
    }
    factors.push_back(shifted_ldlt(blk, max_diag > 0 ? max_diag : 1,
                                   "block Jacobi shift escalation failed"));
    for (idx li = 0; li < bn; ++li) local_of[block[li]] = kInvalidIdx;
  }
}

void LevelSolve::factor_coarse(const la::Csr& a, CoarseSolverKind solver) {
  la::DenseMatrix dense(a.nrows, a.ncols);
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      dense(i, a.colidx[k]) = a.vals[k];
    }
  }
  if (solver == CoarseSolverKind::kDenseLu) {
    // Partial pivoting handles anything short of exact singularity.
    direct_lu = std::make_unique<la::DenseLu>(dense);
    PROM_CHECK_MSG(direct_lu->ok(),
                   "coarsest-level LU factorization failed (singular)");
    return;
  }
  real max_diag = 1;
  for (idx i = 0; i < a.nrows; ++i) {
    max_diag = std::max(max_diag, std::abs(dense(i, i)));
  }
  direct = std::make_unique<la::DenseLdlt>(
      shifted_ldlt(dense, max_diag, "coarse-level shift escalation failed"));
}

void LevelSolve::coarse_solve_mv(const la::MultiVec& b, la::MultiVec& x,
                                 std::vector<real>& work) const {
  if (direct != nullptr) {
    direct->solve(b, x, work);
    return;
  }
  PROM_CHECK(direct_lu != nullptr);
  for (int j = 0; j < b.cols(); ++j) direct_lu->solve(b.col(j), x.col(j));
}

}  // namespace prom::mg
