// The solve data of one multigrid level, written once for both
// hierarchies: the smoother (§7.2: damped Richardson with block Jacobi on
// graph-partitioned blocks, 6 per 1,000 unknowns; point Jacobi and
// Chebyshev as alternatives) and the redundant factorization of the
// constant-size coarsest operator (§5). mg::MgLevel and dla::DistMgLevel
// are both LevelSolves: each hierarchy builds one per level from that
// level's owned-rows diagonal block (the whole operator on the serial
// hierarchy) and applies it through its own backend and operator view, so
// a smoothing step and a coarse solve are the same arithmetic on every
// backend. Every sweep is k-column (la/smoother_kernels.h); a single
// right-hand side is a one-column block.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.h"
#include "la/backend.h"
#include "la/csr.h"
#include "la/dense.h"
#include "la/multivec.h"
#include "la/smoother_kernels.h"

namespace prom::mg {

enum class SmootherKind : std::uint8_t { kJacobi, kBlockJacobi, kChebyshev };

/// kDense factors symmetric coarsest operators (LDL^T); kDenseLu is the
/// general-matrix option required by the non-symmetric scalar classes
/// (SUPG advection–diffusion), where the Galerkin coarse operators are
/// non-symmetric too.
enum class CoarseSolverKind : std::uint8_t { kDense, kDenseLu };

struct MgOptions;  // mg/hierarchy.h

/// The temporaries of a smoothing step and a coarse solve on one level,
/// held by whoever runs the cycle (dla::DistMgLevel per level, the serial
/// mg::HierarchyCycleView per solve) so a repeat cycle allocates nothing:
/// the sweeps' residual blocks and block gathers, the masked step's copy
/// of x, and on the coarsest level the gathered right-hand side and full
/// solution (distributed only) and the LDL^T staging.
struct SolveScratch {
  la::SweepScratch sweep;
  la::MultiVec x_masked;
  la::MultiVec b_full, x_full;
  std::vector<real> ldlt_work;
};

struct LevelSolve {
  // Smoother over the level's local rows: every level but the coarsest of
  // a multi-level hierarchy (a single-level hierarchy smooths its only
  // level in place of a coarse solve).
  SmootherKind kind = SmootherKind::kBlockJacobi;
  real omega = 0.6;
  std::vector<real> inv_diag;            ///< Jacobi / Chebyshev
  std::vector<std::vector<idx>> blocks;  ///< block Jacobi: partition of rows
  std::vector<la::DenseLdlt> factors;    ///< LDL^T of each diagonal block
  int cheby_degree = 3;
  real cheby_lmin = 0, cheby_lmax = 0;

  /// Local smoothing (adaptive refinement levels, MgLevel::smooth_rows):
  /// when `smooth_masked` is set — identically on every rank of the
  /// level — a smoothing step updates only the local rows listed in
  /// `smooth_rows_local` (this rank's slice of the refined region) and
  /// leaves the rest of x untouched. The underlying sweep still runs on
  /// all rows, so a collective backend's exchange schedule is unchanged.
  bool smooth_masked = false;
  std::vector<idx> smooth_rows_local;

  // Coarsest level of a multi-level hierarchy: the redundant factor of
  // the whole (gathered) operator, LDL^T for symmetric chains or
  // partial-pivoting LU (CoarseSolverKind::kDenseLu); at most one is set.
  std::unique_ptr<la::DenseLdlt> direct;
  std::unique_ptr<la::DenseLu> direct_lu;

  /// Sets up the smoother of kind `mo.smoother` from `diag`, the level's
  /// owned rows with owned column i at local row i (a distributed level's
  /// ghost columns, numbered from nrows up, are ignored): the inverted
  /// diagonal, or the graph-partitioned blocks and their factors.
  /// Chebyshev targets [lmax / 30, 1.1 lmax] of D^{-1}A, lmax estimated by
  /// power iteration on the level operator `op` through backend `be`;
  /// `row_offset` is the global index of the first local row.
  template <class B, class Op>
    requires la::BackendFor<B, Op>
  void build_smoother(const B& be, const Op& op, const la::Csr& diag,
                      idx row_offset, const MgOptions& mo) {
    set_smoother(diag, mo);
    if (kind == SmootherKind::kChebyshev) {
      const real lambda =
          la::estimate_lambda_max(be, op, inv_diag, row_offset);
      cheby_lmax = 1.1 * std::max(lambda, real{1e-12});
      cheby_lmin = cheby_lmax / 30;
    }
  }

  /// Block Jacobi on the given blocks, which must partition the rows of
  /// `diag` (checked); each diagonal block is factored by dense LDL^T,
  /// with a relative diagonal shift escalated until the factorization
  /// succeeds on an ill-conditioned or mildly indefinite block.
  void set_block_jacobi(const la::Csr& diag,
                        std::vector<std::vector<idx>> blocks, real omega);

  /// One smoothing step of the configured kind on k columns through
  /// backend `be` and the level operator view `op`; column j is bitwise
  /// the k = 1 step on that column. On a masked level the sweep runs on a
  /// copy of x and only `smooth_rows_local` take its update.
  template <class B, class Op>
    requires la::BackendFor<B, Op>
  void smooth_mv(const B& be, const Op& op, const la::MultiVec& b,
                 la::MultiVec& x, SolveScratch& ws) const {
    if (!smooth_masked) {
      sweep_mv(be, op, b, x, ws.sweep);
      return;
    }
    la::MultiVec& tmp = ws.x_masked;
    tmp = x;  // copy-assignment reuses the held capacity
    sweep_mv(be, op, b, tmp, ws.sweep);
    for (int j = 0; j < x.cols(); ++j) {
      real* xj = x.col_data(j);
      const real* tj = tmp.col_data(j);
      for (idx i : smooth_rows_local) xj[i] = tj[i];
    }
  }

  /// Factors the whole coarsest operator `a` for the coarse solve.
  void factor_coarse(const la::Csr& a, CoarseSolverKind solver);

  bool has_coarse_factor() const {
    return direct != nullptr || direct_lu != nullptr;
  }

  /// X = A^{-1} B on the whole coarsest problem (requires
  /// has_coarse_factor()): LDL^T solves all k columns in one blocked call,
  /// staged through `work`; LU solves one column at a time.
  void coarse_solve_mv(const la::MultiVec& b, la::MultiVec& x,
                       std::vector<real>& work) const;

 private:
  /// build_smoother without the Chebyshev bounds.
  void set_smoother(const la::Csr& diag, const MgOptions& mo);

  template <class B, class Op>
  void sweep_mv(const B& be, const Op& op, const la::MultiVec& b,
                la::MultiVec& x, la::SweepScratch& ws) const {
    switch (kind) {
      case SmootherKind::kJacobi:
        la::jacobi_sweep_mv(be, op, inv_diag, omega, b, x, ws);
        break;
      case SmootherKind::kChebyshev:
        la::chebyshev_sweep_mv(be, op, inv_diag, cheby_degree, cheby_lmin,
                               cheby_lmax, b, x, ws);
        break;
      case SmootherKind::kBlockJacobi:
        la::block_jacobi_sweep_mv(be, op, blocks, factors, omega, b, x, ws);
        break;
    }
  }
};

}  // namespace prom::mg
