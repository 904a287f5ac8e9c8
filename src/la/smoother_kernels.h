// The single smoother-sweep implementations, templated over an execution
// backend (la/backend.h) and k-column only: a single right-hand side is a
// one-column block. The level smoother both multigrid hierarchies run
// (mg/level_solve.h) dispatches here, so a smoothing step is the same
// arithmetic — including the fixed parallel_for grains of the intra-rank
// determinism contract — on every backend; only the operator application
// communicates.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "la/backend.h"
#include "la/dense.h"
#include "la/vec.h"
#include "obs/trace.h"

namespace prom::la {

/// Fixed chunk sizes (see common/parallel.h determinism contract).
constexpr idx kSmootherPointGrain = 8192;  // elementwise updates
constexpr idx kSmootherBlockGrain = 8;     // block-Jacobi blocks

// Each sweep shares the operator pass (residual_mv / apply_mv) across the
// k columns and then runs the scalar elementwise update per column with
// the same fixed grains, so column j of a sweep is bitwise identical to
// the one-column sweep of that column.

/// The temporaries of the column-blocked sweeps, held by the caller
/// across calls (dla keeps one per level) so a repeat sweep allocates
/// nothing: each is reshaped per call, and reshaping keeps capacity.
struct SweepScratch {
  MultiVec r, d, ad;  ///< residual; Chebyshev direction and its image
  /// Block-Jacobi gathers: block b's row-interleaved k columns at
  /// block_off[b] * k, so concurrent chunks write disjoint slices.
  std::vector<real> rb;
  std::vector<std::size_t> block_off;
};

/// One damped point-Jacobi step: x += omega * D^{-1} (b - A x), on the
/// local block. `inv_diag` holds the inverted diagonal of the local rows.
template <class B, class Op>
  requires BackendFor<B, Op>
void jacobi_sweep_mv(const B& be, const Op& a, std::span<const real> inv_diag,
                     real omega, const MultiVec& b, MultiVec& x,
                     SweepScratch& ws) {
  const obs::Span span("smoother.jacobi");
  const idx n = be.local_n(a);
  const int ncol = b.cols();
  PROM_CHECK(b.rows() == n && x.rows() == n && x.cols() == ncol);
  MultiVec& r = ws.r;
  r.resize(n, ncol);
  be.residual_mv(a, b, x, r);
  for (int j = 0; j < ncol; ++j) {
    const real* rj = r.col_data(j);
    real* xj = x.col_data(j);
    common::parallel_for(0, n, kSmootherPointGrain, [&](idx ib, idx ie) {
      for (idx i = ib; i < ie; ++i) {
        xj[i] += omega * inv_diag[i] * rj[i];
      }
    });
  }
  count_flops(4LL * n * ncol);
}

/// One damped block-Jacobi step: x += omega * blkdiag(A)^{-1} (b - A x).
/// `blocks[k]` lists the local row indices of block k (a partition of the
/// local rows); `factors[k]` is its dense LDL^T.
template <class B, class Op>
  requires BackendFor<B, Op>
void block_jacobi_sweep_mv(const B& be, const Op& a,
                           std::span<const std::vector<idx>> blocks,
                           std::span<const DenseLdlt> factors, real omega,
                           const MultiVec& b, MultiVec& x, SweepScratch& ws) {
  const obs::Span span("smoother.block_jacobi");
  const idx n = be.local_n(a);
  const int ncol = b.cols();
  PROM_CHECK(b.rows() == n && x.rows() == n && x.cols() == ncol);
  MultiVec& r = ws.r;
  r.resize(n, ncol);
  be.residual_mv(a, b, x, r);
  ws.block_off.resize(blocks.size() + 1);
  ws.block_off[0] = 0;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    ws.block_off[k + 1] = ws.block_off[k] + blocks[k].size();
  }
  ws.rb.resize(ws.block_off.back() * ncol);
  // Each block solves all k columns in one blocked LDL^T call on the
  // row-interleaved gather (entry (li, j) at li * ncol + j).
  common::parallel_for(
      0, static_cast<idx>(blocks.size()), kSmootherBlockGrain,
      [&](idx kb, idx ke) {
        for (idx k = kb; k < ke; ++k) {
          const auto& block = blocks[k];
          const std::span<real> rb(ws.rb.data() + ws.block_off[k] * ncol,
                                   block.size() * ncol);
          for (std::size_t li = 0; li < block.size(); ++li) {
            for (int j = 0; j < ncol; ++j) {
              rb[li * ncol + j] = r.col_data(j)[block[li]];
            }
          }
          factors[k].solve(rb, rb, ncol);
          for (std::size_t li = 0; li < block.size(); ++li) {
            for (int j = 0; j < ncol; ++j) {
              x.col_data(j)[block[li]] += omega * rb[li * ncol + j];
            }
          }
        }
      });
  count_flops(2LL * n * ncol);
}

/// One Chebyshev smoothing pass of the given degree on the Jacobi-
/// preconditioned operator D^{-1}A, targeting [lmin, lmax]. The recurrence
/// scalars (theta, rho, …) depend only on the preset eigenvalue bounds, so
/// sharing them across columns changes nothing.
template <class B, class Op>
  requires BackendFor<B, Op>
void chebyshev_sweep_mv(const B& be, const Op& a,
                        std::span<const real> inv_diag, int degree, real lmin,
                        real lmax, const MultiVec& b, MultiVec& x,
                        SweepScratch& ws) {
  const obs::Span span("smoother.chebyshev");
  const idx n = be.local_n(a);
  const int ncol = b.cols();
  PROM_CHECK(b.rows() == n && x.rows() == n && x.cols() == ncol);
  const real theta = (lmax + lmin) / 2;
  const real delta = (lmax - lmin) / 2;
  const real sigma = theta / delta;
  real rho = 1 / sigma;

  MultiVec& r = ws.r;
  MultiVec& d = ws.d;
  MultiVec& ad = ws.ad;
  r.resize(n, ncol);
  d.resize(n, ncol);
  ad.resize(n, ncol);
  be.residual_mv(a, b, x, r);
  for (int j = 0; j < ncol; ++j) {
    const real* rj = r.col_data(j);
    real* dj = d.col_data(j);
    common::parallel_for(0, n, kSmootherPointGrain, [&](idx ib, idx ie) {
      for (idx i = ib; i < ie; ++i) dj[i] = inv_diag[i] * rj[i] / theta;
    });
  }
  for (int k = 0; k < degree; ++k) {
    for (int j = 0; j < ncol; ++j) axpy(1, d.col(j), x.col(j));
    if (k + 1 == degree) break;
    be.apply_mv(a, d, ad);
    for (int j = 0; j < ncol; ++j) axpy(-1, ad.col(j), r.col(j));
    const real rho_new = 1 / (2 * sigma - rho);
    for (int j = 0; j < ncol; ++j) {
      const real* rj = r.col_data(j);
      real* dj = d.col_data(j);
      common::parallel_for(0, n, kSmootherPointGrain, [&](idx ib, idx ie) {
        for (idx i = ib; i < ie; ++i) {
          const real zi = inv_diag[i] * rj[i];
          dj[i] = rho_new * rho * dj[i] + 2 * rho_new / delta * zi;
        }
      });
    }
    rho = rho_new;
    count_flops(6LL * n * ncol);
  }
}

/// Power iteration for the largest eigenvalue of D^{-1}A (15 steps from a
/// deterministic start). `row_offset` is the global index of the first
/// local row, so the start vector — and hence the estimate — is a function
/// of the global problem only, not of the distribution.
template <class B, class Op>
  requires BackendFor<B, Op>
real estimate_lambda_max(const B& be, const Op& a,
                         std::span<const real> inv_diag, idx row_offset) {
  const idx n = be.local_n(a);
  std::vector<real> v(static_cast<std::size_t>(n)), av(v.size());
  for (idx i = 0; i < n; ++i) v[i] = 1 + ((row_offset + i) % 7) * 0.1;
  real lambda = 1;
  for (int it = 0; it < 15; ++it) {
    be.apply(a, v, av);
    for (idx i = 0; i < n; ++i) av[i] *= inv_diag[i];
    lambda = be.norm2(av);
    if (lambda == 0) break;
    for (idx i = 0; i < n; ++i) v[i] = av[i] / lambda;
  }
  return lambda;
}

}  // namespace prom::la
