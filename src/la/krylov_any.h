// The single-source Krylov solvers — PCG for SPD operators, restarted
// right-preconditioned GMRES(m) and BiCGStab for non-symmetric ones — each
// written exactly once as a template over an execution backend
// (la/backend.h). PCG is k-column only (pcg_multi_any; one right-hand
// side is a one-column block); GMRES and BiCGStab have no blocked form
// and stay single-vector. la::cg / la::pcg / la::gmres / la::bicgstab
// instantiate them with SerialBackend; dla::dist_pcg_multi / dist_gmres /
// dist_bicgstab with ParxBackend — same code, same stopping criterion
// (`krylov_converged`), only the reductions differ.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.h"
#include "la/backend.h"
#include "la/krylov.h"
#include "la/vec.h"
#include "obs/trace.h"

namespace prom::la {

/// Reusable PCG work storage (r, z, p, ap). Owned by long-lived callers
/// (the solve service keeps one per rank) so that repeat solves against a
/// cached operator perform no per-solve heap allocation: `ensure` only
/// reallocates when the requested shape exceeds anything seen before.
struct KrylovWorkspace {
  MultiVec r, z, p, ap;

  void ensure(idx n, int k) {
    if (r.rows() == n && r.cols() == k) return;
    r.resize(n, k);
    z.resize(n, k);
    p.resize(n, k);
    ap.resize(n, k);
  }
};

/// PCG for SPD systems over any backend, on k right-hand sides against one
/// operator; `m == nullptr` means unpreconditioned. `b` and `x` are the
/// local blocks of the distributed right-hand sides and iterates (the
/// whole vectors on SerialBackend); x holds the initial guess on entry and
/// the solution on exit, and a single right-hand side is a one-column
/// block. Every matrix pass (apply_mv) and ghost exchange is shared, while
/// the per-column scalar recurrences stay separate: column j runs the
/// single-vector PCG operation sequence on its own data — per-column
/// dots/norms reduced individually, same update order — so it is bitwise
/// the k = 1 solve of that RHS, at any kernel-thread count. On a
/// collective backend every rank receives the same results. A
/// caller-owned `ws` makes repeat solves allocation-free.
///
/// Convergence masking: a column that converges (or breaks down) freezes —
/// its scalar recurrences stop exactly where its k = 1 solve would have.
/// Frozen columns still ride along in the blocked applies (their results
/// are discarded), so the collective call counts stay identical on every
/// rank; all masks derive from reduced values, which a collective backend
/// returns bit-identically everywhere.
template <class B, class Op>
  requires BackendFor<B, Op>
std::vector<KrylovResult> pcg_multi_any(const B& be, const Op& a, const Op* m,
                                        const MultiVec& b, MultiVec& x,
                                        const KrylovOptions& opts,
                                        KrylovWorkspace* ws = nullptr) {
  const idx n = be.local_n(a);
  const int k = b.cols();
  PROM_CHECK(b.rows() == n && x.rows() == n && x.cols() == k && k >= 1 &&
             k <= kMaxRhsBlock);

  std::vector<KrylovResult> results(static_cast<std::size_t>(k));
  KrylovWorkspace local_ws;
  KrylovWorkspace& w = ws != nullptr ? *ws : local_ws;
  w.ensure(n, k);
  MultiVec& r = w.r;
  MultiVec& z = w.z;
  MultiVec& p = w.p;
  MultiVec& ap = w.ap;

  real bnorm[kMaxRhsBlock];
  real rnorm[kMaxRhsBlock] = {};
  real rz[kMaxRhsBlock] = {};
  bool active[kMaxRhsBlock];
  const auto any_active = [&] {
    for (int j = 0; j < k; ++j) {
      if (active[j]) return true;
    }
    return false;
  };

  for (int j = 0; j < k; ++j) {
    active[j] = true;
    bnorm[j] = be.norm2(b.col(j));
    if (opts.track_history) results[j].history.push_back(bnorm[j]);
    obs::series_push("pcg.residual", bnorm[j]);
    if (bnorm[j] == real{0}) {
      set_all(x.col(j), 0);
      results[j].converged = true;
      active[j] = false;
    }
  }
  if (!any_active()) return results;

  // R = B - A X (columns of dead RHSs computed and ignored).
  be.residual_mv(a, b, x, r);
  for (int j = 0; j < k; ++j) {
    if (!active[j]) continue;
    rnorm[j] = be.norm2(r.col(j));
    if (krylov_converged(rnorm[j], bnorm[j], opts.rtol)) {
      results[j].converged = true;
      results[j].final_relres = rnorm[j] / bnorm[j];
      active[j] = false;
    }
  }
  if (!any_active()) return results;

  if (m != nullptr) {
    be.apply_mv(*m, r, z);
  } else {
    for (int j = 0; j < k; ++j) copy(r.col(j), z.col(j));
  }
  for (int j = 0; j < k; ++j) {
    if (!active[j]) continue;
    copy(z.col(j), p.col(j));
    rz[j] = be.dot(r.col(j), z.col(j));
  }

  for (int it = 1; it <= opts.max_iters; ++it) {
    be.apply_mv(a, p, ap);
    for (int j = 0; j < k; ++j) {
      if (!active[j]) continue;
      const real pap = be.dot(p.col(j), ap.col(j));
      if (!std::isfinite(pap) || pap <= 0) {
        results[j].breakdown = true;
        results[j].final_relres = rnorm[j] / bnorm[j];
        active[j] = false;
        continue;
      }
      const real alpha = rz[j] / pap;
      be.axpy(alpha, p.col(j), x.col(j));
      be.axpy(-alpha, ap.col(j), r.col(j));
      rnorm[j] = be.norm2(r.col(j));
      if (opts.track_history) results[j].history.push_back(rnorm[j]);
      obs::series_push("pcg.residual", rnorm[j]);
      results[j].iterations = it;
      if (krylov_converged(rnorm[j], bnorm[j], opts.rtol)) {
        results[j].converged = true;
        results[j].final_relres = rnorm[j] / bnorm[j];
        active[j] = false;
      }
    }
    if (!any_active()) break;
    if (m != nullptr) {
      be.apply_mv(*m, r, z);
    } else {
      for (int j = 0; j < k; ++j) copy(r.col(j), z.col(j));
    }
    for (int j = 0; j < k; ++j) {
      if (!active[j]) continue;
      const real rz_new = be.dot(r.col(j), z.col(j));
      const real beta = rz_new / rz[j];
      rz[j] = rz_new;
      aypx(beta, z.col(j), p.col(j));
    }
  }
  for (int j = 0; j < k; ++j) {
    if (active[j]) results[j].final_relres = rnorm[j] / bnorm[j];
  }
  return results;
}

/// Restarted GMRES(m) with optional *right* preconditioning over any
/// backend (`m == nullptr` means unpreconditioned). The Arnoldi basis
/// vectors are local blocks; the Hessenberg matrix, Givens rotations, and
/// least-squares state are replicated scalars derived purely from backend
/// reductions, so on a collective backend every rank walks the identical
/// recurrence and receives the same KrylovResult. Right preconditioning
/// keeps the minimized residual the *true* residual, so `krylov_converged`
/// means the same thing it does for PCG.
template <class B, class Op>
  requires BackendFor<B, Op>
KrylovResult gmres_any(const B& be, const Op& a, const Op* m,
                       std::span<const real> b, std::span<real> x,
                       const GmresOptions& opts) {
  const idx n = be.local_n(a);
  PROM_CHECK(static_cast<idx>(b.size()) == n &&
             static_cast<idx>(x.size()) == n);
  const int restart = std::max(1, opts.restart);

  KrylovResult result;
  const real bnorm = be.norm2(b);
  if (opts.track_history) result.history.push_back(bnorm);
  obs::series_push("gmres.residual", bnorm);
  if (bnorm == real{0}) {
    set_all(x, 0);
    result.converged = true;
    return result;
  }

  std::vector<std::vector<real>> basis;  // Arnoldi vectors v_0..v_k
  // Hessenberg in compact column form + Givens rotation coefficients.
  std::vector<std::vector<real>> hcols;
  std::vector<real> cs(static_cast<std::size_t>(restart) + 1);
  std::vector<real> sn(static_cast<std::size_t>(restart) + 1);
  std::vector<real> g(static_cast<std::size_t>(restart) + 1);
  std::vector<real> r(static_cast<std::size_t>(n));
  std::vector<real> w(static_cast<std::size_t>(n));
  std::vector<real> z(static_cast<std::size_t>(n));

  int total_iters = 0;
  while (total_iters < opts.max_iters) {
    // (Re)start: r = b - A x.
    be.residual(a, b, x, r);
    real rnorm = be.norm2(r);
    result.final_relres = rnorm / bnorm;
    if (krylov_converged(rnorm, bnorm, opts.rtol)) {
      result.converged = true;
      return result;
    }

    basis.clear();
    hcols.clear();
    basis.push_back(std::vector<real>(r.begin(), r.end()));
    scale(1 / rnorm, basis[0]);
    std::fill(g.begin(), g.end(), real{0});
    g[0] = rnorm;

    int k = 0;
    for (; k < restart && total_iters < opts.max_iters; ++k) {
      // w = A M^{-1} v_k (right preconditioning).
      if (m != nullptr) {
        be.apply(*m, basis[k], z);
        be.apply(a, z, w);
      } else {
        be.apply(a, basis[k], w);
      }
      // Modified Gram-Schmidt.
      std::vector<real> h(static_cast<std::size_t>(k) + 2, 0);
      for (int i = 0; i <= k; ++i) {
        h[i] = be.dot(w, basis[i]);
        axpy(-h[i], basis[i], w);
      }
      h[k + 1] = be.norm2(w);
      const real subdiag = h[k + 1];
      if (h[k + 1] > 0) {
        basis.push_back(std::vector<real>(w.begin(), w.end()));
        scale(1 / h[k + 1], basis.back());
      }
      // Apply previous Givens rotations to the new column.
      for (int i = 0; i < k; ++i) {
        const real t = cs[i] * h[i] + sn[i] * h[i + 1];
        h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1];
        h[i] = t;
      }
      // New rotation to annihilate h[k+1].
      const real denom = std::sqrt(h[k] * h[k] + h[k + 1] * h[k + 1]);
      if (denom == 0) {
        cs[k] = 1;
        sn[k] = 0;
      } else {
        cs[k] = h[k] / denom;
        sn[k] = h[k + 1] / denom;
      }
      h[k] = cs[k] * h[k] + sn[k] * h[k + 1];
      h[k + 1] = 0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      hcols.push_back(std::move(h));
      ++total_iters;
      result.iterations = total_iters;
      rnorm = std::fabs(g[k + 1]);
      if (opts.track_history) result.history.push_back(rnorm);
      obs::series_push("gmres.residual", rnorm);
      if (krylov_converged(rnorm, bnorm, opts.rtol) || subdiag == 0) {
        ++k;
        break;
      }
    }

    // Solve the k x k triangular system and update x. A zero on its
    // diagonal (the Krylov space hit the operator's null space) is a
    // breakdown: x keeps its value from the last restart. H is replicated,
    // so every rank of a collective backend stops here together.
    std::vector<real> y(static_cast<std::size_t>(k));
    for (int i = k - 1; i >= 0; --i) {
      if (hcols[i][i] == 0) {
        result.breakdown = true;
        result.converged = false;
        return result;
      }
      real sum = g[i];
      for (int jj = i + 1; jj < k; ++jj) sum -= hcols[jj][i] * y[jj];
      y[i] = sum / hcols[i][i];
    }
    std::fill(z.begin(), z.end(), real{0});
    for (int i = 0; i < k; ++i) axpy(y[i], basis[i], z);
    if (m != nullptr) {
      be.apply(*m, z, w);
      axpy(1, w, x);
    } else {
      axpy(1, z, x);
    }
    result.final_relres = rnorm / bnorm;
    if (krylov_converged(rnorm, bnorm, opts.rtol)) {
      result.converged = true;
      return result;
    }
  }
  // Final true-residual check.
  be.residual(a, b, x, r);
  result.final_relres = be.norm2(r) / bnorm;
  result.converged = result.final_relres <= opts.rtol;
  return result;
}

/// BiCGStab with optional *right* preconditioning over any backend
/// (`m == nullptr` means unpreconditioned). Short recurrences — constant
/// storage where GMRES grows a basis — at the price of a less monotone
/// residual. All recurrence scalars (rho, alpha, omega) come from backend
/// reductions, so the serial and collective instantiations walk the same
/// iterate history; the residual history records both the half-step ||s||
/// and the full-step ||r||, one `iterations` count per full loop.
template <class B, class Op>
  requires BackendFor<B, Op>
KrylovResult bicgstab_any(const B& be, const Op& a, const Op* m,
                          std::span<const real> b, std::span<real> x,
                          const KrylovOptions& opts) {
  const idx n = be.local_n(a);
  PROM_CHECK(static_cast<idx>(b.size()) == n &&
             static_cast<idx>(x.size()) == n);

  KrylovResult result;
  const real bnorm = be.norm2(b);
  if (opts.track_history) result.history.push_back(bnorm);
  obs::series_push("bicgstab.residual", bnorm);
  if (bnorm == real{0}) {
    set_all(x, 0);
    result.converged = true;
    return result;
  }

  std::vector<real> r(static_cast<std::size_t>(n));
  std::vector<real> rhat(static_cast<std::size_t>(n));
  std::vector<real> p(static_cast<std::size_t>(n), 0);
  std::vector<real> v(static_cast<std::size_t>(n), 0);
  std::vector<real> s(static_cast<std::size_t>(n));
  std::vector<real> t(static_cast<std::size_t>(n));
  std::vector<real> phat(static_cast<std::size_t>(n));
  std::vector<real> shat(static_cast<std::size_t>(n));

  be.residual(a, b, x, r);
  real rnorm = be.norm2(r);
  if (krylov_converged(rnorm, bnorm, opts.rtol)) {
    result.converged = true;
    result.final_relres = rnorm / bnorm;
    return result;
  }
  copy(r, rhat);  // fixed shadow residual

  real rho = 1, alpha = 1, omega = 1;
  for (int it = 1; it <= opts.max_iters; ++it) {
    const real rho_new = be.dot(rhat, r);
    if (!std::isfinite(rho_new) || rho_new == 0 || omega == 0) {
      result.breakdown = true;
      break;
    }
    if (it == 1) {
      copy(r, p);
    } else {
      const real beta = (rho_new / rho) * (alpha / omega);
      axpy(-omega, v, p);    // p -= omega v
      aypx(beta, r, p);      // p  = r + beta p
    }
    if (m != nullptr) {
      be.apply(*m, p, phat);
    } else {
      copy(p, phat);
    }
    be.apply(a, phat, v);
    const real rhat_v = be.dot(rhat, v);
    if (!std::isfinite(rhat_v) || rhat_v == 0) {
      result.breakdown = true;
      break;
    }
    alpha = rho_new / rhat_v;
    waxpby(1, r, -alpha, v, s);
    const real snorm = be.norm2(s);
    result.iterations = it;
    if (opts.track_history) result.history.push_back(snorm);
    obs::series_push("bicgstab.residual", snorm);
    if (krylov_converged(snorm, bnorm, opts.rtol)) {
      be.axpy(alpha, phat, x);
      rnorm = snorm;
      result.converged = true;
      break;
    }
    if (m != nullptr) {
      be.apply(*m, s, shat);
    } else {
      copy(s, shat);
    }
    be.apply(a, shat, t);
    const real tt = be.dot(t, t);
    const real ts = be.dot(t, s);
    if (!std::isfinite(tt) || tt == 0) {
      result.breakdown = true;
      break;
    }
    omega = ts / tt;
    be.axpy(alpha, phat, x);
    be.axpy(omega, shat, x);
    waxpby(1, s, -omega, t, r);
    rnorm = be.norm2(r);
    if (opts.track_history) result.history.push_back(rnorm);
    obs::series_push("bicgstab.residual", rnorm);
    if (krylov_converged(rnorm, bnorm, opts.rtol)) {
      result.converged = true;
      break;
    }
    rho = rho_new;
  }
  result.final_relres = rnorm / bnorm;
  return result;
}

}  // namespace prom::la
