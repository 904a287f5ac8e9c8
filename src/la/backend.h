// Execution backends for the single-source solver layer. Every solve-phase
// algorithm (PCG, GMRES, BiCGStab, the smoother sweeps, the multigrid
// cycles) is written exactly once as a template over a Backend: a small
// value type that knows how to (a) size and apply an operator on the
// locally-stored part of a vector and (b) combine locally-computed
// reductions across the machine. PCG, the sweeps and the cycles take k
// columns (apply_mv / residual_mv; one right-hand side is a one-column
// block); GMRES, BiCGStab and the Chebyshev setup's power iteration use
// the single-vector hooks.
//
// The serial backend's reduction hook is the identity (the local part IS
// the whole vector); the parx backend (dla/parx_backend.h) reduces with an
// allreduce over the virtual ranks. Everything else — axpy-style vector
// updates, dot, norm — is expressed in terms of those two hooks, so the
// serial and distributed solvers cannot drift apart.
#pragma once

#include <cmath>
#include <concepts>
#include <span>

#include "common/config.h"
#include "la/multivec.h"
#include "la/vec.h"

namespace prom::la {

/// What the generic solver templates require of a backend B driving an
/// operator type Op. `local_n` is the length of the locally-stored block of
/// a distributed vector (the whole vector for the serial backend); `apply`
/// computes y = Op x on local blocks, communicating internally if needed;
/// `reduce_sum` combines a locally-computed partial reduction into the
/// global value on every caller.
template <class B, class Op>
concept BackendFor =
    requires(const B& be, const Op& op, std::span<const real> cx,
             std::span<real> mx, real v) {
      { be.local_n(op) } -> std::convertible_to<idx>;
      be.apply(op, cx, mx);
      be.residual(op, cx, cx, mx);
      { be.reduce_sum(v) } -> std::convertible_to<real>;
      { be.dot(cx, cx) } -> std::convertible_to<real>;
      { be.norm2(cx) } -> std::convertible_to<real>;
      be.axpy(v, cx, mx);
    };

/// Single-address-space backend: operators are la::LinearOperator (or any
/// type with rows()/apply()), vectors are plain spans, reductions are
/// already global.
struct SerialBackend {
  /// Local storage of a vector (= the whole vector on this backend).
  using Vec = std::span<real>;

  template <class Op>
  idx local_n(const Op& op) const {
    return op.rows();
  }

  template <class Op>
  void apply(const Op& op, std::span<const real> x, std::span<real> y) const {
    op.apply(x, y);
  }

  /// r = b - Op x. Operators exposing a fused residual kernel (the
  /// matrix-free operator) get it; the fallback composes apply + waxpby,
  /// which produces the same bits (one subtraction per entry either way),
  /// so backends may fuse freely without perturbing residual histories.
  template <class Op>
  void residual(const Op& op, std::span<const real> b,
                std::span<const real> x, std::span<real> r) const {
    if constexpr (requires { op.residual(b, x, r); }) {
      op.residual(b, x, r);
    } else {
      apply(op, x, r);
      waxpby(1, b, -1, r, r);
    }
  }

  /// Y = Op X, column-blocked. Dispatches to an operator SpMM when one is
  /// exposed (including the virtual LinearOperator::apply_mv); the
  /// fallback applies column by column. Either way column j is bitwise
  /// identical to `apply` on that column alone.
  template <class Op>
  void apply_mv(const Op& op, const MultiVec& x, MultiVec& y) const {
    if constexpr (requires { op.apply_mv(x, y); }) {
      op.apply_mv(x, y);
    } else {
      for (int j = 0; j < x.cols(); ++j) apply(op, x.col(j), y.col(j));
    }
  }

  /// R = B - Op X, column-blocked, with the same fused-vs-composed
  /// dispatch as `residual` — both arms subtract once per entry, so the
  /// residual history of every column is unperturbed.
  template <class Op>
  void residual_mv(const Op& op, const MultiVec& b, const MultiVec& x,
                   MultiVec& r) const {
    if constexpr (requires { op.residual_mv(b, x, r); }) {
      op.residual_mv(b, x, r);
    } else {
      apply_mv(op, x, r);
      for (int j = 0; j < x.cols(); ++j) {
        waxpby(1, b.col(j), -1, r.col(j), r.col(j));
      }
    }
  }

  real reduce_sum(real local) const { return local; }

  real dot(std::span<const real> x, std::span<const real> y) const {
    return reduce_sum(la::dot(x, y));
  }
  real norm2(std::span<const real> x) const { return std::sqrt(dot(x, x)); }
  void axpy(real a, std::span<const real> x, std::span<real> y) const {
    la::axpy(a, x, y);
  }
};

}  // namespace prom::la
