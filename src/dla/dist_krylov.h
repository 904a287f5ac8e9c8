// Distributed Krylov solvers over parx: literally the same implementations
// as the serial ones (la/krylov_any.h), instantiated with the ParxBackend
// so reductions allreduce and operator application is the distributed
// SpMM — the paper's solve phase. Distributed operators are k-column
// only; PCG runs blocked (la::pcg_multi_any), and the single-vector GMRES
// and BiCGStab reach an operator through DistOperator::apply, which runs
// it on a one-column block.
#pragma once

#include <span>

#include "dla/dist_csr.h"
#include "la/krylov.h"
#include "la/multivec.h"
#include "parx/runtime.h"

namespace prom::dla {

/// A distributed linear operator on the local blocks of k distributed
/// vectors; implementations communicate internally.
class DistOperator {
 public:
  virtual ~DistOperator() = default;
  virtual idx local_n() const = 0;
  /// Y_local = Op X_local: one exchange per peer carries all k columns,
  /// and column j is bitwise the k = 1 call on that column. Collective.
  virtual void apply_mv(parx::Comm& comm, const la::MultiVec& x_local,
                        la::MultiVec& y_local) const = 0;
  /// The one-column adapter: y_local = Op x_local through apply_mv on a
  /// one-column block (what ParxBackend::apply calls). Collective.
  void apply(parx::Comm& comm, std::span<const real> x_local,
             std::span<real> y_local) const;
};

/// Adapter for a square DistCsr, with the fused residual the ParxBackend
/// picks up (bitwise equal to apply_mv + waxpby, see la/backend.h).
class DistCsrOperator final : public DistOperator {
 public:
  explicit DistCsrOperator(const DistCsr& a) : a_(&a) {}
  idx local_n() const override { return a_->local_rows(); }
  void apply_mv(parx::Comm& comm, const la::MultiVec& x_local,
                la::MultiVec& y_local) const override {
    a_->spmm(comm, x_local, y_local);
  }
  void residual_mv(parx::Comm& comm, const la::MultiVec& b_local,
                   const la::MultiVec& x_local, la::MultiVec& r_local) const {
    a_->residual_mv(comm, b_local, x_local, r_local);
  }

 private:
  const DistCsr* a_;
};

/// Distributed (P)CG for k right-hand sides; `m` may be null for plain CG.
/// One exchange per operator application serves all k columns, and column
/// j of the result is bitwise the k = 1 call on that column alone.
/// Collective; every rank receives the same results.
std::vector<la::KrylovResult> dist_pcg_multi(
    parx::Comm& comm, const DistOperator& a, const DistOperator* m,
    const la::MultiVec& b_local, la::MultiVec& x_local,
    const la::KrylovOptions& opts = {}, la::KrylovWorkspace* ws = nullptr);

/// Distributed restarted GMRES(m) with optional right preconditioning —
/// la::gmres_any on the parx backend, for non-symmetric operators
/// (advection–diffusion). Collective; every rank receives the same
/// KrylovResult.
la::KrylovResult dist_gmres(parx::Comm& comm, const DistOperator& a,
                            const DistOperator* m,
                            std::span<const real> b_local,
                            std::span<real> x_local,
                            const la::GmresOptions& opts = {});

/// Distributed BiCGStab with optional right preconditioning —
/// la::bicgstab_any on the parx backend. Collective; every rank receives
/// the same KrylovResult.
la::KrylovResult dist_bicgstab(parx::Comm& comm, const DistOperator& a,
                               const DistOperator* m,
                               std::span<const real> b_local,
                               std::span<real> x_local,
                               const la::KrylovOptions& opts = {});

}  // namespace prom::dla
