// Conjugate gradient solvers. The paper's outer solver is CG preconditioned
// with one full multigrid cycle (§7.2); the same `pcg` below accepts any
// symmetric positive definite preconditioner through LinearOperator.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "la/operator.h"

namespace prom::la {

struct KrylovOptions {
  real rtol = 1e-6;        ///< stop when ||r||_2 / ||b||_2 <= rtol
  int max_iters = 1000;
  bool track_history = false;  ///< record ||r|| after each iteration
};

struct KrylovResult {
  int iterations = 0;
  real final_relres = 0;
  bool converged = false;
  /// True if the solver stopped on a breakdown: CG when p'Ap or r'z lost
  /// positivity (operator or preconditioner not SPD at working precision),
  /// BiCGStab on a vanishing recurrence scalar, GMRES on a singular
  /// Hessenberg triangle. `converged` is false then.
  bool breakdown = false;
  std::vector<real> history;  ///< residual norms (if tracked), history[0]=||b||
};

/// The one relative-residual stopping criterion shared by every Krylov
/// driver on every backend (serial and parx instantiate the same templated
/// solver bodies, so tolerances cannot drift between them).
inline bool krylov_converged(real rnorm, real bnorm, real rtol) {
  return rnorm / bnorm <= rtol;
}

/// Unpreconditioned CG for SPD systems; x holds the initial guess on entry
/// and the solution on exit.
KrylovResult cg(const LinearOperator& a, std::span<const real> b,
                std::span<real> x, const KrylovOptions& opts = {});

/// Preconditioned CG; `m` applies the (SPD) preconditioner: z = M^{-1} r.
KrylovResult pcg(const LinearOperator& a, const LinearOperator& m,
                 std::span<const real> b, std::span<real> x,
                 const KrylovOptions& opts = {});

/// Work vectors of the blocked PCG (la/krylov_any.h); the distributed
/// k-column driver (dla::dist_pcg_multi) reuses one across solves.
struct KrylovWorkspace;

struct GmresOptions {
  real rtol = 1e-6;
  int max_iters = 500;   ///< total inner iterations across restarts
  int restart = 50;      ///< Krylov subspace dimension per cycle
  bool track_history = false;
};

/// Restarted GMRES with optional *right* preconditioning (`m` may be
/// null). Unlike CG it tolerates nonsymmetric and indefinite operators —
/// the fallback for Newton tangents that lose positive definiteness (cf.
/// the multigrid-enhanced GMRES of Owen/Feng/Peric the paper cites as
/// related work [18]).
KrylovResult gmres(const LinearOperator& a, const LinearOperator* m,
                   std::span<const real> b, std::span<real> x,
                   const GmresOptions& opts = {});

/// BiCGStab with optional *right* preconditioning (`m` may be null): the
/// short-recurrence companion to `gmres` for non-symmetric systems — no
/// growing Arnoldi basis, at the price of a less monotone residual.
KrylovResult bicgstab(const LinearOperator& a, const LinearOperator* m,
                      std::span<const real> b, std::span<real> x,
                      const KrylovOptions& opts = {});

/// Which outer Krylov driver a multigrid solve wraps the V/FMG
/// preconditioner in. PCG is correct only for SPD operators (elasticity,
/// pure-diffusion scalars); non-symmetric operators (SUPG
/// advection–diffusion) take GMRES or BiCGStab.
enum class KrylovKind {
  kPcg,
  kGmres,
  kBicgstab,
};

const char* to_string(KrylovKind k);

}  // namespace prom::la
