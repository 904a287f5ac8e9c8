#include "mg/solver.h"

#include <algorithm>

#include "common/error.h"

namespace prom::mg {
namespace {

/// The serial drivers apply the hierarchy's CSR operators only.
void check_csr_format(const MgSolveOptions& opts) {
  PROM_CHECK_MSG(opts.format == MatrixFormat::kCsr,
                 "the serial MG drivers run MatrixFormat::kCsr only; bsr3 "
                 "and mf run through dla::DistHierarchy (one rank for a "
                 "serial solve)");
}

}  // namespace

void MgPreconditioner::apply(std::span<const real> x,
                             std::span<real> y) const {
  la::MultiVec xm(rows(), 1), ym(rows(), 1);
  std::copy(x.begin(), x.end(), xm.col_data(0));
  apply_mv(xm, ym);
  std::copy(ym.col(0).begin(), ym.col(0).end(), y.begin());
}

void MgPreconditioner::apply_mv(const la::MultiVec& x,
                                la::MultiVec& y) const {
  apply_cycle_mv(view_, kind_, x, y);
}

la::KrylovResult mg_pcg_solve(const Hierarchy& h, std::span<const real> b,
                              std::span<real> x, const MgSolveOptions& opts) {
  check_csr_format(opts);
  const MgPreconditioner precond(h, opts.cycle);
  const la::CsrOperator a(h.level(0).a);
  return la::pcg(a, precond, b, x, to_krylov_options(opts));
}

la::KrylovResult mg_krylov_solve(const Hierarchy& h, std::span<const real> b,
                                 std::span<real> x,
                                 const MgSolveOptions& opts) {
  if (opts.krylov == la::KrylovKind::kPcg) {
    return mg_pcg_solve(h, b, x, opts);
  }
  check_csr_format(opts);
  const MgPreconditioner precond(h, opts.cycle);
  const la::CsrOperator a(h.level(0).a);
  if (opts.krylov == la::KrylovKind::kGmres) {
    return la::gmres(a, &precond, b, x, to_gmres_options(opts));
  }
  return la::bicgstab(a, &precond, b, x, to_krylov_options(opts));
}

}  // namespace prom::mg
