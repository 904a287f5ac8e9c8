#include "dla/dist_krylov.h"

#include <algorithm>

#include "dla/parx_backend.h"
#include "la/krylov_any.h"

namespace prom::dla {

void DistOperator::apply(parx::Comm& comm, std::span<const real> x_local,
                         std::span<real> y_local) const {
  la::MultiVec x(static_cast<idx>(x_local.size()), 1);
  la::MultiVec y(static_cast<idx>(y_local.size()), 1);
  std::copy(x_local.begin(), x_local.end(), x.col_data(0));
  apply_mv(comm, x, y);
  std::copy(y.col(0).begin(), y.col(0).end(), y_local.begin());
}

std::vector<la::KrylovResult> dist_pcg_multi(
    parx::Comm& comm, const DistOperator& a, const DistOperator* m,
    const la::MultiVec& b_local, la::MultiVec& x_local,
    const la::KrylovOptions& opts, la::KrylovWorkspace* ws) {
  return la::pcg_multi_any(ParxBackend{&comm}, a, m, b_local, x_local, opts,
                           ws);
}

la::KrylovResult dist_gmres(parx::Comm& comm, const DistOperator& a,
                            const DistOperator* m,
                            std::span<const real> b_local,
                            std::span<real> x_local,
                            const la::GmresOptions& opts) {
  return la::gmres_any(ParxBackend{&comm}, a, m, b_local, x_local, opts);
}

la::KrylovResult dist_bicgstab(parx::Comm& comm, const DistOperator& a,
                               const DistOperator* m,
                               std::span<const real> b_local,
                               std::span<real> x_local,
                               const la::KrylovOptions& opts) {
  return la::bicgstab_any(ParxBackend{&comm}, a, m, b_local, x_local, opts);
}

}  // namespace prom::dla
