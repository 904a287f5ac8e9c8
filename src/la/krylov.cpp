#include "la/krylov.h"

#include <cmath>

#include "common/error.h"
#include "la/krylov_any.h"
#include "la/vec.h"

namespace prom::la {

KrylovResult cg(const LinearOperator& a, std::span<const real> b,
                std::span<real> x, const KrylovOptions& opts) {
  PROM_CHECK(a.cols() == a.rows());
  return pcg_any(SerialBackend{}, a,
                 static_cast<const LinearOperator*>(nullptr), b, x, opts);
}

KrylovResult pcg(const LinearOperator& a, const LinearOperator& m,
                 std::span<const real> b, std::span<real> x,
                 const KrylovOptions& opts) {
  PROM_CHECK(a.cols() == a.rows());
  return pcg_any(SerialBackend{}, a, &m, b, x, opts);
}

KrylovResult gmres(const LinearOperator& a, const LinearOperator* m,
                   std::span<const real> b, std::span<real> x,
                   const GmresOptions& opts) {
  PROM_CHECK(a.cols() == a.rows());
  return gmres_any(SerialBackend{}, a, m, b, x, opts);
}

KrylovResult bicgstab(const LinearOperator& a, const LinearOperator* m,
                      std::span<const real> b, std::span<real> x,
                      const KrylovOptions& opts) {
  PROM_CHECK(a.cols() == a.rows());
  return bicgstab_any(SerialBackend{}, a, m, b, x, opts);
}

const char* to_string(KrylovKind k) {
  switch (k) {
    case KrylovKind::kPcg:
      return "pcg";
    case KrylovKind::kGmres:
      return "gmres";
    case KrylovKind::kBicgstab:
      return "bicgstab";
  }
  return "?";
}

}  // namespace prom::la
