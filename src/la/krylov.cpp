#include "la/krylov.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "la/krylov_any.h"
#include "la/vec.h"

namespace prom::la {
namespace {

/// One right-hand side is a one-column block of the blocked PCG; x holds
/// the initial guess on entry.
KrylovResult pcg_one_column(const LinearOperator& a, const LinearOperator* m,
                            std::span<const real> b, std::span<real> x,
                            const KrylovOptions& opts) {
  PROM_CHECK(a.cols() == a.rows());
  const idx n = a.rows();
  PROM_CHECK(static_cast<idx>(b.size()) == n &&
             static_cast<idx>(x.size()) == n);
  MultiVec bm(n, 1), xm(n, 1);
  std::copy(b.begin(), b.end(), bm.col_data(0));
  std::copy(x.begin(), x.end(), xm.col_data(0));
  const KrylovResult res = pcg_multi_any(SerialBackend{}, a, m, bm, xm, opts)[0];
  std::copy(xm.col(0).begin(), xm.col(0).end(), x.begin());
  return res;
}

}  // namespace

KrylovResult cg(const LinearOperator& a, std::span<const real> b,
                std::span<real> x, const KrylovOptions& opts) {
  return pcg_one_column(a, nullptr, b, x, opts);
}

KrylovResult pcg(const LinearOperator& a, const LinearOperator& m,
                 std::span<const real> b, std::span<real> x,
                 const KrylovOptions& opts) {
  return pcg_one_column(a, &m, b, x, opts);
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
