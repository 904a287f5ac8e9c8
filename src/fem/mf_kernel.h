// The Pass A element kernel of fem::MfCore (fem/matrix_free.h). It lives
// in a source file of its own, fem/mf_kernel.cpp, which src/CMakeLists.txt
// compiles twice: once for the baseline target (mf_pass_a_baseline) and,
// on x86-64 with GCC or Clang, once more with -mavx2 (mf_pass_a_avx2; no
// -mfma, and -ffp-contract=off like every file). MfCore::build takes the
// AVX2 copy when the CPU has AVX2. The kernel vectorizes only across
// elements, one lane per element, and every lane performs the scalar
// expression's IEEE-754 operations in source order, so both copies write
// the same bits.
//
// The kernel source defines nothing with external or vague linkage but
// its entry point. An inline function or template instantiated there would
// be a weak definition the linker may hand to baseline callers, and its
// AVX2 copy faults on a CPU without AVX2. So the source reads only this
// header's plain declarations, uses builtin vector types, and keeps its
// helpers in an unnamed namespace; the IsaHygiene ctest checks the AVX2
// object with nm.
#pragma once

#include "common/config.h"

namespace prom::fem::detail {

/// Elements per batch, one lane each: 256 bits of binary64, one AVX2
/// register (two SSE2 registers on the baseline target). The batch layout
/// of MfCore is built on it.
inline constexpr int kSimdLanes = 4;

/// Reals per quadrature point in the geometry stream: w = gauss_w * detJ,
/// then the row-major J^{-1}.
inline constexpr int kGeoPerQp = 10;

/// Pass A's view of one MfCore: the reference shape gradients of its cell
/// kind and its batched element data, lane-minor (layouts in MfCore).
struct MfBatches {
  int nen;                       ///< nodes per element: 8 (hex) or 4 (tet)
  int nqp;                       ///< quadrature points per element
  const real (*ref_grad)[8][3];  ///< [qp][node] dN/dxi
  const real* geo;               ///< [batch][qp][kGeoPerQp][lane]
  const real* mean;              ///< [batch][nen*3][lane] B-bar mean grads
  const real* lam;               ///< [batch][lane]
  const real* two_mu;            ///< [batch][lane]
  const real* bdil;              ///< [batch][lane] 1/3 (B-bar) or 0
  const idx* slots;              ///< [batch][nen*3][lane] gather slots of x
  real* fe;                      ///< [batch][nen*3][lane] nodal forces (out)
};

/// Pass A over batches [b0, b1): gathers x through the slots (an invalid
/// slot reads 0), integrates the elastic-at-zero stress, and writes each
/// batch's nodal forces to its own slice of fe. Inert padding lanes (zero
/// geometry, invalid slots) write exact zeros.
void mf_pass_a_baseline(const MfBatches& m, const real* x, idx b0, idx b1);

/// The same kernel built with -mavx2; same bits. Defined only where the
/// build compiles the AVX2 copy, and to be called only on a CPU with AVX2.
void mf_pass_a_avx2(const MfBatches& m, const real* x, idx b0, idx b1);

}  // namespace prom::fem::detail
