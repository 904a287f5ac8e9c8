// Fixed-width SIMD packs for the explicitly vectorized kernels. Both
// vectorize across independent work items, never along an accumulation
// chain:
//
//  - RealPack, kSimdLanes = 4 doubles: the matrix-free element kernel in
//    fem/matrix_free.cpp, one lane per element;
//  - RealPair, 2 doubles: the column-blocked dense LDL^T solve in
//    la/dense.cpp, one lane per right-hand side.
//
// Every lane performs an independent IEEE-754 binary64 operation, identical
// to the scalar expression, so results are the same bits on every ISA and
// at every thread count — lane width is part of the data layout, not of
// the rounding behaviour. The project builds with -fno-fast-math and
// -ffp-contract=off (top-level and src/ CMakeLists), so no multiply-add is
// fused into an FMA even on a target that has one.
//
// The widths are compile-time constants, not runtime-dispatched. On the
// baseline x86-64 target (SSE2) a RealPack operation lowers to two
// registers and RealPair to exactly one; a kernel that keeps several packs
// live across a loop therefore uses RealPair, because arrays of RealPack
// spill to the stack there.
//
// On GNU-compatible compilers the packs are vector_size extension types
// and the operators compile to vector instructions. Elsewhere RealPack is
// a plain array with per-lane loops that produces the same values (just
// slower), and RealPair is not defined: its users fall back to scalars.
#pragma once

#include <cstring>

#include "common/config.h"

namespace prom::la {

/// Lanes per pack. Chosen as 256 bits of binary64: wide enough to fill an
/// AVX unit, narrow enough that tail padding (inert lanes in the last
/// element batch) stays cheap on small meshes.
inline constexpr int kSimdLanes = 4;

#if defined(__GNUC__) || defined(__clang__)
#define PROM_SIMD_VECTOR_EXT 1
#endif

#ifdef PROM_SIMD_VECTOR_EXT
/// Two doubles, one SSE2 register. Native vector type: arithmetic with a
/// scalar operand broadcasts it.
typedef real RealPair __attribute__((vector_size(2 * sizeof(real))));
#endif

/// A pack of kSimdLanes doubles with elementwise arithmetic.
struct RealPack {
#ifdef PROM_SIMD_VECTOR_EXT
  typedef real native_t __attribute__((vector_size(kSimdLanes * sizeof(real))));
  native_t v;
#else
  real v[kSimdLanes];
#endif

  friend RealPack operator+(RealPack a, RealPack b) {
#ifdef PROM_SIMD_VECTOR_EXT
    return {a.v + b.v};
#else
    RealPack r;
    for (int l = 0; l < kSimdLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
#endif
  }
  friend RealPack operator-(RealPack a, RealPack b) {
#ifdef PROM_SIMD_VECTOR_EXT
    return {a.v - b.v};
#else
    RealPack r;
    for (int l = 0; l < kSimdLanes; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
#endif
  }
  friend RealPack operator*(RealPack a, RealPack b) {
#ifdef PROM_SIMD_VECTOR_EXT
    return {a.v * b.v};
#else
    RealPack r;
    for (int l = 0; l < kSimdLanes; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
#endif
  }
  RealPack& operator+=(RealPack o) { return *this = *this + o; }
  RealPack& operator-=(RealPack o) { return *this = *this - o; }
  RealPack& operator*=(RealPack o) { return *this = *this * o; }
};

/// All lanes zero.
inline RealPack pack_zero() {
  RealPack r;
  std::memset(&r, 0, sizeof(r));
  return r;
}

/// All lanes = s.
inline RealPack pack_broadcast(real s) {
  RealPack r;
  for (int l = 0; l < kSimdLanes; ++l) r.v[l] = s;
  return r;
}

/// Unaligned load of kSimdLanes contiguous doubles.
inline RealPack pack_load(const real* p) {
  RealPack r;
  std::memcpy(&r, p, sizeof(r));
  return r;
}

/// Unaligned store of kSimdLanes contiguous doubles.
inline void pack_store(real* p, RealPack a) { std::memcpy(p, &a, sizeof(a)); }

/// Single lane write (lane index must be in [0, kSimdLanes)).
inline void pack_set_lane(RealPack& a, int lane, real s) { a.v[lane] = s; }

}  // namespace prom::la
