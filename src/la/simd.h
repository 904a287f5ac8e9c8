// Fixed-width SIMD pairs for the column-blocked dense LDL^T solve in
// la/dense.cpp, one lane per right-hand side. Like the matrix-free element
// kernel's 4-lane packs (fem/mf_kernel.cpp, one lane per element), they
// vectorize across independent work items, never along an accumulation
// chain.
//
// Every lane performs an independent IEEE-754 binary64 operation, identical
// to the scalar expression, so results are the same bits on every ISA and
// at every thread count — lane width is part of the data layout, not of
// the rounding behaviour. The project builds with -fno-fast-math and
// -ffp-contract=off (top-level and src/ CMakeLists), so no multiply-add is
// fused into an FMA even on a target that has one.
//
// RealPair is compiled for the build's target only. The matrix-free
// kernel is the one piece compiled twice, for the baseline target and for
// AVX2, and picked at run time (fem/mf_kernel.h): one binary runs either
// copy and gets the same bits. On the baseline x86-64 target (SSE2) a
// RealPair operation is exactly one register.
//
// On GNU-compatible compilers RealPair is a vector_size extension type and
// its operators compile to vector instructions. Elsewhere it is not
// defined, and its users fall back to scalars.
#pragma once

#include "common/config.h"

namespace prom::la {

#if defined(__GNUC__) || defined(__clang__)
#define PROM_SIMD_VECTOR_EXT 1
#endif

#ifdef PROM_SIMD_VECTOR_EXT
/// Two doubles, one SSE2 register. Native vector type: arithmetic with a
/// scalar operand broadcasts it.
typedef real RealPair __attribute__((vector_size(2 * sizeof(real))));
#endif

}  // namespace prom::la
