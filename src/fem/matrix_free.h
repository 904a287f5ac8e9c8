// Matrix-free fine-level elasticity operator (ROADMAP item 1, after the
// hybrid scheme of arXiv:2203.12292): the finest multigrid level applies
// K_ff on the fly from precomputed per-element geometry factors instead of
// an assembled sparse matrix, while every coarse level stays assembled
// Galerkin (R A R^T and the smoother diagonals need matrix entries).
//
// The operator is the tangent at the UNLOADED state (u = 0): linear
// elastic and J2 cells sit on their elastic branch with the B-bar
// strain-displacement operator, and Neo-Hookean cells linearized at F = I
// reduce to the same isotropic form — per element only (lambda, 2 mu), a
// B-bar switch, per-quadrature-point w = gauss_w * detJ and J^{-1}, and
// the constrained-dof mask survive to apply time. That is exactly the
// operator fem::assemble_linear_system() assembles, so the apply agrees
// with the assembled CSR/BSR3 path to reassociation rounding (~1e-12).
//
// Apply runs in two deterministic passes (the bit-determinism contract of
// common/parallel.h):
//   Pass A (elements): SIMD batches of detail::kSimdLanes elements in SoA
//     layout, one lane = one element. Gathers u through per-element-dof
//     slot indices (constrained dofs read 0), recomputes physical
//     gradients from the stored J^{-1} and the reference gradients, forms
//     strain -> stress -> nodal forces fe per lane, and writes fe to a
//     disjoint per-batch buffer. A lane is a pure function of one
//     element's data, so fe never depends on batching, lane position, or
//     thread count. The kernel is compiled for the baseline target and,
//     on x86-64 with GCC or Clang, for AVX2 as well (fem/mf_kernel.h);
//     build() picks the AVX2 copy when the CPU has AVX2, and both copies
//     write the same bits.
//   Pass B (rows): each output row sums its incident elements' fe entries
//     in ascending *global element id* order through a precomputed
//     adjacency — the same order serially and on any rank layout, which
//     makes the serial and distributed applies bitwise identical per
//     owned row.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/config.h"
#include "fem/assembly.h"
#include "fem/material.h"
#include "la/operator.h"
#include "mesh/mesh.h"

namespace prom::fem {

/// Shared matrix-free core: batched element data + row adjacency + the two
/// apply passes. The serial operator uses it over all elements with
/// free-dof indexing; dla::DistMf uses it over the rank's relevant
/// elements with [owned | ghost] slot indexing and an owned-row scatter.
class MfCore {
 public:
  /// Gather/scatter indices of one element dof (vertex-local node a,
  /// component c): `gather_slot` indexes the apply input x (kInvalidIdx =
  /// constrained, reads 0), `scatter_row` indexes the apply output y
  /// (kInvalidIdx = constrained or owned elsewhere, contribution dropped).
  struct Dof {
    idx gather_slot = kInvalidIdx;
    idx scatter_row = kInvalidIdx;
  };

  /// The compiled copies of the Pass A element kernel (fem/mf_kernel.h).
  enum class Kernel { kBaseline, kAvx2 };

  /// Builds the batched element data for `elements` (global cell ids,
  /// ascending), batched in list order, and picks the AVX2 kernel when
  /// avx2_kernel_available(). Wrapped in an obs span "mf.setup", which
  /// records the choice as the gauge "mf.kernel_avx2" (1 = AVX2).
  static MfCore build(const mesh::Mesh& mesh,
                      std::span<const Material> materials, bool bbar,
                      std::span<const idx> elements, idx num_slots,
                      idx num_rows,
                      const std::function<Dof(idx e, int a, int c)>& dof_of);

  idx num_rows() const { return nrows_; }
  idx num_slots() const { return nslots_; }

  /// True when the build holds the AVX2 kernel and the CPU runs AVX2.
  static bool avx2_kernel_available();
  Kernel kernel() const { return kernel_; }
  /// Runs `k` from now on, so one process can time or compare the two
  /// copies; kAvx2 requires avx2_kernel_available().
  void set_kernel(Kernel k);

  /// Pass A over every batch: element nodal forces into the fe buffer
  /// (disjoint per-batch writes). Runs before each Pass B.
  void pass_a(std::span<const real> x) const;

  /// Pass A's output: the nodal forces [batch][nen*3][lane] of the last
  /// pass_a call.
  std::span<const real> fe() const { return fe_; }

  /// Pass B over all rows: y[r] = sum of incident fe contributions.
  void pass_b_apply(std::span<real> y) const;
  /// Pass B fused residual: r[row] = b[row] - sum(fe).
  void pass_b_residual(std::span<const real> b, std::span<real> r) const;

  /// Model of the apply-time memory traffic in bytes per output row (the
  /// bench's bytes/dof column): streamed element data + slot indices + the
  /// fe buffer (written then read) + row adjacency + x and y.
  double apply_bytes_per_row() const;

 private:
  idx nrows_ = 0;
  idx nslots_ = 0;
  idx nbatch_ = 0;
  int nen_ = 0;
  int nqp_ = 0;
  std::int64_t flops_per_batch_ = 0;
  Kernel kernel_ = Kernel::kBaseline;

  // SoA batch data, lane = element (inert padding lanes in the last
  // batch: zero geometry, invalid slots).
  std::vector<real> geo_;     ///< [batch][qp][1 + 9][lane]: w, J^{-1}
  std::vector<real> mean_;    ///< [batch][nen*3][lane]: B-bar mean grads
  std::vector<real> lam_;     ///< [batch][lane]: lambda
  std::vector<real> two_mu_;  ///< [batch][lane]: 2 mu
  std::vector<real> bdil_;    ///< [batch][lane]: 1/3 for B-bar cells else 0
  std::vector<idx> slots_;    ///< [batch][nen*3][lane]: gather slots
  mutable std::vector<real> fe_;  ///< [batch][nen*3][lane] nodal forces

  // Row adjacency into fe_, incident elements ascending by global id.
  std::vector<nnz_t> row_ptr_;
  std::vector<idx> row_src_;
};

/// The serial matrix-free operator: K_ff of the unloaded-state tangent
/// over the free dofs, a drop-in for la::Csr in the solve-phase Backend
/// concept (rows/apply + fused residual) and the serial reference of
/// dla::DistMf. Apply runs under an obs span "mf.apply". Elasticity only:
/// build rejects a dof map without 3 dofs per vertex.
class MatrixFreeOperator final : public la::LinearOperator {
 public:
  static MatrixFreeOperator build(const mesh::Mesh& mesh,
                                  std::span<const Material> materials,
                                  const DofMap& dofmap, bool bbar = true);

  idx rows() const override { return core_.num_rows(); }
  idx cols() const override { return core_.num_slots(); }

  /// y = K_ff x.
  void apply(std::span<const real> x, std::span<real> y) const override;
  /// r = b - K_ff x (same one-subtraction-per-entry rounding as the
  /// compose-then-waxpby fallback).
  void residual(std::span<const real> b, std::span<const real> x,
                std::span<real> r) const;

  const MfCore& core() const { return core_; }
  /// See MfCore::set_kernel.
  void set_kernel(MfCore::Kernel k) { core_.set_kernel(k); }

 private:
  explicit MatrixFreeOperator(MfCore core) : core_(std::move(core)) {}
  MfCore core_;
};

/// Single-element building block (the unit under test in
/// tests/test_fem_assembly.cpp): y = Ke u for the unloaded-state element
/// tangent, computed through the same batched SIMD kernel as the full
/// operator (one element in lane 0, inert padding in the rest). All 3*nen
/// element dofs are treated as free.
std::vector<real> mf_element_apply(const Material& mat,
                                   std::span<const Vec3> coords,
                                   std::span<const real> u, bool bbar);

}  // namespace prom::fem
