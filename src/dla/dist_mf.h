// Distributed matrix-free fine-level operator: the dla counterpart of
// fem::MatrixFreeOperator. Each rank batches the elements relevant to its
// owned rows (every element with at least one owned free dof) and applies
// K_ff on the fly over the fine DistCsr's extended [owned | ghost] column
// space, reusing that matrix's HaloPlan — the assembled fine matrix still
// exists for the Galerkin coarse-level products and the smoothers (the
// hybrid scheme of arXiv:2203.12292), and its ghost columns are exactly
// the non-owned free dofs of the rank's relevant elements, so no second
// exchange plan is needed.
//
// Overlap schedule (PROM_HALO=overlap): Pass A of the first column runs
// on the interior element batches (no ghost gather slots) while the halo
// is in flight, then on the boundary batches once it lands; Pass B
// accumulates each owned row's element contributions in ascending global
// element order.
// Per-element forces are pure per-lane functions and the accumulation
// order is a function of the mesh alone, so the distributed apply matches
// the serial matrix-free apply bitwise per owned row at any rank count,
// thread count, and halo mode.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "dla/dist_csr.h"
#include "dla/dist_krylov.h"
#include "fem/matrix_free.h"

namespace prom::dla {

/// The fine-level finite element problem the matrix-free operator is
/// built from (everything the assembled path already had in scope).
struct MfProblem {
  const mesh::Mesh* mesh = nullptr;
  const std::vector<fem::Material>* materials = nullptr;
  const fem::DofMap* dofmap = nullptr;
  bool bbar = true;
};

class DistMf {
 public:
  DistMf() = default;

  /// Builds this rank's batched element data against the fine-level
  /// distributed matrix `a` (whose row/column layout, ghost columns, and
  /// exchange plan are reused; `a` must outlive the DistMf). `perm` is
  /// the level's global permutation (perm[global] = serial free index).
  static DistMf build(parx::Comm& comm, const MfProblem& prob,
                      const DistCsr& a, std::span<const idx> perm);

  idx local_rows() const { return nlocal_; }
  const fem::MfCore& core() const { return core_; }

  /// Y_local = K_ff X on owned rows: one ghost exchange (one message per
  /// peer carrying all k columns) serves every column; the element passes
  /// run column by column (one per-element force buffer), with column 0
  /// overlapped against the exchange. Column j is bitwise the k = 1 call
  /// on that column. Collective.
  void spmm(parx::Comm& comm, const la::MultiVec& x_local,
            la::MultiVec& y_local) const;

  /// R_local = B - K_ff X, fused. Collective.
  void residual_mv(parx::Comm& comm, const la::MultiVec& b_local,
                   const la::MultiVec& x_local, la::MultiVec& r_local) const;

 private:
  idx nlocal_ = 0;
  const DistCsr* a_ = nullptr;  // layout + halo plan donor
  fem::MfCore core_;
  mutable la::MultiVec x_ext_mv_;  // [owned | ghost] gather space
};

/// DistOperator adapter with the fused residual the ParxBackend picks up.
class DistMfOperator final : public DistOperator {
 public:
  explicit DistMfOperator(const DistMf& a) : a_(&a) {}
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
  const DistMf* a_;
};

}  // namespace prom::dla
