// Distributed node-block (BAIJ-style) matrices for the solve phase: the
// blocked counterpart of DistCsr. Each rank re-blocks its owned rows of a
// square row-distributed operator into dense 3x3 node blocks (la/bsr.h)
// and the ghost exchange ships whole node blocks — one node index plus
// kDofPerVertex values per ghost node instead of one index per scalar —
// cutting both the plan metadata and the per-SpMV index traffic by 3x.
//
// Node identity comes from the level's vertex ids: the distributed dof
// permutation stable-sorts free dofs by owning rank, so a node's free
// dofs stay contiguous (and on one rank) in the permuted global
// numbering. Block columns are ordered by global position, so the local
// blocked SpMV accumulates each scalar row in DistCsr's storage order and
// the two formats produce the same residual histories to rounding.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "dla/dist_csr.h"
#include "dla/dist_krylov.h"
#include "dla/halo.h"
#include "la/bsr.h"
#include "parx/runtime.h"

namespace prom::dla {

class DistBsr {
 public:
  DistBsr() = default;

  /// Re-blocks the square row-distributed operator `a` (row and column
  /// distributions aligned) into node blocks. `perm` is the level's
  /// global permutation (perm[global] = serial free-dof index, identical
  /// on all ranks) and `free_dofs` the level's serial free-dof list
  /// (kDofPerVertex * vertex + component) — together they recover the
  /// (node, component) of every owned and ghost column. Collective
  /// (builds the node-granularity exchange plan).
  static DistBsr build(parx::Comm& comm, const DistCsr& a,
                       std::span<const idx> perm,
                       std::span<const idx> free_dofs);

  idx local_rows() const { return nlocal_; }

  /// The owned node-block rows over [owned | ghost] node columns.
  const la::Bsr3& local_matrix() const { return local_; }

  /// Block rows referencing only owned node columns — computable before
  /// the ghost exchange completes; boundary_brows() is the complement.
  const std::vector<idx>& interior_brows() const { return interior_brows_; }
  const std::vector<idx>& boundary_brows() const { return boundary_brows_; }

  /// The exchange plan (persistent staging; see dla/halo.h).
  const HaloPlan& halo_plan() const { return plan_; }

  /// Y_local = A X on free-dof local blocks: one node-block ghost exchange
  /// (whole node blocks on the wire) and one blocked matrix pass serve all
  /// k columns; column j is bitwise the k = 1 call on that column.
  /// Collective.
  void spmm(parx::Comm& comm, const la::MultiVec& x_local,
            la::MultiVec& y_local) const;

  /// R_local = B - A X, fused (same bits as spmm + subtraction).
  /// Collective.
  void residual_mv(parx::Comm& comm, const la::MultiVec& b_local,
                   const la::MultiVec& x_local, la::MultiVec& r_local) const;

 private:
  /// Reshapes the padded work buffers to width k. The zero-fill on
  /// reshape establishes the padding invariants per column: owned padding
  /// slots of x_ext_mv_ and b_pad_mv_ are never rewritten (the per-call
  /// scatters touch only free owned slots), and the exchange rewrites
  /// whole ghost nodes including their padding zeros.
  void ensure_mv_buffers(int k) const;
  int rank_ = 0;
  idx nlocal_ = 0;  // owned scalar rows (free dofs)
  la::Bsr3 local_;  // owned node rows x [owned | ghost] node cols
  std::vector<idx> row_slot_of_free_;   // local row -> BS*brow + comp
  std::vector<idx> slot_of_owned_col_;  // local owned col -> x_ext slot
  /// Per owned-node slot, the local dof holding its value (kInvalidIdx for
  /// constrained/padding components, which always carry 0).
  std::vector<idx> own_node_dof_;
  // Scalar-slot exchange plan over whole node blocks: the gather list is
  // own_node_dof_ per requested node (kInvalidIdx ships the padding zero)
  // and the recv slots are each ghost node's x_ext slots. Ghost padding
  // slots are rewritten with zeros every exchange; owned padding slots are
  // zeroed once at build and never touched again.
  HaloPlan plan_;
  std::vector<idx> interior_brows_;  // block rows with owned columns only
  std::vector<idx> boundary_brows_;  // the rest
  // Persistent padded work blocks (see ensure_mv_buffers).
  mutable la::MultiVec x_ext_mv_;
  mutable la::MultiVec y_pad_mv_;
  mutable la::MultiVec b_pad_mv_;
  mutable la::MultiVec r_pad_mv_;
};

/// DistOperator adapter for a square DistBsr, with the fused residual the
/// ParxBackend picks up.
class DistBsrOperator final : public DistOperator {
 public:
  explicit DistBsrOperator(const DistBsr& a) : a_(&a) {}
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
  const DistBsr* a_;
};

}  // namespace prom::dla
