#include "dla/dist_mf.h"

#include <algorithm>

#include "common/error.h"
#include "obs/trace.h"

namespace prom::dla {

DistMf DistMf::build(parx::Comm& comm, const MfProblem& prob,
                     const DistCsr& a, std::span<const idx> perm) {
  PROM_CHECK(prob.mesh != nullptr && prob.materials != nullptr &&
             prob.dofmap != nullptr);
  const int rank = comm.rank();
  const RowDist& cols = a.col_dist();
  const idx c0 = cols.begin(rank);
  const idx n_own = cols.local_size(rank);
  // The operator is square on the fine level; rows and columns must share
  // one distribution for the owned-prefix copy in spmm to be the identity.
  PROM_CHECK(a.row_dist().begin(rank) == c0 && a.local_rows() == n_own);
  PROM_CHECK(static_cast<idx>(perm.size()) == cols.global_size());

  // perm[global] = serial free index; the element loop hands us serial
  // free indices, so invert once.
  std::vector<idx> iperm(perm.size());
  for (idx g = 0; g < static_cast<idx>(perm.size()); ++g) iperm[perm[g]] = g;

  const std::vector<idx>& ghosts = a.ghost_cols();
  const auto slot_of = [&](idx g) -> idx {
    if (g >= c0 && g < c0 + n_own) return g - c0;
    const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), g);
    // Every non-owned free dof of a relevant element is a structural
    // column of the assembled fine matrix (element assembly keeps zeros),
    // hence one of its ghost columns.
    PROM_CHECK(it != ghosts.end() && *it == g);
    return n_own + static_cast<idx>(it - ghosts.begin());
  };

  const mesh::Mesh& mesh = *prob.mesh;
  const fem::DofMap& dofmap = *prob.dofmap;
  const int nen = mesh::nodes_per_cell(mesh.kind());

  // This rank's relevant elements: every element with at least one owned
  // free dof (ascending global cell id, as MfCore requires).
  std::vector<idx> elements;
  for (idx e = 0; e < mesh.num_cells(); ++e) {
    bool owned = false;
    const auto cell = mesh.cell(e);
    for (int ai = 0; ai < nen && !owned; ++ai) {
      for (int c = 0; c < kDofPerVertex && !owned; ++c) {
        const idx f = dofmap.free_index(cell[ai] * kDofPerVertex + c);
        if (f == kInvalidIdx) continue;
        const idx g = iperm[f];
        owned = g >= c0 && g < c0 + n_own;
      }
    }
    if (owned) elements.push_back(e);
  }

  DistMf mf;
  mf.nlocal_ = n_own;
  mf.a_ = &a;
  mf.core_ = fem::MfCore::build(
      mesh, *prob.materials, prob.bbar, elements,
      /*num_slots=*/n_own + a.num_ghosts(), /*num_rows=*/n_own,
      /*first_ghost_slot=*/n_own,
      [&](idx e, int ai, int c) -> fem::MfCore::Dof {
        const idx f = dofmap.free_index(mesh.cell(e)[ai] * kDofPerVertex + c);
        if (f == kInvalidIdx) return {};  // constrained: reads 0, drops
        const idx g = iperm[f];
        const idx slot = slot_of(g);
        return {slot, slot < n_own ? slot : kInvalidIdx};
      });
  return mf;
}

void DistMf::spmm(parx::Comm& comm, const la::MultiVec& x_local,
                  la::MultiVec& y_local) const {
  const int k = x_local.cols();
  PROM_CHECK(x_local.rows() == nlocal_ && y_local.rows() == nlocal_ &&
             y_local.cols() == k);
  const obs::Span apply_span("mf.apply");

  const idx next = nlocal_ + a_->num_ghosts();
  if (x_ext_mv_.rows() != next || x_ext_mv_.cols() != k) {
    x_ext_mv_.resize(next, k);
  }
  const HaloPlan& plan = a_->halo_plan();
  plan.post_mv(comm, x_local);
  for (int j = 0; j < k; ++j) {
    std::copy(x_local.col(j).begin(), x_local.col(j).end(),
              x_ext_mv_.col(j).begin());
  }
  // One per-element force buffer means the element passes are per column;
  // only column 0's Pass A can overlap the (single, blocked) exchange.
  if (halo_mode() == HaloMode::kOverlap) {
    {
      const obs::Span span("halo.interior");
      core_.pass_a(x_ext_mv_.col(0), 0, core_.num_interior_batches());
    }
    plan.finish_mv(comm, x_ext_mv_);
    {
      const obs::Span span("halo.boundary");
      core_.pass_a(x_ext_mv_.col(0), core_.num_interior_batches(),
                   core_.num_batches());
    }
    core_.pass_b_apply(y_local.col(0));
    for (int j = 1; j < k; ++j) {
      core_.pass_a(x_ext_mv_.col(j), 0, core_.num_batches());
      core_.pass_b_apply(y_local.col(j));
    }
  } else {
    plan.finish_rank_order_mv(comm, x_ext_mv_);
    for (int j = 0; j < k; ++j) {
      core_.pass_a(x_ext_mv_.col(j), 0, core_.num_batches());
      core_.pass_b_apply(y_local.col(j));
    }
  }
}

void DistMf::residual_mv(parx::Comm& comm, const la::MultiVec& b_local,
                         const la::MultiVec& x_local,
                         la::MultiVec& r_local) const {
  const int k = x_local.cols();
  PROM_CHECK(x_local.rows() == nlocal_ && b_local.rows() == nlocal_ &&
             r_local.rows() == nlocal_ && b_local.cols() == k &&
             r_local.cols() == k);
  const obs::Span apply_span("mf.apply");

  const idx next = nlocal_ + a_->num_ghosts();
  if (x_ext_mv_.rows() != next || x_ext_mv_.cols() != k) {
    x_ext_mv_.resize(next, k);
  }
  const HaloPlan& plan = a_->halo_plan();
  plan.post_mv(comm, x_local);
  for (int j = 0; j < k; ++j) {
    std::copy(x_local.col(j).begin(), x_local.col(j).end(),
              x_ext_mv_.col(j).begin());
  }
  if (halo_mode() == HaloMode::kOverlap) {
    {
      const obs::Span span("halo.interior");
      core_.pass_a(x_ext_mv_.col(0), 0, core_.num_interior_batches());
    }
    plan.finish_mv(comm, x_ext_mv_);
    {
      const obs::Span span("halo.boundary");
      core_.pass_a(x_ext_mv_.col(0), core_.num_interior_batches(),
                   core_.num_batches());
    }
    core_.pass_b_residual(b_local.col(0), r_local.col(0));
    for (int j = 1; j < k; ++j) {
      core_.pass_a(x_ext_mv_.col(j), 0, core_.num_batches());
      core_.pass_b_residual(b_local.col(j), r_local.col(j));
    }
  } else {
    plan.finish_rank_order_mv(comm, x_ext_mv_);
    for (int j = 0; j < k; ++j) {
      core_.pass_a(x_ext_mv_.col(j), 0, core_.num_batches());
      core_.pass_b_residual(b_local.col(j), r_local.col(j));
    }
  }
}

}  // namespace prom::dla
