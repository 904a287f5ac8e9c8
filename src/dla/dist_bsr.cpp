#include "dla/dist_bsr.h"

#include <utility>

#include "common/error.h"
#include "obs/trace.h"

namespace prom::dla {
namespace {

// Forward node-block ghost exchange; the plan's reverse path would use
// kTagNodeGhost + 1 (unused — DistBsr has no transpose).
constexpr int kTagNodeGhost = 311;
constexpr int BS = kDofPerVertex;

}  // namespace

DistBsr DistBsr::build(parx::Comm& comm, const DistCsr& a,
                       std::span<const idx> perm,
                       std::span<const idx> free_dofs) {
  DistBsr d;
  d.rank_ = comm.rank();
  const int rank = d.rank_;
  const RowDist& cols = a.col_dist();
  const idx c0 = cols.begin(rank);
  const idx n_own = cols.local_size(rank);
  // Square operator with aligned row/column distributions only.
  PROM_CHECK(a.row_dist().begin(rank) == c0 && a.local_rows() == n_own);
  PROM_CHECK(static_cast<idx>(perm.size()) == cols.global_size());
  d.nlocal_ = n_own;

  const std::vector<idx>& ghosts = a.ghost_cols();
  const idx n_ext = n_own + static_cast<idx>(ghosts.size());

  // Walk the extended columns in global order (the owned range and the
  // ghost list are both ascending — merge). A node's free dofs are
  // contiguous in the global numbering and live on one rank, so grouping
  // consecutive equal vertices yields the node partition, already ordered
  // by global position; a node is owned exactly when its columns are.
  std::vector<idx> bcol_of_ext(static_cast<std::size_t>(n_ext));
  std::vector<idx> comp_of_ext(static_cast<std::size_t>(n_ext));
  std::vector<idx> brow_of_node;  // owned node -> block row, else invalid
  idx nbrows = 0;
  {
    idx last_vertex = kInvalidIdx;
    idx io = 0;
    std::size_t ig = 0;
    while (io < n_own || ig < ghosts.size()) {
      const bool own =
          ig >= ghosts.size() || (io < n_own && c0 + io < ghosts[ig]);
      const idx g = own ? c0 + io : ghosts[ig];
      const idx e = own ? io++ : n_own + static_cast<idx>(ig++);
      const idx serial = perm[g];
      const idx v = free_dofs[serial] / BS;
      if (brow_of_node.empty() || v != last_vertex) {
        last_vertex = v;
        brow_of_node.push_back(own ? nbrows++ : kInvalidIdx);
      }
      PROM_CHECK(own == (brow_of_node.back() != kInvalidIdx));
      bcol_of_ext[e] = static_cast<idx>(brow_of_node.size()) - 1;
      comp_of_ext[e] = free_dofs[serial] % BS;
    }
  }
  const idx nnodes = static_cast<idx>(brow_of_node.size());

  // Block row br's scalar rows are the consecutive local rows
  // [first_row[br], first_row[br + 1]) (owned rows run in global order).
  d.row_slot_of_free_.resize(static_cast<std::size_t>(n_own));
  d.slot_of_owned_col_.resize(static_cast<std::size_t>(n_own));
  d.own_node_dof_.assign(static_cast<std::size_t>(nbrows) * BS, kInvalidIdx);
  std::vector<idx> first_row(static_cast<std::size_t>(nbrows) + 1, n_own);
  idx next_br = nbrows;  // block row of local row i + 1
  for (idx i = n_own - 1; i >= 0; --i) {
    const idx nd = bcol_of_ext[i];
    const idx br = brow_of_node[nd];
    PROM_CHECK(br == next_br || br + 1 == next_br);
    next_br = br;
    first_row[br] = i;
    d.row_slot_of_free_[i] = BS * br + comp_of_ext[i];
    d.slot_of_owned_col_[i] = BS * nd + comp_of_ext[i];
    d.own_node_dof_[d.row_slot_of_free_[i]] = i;
  }
  PROM_CHECK(next_br == 0);

  // Re-block the local rows in linear time. Count pass: each block row's
  // distinct node columns in first-seen order (a per-node marker holds
  // the last block row that saw the node); the diagonal node block is
  // always kept so constrained components get their identity pivot.
  const la::Csr& lm = a.local_matrix();
  la::Bsr3& m = d.local_;
  m.nbrows = nbrows;
  m.nbcols = nnodes;
  m.browptr.assign(static_cast<std::size_t>(nbrows) + 1, 0);
  std::vector<idx> seen;  // distinct node columns, block row by block row
  seen.reserve(lm.colidx.size() / BS + static_cast<std::size_t>(nbrows));
  std::vector<nnz_t> col_start(static_cast<std::size_t>(nnodes) + 1, 0);
  {
    std::vector<idx> marker(static_cast<std::size_t>(nnodes), kInvalidIdx);
    const auto see = [&](idx br, idx nd) {
      if (marker[nd] == br) return;
      marker[nd] = br;
      seen.push_back(nd);
      ++col_start[nd + 1];
    };
    for (idx br = 0; br < nbrows; ++br) {
      see(br, bcol_of_ext[first_row[br]]);
      for (idx i = first_row[br]; i < first_row[br + 1]; ++i) {
        for (nnz_t k = lm.rowptr[i]; k < lm.rowptr[i + 1]; ++k) {
          see(br, bcol_of_ext[lm.colidx[k]]);
        }
      }
      m.browptr[br + 1] = static_cast<nnz_t>(seen.size());
    }
  }
  // Order each block row by node (global position) with two bucket
  // passes: block rows into node-column buckets, then back into rows.
  for (idx nd = 0; nd < nnodes; ++nd) col_start[nd + 1] += col_start[nd];
  m.bcolidx.resize(seen.size());
  {
    std::vector<idx> brow_by_col(seen.size());
    std::vector<nnz_t> next(col_start.begin(), col_start.end() - 1);
    for (idx br = 0; br < nbrows; ++br) {
      for (nnz_t t = m.browptr[br]; t < m.browptr[br + 1]; ++t) {
        brow_by_col[next[seen[t]]++] = br;
      }
    }
    next.assign(m.browptr.begin(), m.browptr.end() - 1);
    for (idx nd = 0; nd < nnodes; ++nd) {
      for (nnz_t t = col_start[nd]; t < col_start[nd + 1]; ++t) {
        m.bcolidx[next[brow_by_col[t]]++] = nd;
      }
    }
  }
  // Fill pass: a per-node position marker makes every entry's block
  // lookup O(1). Constrained (padding) components of the owned node get
  // identity pivots; the padded x entries are always 0, so SpMV results
  // are unaffected.
  m.vals.assign(m.bcolidx.size() * BS * BS, real{0});
  {
    std::vector<nnz_t> pos(static_cast<std::size_t>(nnodes));
    for (idx br = 0; br < nbrows; ++br) {
      for (nnz_t t = m.browptr[br]; t < m.browptr[br + 1]; ++t) {
        pos[m.bcolidx[t]] = t;
      }
      for (idx i = first_row[br]; i < first_row[br + 1]; ++i) {
        const idx r = d.row_slot_of_free_[i] % BS;
        for (nnz_t k = lm.rowptr[i]; k < lm.rowptr[i + 1]; ++k) {
          const idx e = lm.colidx[k];
          m.vals[static_cast<std::size_t>(pos[bcol_of_ext[e]]) * BS * BS +
                 r * BS + comp_of_ext[e]] = lm.vals[k];
        }
      }
      const nnz_t diag = pos[bcol_of_ext[first_row[br]]];
      for (int c = 0; c < BS; ++c) {
        if (d.own_node_dof_[static_cast<std::size_t>(br) * BS + c] ==
            kInvalidIdx) {
          m.vals[static_cast<std::size_t>(diag) * BS * BS + c * BS + c] = 1;
        }
      }
    }
  }

  // Node-granularity exchange plan, re-blocked from `a`'s scalar plan
  // with no further traffic: a peer's scalar send list (its ghost columns
  // from this rank) and this rank's recv slots per peer both run in
  // global order, so grouping consecutive columns by node gives the
  // nodes each side exchanges, in node order. Whole node blocks go on
  // the wire: BS values per node, padding components gathered as
  // kInvalidIdx (shipped as 0).
  const HaloPlan& scalar_plan = a.halo_plan();
  for (int s = 0; s < scalar_plan.num_send_peers(); ++s) {
    std::vector<idx> gather;
    idx last = kInvalidIdx;
    for (const idx i : scalar_plan.send_list(s)) {
      if (bcol_of_ext[i] == last) continue;
      last = bcol_of_ext[i];
      const idx br = brow_of_node[last];
      const idx* dofs = d.own_node_dof_.data() + br * BS;
      gather.insert(gather.end(), dofs, dofs + BS);
    }
    d.plan_.add_send(scalar_plan.send_peers()[s], std::move(gather));
  }
  for (int s = 0; s < scalar_plan.num_recv_peers(); ++s) {
    std::vector<idx> slots;
    idx last = kInvalidIdx;
    for (const idx e : scalar_plan.recv_list(s)) {
      if (bcol_of_ext[e] == last) continue;
      last = bcol_of_ext[e];
      for (int c = 0; c < BS; ++c) slots.push_back(last * BS + c);
    }
    d.plan_.add_recv(scalar_plan.recv_peers()[s], std::move(slots));
  }
  d.plan_.finalize(kTagNodeGhost);
  return d;
}

void DistBsr::ensure_mv_buffers(int k) const {
  if (x_ext_mv_.cols() == k) return;
  x_ext_mv_.resize(local_.cols(), k);
  y_pad_mv_.resize(local_.rows(), k);
  b_pad_mv_.resize(local_.rows(), k);
  r_pad_mv_.resize(local_.rows(), k);
}

void DistBsr::spmm(parx::Comm& comm, const la::MultiVec& x_local,
                   la::MultiVec& y_local) const {
  const int k = x_local.cols();
  PROM_CHECK(x_local.rows() == nlocal_ && y_local.rows() == nlocal_ &&
             y_local.cols() == k);
  ensure_mv_buffers(k);
  plan_.post_mv(comm, x_local);
  for (int j = 0; j < k; ++j) {
    const real* xj = x_local.col_data(j);
    real* ext = x_ext_mv_.col_data(j);
    for (idx i = 0; i < nlocal_; ++i) ext[slot_of_owned_col_[i]] = xj[i];
  }
  plan_.finish_mv(comm, x_ext_mv_);
  {
    const obs::Span span("halo.local");
    local_.spmm(x_ext_mv_, y_pad_mv_);
  }
  for (int j = 0; j < k; ++j) {
    const real* yp = y_pad_mv_.col_data(j);
    real* yj = y_local.col_data(j);
    for (idx i = 0; i < nlocal_; ++i) yj[i] = yp[row_slot_of_free_[i]];
  }
}

void DistBsr::residual_mv(parx::Comm& comm, const la::MultiVec& b_local,
                          const la::MultiVec& x_local,
                          la::MultiVec& r_local) const {
  const int k = x_local.cols();
  PROM_CHECK(b_local.rows() == nlocal_ && x_local.rows() == nlocal_ &&
             r_local.rows() == nlocal_ && b_local.cols() == k &&
             r_local.cols() == k);
  ensure_mv_buffers(k);
  plan_.post_mv(comm, x_local);
  for (int j = 0; j < k; ++j) {
    const real* xj = x_local.col_data(j);
    const real* bj = b_local.col_data(j);
    real* ext = x_ext_mv_.col_data(j);
    real* bp = b_pad_mv_.col_data(j);
    for (idx i = 0; i < nlocal_; ++i) ext[slot_of_owned_col_[i]] = xj[i];
    for (idx i = 0; i < nlocal_; ++i) bp[row_slot_of_free_[i]] = bj[i];
  }
  plan_.finish_mv(comm, x_ext_mv_);
  {
    const obs::Span span("halo.local");
    local_.residual_mv(b_pad_mv_, x_ext_mv_, r_pad_mv_);
  }
  for (int j = 0; j < k; ++j) {
    const real* rp = r_pad_mv_.col_data(j);
    real* rj = r_local.col_data(j);
    for (idx i = 0; i < nlocal_; ++i) rj[i] = rp[row_slot_of_free_[i]];
  }
}

}  // namespace prom::dla
