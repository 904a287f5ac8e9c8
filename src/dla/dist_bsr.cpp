#include "dla/dist_bsr.h"

#include <algorithm>
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

  // Extended columns sorted by global id (owned range and ghost list are
  // both ascending — merge). A node's free dofs are contiguous in the
  // global numbering, so grouping consecutive equal vertices yields the
  // node partition, already ordered by global position.
  std::vector<std::pair<idx, idx>> by_global;  // (global id, ext col)
  by_global.reserve(static_cast<std::size_t>(n_ext));
  {
    idx io = 0;
    std::size_t ig = 0;
    while (io < n_own || ig < ghosts.size()) {
      if (ig >= ghosts.size() || (io < n_own && c0 + io < ghosts[ig])) {
        by_global.emplace_back(c0 + io, io);
        ++io;
      } else {
        by_global.emplace_back(ghosts[ig], n_own + static_cast<idx>(ig));
        ++ig;
      }
    }
  }

  struct NodeInfo {
    idx vertex;
    int owner;
  };
  std::vector<NodeInfo> nodes;
  std::vector<idx> bcol_of_ext(static_cast<std::size_t>(n_ext));
  std::vector<idx> comp_of_ext(static_cast<std::size_t>(n_ext));
  for (const auto& [g, e] : by_global) {
    const idx serial = perm[g];
    const idx v = free_dofs[serial] / BS;
    const idx c = free_dofs[serial] % BS;
    if (nodes.empty() || nodes.back().vertex != v) {
      nodes.push_back({v, cols.owner(g)});
    }
    bcol_of_ext[e] = static_cast<idx>(nodes.size()) - 1;
    comp_of_ext[e] = c;
  }
  const idx nnodes = static_cast<idx>(nodes.size());

  // Owned block rows, in node (= global) order.
  std::vector<idx> brow_of_node(static_cast<std::size_t>(nnodes),
                                kInvalidIdx);
  idx nbrows = 0;
  for (idx nd = 0; nd < nnodes; ++nd) {
    if (nodes[nd].owner == rank) brow_of_node[nd] = nbrows++;
  }

  d.row_slot_of_free_.resize(static_cast<std::size_t>(n_own));
  d.slot_of_owned_col_.resize(static_cast<std::size_t>(n_own));
  d.own_node_dof_.assign(static_cast<std::size_t>(nbrows) * BS, kInvalidIdx);
  for (idx i = 0; i < n_own; ++i) {
    const idx nd = bcol_of_ext[i];
    PROM_CHECK(brow_of_node[nd] != kInvalidIdx);
    d.row_slot_of_free_[i] = BS * brow_of_node[nd] + comp_of_ext[i];
    d.slot_of_owned_col_[i] = BS * nd + comp_of_ext[i];
    d.own_node_dof_[d.row_slot_of_free_[i]] = i;
  }

  // Re-block the local rows. Pattern pass per block row over the node's
  // scalar rows (consecutive local rows — owned columns are sorted by
  // global id); the diagonal node block is always kept so constrained
  // components get their identity pivot.
  const la::Csr& lm = a.local_matrix();
  la::Bsr3& m = d.local_;
  m.nbrows = nbrows;
  m.nbcols = nnodes;
  m.browptr.assign(static_cast<std::size_t>(nbrows) + 1, 0);
  std::vector<idx> marker(static_cast<std::size_t>(nnodes), kInvalidIdx);
  std::vector<std::vector<idx>> row_bcols(static_cast<std::size_t>(nbrows));
  for (idx i = 0; i < n_own; ++i) {
    const idx br = d.row_slot_of_free_[i] / BS;
    auto& bcols = row_bcols[br];
    const idx own_nd = bcol_of_ext[i];
    if (marker[own_nd] != br) {
      marker[own_nd] = br;
      bcols.push_back(own_nd);
    }
    for (nnz_t k = lm.rowptr[i]; k < lm.rowptr[i + 1]; ++k) {
      const idx nd = bcol_of_ext[lm.colidx[k]];
      if (marker[nd] != br) {
        marker[nd] = br;
        bcols.push_back(nd);
      }
    }
  }
  for (idx br = 0; br < nbrows; ++br) {
    std::sort(row_bcols[br].begin(), row_bcols[br].end());
    m.browptr[br + 1] =
        m.browptr[br] + static_cast<nnz_t>(row_bcols[br].size());
  }
  m.bcolidx.resize(static_cast<std::size_t>(m.browptr[nbrows]));
  m.vals.assign(m.bcolidx.size() * BS * BS, real{0});
  for (idx br = 0; br < nbrows; ++br) {
    std::copy(row_bcols[br].begin(), row_bcols[br].end(),
              m.bcolidx.begin() + m.browptr[br]);
  }
  for (idx i = 0; i < n_own; ++i) {
    const idx br = d.row_slot_of_free_[i] / BS;
    const idx r = d.row_slot_of_free_[i] % BS;
    const auto& bcols = row_bcols[br];
    const nnz_t base = m.browptr[br];
    for (nnz_t k = lm.rowptr[i]; k < lm.rowptr[i + 1]; ++k) {
      const idx nd = bcol_of_ext[lm.colidx[k]];
      const auto it = std::lower_bound(bcols.begin(), bcols.end(), nd);
      const nnz_t pos = base + static_cast<nnz_t>(it - bcols.begin());
      m.vals[static_cast<std::size_t>(pos) * BS * BS + r * BS +
             comp_of_ext[lm.colidx[k]]] = lm.vals[k];
    }
  }
  // Identity pivots on constrained (padding) components of owned nodes;
  // the padded x entries are always 0, so SpMV results are unaffected.
  for (idx nd = 0; nd < nnodes; ++nd) {
    const idx br = brow_of_node[nd];
    if (br == kInvalidIdx) continue;
    for (int c = 0; c < BS; ++c) {
      if (d.own_node_dof_[static_cast<std::size_t>(br) * BS + c] !=
          kInvalidIdx) {
        continue;
      }
      const auto& bcols = row_bcols[br];
      const auto it = std::lower_bound(bcols.begin(), bcols.end(), nd);
      const nnz_t pos =
          m.browptr[br] + static_cast<nnz_t>(it - bcols.begin());
      m.vals[static_cast<std::size_t>(pos) * BS * BS + c * BS + c] = 1;
    }
  }

  // Node-granularity exchange plan: ghost nodes are requested from their
  // owners by vertex id (identical on every rank at a given level).
  std::vector<std::vector<idx>> requests(
      static_cast<std::size_t>(comm.size()));
  std::vector<std::vector<idx>> req_bcols(
      static_cast<std::size_t>(comm.size()));
  for (idx nd = 0; nd < nnodes; ++nd) {
    if (nodes[nd].owner == rank) continue;
    requests[nodes[nd].owner].push_back(nodes[nd].vertex);
    req_bcols[nodes[nd].owner].push_back(nd);
  }
  const auto incoming = comm.alltoallv(requests);

  std::vector<std::pair<idx, idx>> vertex_to_brow;  // owned (vertex, brow)
  vertex_to_brow.reserve(static_cast<std::size_t>(nbrows));
  for (idx nd = 0; nd < nnodes; ++nd) {
    if (brow_of_node[nd] != kInvalidIdx) {
      vertex_to_brow.emplace_back(nodes[nd].vertex, brow_of_node[nd]);
    }
  }
  std::sort(vertex_to_brow.begin(), vertex_to_brow.end());

  for (int r = 0; r < comm.size(); ++r) {
    if (r == rank) continue;
    if (!incoming[r].empty()) {
      // Whole node blocks on the wire: BS values per requested node,
      // padding components gathered as kInvalidIdx (shipped as 0).
      std::vector<idx> gather;
      gather.reserve(incoming[r].size() * BS);
      for (idx v : incoming[r]) {
        const auto it = std::lower_bound(
            vertex_to_brow.begin(), vertex_to_brow.end(),
            std::make_pair(v, idx{0}),
            [](const auto& a_, const auto& b_) { return a_.first < b_.first; });
        PROM_CHECK(it != vertex_to_brow.end() && it->first == v);
        for (int c = 0; c < BS; ++c) {
          gather.push_back(
              d.own_node_dof_[static_cast<std::size_t>(it->second) * BS + c]);
        }
      }
      d.plan_.add_send(r, std::move(gather));
    }
    if (!requests[r].empty()) {
      std::vector<idx> slots;
      slots.reserve(req_bcols[r].size() * BS);
      for (idx nd : req_bcols[r]) {
        for (int c = 0; c < BS; ++c) slots.push_back(nd * BS + c);
      }
      d.plan_.add_recv(r, std::move(slots));
    }
  }
  d.plan_.finalize(kTagNodeGhost);

  // Interior/boundary split at block-row granularity: a block row is
  // interior when every referenced node column is owned.
  for (idx br = 0; br < nbrows; ++br) {
    bool interior = true;
    for (nnz_t k = m.browptr[br]; k < m.browptr[br + 1]; ++k) {
      if (brow_of_node[m.bcolidx[k]] == kInvalidIdx) {
        interior = false;
        break;
      }
    }
    (interior ? d.interior_brows_ : d.boundary_brows_).push_back(br);
  }
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
  if (halo_mode() == HaloMode::kOverlap) {
    {
      const obs::Span span("halo.interior");
      local_.spmm_brows(x_ext_mv_, y_pad_mv_, interior_brows_);
    }
    plan_.finish_mv(comm, x_ext_mv_);
    const obs::Span span("halo.boundary");
    local_.spmm_brows(x_ext_mv_, y_pad_mv_, boundary_brows_);
  } else {
    plan_.finish_rank_order_mv(comm, x_ext_mv_);
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
  if (halo_mode() == HaloMode::kOverlap) {
    {
      const obs::Span span("halo.interior");
      local_.residual_mv_brows(b_pad_mv_, x_ext_mv_, r_pad_mv_,
                               interior_brows_);
    }
    plan_.finish_mv(comm, x_ext_mv_);
    const obs::Span span("halo.boundary");
    local_.residual_mv_brows(b_pad_mv_, x_ext_mv_, r_pad_mv_,
                             boundary_brows_);
  } else {
    plan_.finish_rank_order_mv(comm, x_ext_mv_);
    local_.residual_mv(b_pad_mv_, x_ext_mv_, r_pad_mv_);
  }
  for (int j = 0; j < k; ++j) {
    const real* rp = r_pad_mv_.col_data(j);
    real* rj = r_local.col_data(j);
    for (idx i = 0; i < nlocal_; ++i) rj[i] = rp[row_slot_of_free_[i]];
  }
}

}  // namespace prom::dla
