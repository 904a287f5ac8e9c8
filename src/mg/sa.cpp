#include "mg/sa.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "la/vec.h"

namespace prom::mg {
namespace {

/// Per-level algebraic state: the operator, the candidate block B
/// (n x nb, column-major), and the grouping of dofs into "nodes"
/// (vertices on the finest level, aggregates below).
struct SaLevel {
  la::Csr a;
  std::vector<real> b;  // column-major, n rows x nb cols
  int nb = 0;
  std::vector<nnz_t> node_ptr;  // CSR over nodes -> dof lists
  std::vector<idx> node_dofs;
  std::vector<idx> node_of_dof;

  idx n() const { return a.nrows; }
  idx num_nodes() const { return static_cast<idx>(node_ptr.size()) - 1; }
};

/// Node strength graph: F_uv = ||A_uv block||_F; strong iff
/// F_uv > theta * sqrt(F_uu * F_vv).
graph::Graph strength_graph(const SaLevel& lv, real theta) {
  const idx nn = lv.num_nodes();
  // Accumulate block Frobenius norms (squared) per node pair.
  std::map<std::pair<idx, idx>, real> fro2;
  std::vector<real> diag2(static_cast<std::size_t>(nn), 0);
  for (idx i = 0; i < lv.a.nrows; ++i) {
    const idx u = lv.node_of_dof[i];
    for (nnz_t k = lv.a.rowptr[i]; k < lv.a.rowptr[i + 1]; ++k) {
      const idx v = lv.node_of_dof[lv.a.colidx[k]];
      const real w = lv.a.vals[k] * lv.a.vals[k];
      if (u == v) {
        diag2[u] += w;
      } else {
        fro2[{std::min(u, v), std::max(u, v)}] += w;
      }
    }
  }
  std::vector<std::pair<idx, idx>> edges;
  for (const auto& [uv, f2] : fro2) {
    const real bound =
        theta * theta * std::sqrt(diag2[uv.first] * diag2[uv.second]);
    if (f2 > bound) edges.push_back(uv);
  }
  return graph::Graph::from_edges(nn, edges);
}

}  // namespace

std::vector<idx> aggregate_nodes(const graph::Graph& strength,
                                 idx* num_out) {
  const idx nn = strength.num_vertices();
  std::vector<idx> agg(static_cast<std::size_t>(nn), kInvalidIdx);
  idx num_agg = 0;

  // Phase 1 (Vanek et al.): a node whose strong neighborhood is entirely
  // unaggregated becomes the root of a new aggregate with that whole
  // neighborhood.
  for (idx v = 0; v < nn; ++v) {
    if (agg[v] != kInvalidIdx) continue;
    bool clean = true;
    for (idx u : strength.neighbors(v)) {
      if (agg[u] != kInvalidIdx) {
        clean = false;
        break;
      }
    }
    if (!clean) continue;
    const idx id = num_agg++;
    agg[v] = id;
    for (idx u : strength.neighbors(v)) agg[u] = id;
  }

  // Phase 2: attach leftovers to the aggregate they touch most strongly
  // (here: with the most strong edges); isolated leftovers become
  // singleton aggregates.
  for (idx v = 0; v < nn; ++v) {
    if (agg[v] != kInvalidIdx) continue;
    std::map<idx, int> votes;
    for (idx u : strength.neighbors(v)) {
      if (agg[u] != kInvalidIdx) votes[agg[u]]++;
    }
    if (votes.empty()) {
      agg[v] = num_agg++;
      continue;
    }
    idx best = votes.begin()->first;
    int best_votes = votes.begin()->second;
    for (const auto& [id, count] : votes) {
      if (count > best_votes) {
        best = id;
        best_votes = count;
      }
    }
    agg[v] = best;
  }
  if (num_out != nullptr) *num_out = num_agg;
  return agg;
}

std::vector<real> rigid_body_modes(const mesh::Mesh& mesh,
                                   const fem::DofMap& dofmap) {
  dofmap.require_dofs_per_vertex(kDofPerVertex, "rigid_body_modes");
  const idx n = dofmap.num_free();
  std::vector<real> b(static_cast<std::size_t>(n) * 6, 0);
  const Vec3 center = mesh.bounding_box().center();
  auto set = [&](idx free_index, int col, real value) {
    b[static_cast<std::size_t>(col) * n + free_index] = value;
  };
  for (idx i = 0; i < n; ++i) {
    const idx dof = dofmap.free_dofs()[i];
    const idx v = dof / 3;
    const int comp = static_cast<int>(dof % 3);
    const Vec3 r = mesh.coord(v) - center;
    // Translations.
    set(i, comp, 1);
    // Rotations e_d x r.
    const Vec3 rot[3] = {{0, -r.z, r.y}, {r.z, 0, -r.x}, {-r.y, r.x, 0}};
    for (int d = 0; d < 3; ++d) set(i, 3 + d, rot[d][comp]);
  }
  return b;
}

Hierarchy build_smoothed_aggregation(const mesh::Mesh& mesh,
                                     const fem::DofMap& dofmap,
                                     la::Csr a_fine, const MgOptions& opts,
                                     const SaOptions& sa) {
  PROM_CHECK(a_fine.nrows == dofmap.num_free());
  PROM_CHECK(sa.num_candidates >= 1 && sa.num_candidates <= 6);

  SaLevel lv;
  lv.nb = sa.num_candidates;
  {
    // Candidates: the first nb rigid body modes.
    const std::vector<real> rbm = rigid_body_modes(mesh, dofmap);
    const idx n = a_fine.nrows;
    lv.b.assign(rbm.begin(),
                rbm.begin() + static_cast<std::size_t>(lv.nb) * n);
    // Finest nodes: mesh vertices (with their free dofs).
    std::vector<std::vector<idx>> per_vertex(
        static_cast<std::size_t>(mesh.num_vertices()));
    for (idx i = 0; i < n; ++i) {
      per_vertex[dofmap.free_dofs()[i] / 3].push_back(i);
    }
    lv.node_ptr.push_back(0);
    lv.node_of_dof.assign(static_cast<std::size_t>(n), kInvalidIdx);
    for (const auto& dofs : per_vertex) {
      if (dofs.empty()) continue;  // fully constrained vertex: no node
      for (idx d : dofs) {
        lv.node_of_dof[d] = static_cast<idx>(lv.node_ptr.size()) - 1;
        lv.node_dofs.push_back(d);
      }
      lv.node_ptr.push_back(static_cast<nnz_t>(lv.node_dofs.size()));
    }
  }
  lv.a = std::move(a_fine);

  la::Csr a0 = lv.a;  // keep a copy for the final hierarchy assembly
  std::vector<la::Csr> restrictions;

  for (int level = 0; level + 1 < opts.max_levels; ++level) {
    if (lv.n() <= opts.coarsest_max_dofs) break;

    const graph::Graph strength = strength_graph(lv, sa.strength_theta);
    idx num_agg = 0;
    const std::vector<idx> agg = aggregate_nodes(strength, &num_agg);
    if (num_agg >= lv.num_nodes() || num_agg < 2) {
      PROM_WARN("smoothed aggregation stalled at level " << level);
      break;
    }

    // Dof lists per aggregate.
    std::vector<std::vector<idx>> agg_dofs(static_cast<std::size_t>(num_agg));
    for (idx node = 0; node < lv.num_nodes(); ++node) {
      for (nnz_t k = lv.node_ptr[node]; k < lv.node_ptr[node + 1]; ++k) {
        agg_dofs[agg[node]].push_back(lv.node_dofs[k]);
      }
    }

    // Tentative prolongator: per-aggregate modified Gram-Schmidt of the
    // candidate block; Q becomes the P_tent block, R the coarse
    // candidates. Rank-deficient columns (tiny norms) are dropped, so
    // small aggregates get fewer coarse dofs.
    const idx n = lv.n();
    std::vector<la::Triplet> pt_triplets;
    std::vector<real> coarse_b;     // column-major later; gather rows first
    std::vector<idx> agg_offset(static_cast<std::size_t>(num_agg) + 1, 0);
    std::vector<std::vector<real>> coarse_rows;  // each row: nb entries
    for (idx a = 0; a < num_agg; ++a) {
      const auto& dofs = agg_dofs[a];
      const idx na = static_cast<idx>(dofs.size());
      // Columns of the local candidate block.
      std::vector<std::vector<real>> cols(
          static_cast<std::size_t>(lv.nb),
          std::vector<real>(static_cast<std::size_t>(na)));
      for (int c = 0; c < lv.nb; ++c) {
        for (idx r = 0; r < na; ++r) {
          cols[c][r] = lv.b[static_cast<std::size_t>(c) * n + dofs[r]];
        }
      }
      std::vector<std::vector<real>> q;   // kept orthonormal columns
      std::vector<std::vector<real>> rrow;  // R rows (coefficients vs B)
      for (int c = 0; c < lv.nb; ++c) {
        std::vector<real> w = cols[c];
        const real norm0 = la::nrm2(w);
        std::vector<real> coeff(static_cast<std::size_t>(lv.nb), 0);
        for (std::size_t k = 0; k < q.size(); ++k) {
          const real h = la::dot(q[k], w);
          la::axpy(-h, q[k], w);
          rrow[k][c] = h;
        }
        const real norm1 = la::nrm2(w);
        if (norm1 > 1e-10 * std::max(norm0, real{1e-300}) && norm1 > 0) {
          la::scale(1 / norm1, w);
          q.push_back(std::move(w));
          rrow.emplace_back(static_cast<std::size_t>(lv.nb), real{0});
          rrow.back()[c] = norm1;
        }
      }
      const idx ka = static_cast<idx>(q.size());
      const idx base = agg_offset[a];
      agg_offset[a + 1] = base + ka;
      for (idx k = 0; k < ka; ++k) {
        for (idx r = 0; r < na; ++r) {
          if (q[k][r] != 0) {
            pt_triplets.push_back({dofs[r], base + k, q[k][r]});
          }
        }
        coarse_rows.push_back(std::move(rrow[k]));
      }
    }
    const idx n_coarse = agg_offset[num_agg];
    if (n_coarse >= n || n_coarse < 1) {
      PROM_WARN("smoothed aggregation produced no reduction; stopping");
      break;
    }
    const la::Csr p_tent =
        la::Csr::from_triplets(n, n_coarse, std::move(pt_triplets));

    // Prolongator smoothing: P = (I - omega/rho D^{-1} A) P_tent.
    la::Csr dinv_a = lv.a;
    {
      const std::vector<real> d = lv.a.diagonal();
      for (idx i = 0; i < n; ++i) {
        PROM_CHECK_MSG(d[i] != 0, "SA needs a nonzero diagonal");
        for (nnz_t k = dinv_a.rowptr[i]; k < dinv_a.rowptr[i + 1]; ++k) {
          dinv_a.vals[k] /= d[i];
        }
      }
    }
    // Spectral radius estimate of D^{-1}A by power iteration.
    real rho = 1;
    {
      std::vector<real> v(static_cast<std::size_t>(n)), av(v.size());
      for (idx i = 0; i < n; ++i) v[i] = 1 + (i % 5) * 0.2;
      for (int it = 0; it < 12; ++it) {
        dinv_a.spmv(v, av);
        rho = la::nrm2(av);
        if (rho == 0) break;
        for (idx i = 0; i < n; ++i) v[i] = av[i] / rho;
      }
      rho = std::max(rho, real{1e-12});
    }
    la::Csr smoothed = la::spgemm(dinv_a, p_tent);
    for (real& v : smoothed.vals) v *= -(sa.prolongator_omega / rho);
    // P = P_tent + smoothed (sparse sum via triplets).
    std::vector<la::Triplet> sum;
    sum.reserve(static_cast<std::size_t>(p_tent.nnz() + smoothed.nnz()));
    for (idx i = 0; i < n; ++i) {
      for (nnz_t k = p_tent.rowptr[i]; k < p_tent.rowptr[i + 1]; ++k) {
        sum.push_back({i, p_tent.colidx[k], p_tent.vals[k]});
      }
      for (nnz_t k = smoothed.rowptr[i]; k < smoothed.rowptr[i + 1]; ++k) {
        sum.push_back({i, smoothed.colidx[k], smoothed.vals[k]});
      }
    }
    const la::Csr p = la::Csr::from_triplets(n, n_coarse, std::move(sum));
    la::Csr r = p.transposed();

    // Next-level state.
    SaLevel next;
    next.nb = lv.nb;
    next.a = la::galerkin_product(r, lv.a);
    next.b.assign(static_cast<std::size_t>(n_coarse) * lv.nb, 0);
    for (idx row = 0; row < n_coarse; ++row) {
      for (int c = 0; c < lv.nb; ++c) {
        next.b[static_cast<std::size_t>(c) * n_coarse + row] =
            coarse_rows[row][c];
      }
    }
    next.node_ptr.push_back(0);
    next.node_of_dof.assign(static_cast<std::size_t>(n_coarse), kInvalidIdx);
    for (idx a = 0; a < num_agg; ++a) {
      if (agg_offset[a + 1] == agg_offset[a]) continue;
      for (idx dof = agg_offset[a]; dof < agg_offset[a + 1]; ++dof) {
        next.node_of_dof[dof] = static_cast<idx>(next.node_ptr.size()) - 1;
        next.node_dofs.push_back(dof);
      }
      next.node_ptr.push_back(static_cast<nnz_t>(next.node_dofs.size()));
    }

    restrictions.push_back(std::move(r));
    lv = std::move(next);
  }

  return Hierarchy::from_operator_chain(std::move(a0),
                                        std::move(restrictions), opts);
}

}  // namespace prom::mg
