#include "coarsen/restriction.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <utility>

#include "common/error.h"
#include "delaunay/delaunay.h"
#include "geom/predicates.h"

namespace prom::coarsen {
namespace {

/// Clamp slightly negative barycentric weights and renormalize.
std::array<real, 4> clamp_weights(const std::array<real, 4>& w) {
  std::array<real, 4> out;
  real sum = 0;
  for (int i = 0; i < 4; ++i) {
    out[i] = std::max(w[i], real{0});
    sum += out[i];
  }
  PROM_CHECK(sum > 0);
  for (real& v : out) v /= sum;
  return out;
}

/// Pairs of selected vertices within `hops` of each other in the fine
/// graph ("near each other on the fine mesh", §4.8), as a sorted set of
/// (coarse_i, coarse_j) with i < j.
std::set<std::pair<idx, idx>> near_pairs(const graph::Graph& fine_graph,
                                         std::span<const idx> selected,
                                         std::span<const idx> coarse_of,
                                         idx hops) {
  std::set<std::pair<idx, idx>> near;
  std::vector<idx> dist(static_cast<std::size_t>(fine_graph.num_vertices()),
                        kInvalidIdx);
  std::vector<idx> touched;
  for (idx c = 0; c < static_cast<idx>(selected.size()); ++c) {
    // Bounded BFS from selected[c].
    touched.clear();
    std::deque<idx> queue{selected[c]};
    dist[selected[c]] = 0;
    touched.push_back(selected[c]);
    while (!queue.empty()) {
      const idx v = queue.front();
      queue.pop_front();
      if (dist[v] >= hops) continue;
      for (idx u : fine_graph.neighbors(v)) {
        if (dist[u] == kInvalidIdx) {
          dist[u] = dist[v] + 1;
          touched.push_back(u);
          queue.push_back(u);
        }
      }
    }
    for (idx v : touched) {
      const idx c2 = coarse_of[v];
      if (c2 != kInvalidIdx && c2 != c) {
        near.emplace(std::min(c, c2), std::max(c, c2));
      }
      dist[v] = kInvalidIdx;  // reset for the next BFS
    }
  }
  return near;
}

}  // namespace

RestrictionResult build_restriction(std::span<const Vec3> fine_coords,
                                    std::span<const idx> selected,
                                    const RestrictionOptions& opts,
                                    const graph::Graph* fine_graph) {
  const idx n_fine = static_cast<idx>(fine_coords.size());
  const idx n_coarse = static_cast<idx>(selected.size());
  PROM_CHECK(n_coarse >= 1);

  // Coarse-local index of each fine vertex (or invalid).
  std::vector<idx> coarse_of(static_cast<std::size_t>(n_fine), kInvalidIdx);
  std::vector<Vec3> coarse_pts(static_cast<std::size_t>(n_coarse));
  for (idx c = 0; c < n_coarse; ++c) {
    PROM_CHECK(selected[c] >= 0 && selected[c] < n_fine);
    coarse_of[selected[c]] = c;
    coarse_pts[c] = fine_coords[selected[c]];
  }

  const delaunay::Delaunay3 dt(coarse_pts);
  const auto& tets = dt.tets();

  RestrictionResult result;
  std::vector<la::Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(n_fine) * 4);

  auto nearest_coarse = [&](const Vec3& p) {
    idx best = 0;
    real best_d = std::numeric_limits<real>::max();
    for (idx c = 0; c < n_coarse; ++c) {
      const real d = norm2(coarse_pts[c] - p);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    return best;
  };

  // Interpolation pass: each fine vertex takes the linear tet shape
  // function values of its containing tet; vertices landing in super-box
  // tets are "lost" (§4.8) and fall back to nearest-vertex injection.
  // Simultaneously record which tets hold a fine vertex *uniquely* inside
  // (all weights > eps) for the pruning pass below.
  //
  // Weights are validated by reconstructing the vertex position from the
  // *true* coarse coordinates: near-degenerate sliver tets (exactly
  // cospherical lattice configurations survive only through the jitter)
  // can produce inaccurate barycentric ratios, in which case neighboring
  // tets are tried and the nearest-vertex fallback is the last resort.
  std::vector<char> has_unique(tets.size(), 0);

  auto reconstruction_error = [&](idx t, const std::array<real, 4>& w,
                                  const Vec3& p) {
    Vec3 rec{};
    real scale = 0;
    for (int a = 0; a < 4; ++a) {
      const Vec3& xa = coarse_pts[dt.point_of_vertex(tets[t].v[a])];
      rec += xa * w[a];
      for (int b = a + 1; b < 4; ++b) {
        scale = std::max(
            scale, norm2(xa - coarse_pts[dt.point_of_vertex(tets[t].v[b])]));
      }
    }
    return scale > 0 ? std::sqrt(norm2(rec - p) / scale)
                     : std::numeric_limits<real>::max();
  };

  idx hint = kInvalidIdx;
  for (idx v = 0; v < n_fine; ++v) {
    if (coarse_of[v] != kInvalidIdx) {
      triplets.push_back({coarse_of[v], v, 1});
      continue;
    }
    const Vec3& p = fine_coords[v];
    const idx located = dt.locate(p, hint);
    hint = located;

    // Candidates: the located tet plus its two-ring of face neighbors.
    std::vector<idx> candidates{located};
    for (idx nb : tets[located].nbr) {
      if (nb == kInvalidIdx) continue;
      candidates.push_back(nb);
      for (idx nb2 : tets[nb].nbr) {
        if (nb2 != kInvalidIdx) candidates.push_back(nb2);
      }
    }
    idx best_t = kInvalidIdx;
    std::array<real, 4> best_w{};
    real best_score = std::numeric_limits<real>::max();
    for (idx cand : candidates) {
      if (!tets[cand].alive || dt.tet_touches_super(cand)) continue;
      const auto w = clamp_weights(dt.barycentric(cand, p));
      const real err = reconstruction_error(cand, w, p);
      if (err < best_score) {
        best_score = err;
        best_t = cand;
        best_w = w;
      }
      if (err < 1e-9) break;  // exact enough; stop searching
    }
    if (best_t == kInvalidIdx || best_score > 1e-3) {
      result.lost.push_back(v);
      triplets.push_back({nearest_coarse(p), v, 1});
      continue;
    }
    if (std::min({best_w[0], best_w[1], best_w[2], best_w[3]}) >
        opts.inside_eps) {
      has_unique[best_t] = 1;
    }
    for (int a = 0; a < 4; ++a) {
      if (best_w[a] <= 0) continue;
      triplets.push_back({dt.point_of_vertex(tets[best_t].v[a]), v, best_w[a]});
    }
  }
  result.r_vertex =
      la::Csr::from_triplets(n_coarse, n_fine, std::move(triplets));

  // Pruning pass (§4.8): drop super-box tets, and tets that connect
  // vertices not near each other on the fine mesh unless a fine vertex
  // lies uniquely inside them. Nearness comes from the fine graph when
  // available, otherwise from a global edge-length heuristic.
  std::set<std::pair<idx, idx>> near;
  if (fine_graph != nullptr) {
    near = near_pairs(*fine_graph, selected, coarse_of, opts.near_hops);
  }
  real long_edge = std::numeric_limits<real>::max();
  if (fine_graph == nullptr) {
    std::vector<real> lengths;
    for (std::size_t t = 0; t < tets.size(); ++t) {
      if (!tets[t].alive || dt.tet_touches_super(static_cast<idx>(t))) {
        continue;
      }
      for (int a = 0; a < 4; ++a) {
        for (int b = a + 1; b < 4; ++b) {
          lengths.push_back(distance(dt.vertex_coords()[tets[t].v[a]],
                                     dt.vertex_coords()[tets[t].v[b]]));
        }
      }
    }
    if (!lengths.empty()) {
      auto mid =
          lengths.begin() + static_cast<std::ptrdiff_t>(lengths.size() / 2);
      std::nth_element(lengths.begin(), mid, lengths.end());
      long_edge = opts.long_edge_factor * *mid;
    }
  }

  std::vector<idx> cells;
  for (std::size_t t = 0; t < tets.size(); ++t) {
    if (!tets[t].alive || dt.tet_touches_super(static_cast<idx>(t))) continue;
    // Degenerate slivers (zero volume in the true, unjittered coordinates)
    // carry no geometric information for the next level: drop them.
    {
      const auto& tv = tets[t].v;
      const Vec3& x0 = coarse_pts[dt.point_of_vertex(tv[0])];
      const Vec3& x1 = coarse_pts[dt.point_of_vertex(tv[1])];
      const Vec3& x2 = coarse_pts[dt.point_of_vertex(tv[2])];
      const Vec3& x3 = coarse_pts[dt.point_of_vertex(tv[3])];
      const real vol = std::abs(signed_tet_volume(x0, x1, x2, x3));
      const real edge = std::max({norm2(x1 - x0), norm2(x2 - x0),
                                  norm2(x3 - x0), norm2(x2 - x1),
                                  norm2(x3 - x1), norm2(x3 - x2)});
      if (vol <= 1e-9 * std::pow(std::sqrt(edge), 3)) continue;
    }
    bool far = false;
    for (int a = 0; a < 4 && !far; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        const idx ca = dt.point_of_vertex(tets[t].v[a]);
        const idx cb = dt.point_of_vertex(tets[t].v[b]);
        if (fine_graph != nullptr) {
          if (!near.contains({std::min(ca, cb), std::max(ca, cb)})) {
            far = true;
            break;
          }
        } else if (distance(coarse_pts[ca], coarse_pts[cb]) > long_edge) {
          far = true;
          break;
        }
      }
    }
    if (far && !has_unique[t]) continue;
    for (idx tv : tets[t].v) cells.push_back(dt.point_of_vertex(tv));
  }
  std::vector<idx> materials(cells.size() / 4, 0);
  result.coarse_mesh = mesh::Mesh(mesh::CellKind::kTet4, coarse_pts,
                                  std::move(cells), std::move(materials));
  return result;
}

la::Csr expand_restriction_to_dofs(const la::Csr& r_vertex,
                                   std::span<const idx> fine_free,
                                   std::span<const idx> coarse_free,
                                   int ncomp) {
  PROM_CHECK(ncomp >= 1);
  // Map global fine dof -> fine free index.
  const idx n_fine_dofs = ncomp * r_vertex.ncols;
  const idx n_coarse_dofs = ncomp * r_vertex.nrows;
  std::vector<idx> fine_index(static_cast<std::size_t>(n_fine_dofs),
                              kInvalidIdx);
  for (std::size_t i = 0; i < fine_free.size(); ++i) {
    PROM_CHECK(fine_free[i] >= 0 && fine_free[i] < n_fine_dofs);
    fine_index[fine_free[i]] = static_cast<idx>(i);
  }
  std::vector<la::Triplet> triplets;
  for (std::size_t ci = 0; ci < coarse_free.size(); ++ci) {
    const idx cdof = coarse_free[ci];
    PROM_CHECK(cdof >= 0 && cdof < n_coarse_dofs);
    const idx cvert = cdof / ncomp;
    const int comp = static_cast<int>(cdof % ncomp);
    for (nnz_t k = r_vertex.rowptr[cvert]; k < r_vertex.rowptr[cvert + 1];
         ++k) {
      const idx fdof = ncomp * r_vertex.colidx[k] + comp;
      const idx fj = fine_index[fdof];
      if (fj == kInvalidIdx) continue;  // constrained fine dof: dropped
      triplets.push_back({static_cast<idx>(ci), fj, r_vertex.vals[k]});
    }
  }
  return la::Csr::from_triplets(static_cast<idx>(coarse_free.size()),
                                static_cast<idx>(fine_free.size()),
                                std::move(triplets));
}

}  // namespace prom::coarsen
