#include "coarsen/coarsen.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "graph/order.h"
#include "obs/trace.h"

namespace prom::coarsen {

std::vector<idx> mis_ordering(const Classification& cls,
                              const CoarsenOptions& opts) {
  const idx n = cls.num_vertices();
  // Sort key per vertex: exterior vertices in [0, n), interior in [n, 2n),
  // with the within-class key natural (index) or random per options.
  Rng rng(opts.seed);
  std::vector<std::uint64_t> key(static_cast<std::size_t>(n));
  for (idx v = 0; v < n; ++v) {
    const bool exterior = cls.type[v] != VertexType::kInterior;
    const MisOrdering ord =
        exterior ? opts.exterior_order : opts.interior_order;
    const std::uint64_t within =
        ord == MisOrdering::kNatural ? static_cast<std::uint64_t>(v)
                                     : rng.next_u64() >> 1;
    key[v] = (exterior ? 0 : (std::uint64_t{1} << 62)) | within;
  }
  std::vector<idx> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), idx{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](idx a, idx b) { return key[a] < key[b]; });
  return order;
}

CoarsenLevelResult coarsen_level(const std::vector<Vec3>& coords,
                                 const graph::Graph& vertex_graph,
                                 const Classification& cls, int level_index,
                                 const CoarsenOptions& opts) {
  const idx n = static_cast<idx>(coords.size());
  PROM_CHECK(vertex_graph.num_vertices() == n && cls.num_vertices() == n);

  CoarsenLevelResult result;

  // §4.6: feature-aware graph modification.
  const graph::Graph* mis_graph = &vertex_graph;
  graph::Graph modified;
  if (opts.modify_graph) {
    const obs::Span span("grids.modified_graph", level_index);
    modified = modified_mis_graph(vertex_graph, cls, &result.graph_stats);
    mis_graph = &modified;
  }

  // §4.2/§4.7: rank-aware greedy MIS in the heuristic ordering.
  {
    const obs::Span span("grids.mis", level_index);
    const std::vector<idx> order = mis_ordering(cls, opts);
    const std::vector<idx> ranks = cls.ranks();
    graph::MisOptions mis_opts;
    mis_opts.ranks = ranks;
    graph::MisResult mis = graph::greedy_mis(*mis_graph, order, mis_opts);
    std::sort(mis.selected.begin(), mis.selected.end());
    result.selected = std::move(mis.selected);
  }

  // §4.8: remesh and build the restriction operator. The *unmodified*
  // vertex graph supplies the "near on the fine mesh" relation.
  {
    const obs::Span span("grids.restriction", level_index);
    RestrictionResult restriction = build_restriction(
        coords, result.selected, opts.restriction, &vertex_graph);
    result.r_vertex = std::move(restriction.r_vertex);
    result.coarse_mesh = std::move(restriction.coarse_mesh);
    result.lost = std::move(restriction.lost);
  }

  // Coarse classification: inherit from the fine parents on early grids,
  // reclassify from the coarse tet mesh geometry on deeper ones (§4.6).
  const int coarse_index = level_index + 1;
  const obs::Span span("grids.classify", coarse_index);
  if (coarse_index >= opts.reclassify_from_level &&
      result.coarse_mesh.num_cells() > 0) {
    result.coarse_cls = classify_mesh(result.coarse_mesh, opts.face);
  } else {
    const idx nc = static_cast<idx>(result.selected.size());
    result.coarse_cls.type.resize(static_cast<std::size_t>(nc));
    for (idx c = 0; c < nc; ++c) {
      result.coarse_cls.type[c] = cls.type[result.selected[c]];
    }
    // Inherit feature sets so share_face keeps working on the next level.
    result.coarse_cls.vface_ptr.assign(static_cast<std::size_t>(nc) + 1, 0);
    for (idx c = 0; c < nc; ++c) {
      const auto faces = cls.faces_of(result.selected[c]);
      result.coarse_cls.vface_ptr[c + 1] =
          result.coarse_cls.vface_ptr[c] + static_cast<nnz_t>(faces.size());
      result.coarse_cls.vface.insert(result.coarse_cls.vface.end(),
                                     faces.begin(), faces.end());
    }
  }
  return result;
}

}  // namespace prom::coarsen
