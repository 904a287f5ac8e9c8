#include "graph/graph.h"

#include <algorithm>

#include "common/error.h"

namespace prom::graph {

Graph Graph::from_edges(idx num_vertices,
                        std::span<const std::pair<idx, idx>> edges) {
  // Counting sort of the directed pairs (u, v) and (v, u) by source.
  std::vector<nnz_t> start(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const auto& [u, v] : edges) {
    PROM_CHECK(u >= 0 && u < num_vertices && v >= 0 && v < num_vertices);
    if (u == v) continue;
    ++start[u + 1];
    ++start[v + 1];
  }
  for (idx v = 0; v < num_vertices; ++v) start[v + 1] += start[v];
  std::vector<idx> nbr(static_cast<std::size_t>(start[num_vertices]));
  {
    std::vector<nnz_t> next(start.begin(), start.end() - 1);
    for (const auto& [u, v] : edges) {
      if (u == v) continue;
      nbr[next[u]++] = v;
      nbr[next[v]++] = u;
    }
  }

  // Sort and dedupe each neighbour list, compacting towards the front.
  Graph g;
  g.nv_ = num_vertices;
  g.xadj_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  auto out = nbr.begin();
  for (idx v = 0; v < num_vertices; ++v) {
    const auto first = nbr.begin() + start[v];
    const auto last = nbr.begin() + start[v + 1];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    for (auto it = first; it != unique_end; ++it) *out++ = *it;
    g.xadj_[v + 1] = out - nbr.begin();
  }
  g.adj_.assign(nbr.begin(), out);
  return g;
}

Graph Graph::from_csr(idx num_vertices, std::vector<nnz_t> xadj,
                      std::vector<idx> adj) {
  PROM_CHECK(static_cast<idx>(xadj.size()) == num_vertices + 1);
  PROM_CHECK(xadj.back() == static_cast<nnz_t>(adj.size()));
  Graph g;
  g.nv_ = num_vertices;
  g.xadj_ = std::move(xadj);
  g.adj_ = std::move(adj);
  return g;
}

bool Graph::has_edge(idx u, idx v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

bool Graph::is_symmetric() const {
  for (idx u = 0; u < nv_; ++u) {
    for (idx v : neighbors(u)) {
      if (!has_edge(v, u)) return false;
    }
  }
  return true;
}

bool is_independent_set(const Graph& g, std::span<const idx> set) {
  std::vector<char> in_set(static_cast<std::size_t>(g.num_vertices()), 0);
  for (idx v : set) {
    PROM_CHECK(v >= 0 && v < g.num_vertices());
    in_set[v] = 1;
  }
  for (idx v : set) {
    for (idx u : g.neighbors(v)) {
      if (in_set[u]) return false;
    }
  }
  return true;
}

bool is_maximal_independent_set(const Graph& g, std::span<const idx> set) {
  if (!is_independent_set(g, set)) return false;
  std::vector<char> covered(static_cast<std::size_t>(g.num_vertices()), 0);
  for (idx v : set) {
    covered[v] = 1;
    for (idx u : g.neighbors(v)) covered[u] = 1;
  }
  return std::all_of(covered.begin(), covered.end(),
                     [](char c) { return c != 0; });
}

}  // namespace prom::graph
