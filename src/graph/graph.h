// Undirected graphs in CSR adjacency form. These are the graphs the MIS
// coarsener operates on: the vertex-connectivity graph of a finite element
// mesh, possibly modified by the feature heuristics of §4.6.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/config.h"

namespace prom::graph {

class Graph {
 public:
  Graph() = default;

  /// Builds a simple undirected graph from an edge list; duplicate edges
  /// and self-loops are dropped, and both directions are stored. Each
  /// adjacency list is the sorted set of neighbours, so the result does
  /// not depend on the edges' order or orientation. O(E + V) plus the
  /// per-vertex sorts: a counting sort of the directed pairs by source,
  /// then a sort and dedupe of each neighbour list. Every vertex id is
  /// range-checked.
  static Graph from_edges(idx num_vertices,
                          std::span<const std::pair<idx, idx>> edges);

  /// Builds from pre-validated CSR adjacency (must already be symmetric,
  /// sorted, self-loop free).
  static Graph from_csr(idx num_vertices, std::vector<nnz_t> xadj,
                        std::vector<idx> adj);

  idx num_vertices() const { return nv_; }
  nnz_t num_edges() const { return static_cast<nnz_t>(adj_.size()) / 2; }

  idx degree(idx v) const {
    return static_cast<idx>(xadj_[v + 1] - xadj_[v]);
  }

  std::span<const idx> neighbors(idx v) const {
    return {adj_.data() + xadj_[v],
            static_cast<std::size_t>(xadj_[v + 1] - xadj_[v])};
  }

  bool has_edge(idx u, idx v) const;

  /// True if the adjacency structure is symmetric (validity check).
  bool is_symmetric() const;

  const std::vector<nnz_t>& xadj() const { return xadj_; }
  const std::vector<idx>& adj() const { return adj_; }

 private:
  idx nv_ = 0;
  std::vector<nnz_t> xadj_{0};
  std::vector<idx> adj_;
};

/// True if `set` is an independent set of g.
bool is_independent_set(const Graph& g, std::span<const idx> set);

/// True if `set` is a *maximal* independent set of g.
bool is_maximal_independent_set(const Graph& g, std::span<const idx> set);

}  // namespace prom::graph
