// Greedy graph-growing partitioner with boundary refinement — the METIS
// substitute used for (a) the block-Jacobi smoother blocks ("6 blocks for
// every 1,000 unknowns ... constructed with METIS", §7.2) and (b) graph
// partitions where coordinates are unavailable.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "graph/graph.h"

namespace prom::partition {

struct GreedyOptions {
  /// Passes of boundary refinement (move a boundary vertex to a
  /// neighboring part when it reduces the edge cut without unbalancing).
  int refine_passes = 2;
  /// Allowed part size as a multiple of the average (1.05 = 5% slack).
  double imbalance = 1.05;
};

/// Partitions the graph into `nparts` connected-ish parts by repeated BFS
/// growth from peripheral seeds, followed by cut refinement.
std::vector<idx> greedy_graph_partition(const graph::Graph& g, idx nparts,
                                        const GreedyOptions& opts = {});

/// Number of edges crossing between different parts.
nnz_t edge_cut(const graph::Graph& g, std::span<const idx> part);

/// Builds the paper's block-Jacobi blocks: ceil(6 * n / 1000) blocks of the
/// matrix-adjacency graph (at least `min_blocks`).
std::vector<std::vector<idx>> block_jacobi_blocks(const graph::Graph& g,
                                                  idx blocks_per_1000 = 6,
                                                  idx min_blocks = 1);

/// Partitions [0, n) into `nblocks` contiguous index blocks of roughly
/// equal size (fewer when n < nblocks) — block-Jacobi blocks without a
/// graph partitioner.
std::vector<std::vector<idx>> contiguous_blocks(idx n, idx nblocks);

}  // namespace prom::partition
