#include "partition/greedy.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/error.h"
#include "partition/rcb.h"

namespace prom::partition {

std::vector<idx> greedy_graph_partition(const graph::Graph& g, idx nparts,
                                        const GreedyOptions& opts) {
  const idx n = g.num_vertices();
  PROM_CHECK(nparts >= 1);
  std::vector<idx> part(static_cast<std::size_t>(n), kInvalidIdx);
  if (nparts == 1) {
    std::fill(part.begin(), part.end(), 0);
    return part;
  }

  // Grow parts one at a time by BFS from a pseudo-peripheral unassigned
  // vertex; each part takes its proportional share of the remainder.
  idx assigned = 0;
  for (idx p = 0; p < nparts; ++p) {
    const idx target = (n - assigned) / (nparts - p);
    if (target == 0) continue;
    // Seed: unassigned vertex of minimum degree (cheap peripheral proxy).
    idx seed = kInvalidIdx;
    for (idx v = 0; v < n; ++v) {
      if (part[v] == kInvalidIdx &&
          (seed == kInvalidIdx || g.degree(v) < g.degree(seed))) {
        seed = v;
      }
    }
    PROM_CHECK(seed != kInvalidIdx);
    std::deque<idx> queue{seed};
    part[seed] = p;
    idx grown = 1;
    while (!queue.empty() && grown < target) {
      const idx v = queue.front();
      queue.pop_front();
      for (idx u : g.neighbors(v)) {
        if (part[u] == kInvalidIdx && grown < target) {
          part[u] = p;
          ++grown;
          queue.push_back(u);
        }
      }
      // Disconnected remainder: restart from a fresh unassigned seed.
      if (queue.empty() && grown < target) {
        for (idx v2 = 0; v2 < n; ++v2) {
          if (part[v2] == kInvalidIdx) {
            part[v2] = p;
            ++grown;
            queue.push_back(v2);
            break;
          }
        }
      }
    }
    assigned += grown;
  }
  // Sweep up any stragglers into the last part.
  for (idx v = 0; v < n; ++v) {
    if (part[v] == kInvalidIdx) part[v] = nparts - 1;
  }

  // Boundary refinement: move a vertex to the neighboring part where it
  // has the most neighbors, when that strictly reduces the cut and keeps
  // both parts within the imbalance bound.
  std::vector<idx> sizes = part_sizes(part, nparts);
  const double max_size = opts.imbalance * static_cast<double>(n) / nparts;
  std::vector<idx> gain(static_cast<std::size_t>(nparts), 0);
  for (int pass = 0; pass < opts.refine_passes; ++pass) {
    bool moved = false;
    for (idx v = 0; v < n; ++v) {
      const idx home = part[v];
      if (sizes[home] <= 1) continue;
      // Count v's neighbors per part.
      std::vector<idx> touched;
      for (idx u : g.neighbors(v)) {
        if (gain[part[u]] == 0) touched.push_back(part[u]);
        gain[part[u]]++;
      }
      idx best = home;
      for (idx p : touched) {
        if (p != home && gain[p] > gain[best] &&
            sizes[p] + 1 <= static_cast<idx>(max_size)) {
          best = p;
        }
      }
      if (best != home && gain[best] > gain[home]) {
        part[v] = best;
        sizes[home]--;
        sizes[best]++;
        moved = true;
      }
      for (idx p : touched) gain[p] = 0;
    }
    if (!moved) break;
  }
  return part;
}

nnz_t edge_cut(const graph::Graph& g, std::span<const idx> part) {
  nnz_t cut = 0;
  for (idx v = 0; v < g.num_vertices(); ++v) {
    for (idx u : g.neighbors(v)) {
      if (u > v && part[u] != part[v]) ++cut;
    }
  }
  return cut;
}

std::vector<std::vector<idx>> block_jacobi_blocks(const graph::Graph& g,
                                                  idx blocks_per_1000,
                                                  idx min_blocks) {
  const idx n = g.num_vertices();
  const idx nblocks = std::max<idx>(
      min_blocks,
      static_cast<idx>((static_cast<nnz_t>(n) * blocks_per_1000 + 999) / 1000));
  if (nblocks >= n) {
    // Degenerate: one vertex per block.
    std::vector<std::vector<idx>> blocks;
    for (idx v = 0; v < n; ++v) blocks.push_back({v});
    return blocks;
  }
  const std::vector<idx> part = greedy_graph_partition(g, nblocks);
  // parts_to_blocks keeps empty parts as empty blocks (aligned with part
  // ids); the block-Jacobi factorization wants one block per non-empty
  // dof set, so drop the empties here.
  std::vector<std::vector<idx>> blocks = parts_to_blocks(part, nblocks);
  std::erase_if(blocks, [](const auto& b) { return b.empty(); });
  return blocks;
}

std::vector<std::vector<idx>> contiguous_blocks(idx n, idx nblocks) {
  PROM_CHECK(n >= 0 && nblocks >= 1);
  nblocks = std::min<idx>(nblocks, std::max<idx>(n, 1));
  std::vector<std::vector<idx>> blocks(static_cast<std::size_t>(nblocks));
  for (idx i = 0; i < n; ++i) {
    const idx k = static_cast<idx>(
        (static_cast<nnz_t>(i) * nblocks) / std::max<idx>(n, 1));
    blocks[k].push_back(i);
  }
  // Remove empty blocks (possible when nblocks > n).
  std::erase_if(blocks, [](const auto& b) { return b.empty(); });
  return blocks;
}

}  // namespace prom::partition
