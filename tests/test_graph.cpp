#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "graph/mis.h"
#include "graph/order.h"

namespace prom::graph {
namespace {

Graph random_graph(idx n, idx num_edges, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<idx, idx>> edges;
  for (idx e = 0; e < num_edges; ++e) {
    edges.emplace_back(static_cast<idx>(rng.next_below(n)),
                       static_cast<idx>(rng.next_below(n)));
  }
  return Graph::from_edges(n, edges);
}

Graph path_graph(idx n) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::from_edges(n, edges);
}

TEST(Graph, FromEdgesDedupAndSymmetrize) {
  std::vector<std::pair<idx, idx>> edges = {{0, 1}, {1, 0}, {0, 1}, {2, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 1);  // self-loop dropped, duplicates merged
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_TRUE(g.is_symmetric());
}

TEST(Graph, NeighborsSorted) {
  const Graph g = Graph::from_edges(
      5, std::vector<std::pair<idx, idx>>{{0, 4}, {0, 2}, {0, 1}});
  const auto nb = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

// from_edges must store exactly the sorted neighbour set of every vertex,
// whatever the edge list holds: duplicates, self-loops, both orientations
// of one edge, and vertices no edge touches.
TEST(Graph, FromEdgesMatchesSetReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const idx n = 1 + static_cast<idx>(rng.next_below(80));
    // Edges only touch the first `hot` vertices; the rest stay isolated.
    const idx hot = 1 + static_cast<idx>(rng.next_below(n));
    const idx m = static_cast<idx>(rng.next_below(6 * hot));
    std::vector<std::pair<idx, idx>> edges;
    std::vector<std::set<idx>> ref(static_cast<std::size_t>(n));
    for (idx e = 0; e < m; ++e) {
      const idx u = static_cast<idx>(rng.next_below(hot));
      const idx v = static_cast<idx>(rng.next_below(hot));
      edges.emplace_back(u, v);
      if (rng.next_below(3) == 0) edges.emplace_back(v, u);
      if (rng.next_below(3) == 0) edges.emplace_back(u, v);
      if (rng.next_below(5) == 0) edges.emplace_back(u, u);
      if (u != v) {
        ref[u].insert(v);
        ref[v].insert(u);
      }
    }
    std::vector<nnz_t> xadj{0};
    std::vector<idx> adj;
    for (const std::set<idx>& nb : ref) {
      adj.insert(adj.end(), nb.begin(), nb.end());
      xadj.push_back(static_cast<nnz_t>(adj.size()));
    }
    const Graph g = Graph::from_edges(n, edges);
    EXPECT_EQ(g.num_vertices(), n) << "seed " << seed;
    EXPECT_EQ(g.xadj(), xadj) << "seed " << seed;
    EXPECT_EQ(g.adj(), adj) << "seed " << seed;
  }
}

TEST(Graph, FromEdgesRejectsOutOfRangeVertex) {
  using Edges = std::vector<std::pair<idx, idx>>;
  EXPECT_THROW(Graph::from_edges(3, Edges{{0, 1}, {1, 3}}), Error);
  EXPECT_THROW(Graph::from_edges(3, Edges{{-1, 2}}), Error);
  // A self-loop is dropped, but only after its range check.
  EXPECT_THROW(Graph::from_edges(3, Edges{{3, 3}}), Error);
}

TEST(IndependentSetChecks, Work) {
  const Graph g = path_graph(5);
  EXPECT_TRUE(is_independent_set(g, std::vector<idx>{0, 2, 4}));
  EXPECT_FALSE(is_independent_set(g, std::vector<idx>{0, 1}));
  EXPECT_TRUE(is_maximal_independent_set(g, std::vector<idx>{0, 2, 4}));
  // Independent but not maximal (vertex 4 uncovered).
  EXPECT_FALSE(is_maximal_independent_set(g, std::vector<idx>{0, 2}));
}

class MisRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MisRandom, GreedyProducesMaximalIndependentSet) {
  const Graph g = random_graph(200, 600, GetParam());
  const MisResult mis = greedy_mis(g);
  EXPECT_TRUE(is_maximal_independent_set(g, mis.selected));
}

TEST_P(MisRandom, RandomOrderProducesMaximalIndependentSet) {
  const Graph g = random_graph(150, 400, GetParam());
  const auto order = random_order(150, GetParam());
  const MisResult mis = greedy_mis(g, order, {});
  EXPECT_TRUE(is_maximal_independent_set(g, mis.selected));
}

TEST_P(MisRandom, RanksNeverSuppressedByLowerRanks) {
  // Property (§4.2/§4.6): with rank sorting, a vertex can only be deleted
  // by a neighbor of equal or higher rank.
  const idx n = 120;
  const Graph g = random_graph(n, 350, GetParam());
  Rng rng(GetParam() + 1);
  std::vector<idx> ranks(n);
  for (idx& r : ranks) r = static_cast<idx>(rng.next_below(4));
  MisOptions opts;
  opts.ranks = ranks;
  const MisResult mis = greedy_mis(g, natural_order(n), opts);
  EXPECT_TRUE(is_maximal_independent_set(g, mis.selected));
  for (idx v = 0; v < n; ++v) {
    if (mis.state[v] != MisState::kDeleted) continue;
    bool has_dominating_neighbor = false;
    for (idx u : g.neighbors(v)) {
      if (mis.state[u] == MisState::kSelected && ranks[u] >= ranks[v]) {
        has_dominating_neighbor = true;
        break;
      }
    }
    EXPECT_TRUE(has_dominating_neighbor) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisRandom,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

TEST(Mis, PathGraphNaturalOrder) {
  // Greedy MIS on a path in natural order picks 0, 2, 4, ...
  const Graph g = path_graph(7);
  const MisResult mis = greedy_mis(g);
  EXPECT_EQ(mis.selected, (std::vector<idx>{0, 2, 4, 6}));
}

TEST(Mis, EmptyGraphSelectsEverything) {
  const Graph g = Graph::from_edges(5, {});
  const MisResult mis = greedy_mis(g);
  EXPECT_EQ(mis.selected.size(), 5u);
}

TEST(Order, NaturalIsIdentity) {
  EXPECT_EQ(natural_order(4), (std::vector<idx>{0, 1, 2, 3}));
}

TEST(Order, RandomIsPermutationAndSeedDependent) {
  const auto a = random_order(50, 1);
  const auto b = random_order(50, 1);
  const auto c = random_order(50, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::set<idx> seen(a.begin(), a.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Order, CuthillMckeeReducesBandwidth) {
  // 2D grid graph: CM ordering should have much smaller bandwidth than a
  // random ordering.
  const idx n = 12;
  std::vector<std::pair<idx, idx>> edges;
  auto id = [n](idx i, idx j) { return i * n + j; };
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      if (i + 1 < n) edges.emplace_back(id(i, j), id(i + 1, j));
      if (j + 1 < n) edges.emplace_back(id(i, j), id(i, j + 1));
    }
  }
  const Graph g = Graph::from_edges(n * n, edges);
  auto bandwidth = [&](const std::vector<idx>& order) {
    std::vector<idx> pos(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    idx bw = 0;
    for (idx v = 0; v < g.num_vertices(); ++v) {
      for (idx u : g.neighbors(v)) bw = std::max(bw, std::abs(pos[v] - pos[u]));
    }
    return bw;
  };
  const idx bw_cm = bandwidth(cuthill_mckee(g));
  const idx bw_random = bandwidth(random_order(n * n, 3));
  EXPECT_LT(bw_cm, bw_random / 2);
  // RCM is CM reversed; same bandwidth.
  EXPECT_EQ(bandwidth(reverse_cuthill_mckee(g)), bw_cm);
}

TEST(Order, CuthillMckeeCoversDisconnectedGraphs) {
  const Graph g = Graph::from_edges(
      6, std::vector<std::pair<idx, idx>>{{0, 1}, {3, 4}});
  const auto order = cuthill_mckee(g);
  std::set<idx> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 6u);
}

}  // namespace
}  // namespace prom::graph
