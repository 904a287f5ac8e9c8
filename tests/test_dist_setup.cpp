// Distributed matrix setup (dla/dist_setup.h + DistHierarchy::build): the
// Galerkin triple products run on row-distributed matrices, so the work
// any one rank performs must *shrink* as ranks are added to a fixed mesh —
// the scalability claim the replicated setup could not make — and no rank
// may hold a global-size operator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "dla/dist_mg.h"
#include "dla/dist_setup.h"
#include "fem/assembly.h"
#include "la/csr.h"
#include "mg/hierarchy.h"
#include "partition/rcb.h"
#include "parx/runtime.h"

namespace prom::dla {
namespace {

struct Fixture {
  mg::Hierarchy hierarchy;
  std::vector<Vec3> coords;
};

Fixture build_fixture(idx n) {
  const app::ModelProblem p = app::make_box_problem(n);
  fem::FeProblem fe(p.mesh, p.materials, p.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mo;
  mo.coarsest_max_dofs = 60;
  Fixture out;
  out.coords.assign(p.mesh.coords().begin(), p.mesh.coords().end());
  out.hierarchy = mg::Hierarchy::build_grids(p.mesh, p.dofmap,
                                             std::move(sys.stiffness), mo);
  return out;
}

/// Max-over-ranks Galerkin flops for one distributed setup; also checks
/// that with p > 1 every level's rows are genuinely split across ranks.
std::int64_t max_rank_galerkin_flops(const Fixture& fx, int p) {
  const std::vector<idx> owner = partition::rcb_partition(fx.coords, p);
  std::vector<std::int64_t> flops(static_cast<std::size_t>(p), 0);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistHierarchy dist = DistHierarchy::build(comm, fx.hierarchy, owner);
    flops[comm.rank()] = dist.galerkin_flops();
    for (int l = 0; l < dist.num_levels(); ++l) {
      const DistCsr& a = dist.level(l).a;
      EXPECT_EQ(a.local_rows(), a.row_dist().local_size(comm.rank()));
      if (p > 1) {
        // No rank constructs a global-size operator at any level.
        EXPECT_LT(a.local_rows(), a.row_dist().global_size()) << "level " << l;
      }
    }
  });
  return *std::max_element(flops.begin(), flops.end());
}

TEST(DistSetup, PerRankGalerkinFlopsShrinkWithRanks) {
  const Fixture fx = build_fixture(8);
  ASSERT_GE(fx.hierarchy.num_levels(), 2);
  const std::int64_t f1 = max_rank_galerkin_flops(fx, 1);
  const std::int64_t f2 = max_rank_galerkin_flops(fx, 2);
  const std::int64_t f4 = max_rank_galerkin_flops(fx, 4);
  ASSERT_GT(f1, 0);
  // Strict monotone decrease, and real (not merely epsilon) savings: the
  // busiest of 4 ranks does well under the whole single-rank product.
  EXPECT_LT(f2, f1);
  EXPECT_LT(f4, f2);
  EXPECT_LT(f4, (3 * f1) / 4);
}

TEST(DistSetup, OneRankMatchesSerialTripleProduct) {
  // On one rank the distributed triple product is the serial one: same
  // operator entries level by level as the serially built hierarchy.
  const app::ModelProblem p = app::make_box_problem(5);
  fem::FeProblem fe(p.mesh, p.materials, p.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mo;
  mo.coarsest_max_dofs = 60;
  la::Csr stiffness = sys.stiffness;
  const mg::Hierarchy full =
      mg::Hierarchy::build(p.mesh, p.dofmap, std::move(stiffness), mo);
  const mg::Hierarchy grids = mg::Hierarchy::build_grids(
      p.mesh, p.dofmap, std::move(sys.stiffness), mo);
  const std::vector<idx> owner(
      static_cast<std::size_t>(p.mesh.num_vertices()), 0);
  parx::Runtime::run(1, [&](parx::Comm& comm) {
    const DistHierarchy dist = DistHierarchy::build(comm, grids, owner);
    ASSERT_EQ(dist.num_levels(), full.num_levels());
    for (int l = 1; l < dist.num_levels(); ++l) {
      const la::Csr& ref = full.level(l).a;
      const la::Csr& got = dist.level(l).a.local_matrix();
      ASSERT_EQ(got.nrows, ref.nrows);
      ASSERT_EQ(got.rowptr, ref.rowptr);  // single rank, identity layout
      ASSERT_EQ(got.colidx, ref.colidx);
      for (std::size_t k = 0; k < got.vals.size(); ++k) {
        EXPECT_EQ(got.vals[k], ref.vals[k]) << "level " << l << " nnz " << k;
      }
    }
  });
}

/// `g` (a gathered level operator in the level's global numbering) in
/// serial numbering: global id k is serial id perm[k], rows re-sorted.
la::Csr unpermute(const la::Csr& g, const std::vector<idx>& perm) {
  std::vector<idx> global_of(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) global_of[perm[k]] = k;
  la::Csr s;
  s.nrows = g.nrows;
  s.ncols = g.ncols;
  s.rowptr.assign(static_cast<std::size_t>(g.nrows) + 1, 0);
  std::vector<std::pair<idx, real>> row;
  for (idx i = 0; i < g.nrows; ++i) {
    const idx gi = global_of[i];
    row.clear();
    for (nnz_t k = g.rowptr[gi]; k < g.rowptr[gi + 1]; ++k) {
      row.emplace_back(perm[g.colidx[k]], g.vals[k]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [c, v] : row) {
      s.colidx.push_back(c);
      s.vals.push_back(v);
    }
    s.rowptr[i + 1] = static_cast<nnz_t>(s.colidx.size());
  }
  return s;
}

class DistSetupRanks : public ::testing::TestWithParam<int> {};

// At p > 1 dist_spgemm also multiplies ghost rows fetched from other
// ranks. Visiting every row's terms in serial-key order still gives each
// output entry the same terms in the same order as the serial chain, so
// every level's operator is bitwise the serial one under permutation(l).
TEST_P(DistSetupRanks, GalerkinMatchesSerialBitwise) {
  const int p = GetParam();
  const app::ModelProblem prob = app::make_box_problem(6);
  fem::FeProblem fe(prob.mesh, prob.materials, prob.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mo;
  mo.coarsest_max_dofs = 30;
  la::Csr stiffness = sys.stiffness;
  const mg::Hierarchy full =
      mg::Hierarchy::build(prob.mesh, prob.dofmap, std::move(stiffness), mo);
  const mg::Hierarchy grids = mg::Hierarchy::build_grids(
      prob.mesh, prob.dofmap, std::move(sys.stiffness), mo);
  ASSERT_GE(full.num_levels(), 3);
  const std::vector<Vec3> coords(prob.mesh.coords().begin(),
                                 prob.mesh.coords().end());
  const std::vector<idx> owner = partition::rcb_partition(coords, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistHierarchy dist = DistHierarchy::build(comm, grids, owner);
    ASSERT_EQ(dist.num_levels(), full.num_levels());
    for (int l = 1; l < dist.num_levels(); ++l) {
      // Every level is split across ranks, so the ghost-row path runs.
      EXPECT_LT(dist.level(l).a.local_rows(),
                dist.level(l).a.row_dist().global_size());
      const la::Csr got = unpermute(dist_gather_matrix(comm, dist.level(l).a),
                                    dist.permutation(l));
      const la::Csr& ref = full.level(l).a;
      ASSERT_EQ(got.nrows, ref.nrows) << "level " << l;
      ASSERT_EQ(got.rowptr, ref.rowptr) << "level " << l;
      ASSERT_EQ(got.colidx, ref.colidx) << "level " << l;
      EXPECT_EQ(std::memcmp(got.vals.data(), ref.vals.data(),
                            got.vals.size() * sizeof(real)),
                0)
          << "level " << l;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistSetupRanks, ::testing::Values(2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace prom::dla
