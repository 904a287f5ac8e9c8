// Coarse-level rank agglomeration (dla::DistHierarchy +
// MgOptions::agglom_min_rows): the active-set policy, the operator
// redistribution primitive, and — the load-bearing contract — that
// agglomeration changes *where* coarse levels live without changing what
// the solver computes: iterate histories match the non-agglomerated run
// to allreduce rounding (1e-12 of the initial residual) with identical
// PCG iteration counts, in every matrix format and the column-blocked
// multi-RHS path; and at the traffic level, that the
// coarse grids actually stop talking (message counts shrink, idle ranks
// hold no rows and no exchange-plan roles).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "app/service.h"
#include "dla/dist_mg.h"
#include "dla/dist_setup.h"
#include "fem/assembly.h"
#include "la/multivec.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "parx/runtime.h"

namespace prom {
namespace {

// ---------------------------------------------------------------------
// Active-set policy (pure function, no ranks involved).
// ---------------------------------------------------------------------

TEST(AgglomPolicy, ZeroMinRowsKeepsEveryRankOnEveryLevel) {
  const std::vector<idx> rows = {1000, 10, 1};
  const auto active = dla::agglom_active_ranks(rows, 8, 0);
  EXPECT_EQ(active, (std::vector<int>{8, 8, 8}));
}

TEST(AgglomPolicy, HalvesUntilRowsPerRankSuffice) {
  const std::vector<idx> rows = {1000, 300, 80, 20};
  // min=200: level 1 halves 8 -> 4 -> 2 -> 1 (300 < 200*2); coarser
  // levels inherit the collapse.
  EXPECT_EQ(dla::agglom_active_ranks(rows, 8, 200),
            (std::vector<int>{8, 1, 1, 1}));
  // min=50: level 1 stops at 4 (300 >= 50*4), level 2 collapses.
  EXPECT_EQ(dla::agglom_active_ranks(rows, 8, 50),
            (std::vector<int>{8, 4, 1, 1}));
}

TEST(AgglomPolicy, MonotoneNonIncreasingAndFineLevelAlwaysFull) {
  // The fine level keeps all ranks even when its row count is tiny, and
  // the sequence never grows back down the hierarchy — even when a
  // coarser level is (pathologically) larger than its parent.
  const std::vector<idx> rows = {4, 4000, 50, 50};
  const auto active = dla::agglom_active_ranks(rows, 8, 100);
  EXPECT_EQ(active[0], 8);
  for (std::size_t l = 1; l < active.size(); ++l) {
    EXPECT_LE(active[l], active[l - 1]) << "level " << l;
    EXPECT_GE(active[l], 1);
  }
}

TEST(AgglomPolicy, HugeMinRowsCollapsesEveryCoarseLevelToRankZero) {
  const std::vector<idx> rows = {100000, 30000, 8000};
  const auto active = dla::agglom_active_ranks(rows, 16, 1000000);
  EXPECT_EQ(active, (std::vector<int>{16, 1, 1}));
}

// ---------------------------------------------------------------------
// Distributed fixtures (same harness as test_serial_dist_equiv).
// ---------------------------------------------------------------------

struct Problem {
  app::ModelProblem model;
  mg::Hierarchy hierarchy;
  std::vector<real> rhs;
};

/// Small box, multi-level hierarchy, Jacobi smoothing (the strict-
/// equivalence smoother: block-Jacobi blocks and Chebyshev bounds are
/// partition-dependent, pointwise Jacobi is not). `min_rows` feeds the
/// agglomeration policy of every DistHierarchy built from the result.
Problem build_problem(idx min_rows) {
  Problem out;
  out.model = app::make_box_problem(6);
  fem::FeProblem fe(out.model.mesh, out.model.materials, out.model.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mo;
  mo.smoother = mg::SmootherKind::kJacobi;
  mo.coarsest_max_dofs = 60;
  mo.agglom_min_rows = min_rows;
  out.rhs = std::move(sys.rhs);
  out.hierarchy = mg::Hierarchy::build(out.model.mesh, out.model.dofmap,
                                       std::move(sys.stiffness), mo);
  return out;
}

std::vector<idx> block_owner(idx nv, int p) {
  std::vector<idx> owner(static_cast<std::size_t>(nv));
  for (idx v = 0; v < nv; ++v) {
    owner[static_cast<std::size_t>(v)] =
        static_cast<idx>((static_cast<std::int64_t>(v) * p) / nv);
  }
  return owner;
}

la::KrylovResult run_pcg(const Problem& prob, int p,
                         mg::MatrixFormat format = mg::MatrixFormat::kCsr) {
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  so.format = format;
  const dla::MfProblem mfp{&prob.model.mesh, &prob.model.materials,
                           &prob.model.dofmap, true};
  const std::vector<idx> owner =
      block_owner(prob.model.mesh.num_vertices(), p);
  la::KrylovResult out;
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist = dla::DistHierarchy::build(
        comm, prob.hierarchy, owner, format,
        format == mg::MatrixFormat::kMf ? &mfp : nullptr);
    const auto& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    const idx nloc = rows.local_size(comm.rank());
    std::vector<real> b_local(static_cast<std::size_t>(nloc));
    for (idx i = 0; i < nloc; ++i) b_local[i] = prob.rhs[perm[b0 + i]];
    std::vector<real> x_local(static_cast<std::size_t>(nloc), 0);
    const la::KrylovResult r =
        dist_mg_krylov_solve(comm, dist, b_local, x_local, so);
    if (comm.rank() == 0) out = r;
  });
  return out;
}

void expect_same_history(const la::KrylovResult& ref,
                         const la::KrylovResult& got, const char* what) {
  EXPECT_TRUE(got.converged) << what;
  EXPECT_EQ(got.iterations, ref.iterations) << what;
  ASSERT_EQ(got.history.size(), ref.history.size()) << what;
  ASSERT_FALSE(ref.history.empty()) << what;
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    EXPECT_NEAR(got.history[i], ref.history[i], 1e-12 * ref.history[0])
        << what << " history entry " << i;
  }
}

class AgglomRanks : public ::testing::TestWithParam<int> {};

// The tentpole acceptance: agglomeration is invisible in the iterate
// history. Sweep the policy from "barely on" through "collapse every
// coarse level onto rank 0" against the untouched run.
TEST_P(AgglomRanks, HistoryMatchesUnagglomeratedAtEveryPolicy) {
  const int p = GetParam();
  const la::KrylovResult ref = run_pcg(build_problem(0), p);
  ASSERT_TRUE(ref.converged);
  for (const idx min_rows : {idx{1}, idx{200}, idx{5000}}) {
    const la::KrylovResult got = run_pcg(build_problem(min_rows), p);
    expect_same_history(ref, got,
                        ("min_rows=" + std::to_string(min_rows)).c_str());
  }
}

// Same invariance across the matrix formats at one aggressive policy
// (collapse everything coarse onto rank 0).
TEST_P(AgglomRanks, FormatsAndHaloModesMatchUnagglomerated) {
  const int p = GetParam();
  const Problem agglom = build_problem(5000);
  const Problem natural = build_problem(0);
  for (const mg::MatrixFormat format :
       {mg::MatrixFormat::kCsr, mg::MatrixFormat::kBsr3,
        mg::MatrixFormat::kMf}) {
    const la::KrylovResult ref = run_pcg(natural, p, format);
    ASSERT_TRUE(ref.converged);
    const la::KrylovResult got = run_pcg(agglom, p, format);
    const std::string what =
        "format=" + std::to_string(static_cast<int>(format));
    expect_same_history(ref, got, what.c_str());
  }
}

// The column-blocked path under agglomeration: column j of a k=4 blocked
// solve stays bitwise identical to the k=1 solve of that column.
TEST_P(AgglomRanks, BlockedMultiRhsColumnsBitwiseMatchScalar) {
  const int p = GetParam();
  constexpr int kRhs = 4;
  const Problem prob = build_problem(200);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  const std::vector<idx> owner =
      block_owner(prob.model.mesh.num_vertices(), p);
  std::vector<la::KrylovResult> blocked(kRhs);
  std::vector<la::KrylovResult> scalar(kRhs);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist =
        dla::DistHierarchy::build(comm, prob.hierarchy, owner);
    const auto& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    const idx nloc = rows.local_size(comm.rank());
    la::MultiVec b(nloc, kRhs);
    for (int j = 0; j < kRhs; ++j) {
      for (idx i = 0; i < nloc; ++i) {
        b.col(j)[static_cast<std::size_t>(i)] =
            prob.rhs[perm[b0 + i]] * (1.0 + 0.25 * j);
      }
    }
    la::MultiVec x(nloc, kRhs);
    const auto res = dist_mg_pcg_solve_mv(comm, dist, b, x, so);
    std::vector<la::KrylovResult> res1(kRhs);
    for (int j = 0; j < kRhs; ++j) {
      la::MultiVec bj(nloc, 1);
      std::copy(b.col(j).begin(), b.col(j).end(), bj.col_data(0));
      la::MultiVec xj(nloc, 1);
      res1[j] = dist_mg_pcg_solve_mv(comm, dist, bj, xj, so)[0];
      for (idx i = 0; i < nloc; ++i) {
        EXPECT_EQ(xj.col(0)[static_cast<std::size_t>(i)],
                  x.col(j)[static_cast<std::size_t>(i)])
            << "rank " << comm.rank() << " col " << j << " row " << i;
      }
    }
    if (comm.rank() == 0) {
      for (int j = 0; j < kRhs; ++j) {
        blocked[j] = res[j];
        scalar[j] = res1[j];
      }
    }
  });
  for (int j = 0; j < kRhs; ++j) {
    EXPECT_TRUE(blocked[j].converged) << "col " << j;
    EXPECT_EQ(blocked[j].iterations, scalar[j].iterations) << "col " << j;
    ASSERT_EQ(blocked[j].history.size(), scalar[j].history.size());
    for (std::size_t i = 0; i < blocked[j].history.size(); ++i) {
      EXPECT_EQ(blocked[j].history[i], scalar[j].history[i])
          << "col " << j << " entry " << i;
    }
  }
}

// "pN" names let the CI rank matrix select one rank count per job with
// --gtest_filter='*/pN'.
INSTANTIATE_TEST_SUITE_P(Ranks, AgglomRanks, ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "p" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Redistribution primitive and structural properties.
// ---------------------------------------------------------------------

// dist_redistribute ships rows in storage order with global column ids:
// shipping a level operator to rank 0 and back must reproduce the local
// blocks bit for bit (rowptr, global column per entry, value bits).
TEST(AgglomRedistribute, RoundTripIsBitIdentical) {
  const int p = 4;
  const Problem prob = build_problem(0);
  ASSERT_GE(prob.hierarchy.num_levels(), 2);
  const std::vector<idx> owner =
      block_owner(prob.model.mesh.num_vertices(), p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist =
        dla::DistHierarchy::build(comm, prob.hierarchy, owner);
    const dla::DistCsr& a = dist.level(1).a;
    const idx n = a.row_dist().global_size();
    std::vector<idx> all_on_zero(static_cast<std::size_t>(p) + 1, n);
    all_on_zero[0] = 0;
    const dla::RowDist packed{std::move(all_on_zero)};
    const dla::DistCsr shipped =
        dist_redistribute(comm, a, packed, packed);
    EXPECT_EQ(shipped.local_rows(), comm.rank() == 0 ? n : 0);
    if (comm.rank() != 0) {
      EXPECT_EQ(shipped.halo_plan().num_send_peers(), 0);
      EXPECT_EQ(shipped.halo_plan().num_recv_peers(), 0);
    }
    const dla::DistCsr round = dist_redistribute(
        comm, shipped, a.row_dist(), a.col_dist());
    const la::Csr& ref = a.local_matrix();
    const la::Csr& got = round.local_matrix();
    ASSERT_EQ(got.nrows, ref.nrows);
    ASSERT_EQ(got.rowptr, ref.rowptr);
    for (nnz_t k = 0; k < static_cast<nnz_t>(ref.vals.size()); ++k) {
      ASSERT_EQ(round.global_col(got.colidx[static_cast<std::size_t>(k)]),
                a.global_col(ref.colidx[static_cast<std::size_t>(k)]));
      ASSERT_EQ(got.vals[static_cast<std::size_t>(k)],
                ref.vals[static_cast<std::size_t>(k)]);
    }
  });
}

// Structure of an agglomerated hierarchy: idle ranks own nothing and
// appear in no exchange plan; every plan peer of a level lives in that
// level's active set (restriction plans may also touch the finer level's
// active set, which contains it).
TEST(AgglomStructure, IdleRanksOwnNoRowsAndNoPlanRoles) {
  const int p = 8;
  const Problem prob = build_problem(5000);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist = dla::DistHierarchy::build(
        comm, prob.hierarchy,
        block_owner(prob.model.mesh.num_vertices(), p));
    EXPECT_EQ(dist.active_ranks(0), p);
    bool any_agglomerated = false;
    for (int l = 1; l < dist.num_levels(); ++l) {
      const int active = dist.active_ranks(l);
      EXPECT_LE(active, dist.active_ranks(l - 1)) << "level " << l;
      if (active == p) continue;
      any_agglomerated = true;
      const dla::DistMgLevel& lv = dist.level(l);
      if (comm.rank() >= active) {
        EXPECT_EQ(lv.local_n(), 0) << "level " << l;
        EXPECT_EQ(lv.a.halo_plan().num_send_peers(), 0) << "level " << l;
        EXPECT_EQ(lv.a.halo_plan().num_recv_peers(), 0) << "level " << l;
      }
      for (const int peer : lv.a.halo_plan().send_peers()) {
        EXPECT_LT(peer, active) << "level " << l;
      }
      for (const int peer : lv.a.halo_plan().recv_peers()) {
        EXPECT_LT(peer, active) << "level " << l;
      }
      // The restriction couples this level's rows (active set) to the
      // finer level's columns (its active set).
      for (const int peer : lv.r.halo_plan().recv_peers()) {
        EXPECT_LT(peer, dist.active_ranks(l - 1)) << "level " << l;
      }
    }
    EXPECT_TRUE(any_agglomerated);
  });
}

// The point of the exercise: at p=8 with everything coarse on rank 0,
// running cycles below the fine level must move far fewer messages than
// the natural partition (acceptance asks for at least a 2x reduction).
TEST(AgglomTraffic, CoarseCycleMessagesDropAtLeastTwofold) {
  const int p = 8;
  std::array<std::int64_t, 2> messages{};  // [0]=natural, [1]=agglomerated
  int which = 0;
  for (const idx min_rows : {idx{0}, idx{5000}}) {
    const Problem prob = build_problem(min_rows);
    ASSERT_GE(prob.hierarchy.num_levels(), 2);
    std::int64_t total = 0;
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const dla::DistHierarchy dist = dla::DistHierarchy::build(
          comm, prob.hierarchy,
          block_owner(prob.model.mesh.num_vertices(), p));
      const idx nloc = dist.level(1).local_n();
      la::MultiVec b(nloc, 1);
      std::fill(b.col(0).begin(), b.col(0).end(), 1.0);
      la::MultiVec x(nloc, 1);
      const std::int64_t before = comm.traffic().messages_sent;
      for (int it = 0; it < 3; ++it) dist_vcycle(comm, dist, 1, b, x);
      const std::int64_t mine = comm.traffic().messages_sent - before;
      // Disjoint write per rank, summed after the SPMD region via a
      // plain reduction over the stats would also work; accumulate the
      // per-rank counts through an allreduce for simplicity.
      const std::int64_t all = comm.allreduce_sum(mine);
      if (comm.rank() == 0) total = all;
    });
    messages[static_cast<std::size_t>(which++)] = total;
  }
  // The allreduce above added the same message count to both runs, so
  // the comparison is conservative.
  EXPECT_GT(messages[0], 0);
  EXPECT_LE(2 * messages[1], messages[0])
      << "natural=" << messages[0] << " agglomerated=" << messages[1];
}

// ---------------------------------------------------------------------
// Service integration: the policy is part of the cache fingerprint.
// ---------------------------------------------------------------------

TEST(AgglomService, FingerprintDistinguishesAgglomerationPolicies) {
  app::ServiceConfig a;
  a.mg.agglom_min_rows = 0;
  app::ServiceConfig b = a;
  b.mg.agglom_min_rows = 1000;
  app::ServiceConfig c = a;
  c.mg.agglom_min_rows = 0;
  const app::SolveService sa(a);
  const app::SolveService sb(b);
  const app::SolveService sc(c);
  EXPECT_NE(sa.fingerprint("mesh"), sb.fingerprint("mesh"));
  EXPECT_EQ(sa.fingerprint("mesh"), sc.fingerprint("mesh"));
}

TEST(AgglomService, CachedSolvesRunAgglomerated) {
  app::ServiceConfig cfg;
  cfg.nranks = 4;
  cfg.mg.coarsest_max_dofs = 60;
  cfg.mg.agglom_min_rows = 1000;
  app::SolveService service(cfg);
  service.register_problem("box", app::make_box_problem(6));
  app::SolveRequest req;
  req.mesh_id = "box";
  req.rtol = 1e-6;
  const app::SolveResponse cold = service.solve(req);
  ASSERT_EQ(cold.results.size(), 1u);
  EXPECT_TRUE(cold.results[0].converged);
  EXPECT_FALSE(cold.cache_hit);
  const app::SolveResponse warm = service.solve(req);
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_EQ(warm.results.size(), 1u);
  EXPECT_EQ(warm.results[0].iterations, cold.results[0].iterations);
}

}  // namespace
}  // namespace prom
