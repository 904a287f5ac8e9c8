// Distributed solves on adaptively refined hierarchies: the refined
// level stack (geometric prolongation + masked local smoothing) runs the
// same templated cycle bodies on virtual ranks as serially, so the
// iterate histories must match the serial solve to working precision at
// every rank count — the same contract test_serial_dist_equiv enforces
// for the MIS-only chain. Plus the refine -> rebalance primitives:
// dla::repartition_mesh must reproduce DistCsr::from_global_permuted of
// the serial operator bit-for-bit, the fresh RCB cut of the refined mesh
// must stay under the 1.2 imbalance bar, and the whole refine+solve
// pipeline must be bitwise reproducible across kernel thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "app/refine.h"
#include "common/parallel.h"
#include "dla/dist_mg.h"
#include "dla/dist_setup.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "parx/runtime.h"
#include "partition/rcb.h"

namespace prom {
namespace {

struct RefinedProblem {
  app::AdaptiveLoop loop;
  mg::Hierarchy hierarchy;
  la::Csr a_serial;  ///< the fine free-dof operator (kept for repartition)
  std::vector<real> rhs;
  idx num_vertices = 0;
};

/// Two bisection rounds on the elastic cube, then the refined hierarchy
/// with point Jacobi (backend-identical smoothing) and a forced
/// multi-level MIS tail.
RefinedProblem build_refined_problem() {
  const app::ModelProblem p = app::make_box_problem(5);
  app::AdaptiveOptions ao;
  ao.rounds = 2;
  ao.mark_fraction = 0.15;
  RefinedProblem out;
  out.loop = app::run_adaptive_refinement(p, ao);
  mg::MgOptions mo;
  mo.smoother = mg::SmootherKind::kJacobi;
  mo.coarsest_max_dofs = 60;
  out.a_serial = out.loop.sys.stiffness;
  out.rhs = out.loop.sys.rhs;
  out.num_vertices = out.loop.final_mesh().num_vertices();
  la::Csr a = out.a_serial;
  out.hierarchy =
      mg::Hierarchy::build_refined(out.loop.mesh_ptrs(), out.loop.dofmap_ptrs(),
                                   out.loop.rounds, std::move(a), mo);
  return out;
}

/// Scalar (block-size-1) counterpart on the jump-coefficient Poisson
/// problem — the refined chain at one dof per vertex.
RefinedProblem build_refined_scalar_problem() {
  const app::ModelProblem p = app::make_poisson_het_problem(6, 1e3);
  app::AdaptiveOptions ao;
  ao.rounds = 2;
  ao.mark_fraction = 0.15;
  RefinedProblem out;
  out.loop = app::run_adaptive_refinement(p, ao);
  mg::MgOptions mo = app::default_mg_options(p.equation);
  mo.smoother = mg::SmootherKind::kJacobi;
  mo.coarsest_max_dofs = 30;
  out.a_serial = out.loop.sys.stiffness;
  out.rhs = out.loop.sys.rhs;
  out.num_vertices = out.loop.final_mesh().num_vertices();
  la::Csr a = out.a_serial;
  out.hierarchy = mg::Hierarchy::build_refined_scalar(
      out.loop.mesh_ptrs(), out.loop.scalar_dofmap_ptrs(), out.loop.rounds,
      std::move(a), mo);
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

struct DistOutcome {
  std::vector<real> x;  ///< solution mapped back to the serial ordering
  std::vector<la::KrylovResult> results;  ///< per rank
};

DistOutcome run_distributed(const RefinedProblem& prob, int p,
                            const mg::MgSolveOptions& so) {
  DistOutcome out;
  out.x.assign(prob.rhs.size(), 0);
  out.results.resize(static_cast<std::size_t>(p));
  const std::vector<idx> owner = block_owner(prob.num_vertices, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist =
        dla::DistHierarchy::build(comm, prob.hierarchy, owner);
    const auto& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    const idx nloc = rows.local_size(comm.rank());
    std::vector<real> b_local(static_cast<std::size_t>(nloc));
    for (idx i = 0; i < nloc; ++i) b_local[i] = prob.rhs[perm[b0 + i]];
    std::vector<real> x_local(static_cast<std::size_t>(nloc), 0);
    out.results[comm.rank()] =
        dist_mg_krylov_solve(comm, dist, b_local, x_local, so);
    for (idx i = 0; i < nloc; ++i) out.x[perm[b0 + i]] = x_local[i];
  });
  return out;
}

void expect_vectors_close(const std::vector<real>& ref,
                          const std::vector<real>& got, real rel_tol) {
  ASSERT_EQ(ref.size(), got.size());
  real scale = 0;
  for (real v : ref) scale = std::max(scale, std::fabs(v));
  ASSERT_GT(scale, 0);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], rel_tol * scale) << "entry " << i;
  }
}

/// The distributed result reproduces the serial history to 1e-12 of the
/// initial residual with the identical iteration count, and every rank
/// holds the bit-identical KrylovResult.
void expect_histories_match(const la::KrylovResult& ref,
                            const DistOutcome& got, int p) {
  const la::KrylovResult& d = got.results[0];
  EXPECT_TRUE(d.converged);
  EXPECT_EQ(d.iterations, ref.iterations);
  ASSERT_EQ(d.history.size(), ref.history.size());
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    EXPECT_NEAR(d.history[i], ref.history[i], 1e-12 * ref.history[0])
        << "history entry " << i;
  }
  EXPECT_NEAR(d.final_relres, ref.final_relres, 1e-12);
  for (int r = 1; r < p; ++r) {
    const la::KrylovResult& other = got.results[r];
    EXPECT_EQ(other.iterations, d.iterations);
    EXPECT_EQ(other.converged, d.converged);
    EXPECT_EQ(other.final_relres, d.final_relres);
    ASSERT_EQ(other.history.size(), d.history.size());
    for (std::size_t i = 0; i < d.history.size(); ++i) {
      EXPECT_EQ(other.history[i], d.history[i]) << "rank " << r;
    }
  }
}

class EquivRanks : public ::testing::TestWithParam<int> {};

TEST_P(EquivRanks, RefinedPcgHistoryMatchesSerial) {
  const RefinedProblem prob = build_refined_problem();
  ASSERT_GE(prob.hierarchy.num_levels(), 4);  // 2 refinement + MIS chain
  ASSERT_FALSE(prob.hierarchy.level(1).smooth_rows.empty());
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_pcg_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  ASSERT_FALSE(ref.history.empty());

  const DistOutcome got = run_distributed(prob, GetParam(), so);
  expect_histories_match(ref, got, GetParam());
  expect_vectors_close(x_ref, got.x, 1e-10);
}

TEST_P(EquivRanks, RefinedScalarPcgHistoryMatchesSerial) {
  const RefinedProblem prob = build_refined_scalar_problem();
  ASSERT_GE(prob.hierarchy.num_levels(), 4);
  ASSERT_EQ(prob.hierarchy.block_size(), 1);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_pcg_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  const DistOutcome got = run_distributed(prob, GetParam(), so);
  expect_histories_match(ref, got, GetParam());
  expect_vectors_close(x_ref, got.x, 1e-10);
}

// The refine -> rebalance migration: starting from the *inherited*
// partition (the base mesh's RCB cut propagated through the bisection
// rounds), dla::repartition_mesh moves the fine operator onto the fresh
// RCB cut of the refined coordinates. The result must be bit-identical
// to slicing the serial operator under the new assignment with
// DistCsr::from_global_permuted — no rank ever touching the serial
// matrix is the whole point of the primitive.
TEST_P(EquivRanks, RepartitionMeshMatchesFromGlobalPermuted) {
  const int p = GetParam();
  const RefinedProblem prob = build_refined_scalar_problem();
  const fem::ScalarDofMap& dm = prob.loop.final_scalar_dofmap();
  const idx n = prob.a_serial.nrows;

  // Initial ownership: the stale, inherited cut.
  const std::vector<idx> base_owner =
      partition::rcb_partition(prob.loop.base.coords(), p);
  const std::vector<idx> inherited =
      app::inherit_owners(prob.loop, base_owner);

  // Target ownership: a fresh RCB of the refined mesh, expanded to the
  // serial free dofs (scalar: free dof i lives at vertex free_dofs()[i]).
  const std::vector<idx> fresh =
      partition::rcb_partition(prob.loop.final_mesh().coords(), p);
  EXPECT_LE(app::partition_imbalance(fresh, p), 1.2);
  std::vector<idx> new_owner(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) new_owner[i] = fresh[dm.free_dofs()[i]];

  // The expected new numbering: stable-sort the serial rows by new owner.
  std::vector<idx> expect_perm(static_cast<std::size_t>(n));
  std::iota(expect_perm.begin(), expect_perm.end(), idx{0});
  std::stable_sort(expect_perm.begin(), expect_perm.end(), [&](idx a, idx b) {
    return new_owner[a] < new_owner[b];
  });
  std::vector<idx> sorted_owner(static_cast<std::size_t>(n));
  for (idx g = 0; g < n; ++g) sorted_owner[g] = new_owner[expect_perm[g]];

  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist =
        dla::DistHierarchy::build(comm, prob.hierarchy, inherited);
    const dla::RepartitionResult rr = dla::repartition_mesh(
        comm, dist.level(0).a, dist.permutation(0), new_owner);
    ASSERT_EQ(rr.perm, expect_perm) << "rank " << comm.rank();

    const dla::RowDist rows =
        dla::RowDist::from_sorted_owners(sorted_owner, p);
    const dla::DistCsr expect = dla::DistCsr::from_global_permuted(
        comm, prob.a_serial, rows, rows, expect_perm, expect_perm);

    const la::Csr& got_m = rr.a.local_matrix();
    const la::Csr& exp_m = expect.local_matrix();
    ASSERT_EQ(got_m.nrows, exp_m.nrows) << "rank " << comm.rank();
    ASSERT_EQ(got_m.rowptr, exp_m.rowptr) << "rank " << comm.rank();
    ASSERT_EQ(got_m.colidx, exp_m.colidx) << "rank " << comm.rank();
    ASSERT_EQ(got_m.vals.size(), exp_m.vals.size());
    EXPECT_EQ(std::memcmp(got_m.vals.data(), exp_m.vals.data(),
                          got_m.vals.size() * sizeof(real)),
              0)
        << "rank " << comm.rank() << ": values must be bit-identical";
    EXPECT_EQ(rr.a.ghost_cols(), expect.ghost_cols())
        << "rank " << comm.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, EquivRanks, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "p" + std::to_string(info.param);
                         });

// The full refine+solve pipeline — adaptive loop (estimate solves,
// indicators, bisection), hierarchy build, and the final MG-PCG — must
// produce bit-identical residual histories and solutions at 1, 2, and 8
// kernel threads: every parallel kernel in the chain is required to keep
// a thread-count-independent accumulation order.
TEST(RefineThreads, PipelineBitwiseAcrossKernelThreads) {
  struct Outcome {
    std::vector<real> x;
    std::vector<double> history;
    int iterations = 0;
  };
  const auto run = [] {
    const RefinedProblem prob = build_refined_problem();
    mg::MgSolveOptions so;
    so.rtol = 1e-8;
    so.track_history = true;
    Outcome out;
    out.x.assign(prob.rhs.size(), 0);
    const la::KrylovResult r =
        mg::mg_pcg_solve(prob.hierarchy, prob.rhs, out.x, so);
    EXPECT_TRUE(r.converged);
    out.history.assign(r.history.begin(), r.history.end());
    out.iterations = r.iterations;
    return out;
  };

  common::set_kernel_threads(1);
  const Outcome ref = run();
  for (const int t : {2, 8}) {
    common::set_kernel_threads(t);
    const Outcome got = run();
    EXPECT_EQ(got.iterations, ref.iterations) << t << " threads";
    ASSERT_EQ(got.x.size(), ref.x.size());
    EXPECT_EQ(std::memcmp(got.x.data(), ref.x.data(),
                          ref.x.size() * sizeof(real)),
              0)
        << t << " threads: solution must be bitwise reproducible";
    ASSERT_EQ(got.history.size(), ref.history.size());
    EXPECT_EQ(std::memcmp(got.history.data(), ref.history.data(),
                          ref.history.size() * sizeof(double)),
              0)
        << t << " threads: history must be bitwise reproducible";
  }
  common::set_kernel_threads(0);
}

}  // namespace
}  // namespace prom
