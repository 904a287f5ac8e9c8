// Serial/distributed equivalence: the parx backend runs the *same*
// templated solver bodies (la/krylov_any.h, mg/cycle_any.h) as the serial
// backend, so V-cycle, FMG, and MG-PCG on virtual ranks must reproduce the
// serial iterate history and final residual to working precision at every
// rank count, and every rank must report the identical KrylovResult.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "dla/dist_mg.h"
#include "fem/assembly.h"
#include "fem/scalar.h"
#include "la/vec.h"
#include "mg/cycle.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "parx/runtime.h"

namespace prom {
namespace {

struct Problem {
  mg::Hierarchy hierarchy;
  std::vector<real> rhs;
  idx num_vertices = 0;
};

Problem build_problem(mg::SmootherKind kind) {
  const app::ModelProblem p = app::make_box_problem(6);
  fem::FeProblem fe(p.mesh, p.materials, p.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mo;
  mo.smoother = kind;
  mo.coarsest_max_dofs = 60;  // force a multi-level hierarchy on a small box
  Problem out;
  out.rhs = std::move(sys.rhs);
  out.num_vertices = p.mesh.num_vertices();
  out.hierarchy =
      mg::Hierarchy::build(p.mesh, p.dofmap, std::move(sys.stiffness), mo);
  return out;
}

/// Scalar (block-size-1) problem of the given class on the same small box.
/// Point Jacobi both serially and distributed (processor-block Jacobi
/// degenerates to it), so the smoother is backend-identical like the
/// elasticity cases above.
Problem build_scalar_problem(app::EquationClass eq) {
  const app::ModelProblem p = eq == app::EquationClass::kPoissonHet
                                  ? app::make_poisson_het_problem(7, 1e3)
                                  : app::make_advdiff_problem(7, 20.0);
  fem::ScalarSystem sys =
      fem::assemble_scalar_system(p.mesh, p.scalar_dofmap, p.coeffs);
  mg::MgOptions mo = app::default_mg_options(eq);
  mo.smoother = mg::SmootherKind::kJacobi;
  mo.coarsest_max_dofs = 30;
  Problem out;
  out.rhs = std::move(sys.rhs);
  out.num_vertices = p.mesh.num_vertices();
  out.hierarchy = mg::Hierarchy::build_scalar(p.mesh, p.scalar_dofmap,
                                              std::move(sys.stiffness), mo);
  return out;
}

/// Contiguous-block vertex ownership (monotone in vertex id), the layout
/// whose induced per-level dof permutations stay closest to the serial
/// ordering.
std::vector<idx> block_owner(idx nv, int p) {
  std::vector<idx> owner(static_cast<std::size_t>(nv));
  for (idx v = 0; v < nv; ++v) {
    owner[static_cast<std::size_t>(v)] =
        static_cast<idx>((static_cast<std::int64_t>(v) * p) / nv);
  }
  return owner;
}

enum class Run { kVcycle, kFmg, kPcg, kKrylov };

struct DistOutcome {
  std::vector<real> x;  ///< solution mapped back to the serial ordering
  std::vector<la::KrylovResult> results;  ///< per rank (PCG only)
};

DistOutcome run_distributed(const Problem& prob, int p, Run what,
                            const mg::MgSolveOptions& so = {},
                            mg::MatrixFormat format = mg::MatrixFormat::kCsr) {
  DistOutcome out;
  out.x.assign(prob.rhs.size(), 0);
  out.results.resize(static_cast<std::size_t>(p));
  const std::vector<idx> owner = block_owner(prob.num_vertices, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist =
        dla::DistHierarchy::build(comm, prob.hierarchy, owner, format);
    const auto& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    const idx nloc = rows.local_size(comm.rank());
    // One right-hand side is a one-column block.
    la::MultiVec b_local(nloc, 1);
    for (idx i = 0; i < nloc; ++i) b_local.col(0)[i] = prob.rhs[perm[b0 + i]];
    la::MultiVec x_local(nloc, 1);
    switch (what) {
      case Run::kVcycle:
        dist_vcycle(comm, dist, 0, b_local, x_local);
        break;
      case Run::kFmg:
        x_local = dist_fmg_cycle(comm, dist, b_local);
        break;
      case Run::kPcg:
        out.results[comm.rank()] =
            dist_mg_pcg_solve_mv(comm, dist, b_local, x_local, so)[0];
        break;
      case Run::kKrylov:
        out.results[comm.rank()] = dist_mg_krylov_solve(
            comm, dist, b_local.col(0), x_local.col(0), so);
        break;
    }
    // Ranks own disjoint ranges: the scatter back is race-free.
    for (idx i = 0; i < nloc; ++i) out.x[perm[b0 + i]] = x_local.col(0)[i];
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

class EquivRanks : public ::testing::TestWithParam<int> {};

TEST_P(EquivRanks, VcycleMatchesSerial) {
  const Problem prob = build_problem(mg::SmootherKind::kJacobi);
  ASSERT_GE(prob.hierarchy.num_levels(), 2);
  std::vector<real> x_ref(prob.rhs.size(), 0);
  mg::vcycle(prob.hierarchy, 0, prob.rhs, x_ref);
  const DistOutcome got = run_distributed(prob, GetParam(), Run::kVcycle);
  expect_vectors_close(x_ref, got.x, 1e-12);
}

TEST_P(EquivRanks, FmgMatchesSerial) {
  const Problem prob = build_problem(mg::SmootherKind::kJacobi);
  const std::vector<real> x_ref = mg::fmg_cycle(prob.hierarchy, prob.rhs);
  const DistOutcome got = run_distributed(prob, GetParam(), Run::kFmg);
  expect_vectors_close(x_ref, got.x, 1e-12);
}

TEST_P(EquivRanks, PcgHistoryMatchesSerial) {
  const Problem prob = build_problem(mg::SmootherKind::kJacobi);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_pcg_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  ASSERT_FALSE(ref.history.empty());

  const DistOutcome got = run_distributed(prob, GetParam(), Run::kPcg, so);
  const la::KrylovResult& d = got.results[0];
  EXPECT_TRUE(d.converged);
  EXPECT_EQ(d.iterations, ref.iterations);
  // Same templated PCG body, same convergence helper: the iterate history
  // agrees to the allreduce-vs-serial rounding of the dot products.
  ASSERT_EQ(d.history.size(), ref.history.size());
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    EXPECT_NEAR(d.history[i], ref.history[i], 1e-12 * ref.history[0])
        << "history entry " << i;
  }
  EXPECT_NEAR(d.final_relres, ref.final_relres, 1e-12);
  expect_vectors_close(x_ref, got.x, 1e-10);

  // The reductions are collective and deterministic, so every rank holds
  // the bit-identical KrylovResult.
  for (int r = 1; r < GetParam(); ++r) {
    const la::KrylovResult& other = got.results[r];
    EXPECT_EQ(other.iterations, d.iterations);
    EXPECT_EQ(other.converged, d.converged);
    EXPECT_EQ(other.breakdown, d.breakdown);
    EXPECT_EQ(other.final_relres, d.final_relres);
    ASSERT_EQ(other.history.size(), d.history.size());
    for (std::size_t i = 0; i < d.history.size(); ++i) {
      EXPECT_EQ(other.history[i], d.history[i]) << "rank " << r;
    }
  }
}

/// Shared check: the distributed result reproduces the serial history to
/// 1e-12 of ||b|| with the identical iteration count, and every rank holds
/// the bit-identical KrylovResult.
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

// Scalar (block-size-1) hierarchy, SPD class: the same backend-generic
// PCG on a one-dof-per-vertex operator chain — MIS grids, Galerkin chain,
// halo plans, and agglomeration all at block size 1.
TEST_P(EquivRanks, ScalarPoissonPcgHistoryMatchesSerial) {
  const Problem prob =
      build_scalar_problem(app::EquationClass::kPoissonHet);
  ASSERT_GE(prob.hierarchy.num_levels(), 2);
  ASSERT_EQ(prob.hierarchy.block_size(), 1);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_pcg_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  ASSERT_FALSE(ref.history.empty());
  const DistOutcome got = run_distributed(prob, GetParam(), Run::kPcg, so);
  expect_histories_match(ref, got, GetParam());
  expect_vectors_close(x_ref, got.x, 1e-10);
}

// Non-symmetric class: right-preconditioned GMRES. The Hessenberg/Givens
// recurrence is replicated scalar state derived purely from backend
// reductions, so the distributed driver must track the serial history as
// tightly as PCG does.
TEST_P(EquivRanks, AdvdiffGmresHistoryMatchesSerial) {
  const Problem prob = build_scalar_problem(app::EquationClass::kAdvDiff);
  ASSERT_GE(prob.hierarchy.num_levels(), 2);
  ASSERT_EQ(prob.hierarchy.block_size(), 1);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  so.krylov = la::KrylovKind::kGmres;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_krylov_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  ASSERT_FALSE(ref.history.empty());
  const DistOutcome got = run_distributed(prob, GetParam(), Run::kKrylov, so);
  expect_histories_match(ref, got, GetParam());
  expect_vectors_close(x_ref, got.x, 1e-8);
}

// Same operator through the short-recurrence driver (rho/alpha/omega are
// replicated scalars from the same reductions).
TEST_P(EquivRanks, AdvdiffBicgstabHistoryMatchesSerial) {
  const Problem prob = build_scalar_problem(app::EquationClass::kAdvDiff);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  so.krylov = la::KrylovKind::kBicgstab;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_krylov_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  ASSERT_FALSE(ref.history.empty());
  const DistOutcome got = run_distributed(prob, GetParam(), Run::kKrylov, so);
  expect_histories_match(ref, got, GetParam());
  expect_vectors_close(x_ref, got.x, 1e-8);
}

// Node-block (BAIJ) solve path: the distributed bsr3 PCG must reproduce
// the *serial scalar CSR* iterate history — the blocked kernels accumulate
// each scalar row in the same order as CSR (block columns sorted by global
// position, padding contributes exact zeros), so the format change adds no
// rounding of its own on top of the backend's allreduce-vs-serial delta.
TEST_P(EquivRanks, Bsr3PcgHistoryMatchesSerialCsr) {
  const Problem prob = build_problem(mg::SmootherKind::kJacobi);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_pcg_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  ASSERT_FALSE(ref.history.empty());

  // Distributed bsr3 at every rank count.
  mg::MgSolveOptions so_bsr = so;
  so_bsr.format = mg::MatrixFormat::kBsr3;
  const DistOutcome got = run_distributed(prob, GetParam(), Run::kPcg, so_bsr,
                                          mg::MatrixFormat::kBsr3);
  const la::KrylovResult& d = got.results[0];
  EXPECT_TRUE(d.converged);
  EXPECT_EQ(d.iterations, ref.iterations);
  ASSERT_EQ(d.history.size(), ref.history.size());
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    EXPECT_NEAR(d.history[i], ref.history[i], 1e-12 * ref.history[0])
        << "dist bsr3 history entry " << i;
  }
  EXPECT_NEAR(d.final_relres, ref.final_relres, 1e-12);
  expect_vectors_close(x_ref, got.x, 1e-10);
}

// Chebyshev estimates its eigenvalue bound with norm reductions whose
// rounding differs between the serial and allreduce backends, so the
// *smoother itself* differs slightly between backends; check convergence
// behavior rather than bitwise iterates.
TEST_P(EquivRanks, ChebyshevPcgConverges) {
  const Problem prob = build_problem(mg::SmootherKind::kChebyshev);
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  std::vector<real> x_ref(prob.rhs.size(), 0);
  const la::KrylovResult ref =
      mg::mg_pcg_solve(prob.hierarchy, prob.rhs, x_ref, so);
  ASSERT_TRUE(ref.converged);
  const DistOutcome got = run_distributed(prob, GetParam(), Run::kPcg, so);
  EXPECT_TRUE(got.results[0].converged);
  EXPECT_LE(got.results[0].final_relres, so.rtol);
  EXPECT_LE(std::abs(got.results[0].iterations - ref.iterations), 2);
  expect_vectors_close(x_ref, got.x, 1e-6);
}

// "pN" names let the CI rank matrix select one rank count per job with
// --gtest_filter='*/pN'.
INSTANTIATE_TEST_SUITE_P(Ranks, EquivRanks, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace prom
