#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "app/driver.h"
#include "app/refine.h"
#include "common/error.h"
#include "fem/assembly.h"
#include "la/vec.h"
#include "mesh/generate.h"
#include "mg/cycle.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"

namespace prom::mg {
namespace {

struct BuiltProblem {
  app::ModelProblem model;
  fem::LinearSystem sys;
  Hierarchy hierarchy;
};

BuiltProblem build_box(idx n, const MgOptions& opts = {}) {
  BuiltProblem bp;
  bp.model = app::make_box_problem(n);
  fem::FeProblem fe(bp.model.mesh, bp.model.materials, bp.model.dofmap);
  bp.sys = fem::assemble_linear_system(fe);
  bp.hierarchy = Hierarchy::build(bp.model.mesh, bp.model.dofmap,
                                  bp.sys.stiffness, opts);
  return bp;
}

TEST(Hierarchy, BuildsMultipleLevelsWithShrinkingGrids) {
  MgOptions opts;
  opts.coarsest_max_dofs = 100;
  const BuiltProblem bp = build_box(8, opts);
  ASSERT_GE(bp.hierarchy.num_levels(), 2);
  for (int l = 1; l < bp.hierarchy.num_levels(); ++l) {
    EXPECT_LT(bp.hierarchy.level(l).free_dofs.size(),
              bp.hierarchy.level(l - 1).free_dofs.size());
    EXPECT_GT(bp.hierarchy.level(l).r.nnz(), 0);
  }
  EXPECT_FALSE(bp.hierarchy.describe().empty());
}

TEST(Hierarchy, GalerkinOperatorsSymmetric) {
  const BuiltProblem bp = build_box(6);
  for (int l = 0; l < bp.hierarchy.num_levels(); ++l) {
    EXPECT_LT(bp.hierarchy.level(l).a.symmetry_error(), 1e-10)
        << "level " << l;
  }
}

TEST(Hierarchy, GalerkinIsRART) {
  // A_1 must equal R * A_0 * R^T entry-for-entry.
  MgOptions opts;
  opts.coarsest_max_dofs = 150;
  const BuiltProblem bp = build_box(5, opts);
  if (bp.hierarchy.num_levels() < 2) GTEST_SKIP();
  const la::Csr& a0 = bp.hierarchy.level(0).a;
  const la::Csr& r = bp.hierarchy.level(1).r;
  const la::Csr ref = la::galerkin_product(r, a0);
  const la::Csr& a1 = bp.hierarchy.level(1).a;
  ASSERT_EQ(ref.nnz(), a1.nnz());
  for (std::size_t k = 0; k < ref.vals.size(); ++k) {
    EXPECT_NEAR(ref.vals[k], a1.vals[k], 1e-14);
  }
}

/// ||b - A x|| for column 0 of x.
real residual_norm(const la::Csr& a, std::span<const real> b,
                   const la::MultiVec& x) {
  std::vector<real> r(b.size());
  a.spmv(x.col(0), r);
  la::waxpby(1, b, -1, r, r);
  return la::nrm2(r);
}

TEST(Vcycle, ReducesErrorEveryCycle) {
  const BuiltProblem bp = build_box(6);
  const la::Csr& a = bp.hierarchy.level(0).a;
  std::vector<real> x_true(a.nrows);
  for (idx i = 0; i < a.nrows; ++i) x_true[i] = std::sin(0.7 * i);
  la::MultiVec b(a.nrows, 1), x(a.nrows, 1);
  a.spmv(x_true, b.col(0));
  const HierarchyCycleView view(bp.hierarchy);
  real prev = la::nrm2(b.col(0));
  for (int cycle = 0; cycle < 6; ++cycle) {
    vcycle_any_mv(view, 0, b, x);
    const real now = residual_norm(a, b.col(0), x);
    EXPECT_LT(now, 0.7 * prev) << "cycle " << cycle;
    prev = now;
  }
}

TEST(Fmg, SingleCycleBeatsSingleVcycle) {
  const BuiltProblem bp = build_box(6);
  const la::Csr& a = bp.hierarchy.level(0).a;
  la::MultiVec b(a.nrows, 1);
  std::copy(bp.sys.rhs.begin(), bp.sys.rhs.end(), b.col_data(0));
  const HierarchyCycleView view(bp.hierarchy);
  // FMG from zero.
  la::MultiVec x_fmg(a.nrows, 1);
  fmg_any_mv(view, b, x_fmg);
  const real res_fmg = residual_norm(a, bp.sys.rhs, x_fmg);
  // One V-cycle from zero.
  la::MultiVec x_v(a.nrows, 1);
  vcycle_any_mv(view, 0, b, x_v);
  const real res_v = residual_norm(a, bp.sys.rhs, x_v);
  EXPECT_LE(res_fmg, res_v * 1.1);
}

class MgCycleKinds : public ::testing::TestWithParam<CycleKind> {};

TEST_P(MgCycleKinds, PcgConvergesTight) {
  const BuiltProblem bp = build_box(7);
  std::vector<real> x(bp.sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-10;
  so.cycle = GetParam();
  const la::KrylovResult res = mg_pcg_solve(bp.hierarchy, bp.sys.rhs, x, so);
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.breakdown);
  EXPECT_LT(res.iterations, 40);
  // Verify against the residual definition.
  std::vector<real> r(bp.sys.rhs.size());
  bp.hierarchy.level(0).a.spmv(x, r);
  la::waxpby(1, bp.sys.rhs, -1, r, r);
  EXPECT_LT(la::nrm2(r) / la::nrm2(bp.sys.rhs), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Cycles, MgCycleKinds,
                         ::testing::Values(CycleKind::kV, CycleKind::kFmg));

TEST(MgSolver, SerialDriversRejectNonCsrFormats) {
  // The serial hierarchy holds CSR operators only; bsr3 and mf solves
  // are built by dla::DistHierarchy, and the error says so.
  const BuiltProblem bp = build_box(3);
  for (const MatrixFormat format : {MatrixFormat::kBsr3, MatrixFormat::kMf}) {
    for (const la::KrylovKind krylov :
         {la::KrylovKind::kPcg, la::KrylovKind::kGmres}) {
      MgSolveOptions so;
      so.format = format;
      so.krylov = krylov;
      std::vector<real> x(bp.sys.rhs.size(), 0.0);
      try {
        mg_krylov_solve(bp.hierarchy, bp.sys.rhs, x, so);
        ADD_FAILURE() << "non-CSR format must throw";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("dla::DistHierarchy"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(MgSolver, IterationCountMeshIndependent) {
  // The headline multigrid property: iterations stay bounded as the mesh
  // refines (Table 2's near-constant iteration column).
  int prev_iters = 0;
  for (idx n : {6, 9, 12}) {
    const BuiltProblem bp = build_box(n);
    std::vector<real> x(bp.sys.rhs.size(), 0.0);
    MgSolveOptions so;
    so.rtol = 1e-8;
    const la::KrylovResult res =
        mg_pcg_solve(bp.hierarchy, bp.sys.rhs, x, so);
    ASSERT_TRUE(res.converged) << "n = " << n;
    EXPECT_LT(res.iterations, 30);
    if (prev_iters > 0) {
      EXPECT_LE(res.iterations, prev_iters + 5);
    }
    prev_iters = res.iterations;
  }
}

TEST(MgSolver, MaterialJumpsHandled) {
  // The sphere problem's 1e4 coefficient jump + near-incompressibility.
  mesh::SphereInCubeParams sp;
  sp.num_shells = 5;
  sp.base_core_layers = 1;
  sp.base_outer_layers = 1;
  const app::ModelProblem model = app::make_sphere_problem(sp, 0.36);
  fem::FeProblem fe(model.mesh, model.materials, model.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);
  MgOptions opts;
  opts.coarsest_max_dofs = 300;
  const Hierarchy h =
      Hierarchy::build(model.mesh, model.dofmap, sys.stiffness, opts);
  std::vector<real> x(sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-4;  // the paper's first-solve tolerance
  so.max_iters = 120;
  const la::KrylovResult res = mg_pcg_solve(h, sys.rhs, x, so);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 80);
}

TEST(Hierarchy, UpdateFineMatrixRebuildsChain) {
  MgOptions opts;
  opts.coarsest_max_dofs = 150;
  BuiltProblem bp = build_box(5, opts);
  if (bp.hierarchy.num_levels() < 2) GTEST_SKIP();
  // Scale the fine operator by 2: all coarse operators must double.
  la::Csr scaled = bp.hierarchy.level(0).a;
  for (real& v : scaled.vals) v *= 2;
  const real before = bp.hierarchy.level(1).a.vals[0];
  bp.hierarchy.update_fine_matrix(std::move(scaled));
  const real after = bp.hierarchy.level(1).a.vals[0];
  EXPECT_NEAR(after, 2 * before, 1e-12 * std::abs(before));
  // Solver still works after the update.
  std::vector<real> x(bp.sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-8;
  EXPECT_TRUE(mg_pcg_solve(bp.hierarchy, bp.sys.rhs, x, so).converged);
}

TEST(MgOptions, SmootherKindsAllConverge) {
  for (SmootherKind kind : {SmootherKind::kJacobi, SmootherKind::kBlockJacobi,
                            SmootherKind::kChebyshev}) {
    MgOptions opts;
    opts.smoother = kind;
    const BuiltProblem bp = build_box(6, opts);
    std::vector<real> x(bp.sys.rhs.size(), 0.0);
    MgSolveOptions so;
    so.rtol = 1e-8;
    so.max_iters = 100;
    const la::KrylovResult res =
        mg_pcg_solve(bp.hierarchy, bp.sys.rhs, x, so);
    EXPECT_TRUE(res.converged) << "smoother " << static_cast<int>(kind);
  }
}

/// Sets one environment variable (nullopt unsets it) for one scope and
/// restores the caller's value after.
class EnvScope {
 public:
  EnvScope(const char* var, const std::optional<std::string>& value)
      : var_(var) {
    if (const char* old = std::getenv(var_)) saved_ = old;
    if (value) {
      ::setenv(var_, value->c_str(), 1);
    } else {
      ::unsetenv(var_);
    }
  }
  ~EnvScope() {
    if (saved_) {
      ::setenv(var_, saved_->c_str(), 1);
    } else {
      ::unsetenv(var_);
    }
  }

 private:
  const char* var_;
  std::optional<std::string> saved_;
};

/// PROM_MATRIX for one scope.
class MatrixEnvScope : public EnvScope {
 public:
  explicit MatrixEnvScope(const std::optional<std::string>& value)
      : EnvScope("PROM_MATRIX", value) {}
};

TEST(MatrixFormatEnv, UnsetOrEmptyMeansNodeBlocks) {
  {
    const MatrixEnvScope env(std::nullopt);
    EXPECT_EQ(matrix_format_from_env(), MatrixFormat::kBsr3);
  }
  const MatrixEnvScope env("");
  EXPECT_EQ(matrix_format_from_env(), MatrixFormat::kBsr3);
}

TEST(MatrixFormatEnv, ParsesEveryFormatAndRejectsOthers) {
  const std::pair<const char*, MatrixFormat> known[] = {
      {"csr", MatrixFormat::kCsr},
      {"bsr3", MatrixFormat::kBsr3},
      {"mf", MatrixFormat::kMf}};
  for (const auto& [name, format] : known) {
    const MatrixEnvScope env(name);
    EXPECT_EQ(matrix_format_from_env(), format) << name;
  }
  for (const char* bad : {"CSR", "bsr", "bsr1", " csr", "aij"}) {
    const MatrixEnvScope env(bad);
    EXPECT_THROW(matrix_format_from_env(), Error) << bad;
  }
}

TEST(AgglomEnv, AcceptsIdxRangeAndRejectsEverythingElse) {
  const char* var = "PROM_MIN_ROWS_PER_RANK";
  {
    const EnvScope env(var, std::nullopt);
    EXPECT_EQ(agglom_min_rows_from_env(), 0);
  }
  const std::pair<const char*, idx> good[] = {
      {"", 0}, {"0", 0}, {"1000", 1000}, {"2147483647", 2147483647}};
  for (const auto& [text, want] : good) {
    const EnvScope env(var, text);
    EXPECT_EQ(agglom_min_rows_from_env(), want) << text;
  }
  // Past idx's maximum a narrowing cast would wrap the value negative and
  // silently turn agglomeration off; strtol's own overflow (ERANGE) too.
  for (const char* bad : {"2147483648", "3000000000", "99999999999999999999",
                          "-1", "12abc", "abc", " "}) {
    const EnvScope env(var, bad);
    EXPECT_THROW(agglom_min_rows_from_env(), Error) << bad;
  }
}

TEST(RefineEnv, AcceptsZeroToSixtyFourAndRejectsEverythingElse) {
  const char* var = "PROM_REFINE";
  {
    const EnvScope env(var, std::nullopt);
    EXPECT_EQ(app::refine_rounds_from_env(), 0);
  }
  const std::pair<const char*, int> good[] = {{"", 0}, {"0", 0}, {"64", 64}};
  for (const auto& [text, want] : good) {
    const EnvScope env(var, text);
    EXPECT_EQ(app::refine_rounds_from_env(), want) << text;
  }
  for (const char* bad : {"-1", "65", "2x", "abc"}) {
    const EnvScope env(var, bad);
    try {
      (void)app::refine_rounds_from_env();
      ADD_FAILURE() << "accepted " << bad;
    } catch (const Error& e) {
      // The message names the variable and its range.
      EXPECT_NE(std::string(e.what()).find("PROM_REFINE"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("[0, 64]"), std::string::npos)
          << e.what();
    }
  }
}

TEST(EquationEnv, ParsesTheThreeClassesAndRejectsOthers) {
  const char* var = "PROM_EQUATION";
  {
    const EnvScope env(var, std::nullopt);
    EXPECT_EQ(app::equation_from_env(), app::EquationClass::kElasticity);
  }
  const std::pair<const char*, app::EquationClass> known[] = {
      {"elasticity", app::EquationClass::kElasticity},
      {"poisson_het", app::EquationClass::kPoissonHet},
      {"advdiff", app::EquationClass::kAdvDiff}};
  for (const auto& [name, eq] : known) {
    const EnvScope env(var, name);
    EXPECT_EQ(app::equation_from_env(), eq) << name;
  }
  for (const char* bad : {"Elasticity", "poisson", " advdiff"}) {
    const EnvScope env(var, bad);
    EXPECT_THROW(app::equation_from_env(), Error) << bad;
  }
}

}  // namespace
}  // namespace prom::mg
