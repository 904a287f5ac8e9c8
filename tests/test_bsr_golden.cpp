// Golden-history regression for the matrix formats: the quickstart
// elasticity solve must (a) produce the same PCG residual history under
// PROM_MATRIX=csr and bsr3 to 1e-12, and (b) reproduce the committed
// golden history (tests/golden/bsr_quickstart.json, an obs::Report) —
// catching any change to the solver arithmetic, blocked or scalar, that
// alters convergence. Regenerate the golden file after an *intentional*
// change with PROM_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "app/driver.h"
#include "dla/dist_mg.h"
#include "fem/assembly.h"
#include "la/krylov.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parx/runtime.h"

#ifndef PROM_GOLDEN_DIR
#error "PROM_GOLDEN_DIR must point at the committed golden files"
#endif

namespace prom {
namespace {

struct SolveOutcome {
  la::KrylovResult result;
  obs::Report report;  ///< contains the "pcg.residual" series
};

/// The quickstart problem (8^3 box, clamped bottom, pressed top) solved
/// on one virtual rank as examples/quickstart runs it — grids from
/// mg::Hierarchy, operators from dla::DistHierarchy — with the requested
/// solve-phase format, setup and solve under a fresh tracing window.
SolveOutcome run_quickstart(mg::MatrixFormat format) {
  const app::ModelProblem p = app::make_box_problem(8);
  fem::FeProblem fe(p.mesh, p.materials, p.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  const mg::Hierarchy grids = mg::Hierarchy::build_grids(
      p.mesh, p.dofmap, std::move(sys.stiffness), {});
  const std::vector<idx> owner(
      static_cast<std::size_t>(p.mesh.num_vertices()), 0);
  const dla::MfProblem mf{&p.mesh, &p.materials, &p.dofmap, /*bbar=*/true};

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);
  const std::int64_t mark = obs::Tracer::now_ns();

  mg::MgSolveOptions opts;
  opts.rtol = 1e-8;
  opts.track_history = true;
  opts.format = format;
  SolveOutcome out;
  parx::Runtime::run(1, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist = dla::DistHierarchy::build(
        comm, grids, owner, format,
        format == mg::MatrixFormat::kMf ? &mf : nullptr);
    const std::vector<idx>& perm = dist.permutation(0);
    std::vector<real> b(sys.rhs.size());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = sys.rhs[perm[i]];
    std::vector<real> x(b.size(), 0);
    out.result = dla::dist_mg_krylov_solve(comm, dist, b, x, opts);
  });
  tracer.set_enabled(was_tracing);
  out.report = obs::build_report(mark);
  return out;
}

const std::vector<double>& residual_series(const obs::Report& rep) {
  const obs::SeriesEntry* s = rep.find_series("pcg.residual");
  EXPECT_NE(s, nullptr) << "report lacks the pcg.residual series";
  static const std::vector<double> empty;
  return s != nullptr ? s->values : empty;
}

TEST(BsrGolden, FormatsAgreeAndMatchCommittedHistory) {
  const SolveOutcome csr = run_quickstart(mg::MatrixFormat::kCsr);
  const SolveOutcome bsr = run_quickstart(mg::MatrixFormat::kBsr3);
  ASSERT_TRUE(csr.result.converged);
  ASSERT_TRUE(bsr.result.converged);

  // (a) The blocked solve is the same iteration, to rounding: identical
  // iteration count, history equal to 1e-12 of the initial residual.
  EXPECT_EQ(bsr.result.iterations, csr.result.iterations);
  const std::vector<double>& hc = residual_series(csr.report);
  const std::vector<double>& hb = residual_series(bsr.report);
  ASSERT_FALSE(hc.empty());
  ASSERT_EQ(hb.size(), hc.size());
  for (std::size_t i = 0; i < hc.size(); ++i) {
    EXPECT_NEAR(hb[i], hc[i], 1e-12 * hc[0]) << "history entry " << i;
  }
  EXPECT_NEAR(bsr.result.final_relres, csr.result.final_relres, 1e-12);

  // (b) Both match the committed golden history.
  const std::string path =
      std::string(PROM_GOLDEN_DIR) + "/bsr_quickstart.json";
  if (std::getenv("PROM_UPDATE_GOLDEN") != nullptr) {
    csr.report.write_json(path);
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  const obs::Report golden = obs::Report::read_json(path);
  const std::vector<double>& hg = residual_series(golden);
  ASSERT_EQ(hc.size(), hg.size())
      << "iteration count drifted from the golden history; if intended, "
         "regenerate with PROM_UPDATE_GOLDEN=1";
  for (std::size_t i = 0; i < hg.size(); ++i) {
    EXPECT_NEAR(hc[i], hg[i], 1e-10 * hg[0]) << "golden entry " << i;
    EXPECT_NEAR(hb[i], hg[i], 1e-10 * hg[0]) << "golden entry " << i;
  }
}

}  // namespace
}  // namespace prom
