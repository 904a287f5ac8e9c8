// Scalar equation-class robustness sweep: MG-preconditioned iteration
// counts for the jump-coefficient Poisson problem as the coefficient
// contrast grows (1, 1e3, 1e6) and for the SUPG advection-diffusion
// problem as the Péclet number grows (1, 10, 100). Shape claims under
// test:
//  - MG-PCG iterations stay roughly flat across six orders of contrast
//    (the hierarchy is built from the jump operator itself, so the
//    Galerkin coarse operators see the interface),
//  - MG-GMRES iterations grow only mildly with Péclet while the damped-
//    Jacobi smoother plus SUPG fine operator keeps the cycle stable.
// Emits BENCH_equations.json with iterations and solve seconds per row.
//
// Environment: PROM_BENCH_FULL=1 enlarges the meshes; PROM_BENCH_SMOKE=1
// shrinks them (the CI smoke lane).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "la/krylov.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"

using namespace prom;

namespace {

struct Row {
  double knob;       ///< contrast or Péclet number
  idx unknowns;
  int iterations;
  double solve_s;
  bool converged;
};

/// Assembles, builds the block-size-1 hierarchy, and solves one scalar
/// problem with the equation class's default Krylov driver.
Row run(const app::ModelProblem& p, double knob) {
  fem::LinearSystem sys = app::assemble_system(p, p.mesh, p.dofmap);
  const mg::MgOptions mo = app::default_mg_options(p.equation);
  std::vector<real> rhs = std::move(sys.rhs);
  const mg::Hierarchy h =
      mg::Hierarchy::build(p.mesh, p.dofmap, std::move(sys.stiffness), mo);

  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.max_iters = 200;
  so.krylov = app::default_krylov(p.equation);
  std::vector<real> x(rhs.size(), 0);
  const auto t0 = std::chrono::steady_clock::now();
  const la::KrylovResult r = mg::mg_krylov_solve(h, rhs, x, so);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return {knob, static_cast<idx>(rhs.size()), r.iterations, dt.count(),
          r.converged};
}

void print_rows(const char* knob_name, const std::vector<Row>& rows) {
  std::printf("%-10s | %-9s %-6s %-10s\n", knob_name, "unknowns", "its",
              "solve (s)");
  for (const Row& r : rows) {
    std::printf("%-10g | %-9d %-6d %-10.4f%s\n", r.knob, r.unknowns,
                r.iterations, r.solve_s, r.converged ? "" : "  DIVERGED");
  }
  std::printf("\n");
}

void write_rows(std::FILE* json, const char* name,
                const char* knob_name, const std::vector<Row>& rows,
                bool last) {
  std::fprintf(json, "  \"%s\": [\n", name);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"%s\": %g, \"unknowns\": %d, \"iterations\": %d, "
                 "\"solve_s\": %.6f, \"converged\": %s}%s\n",
                 knob_name, r.knob, r.unknowns, r.iterations, r.solve_s,
                 r.converged ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]%s\n", last ? "" : ",");
}

}  // namespace

int main() {
  const bool full = std::getenv("PROM_BENCH_FULL") != nullptr;
  const bool smoke = std::getenv("PROM_BENCH_SMOKE") != nullptr;
  const idx n = smoke ? 8 : (full ? 20 : 12);

  std::printf("equation classes on a %dx%dx%d box (MG-PCG for the "
              "symmetric class,\nright-preconditioned MG-GMRES for "
              "advection-diffusion, rtol 1e-8)\n\n",
              n, n, n);

  std::vector<Row> contrast_rows;
  for (const double contrast : {1.0, 1e3, 1e6}) {
    contrast_rows.push_back(
        run(app::make_poisson_het_problem(n, contrast), contrast));
  }
  print_rows("contrast", contrast_rows);

  std::vector<Row> peclet_rows;
  for (const double peclet : {1.0, 10.0, 100.0}) {
    peclet_rows.push_back(
        run(app::make_advdiff_problem(n, peclet), peclet));
  }
  print_rows("peclet", peclet_rows);

  // Reaction-dominated Helmholtz-like class (-div(grad u) + c u = f):
  // the zeroth-order term only adds diagonal mass, so MG-PCG iterations
  // should *drop* as c grows (the operator becomes more diagonally
  // dominant and the smoother more effective).
  std::vector<Row> reaction_rows;
  for (const double reaction : {1.0, 1e3, 1e6}) {
    reaction_rows.push_back(
        run(app::make_reaction_problem(n, reaction), reaction));
  }
  print_rows("reaction", reaction_rows);

  std::printf("shape claims: PCG iterations stay roughly flat across six\n"
              "orders of coefficient contrast, GMRES iterations grow only\n"
              "mildly with the Péclet number, and reaction dominance only\n"
              "helps the symmetric solver.\n");

  bool ok = true;
  for (const Row& r : contrast_rows) ok = ok && r.converged;
  for (const Row& r : peclet_rows) ok = ok && r.converged;
  for (const Row& r : reaction_rows) ok = ok && r.converged;

  std::FILE* json = std::fopen("BENCH_equations.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_equations.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"equations\",\n  \"n\": %d,\n", n);
  write_rows(json, "contrast_sweep", "contrast", contrast_rows, false);
  write_rows(json, "peclet_sweep", "peclet", peclet_rows, false);
  write_rows(json, "reaction_sweep", "reaction", reaction_rows, true);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_equations.json\n");
  return ok ? 0 : 1;
}
