#include "app/refine.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/error.h"
#include "fem/indicator.h"
#include "mg/solver.h"
#include "obs/trace.h"

namespace prom::app {

int refine_rounds_from_env() {
  const char* env = std::getenv("PROM_REFINE");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  PROM_CHECK_MSG(end != env && *end == '\0' && v >= 0 && v <= 64,
                 "PROM_REFINE must be an integer in [0, 64]");
  return static_cast<int>(v);
}

std::vector<const mesh::Mesh*> AdaptiveLoop::mesh_ptrs() const {
  std::vector<const mesh::Mesh*> ptrs{&base};
  for (const mesh::RefineResult& r : rounds) ptrs.push_back(&r.mesh);
  return ptrs;
}

std::vector<const fem::DofMap*> AdaptiveLoop::dofmap_ptrs() const {
  std::vector<const fem::DofMap*> ptrs;
  for (const fem::DofMap& dm : dofmaps) ptrs.push_back(&dm);
  return ptrs;
}

namespace {

/// Serial estimate hierarchy on the current mesh family: the refined
/// build once rounds exist, the plain MIS build before the first one.
mg::Hierarchy estimate_hierarchy(const AdaptiveLoop& loop, la::Csr a,
                                 const mg::MgOptions& mg) {
  if (loop.rounds.empty()) {
    return mg::Hierarchy::build(loop.base, loop.final_dofmap(), std::move(a),
                                mg);
  }
  return mg::Hierarchy::build_refined(loop.mesh_ptrs(), loop.dofmap_ptrs(),
                                      loop.rounds, std::move(a), mg);
}

}  // namespace

AdaptiveLoop run_adaptive_refinement(const ModelProblem& problem,
                                     const AdaptiveOptions& opts) {
  AdaptiveLoop loop;
  loop.base = mesh::hex_to_tet(problem.mesh);
  loop.dofmaps.push_back(problem.make_dofmap(loop.base));

  mg::MgSolveOptions so;
  so.rtol = opts.estimate_rtol;
  so.max_iters = opts.max_iters;
  so.cycle = opts.cycle;
  so.krylov = default_krylov(problem.equation);

  for (int round = 0; round < opts.rounds; ++round) {
    const obs::Span span("refine.round", round);
    const mesh::Mesh& m = loop.final_mesh();

    // Estimate solve on the current mesh.
    fem::LinearSystem sys = assemble_system(problem, m, loop.final_dofmap());
    loop.round_unknowns.push_back(sys.stiffness.nrows);
    const mg::Hierarchy h =
        estimate_hierarchy(loop, std::move(sys.stiffness), opts.mg);
    std::vector<real> x(sys.rhs.size(), 0);
    mg::mg_krylov_solve(h, sys.rhs, x, so);

    // Indicate, mark, bisect.
    const std::vector<real> u_full = loop.final_dofmap().full_from_free(x);
    const std::vector<real> eta =
        problem.equation == EquationClass::kElasticity
            ? fem::elasticity_error_indicator(m, u_full, problem.materials)
            : fem::scalar_error_indicator(m, u_full, problem.coeffs);
    const std::vector<idx> marked =
        mesh::mark_fraction(eta, opts.mark_fraction);
    obs::counter_add("refine.marked", static_cast<double>(marked.size()));
    loop.rounds.push_back(mesh::refine_local(m, marked));

    const mesh::Mesh& fm = loop.rounds.back().mesh;
    loop.dofmaps.push_back(problem.make_dofmap(fm));
    obs::gauge_set("refine.cells", static_cast<double>(fm.num_cells()));
  }

  loop.sys = assemble_system(problem, loop.final_mesh(), loop.final_dofmap());
  loop.round_unknowns.push_back(loop.sys.stiffness.nrows);
  obs::gauge_set("refine.unknowns",
                 static_cast<double>(loop.sys.stiffness.nrows));
  return loop;
}

std::vector<idx> inherit_owners(const AdaptiveLoop& loop,
                                std::span<const idx> base_owner) {
  PROM_CHECK(static_cast<idx>(base_owner.size()) ==
             loop.base.num_vertices());
  std::vector<idx> owner(base_owner.begin(), base_owner.end());
  for (const mesh::RefineResult& round : loop.rounds) {
    PROM_CHECK(static_cast<idx>(owner.size()) == round.num_parent_vertices);
    owner.reserve(owner.size() + round.vertex_parents.size());
    for (const auto& par : round.vertex_parents) {
      owner.push_back(owner[par[0]]);
    }
  }
  return owner;
}

real partition_imbalance(std::span<const idx> owner, int nranks) {
  PROM_CHECK(nranks > 0 && !owner.empty());
  std::vector<idx> load(static_cast<std::size_t>(nranks), 0);
  for (idx r : owner) {
    PROM_CHECK(r >= 0 && r < nranks);
    ++load[r];
  }
  const real mean =
      static_cast<real>(owner.size()) / static_cast<real>(nranks);
  idx max_load = 0;
  for (idx l : load) max_load = std::max(max_load, l);
  return static_cast<real>(max_load) / mean;
}

}  // namespace prom::app
