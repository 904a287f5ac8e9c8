// The adaptive solve–estimate–mark–refine loop shared by the solve
// service, the quickstart, and bench_refine: starting from a model
// problem's mesh (hexes are Kuhn-split to tets first), each round solves
// on the current mesh, computes the residual-based error indicator
// (fem/indicator.h), marks a fixed fraction of cells, bisects them
// (mesh::refine_local), and re-applies the problem's Dirichlet
// constraints through ModelProblem::make_dofmap. The loop is the same for
// every equation class: only the assembly (app::assemble_system) and the
// error indicator follow the physics. It runs serially — like every other
// mesh-setup stage — so the refined mesh family is deterministic; the
// distributed layers consume its output (mg::Hierarchy::build_grids_refined
// + a fresh RCB partition of the refined coordinates).
#pragma once

#include <span>
#include <vector>

#include "app/driver.h"
#include "mesh/refine.h"

namespace prom::app {

/// Reads PROM_REFINE (adaptive refinement rounds; unset or empty means
/// 0 = no refinement). The whole value must be an integer in [0, 64];
/// anything else throws prom::Error.
int refine_rounds_from_env();

struct AdaptiveOptions {
  int rounds = 0;             ///< refinement rounds (0 = loop is a no-op)
  real mark_fraction = 0.1;   ///< fixed-fraction marking per round
  /// Tolerance of the per-round estimate solves. Looser than the final
  /// solve: the indicator only needs the solution's gradients roughly
  /// right to rank cells.
  real estimate_rtol = 1e-6;
  int max_iters = 200;
  mg::MgOptions mg;           ///< hierarchy options for the estimate solves
  mg::CycleKind cycle = mg::CycleKind::kFmg;
};

/// The refined mesh family one adaptive loop produced, in exactly the
/// shape mg::Hierarchy::build_grids_refined consumes. meshes()[0] is the
/// base tet mesh, meshes()[r+1] (= rounds[r].mesh) the mesh after round
/// r+1; dofmaps[i] holds meshes()[i]'s finalized constraints, at the
/// equation class's dofs per vertex.
struct AdaptiveLoop {
  mesh::Mesh base;                         ///< tet conversion of the input mesh
  std::vector<mesh::RefineResult> rounds;  ///< rounds[r]: meshes r -> r+1
  std::vector<fem::DofMap> dofmaps;

  /// Assembled system on the final mesh's free dofs (what the caller
  /// solves for real).
  fem::LinearSystem sys;

  /// Free-dof count after each round, round_unknowns[0] being the base
  /// mesh (bench_refine's adaptive-vs-uniform dof table).
  std::vector<idx> round_unknowns;

  const mesh::Mesh& final_mesh() const {
    return rounds.empty() ? base : rounds.back().mesh;
  }
  const fem::DofMap& final_dofmap() const { return dofmaps.back(); }

  /// Pointer views for mg::Hierarchy::build_grids_refined (coarsest
  /// first: base, then each round's mesh).
  std::vector<const mesh::Mesh*> mesh_ptrs() const;
  std::vector<const fem::DofMap*> dofmap_ptrs() const;
};

/// Runs `opts.rounds` adaptive rounds on `problem` and returns the mesh
/// family plus the final assembled system. Requires the problem to carry
/// its constraint re-fixer (ModelProblem::fix_bcs) — the factories in
/// app/driver.h all do. With rounds == 0 this just converts the mesh to
/// tets, rebuilds the constraints, and assembles. Emits one
/// "refine.round" span per round plus refine.cells / refine.unknowns
/// gauges.
AdaptiveLoop run_adaptive_refinement(const ModelProblem& problem,
                                     const AdaptiveOptions& opts);

/// Propagates a vertex -> rank assignment of the base mesh through the
/// bisection rounds (a midpoint inherits the owner of its first parent
/// endpoint): the "keep the old partition" ownership whose load imbalance
/// the obs gauges and bench_refine compare against a fresh RCB cut of the
/// refined coordinates.
std::vector<idx> inherit_owners(const AdaptiveLoop& loop,
                                std::span<const idx> base_owner);

/// Max-over-mean rank load of a vertex ownership vector (weight 1 per
/// vertex); 1.0 is perfect balance. Ranks beyond `nranks` are invalid.
real partition_imbalance(std::span<const idx> owner, int nranks);

}  // namespace prom::app
