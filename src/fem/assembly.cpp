#include "fem/assembly.h"

#include <algorithm>
#include <optional>
#include <string>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/trace.h"

namespace prom::fem {
namespace {

/// Cells per assembly chunk — fixed, so the chunk decomposition (and with
/// it the merged triplet/force ordering) never depends on the thread
/// count (see common/parallel.h).
constexpr idx kCellGrain = 64;

/// Dof of (vertex, component) in an elasticity map: the compile-time
/// stride of the element loops, which FeProblem's constructor checks.
constexpr idx elastic_dof(idx vertex, int comp) {
  return kDofPerVertex * vertex + comp;
}

}  // namespace

DofMap::DofMap(idx num_vertices, int dofs_per_vertex)
    : nv_(num_vertices), dpv_(dofs_per_vertex) {
  PROM_CHECK_MSG(dofs_per_vertex >= 1,
                 "DofMap: dofs per vertex must be at least 1");
  const std::size_t n = static_cast<std::size_t>(num_dofs());
  constrained_.assign(n, 0);
  bc_value_.assign(n, 0);
  free_index_.assign(n, kInvalidIdx);
  finalize();
}

void DofMap::require_dofs_per_vertex(int want, const char* consumer) const {
  if (dpv_ == want) return;
  throw Error(std::string(consumer) + " needs a DofMap with " +
              std::to_string(want) + " dof(s) per vertex; this map has " +
              std::to_string(dpv_));
}

void DofMap::fix(idx vertex, int comp, real value) {
  PROM_CHECK(vertex >= 0 && vertex < nv_);
  PROM_CHECK_MSG(comp >= 0 && comp < dpv_,
                 "DofMap::fix: component out of range for the map's dofs "
                 "per vertex");
  constrained_[dof_of(vertex, comp)] = 1;
  bc_value_[dof_of(vertex, comp)] = value;
}

void DofMap::fix_all(std::span<const idx> vertices, real value) {
  for (idx v : vertices) {
    for (int c = 0; c < dpv_; ++c) fix(v, c, value);
  }
}

void DofMap::scale_bc(real factor) {
  for (idx d = 0; d < num_dofs(); ++d) {
    if (constrained_[d]) bc_value_[d] *= factor;
  }
}

void DofMap::finalize() {
  free_dofs_.clear();
  for (idx d = 0; d < num_dofs(); ++d) {
    if (!constrained_[d]) {
      free_index_[d] = static_cast<idx>(free_dofs_.size());
      free_dofs_.push_back(d);
    } else {
      free_index_[d] = kInvalidIdx;
    }
  }
}

std::vector<real> DofMap::full_from_free(std::span<const real> free_values,
                                         real bc_scale) const {
  PROM_CHECK(static_cast<idx>(free_values.size()) == num_free());
  std::vector<real> full(static_cast<std::size_t>(num_dofs()));
  for (idx d = 0; d < num_dofs(); ++d) {
    full[d] = constrained_[d] ? bc_scale * bc_value_[d]
                              : free_values[free_index_[d]];
  }
  return full;
}

std::vector<real> DofMap::free_from_full(
    std::span<const real> full_values) const {
  PROM_CHECK(static_cast<idx>(full_values.size()) == num_dofs());
  std::vector<real> out(static_cast<std::size_t>(num_free()));
  for (idx i = 0; i < num_free(); ++i) out[i] = full_values[free_dofs_[i]];
  return out;
}

FeProblem::FeProblem(const mesh::Mesh& mesh, std::vector<Material> materials,
                     DofMap dofmap, bool bbar, bool fbar)
    : mesh_(&mesh),
      materials_(std::move(materials)),
      dofmap_(std::move(dofmap)),
      bbar_(bbar),
      fbar_(fbar),
      gp_per_cell_(
          gauss_points_per_cell(mesh::nodes_per_cell(mesh.kind()))) {
  PROM_CHECK(dofmap_.num_vertices() == mesh.num_vertices());
  dofmap_.require_dofs_per_vertex(kDofPerVertex, "FeProblem (elasticity)");
  for (idx e = 0; e < mesh.num_cells(); ++e) {
    PROM_CHECK_MSG(mesh.material(e) >= 0 &&
                       mesh.material(e) <
                           static_cast<idx>(materials_.size()),
                   "cell references an undefined material");
  }
  const std::size_t nstates =
      static_cast<std::size_t>(mesh.num_cells()) * gp_per_cell_;
  committed_.resize(nstates);
  trial_.resize(nstates);
}

AssemblyResult FeProblem::assemble(std::span<const real> u_full,
                                   bool want_stiffness) {
  const mesh::Mesh& mesh = *mesh_;
  PROM_CHECK(static_cast<idx>(u_full.size()) == dofmap_.num_dofs());
  const int npc = mesh::nodes_per_cell(mesh.kind());
  const int edof = 3 * npc;

  AssemblyResult out;
  out.f_int.assign(static_cast<std::size_t>(dofmap_.num_free()), 0);
  if (want_stiffness) {
    out.bc_coupling.assign(static_cast<std::size_t>(dofmap_.num_free()), 0);
  }

  // Cell-chunk-parallel assembly. Each fixed chunk of cells integrates
  // into private buffers (element scratch included); chunk outputs are
  // merged in chunk order afterwards, which reproduces the serial
  // cell-by-cell scatter order exactly — the assembled matrix and force
  // vector are bit-identical for any thread count. Gauss-point state
  // (trial_) is indexed per cell, so chunks write disjoint slices of it.
  struct ChunkOut {
    std::vector<std::pair<idx, real>> f_contrib;    // (free row, value)
    std::vector<std::pair<idx, real>> bc_contrib;   // (free row, value)
    idx plastic_gauss_points = 0;
    idx hard_gauss_points = 0;
  };
  const idx nchunks = common::chunk_count(0, mesh.num_cells(), kCellGrain);
  std::vector<ChunkOut> outs(static_cast<std::size_t>(nchunks));
  // Each chunk's stiffness triplets, kept apart: la::Csr::from_triplets
  // merges them in chunk order and releases each chunk once bucketed.
  std::vector<std::vector<la::Triplet>> triplets(
      want_stiffness ? static_cast<std::size_t>(nchunks) : 0);

  // Element kernels, then the merge into the force vector and CSR.
  std::optional<obs::Span> phase(std::in_place, "assembly.elements");
  common::parallel_for(0, mesh.num_cells(), kCellGrain, [&](idx eb, idx ee) {
    ChunkOut& co = outs[eb / kCellGrain];
    std::vector<la::Triplet>* trip =
        want_stiffness ? &triplets[eb / kCellGrain] : nullptr;
    if (trip != nullptr) {
      trip->reserve(static_cast<std::size_t>(ee - eb) * edof * edof);
    }
    la::DenseMatrix ke(edof, edof);
    std::vector<real> fe(static_cast<std::size_t>(edof));
    std::vector<Vec3> coords(static_cast<std::size_t>(npc));
    std::vector<real> ue(static_cast<std::size_t>(edof));

    for (idx e = eb; e < ee; ++e) {
      const auto verts = mesh.cell(e);
      const Material& mat = materials_[mesh.material(e)];
      for (int a = 0; a < npc; ++a) {
        coords[a] = mesh.coord(verts[a]);
        for (int c = 0; c < 3; ++c) {
          ue[a * 3 + c] = u_full[elastic_dof(verts[a], c)];
        }
      }

      const std::size_t state_base =
          static_cast<std::size_t>(e) * gp_per_cell_;
      if (mat.model == MaterialModel::kNeoHookean) {
        total_lagrangian_element(mat, coords, ue, fbar_,
                                 want_stiffness ? &ke : nullptr, fe);
      } else {
        std::span<const J2State> committed;
        std::span<J2State> updated;
        if (mat.model == MaterialModel::kJ2Plasticity) {
          committed = {committed_.data() + state_base,
                       static_cast<std::size_t>(gp_per_cell_)};
          updated = {trial_.data() + state_base,
                     static_cast<std::size_t>(gp_per_cell_)};
          co.hard_gauss_points += gp_per_cell_;
        }
        co.plastic_gauss_points += small_strain_element(
            mat, coords, ue, bbar_, committed, updated,
            want_stiffness ? &ke : nullptr, fe);
      }

      // Scatter to free dofs (recorded, merged below in cell order).
      for (int a = 0; a < npc; ++a) {
        for (int ca = 0; ca < 3; ++ca) {
          const idx row = dofmap_.free_index(elastic_dof(verts[a], ca));
          if (row == kInvalidIdx) continue;
          co.f_contrib.emplace_back(row, fe[a * 3 + ca]);
          if (trip == nullptr) continue;
          for (int b = 0; b < npc; ++b) {
            for (int cb = 0; cb < 3; ++cb) {
              const idx coldof = elastic_dof(verts[b], cb);
              const idx col = dofmap_.free_index(coldof);
              if (col == kInvalidIdx) {
                co.bc_contrib.emplace_back(
                    row, ke(a * 3 + ca, b * 3 + cb) * dofmap_.bc_value(coldof));
              } else {
                trip->push_back({row, col, ke(a * 3 + ca, b * 3 + cb)});
              }
            }
          }
        }
      }
    }
  });

  // Deterministic merge: chunk order == cell order, and contributions are
  // applied one by one, so the accumulation order (and therefore every
  // rounding) matches the serial loop.
  phase.emplace("assembly.merge");
  for (const ChunkOut& co : outs) {
    for (const auto& [row, v] : co.f_contrib) out.f_int[row] += v;
    for (const auto& [row, v] : co.bc_contrib) out.bc_coupling[row] += v;
    out.plastic_gauss_points += co.plastic_gauss_points;
    out.hard_gauss_points += co.hard_gauss_points;
  }
  if (want_stiffness) {
    out.stiffness = la::Csr::from_triplets(dofmap_.num_free(),
                                           dofmap_.num_free(), triplets);
  }
  return out;
}

void FeProblem::commit() { committed_ = trial_; }

void FeProblem::restore_state(std::vector<J2State> state) {
  PROM_CHECK(state.size() == committed_.size());
  committed_ = std::move(state);
  trial_ = committed_;
}

real FeProblem::plastic_fraction() const {
  idx hard = 0, yielded = 0;
  for (idx e = 0; e < mesh_->num_cells(); ++e) {
    if (materials_[mesh_->material(e)].model != MaterialModel::kJ2Plasticity) {
      continue;
    }
    const std::size_t base = static_cast<std::size_t>(e) * gp_per_cell_;
    for (int q = 0; q < gp_per_cell_; ++q) {
      ++hard;
      if (committed_[base + q].has_yielded()) ++yielded;
    }
  }
  return hard == 0 ? 0 : static_cast<real>(yielded) / hard;
}

LinearSystem assemble_linear_system(FeProblem& problem) {
  const DofMap& dofmap = problem.dofmap();
  // Tangent at the unloaded state (zero displacement everywhere).
  const std::vector<real> u_zero(static_cast<std::size_t>(dofmap.num_dofs()),
                                 0);
  AssemblyResult asmres = problem.assemble(u_zero, /*want_stiffness=*/true);
  LinearSystem sys;
  sys.stiffness = std::move(asmres.stiffness);
  sys.rhs.resize(asmres.bc_coupling.size());
  for (std::size_t i = 0; i < sys.rhs.size(); ++i) {
    sys.rhs[i] = -asmres.bc_coupling[i];
  }
  return sys;
}

}  // namespace prom::fem
