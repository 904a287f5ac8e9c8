// Global assembly: dof management, Dirichlet constraints, and the driver
// that turns a mesh + material table + displacement field into a global
// (free-dof) stiffness matrix and internal force vector — the FEAP
// substitute ("each processor can compute all rows of the stiffness matrix
// ... associated with vertices that have been partitioned to the
// processor", §5; we assemble the global matrix once and distribute rows
// in `dla`).
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "fem/element.h"
#include "fem/material.h"
#include "la/csr.h"
#include "mesh/mesh.h"

namespace prom::fem {

/// Maps (vertex, component) to a global dof (dofs_per_vertex * vertex +
/// component) and tracks Dirichlet constraints with prescribed values.
/// One map serves every equation class: 3 dofs per vertex for elasticity
/// (the default), 1 for the scalar classes, where the dof is the vertex.
/// The free dofs are numbered in ascending dof order.
class DofMap {
 public:
  explicit DofMap(idx num_vertices, int dofs_per_vertex = kDofPerVertex);

  idx num_vertices() const { return nv_; }
  int dofs_per_vertex() const { return dpv_; }
  idx num_dofs() const { return dpv_ * nv_; }

  idx dof_of(idx vertex, int comp) const { return dpv_ * vertex + comp; }

  /// Throws prom::Error naming `consumer` unless this map carries `want`
  /// dofs per vertex: the one check of each consumer that assumes a
  /// component count.
  void require_dofs_per_vertex(int want, const char* consumer) const;

  /// Prescribes component `comp` (< dofs_per_vertex) of `vertex` to
  /// `value`.
  void fix(idx vertex, int comp, real value);

  /// Prescribes every component of every vertex in `vertices`.
  void fix_all(std::span<const idx> vertices, real value = 0);

  bool is_constrained(idx dof) const { return constrained_[dof] != 0; }
  real bc_value(idx dof) const { return bc_value_[dof]; }

  /// Rescales every prescribed value by `factor` (displacement stepping).
  void scale_bc(real factor);

  /// Builds the free-dof numbering; call after all fix() calls. (May be
  /// called again after further fixes.)
  void finalize();

  idx num_free() const { return static_cast<idx>(free_dofs_.size()); }
  const std::vector<idx>& free_dofs() const { return free_dofs_; }
  /// Free index of `dof` or kInvalidIdx if constrained.
  idx free_index(idx dof) const { return free_index_[dof]; }

  /// Expands a free-dof vector to a full vector, inserting `bc_scale *
  /// bc_value` at constrained dofs.
  std::vector<real> full_from_free(std::span<const real> free_values,
                                   real bc_scale = 1) const;

  /// Restricts a full vector to the free dofs.
  std::vector<real> free_from_full(std::span<const real> full_values) const;

 private:
  idx nv_;
  int dpv_;
  std::vector<char> constrained_;
  std::vector<real> bc_value_;
  std::vector<idx> free_index_;
  std::vector<idx> free_dofs_;
};

struct AssemblyResult {
  la::Csr stiffness;           ///< free x free tangent
  std::vector<real> f_int;     ///< internal force on free dofs
  /// Dirichlet coupling K_fc * u_c at the assembled tangent (free dofs),
  /// using the DofMap's prescribed values; only filled when the stiffness
  /// is requested. The linearized displacement-driven system is
  /// K_ff u_f = -bc_coupling.
  std::vector<real> bc_coupling;
  idx plastic_gauss_points = 0;
  idx hard_gauss_points = 0;   ///< Gauss points in J2 cells
};

/// A finite element problem: mesh + per-material-id constitutive models +
/// constraints + Gauss-point history. Drives element kernels and owns the
/// committed/trial plastic states. Elasticity only: the constructor
/// rejects a map without 3 dofs per vertex.
class FeProblem {
 public:
  FeProblem(const mesh::Mesh& mesh, std::vector<Material> materials,
            DofMap dofmap, bool bbar = true, bool fbar = false);

  const mesh::Mesh& mesh() const { return *mesh_; }
  const DofMap& dofmap() const { return dofmap_; }
  DofMap& dofmap() { return dofmap_; }
  const std::vector<Material>& materials() const { return materials_; }

  /// Assembles the tangent and/or internal force at the displacement state
  /// `u_full` (full-length, with prescribed values already inserted at
  /// constrained dofs). Updates the *trial* plastic states as a side
  /// effect; call commit() to accept them.
  AssemblyResult assemble(std::span<const real> u_full,
                          bool want_stiffness = true);

  /// Accepts the trial plastic states (end of a converged load step).
  void commit();

  /// Snapshot/restore of the committed Gauss-point history — used by
  /// adaptive load stepping to roll back a failed step.
  std::vector<J2State> snapshot_state() const { return committed_; }
  void restore_state(std::vector<J2State> state);

  /// Fraction of Gauss points in J2 cells whose *committed* state has
  /// yielded (Figure 13 left).
  real plastic_fraction() const;

 private:
  const mesh::Mesh* mesh_;
  std::vector<Material> materials_;
  DofMap dofmap_;
  bool bbar_;
  bool fbar_;
  int gp_per_cell_;
  std::vector<J2State> committed_;
  std::vector<J2State> trial_;
};

/// A linear system K_ff u_f = rhs on the free dofs of a DofMap, for any
/// equation class (fem/scalar.h assembles the scalar ones).
struct LinearSystem {
  la::Csr stiffness;
  std::vector<real> rhs;
};

/// Convenience for the linear studies: assembles the tangent at the
/// *unloaded* state (u = 0 everywhere, so every material is at its elastic
/// reference and the tangent is SPD) and forms the displacement-driven
/// load f = -K_fc * u_c on the free dofs.
LinearSystem assemble_linear_system(FeProblem& problem);

}  // namespace prom::fem
