// The multigrid hierarchy (Prometheus + Epimetheus of Figure 8): applies
// coarsen::coarsen_level recursively to build grids and restriction
// operators, forms the Galerkin coarse operators A_{l+1} = R A_l R^T (§3),
// and equips each level with a smoother and the coarsest with a redundant
// dense factorization.
#pragma once

#include <memory>
#include <vector>

#include "coarsen/coarsen.h"
#include "common/config.h"
#include "fem/assembly.h"
#include "fem/scalar.h"
#include "la/csr.h"
#include "la/dense.h"
#include "la/smoothers.h"
#include "la/sparse_chol.h"
#include "mesh/mesh.h"
#include "mesh/refine.h"

namespace prom::mg {

enum class SmootherKind : std::uint8_t {
  kJacobi,
  kSymGaussSeidel,
  kBlockJacobi,
  kChebyshev,
};

/// Storage format the solve phase applies operators in. kCsr is the
/// scalar baseline (PETSc AIJ); kBsr3 re-blocks every level into dense
/// 3x3 node blocks (PETSc BAIJ, what the paper ran on); kMf applies the
/// finest level matrix-free from batched element data (fem/matrix_free.h)
/// while every coarse level stays assembled Galerkin. All three produce
/// the same residual history to rounding: the blocked SpMV preserves the
/// scalar accumulation order exactly (la/bsr.h), the element apply to
/// reassociation rounding (~1e-12). Only dla::DistHierarchy builds the
/// bsr3 and mf operators (run it on one rank for a serial solve); the
/// serial drivers of mg/solver.h are CSR.
enum class MatrixFormat : std::uint8_t { kCsr, kBsr3, kMf };

/// Reads the PROM_MATRIX environment switch ("csr" | "bsr3" | "mf"; unset
/// or empty means kCsr). Fails fast on an unknown value.
MatrixFormat matrix_format_from_env();

/// Reads PROM_MIN_ROWS_PER_RANK (the coarse-level rank-agglomeration
/// threshold; unset, empty, or 0 disables agglomeration). Fails fast on
/// a negative or non-numeric value.
idx agglom_min_rows_from_env();

/// kDense / kSparseCholesky factor symmetric operators (LDL^T /
/// Cholesky); kDenseLu is the general-matrix option required by the
/// non-symmetric scalar classes (SUPG advection–diffusion), where the
/// Galerkin coarse operators are non-symmetric too.
enum class CoarseSolverKind : std::uint8_t { kDense, kSparseCholesky, kDenseLu };

struct MgOptions {
  int max_levels = 12;
  /// Stop coarsening when a level has at most this many free dofs (it is
  /// then solved directly; its size "remains constant as the problem size
  /// increases and is thus not a hindrance to scalability", §5).
  idx coarsest_max_dofs = 700;
  /// Abort coarsening if the MIS keeps more than this fraction of vertices.
  real min_coarsen_ratio = 0.75;

  coarsen::CoarsenOptions coarsen;

  SmootherKind smoother = SmootherKind::kBlockJacobi;
  real omega = 0.6;               ///< damping for Jacobi/block Jacobi
  idx bj_blocks_per_1000 = 6;     ///< the paper's block density (§7.2)
  int cheby_degree = 3;           ///< polynomial degree for kChebyshev
  int pre_smooth = 1;             ///< paper: one pre-smoothing step
  int post_smooth = 1;            ///< paper: one post-smoothing step

  /// Coarsest-level factorization; sparse Cholesky (with RCM) keeps the
  /// redundant coarse solve cheap when coarsest_max_dofs is raised.
  CoarseSolverKind coarse_solver = CoarseSolverKind::kDense;

  /// Coarse-level rank agglomeration (distributed solves only): a level
  /// whose global row count leaves fewer than this many rows per rank is
  /// repartitioned onto a halved active-rank subset until each active
  /// rank holds at least this many rows (or one rank remains). 0
  /// disables agglomeration — every level keeps every rank, the seed
  /// behavior. Seeded from PROM_MIN_ROWS_PER_RANK.
  idx agglom_min_rows = agglom_min_rows_from_env();
};

struct MgLevel {
  la::Csr a;  ///< operator on this level's free dofs
  /// Restriction from the next-finer level's free dofs to this level's
  /// (empty on level 0). Prolongation is r^T.
  la::Csr r;
  std::unique_ptr<la::Smoother> smoother;        // all but coarsest
  std::unique_ptr<la::DenseLdlt> direct;         // coarsest (dense mode)
  std::unique_ptr<la::DenseLu> direct_lu;        // coarsest (dense LU mode)
  std::unique_ptr<la::SparseCholesky> sparse_direct;  // coarsest (sparse)

  // Grid diagnostics (Figure 7 / DESIGN.md hierarchy stats).
  idx num_vertices = 0;
  std::vector<idx> free_dofs;       ///< vertex-local dof ids (3*v+c), free
  std::vector<idx> selected_from_fine;  ///< fine-level vertex of each vertex
  idx lost_vertices = 0;
  nnz_t graph_edges_removed = 0;

  /// Local smoothing (adaptive refinement levels only): when non-empty,
  /// smoothing on this level updates only these free-dof rows — the dofs
  /// of the region the next refinement round subdivided — leaving the
  /// rest of the level to the coarser grids (arXiv:1904.03317). Empty
  /// means smooth everywhere (every non-refinement level).
  std::vector<idx> smooth_rows;
};

class Hierarchy {
 public:
  /// Builds grids + operators from the fine mesh, its constraints, and the
  /// assembled fine matrix on the free dofs.
  static Hierarchy build(const mesh::Mesh& mesh, const fem::DofMap& dofmap,
                         la::Csr a_fine, const MgOptions& opts = {});

  /// Grids-only build (the "mesh setup" phase alone): coarse grids and
  /// restriction operators, but no Galerkin coarse operators, smoothers,
  /// or coarse factorization — those are the *matrix setup* phase, which
  /// the distributed path (dla::DistHierarchy) performs row-distributed.
  /// The fine matrix is kept (it seeds the distributed chain).
  static Hierarchy build_grids(const mesh::Mesh& mesh,
                               const fem::DofMap& dofmap, la::Csr a_fine,
                               const MgOptions& opts = {});

  /// Scalar (block-size-1) counterpart of build: same MIS coarsening on
  /// the vertex graph, same Galerkin chain, but one dof per vertex —
  /// restriction rows are the bare vertex weights (no Kronecker I_3).
  static Hierarchy build_scalar(const mesh::Mesh& mesh,
                                const fem::ScalarDofMap& dofmap,
                                la::Csr a_fine, const MgOptions& opts = {});

  /// Grids-only scalar build (see build_grids).
  static Hierarchy build_grids_scalar(const mesh::Mesh& mesh,
                                      const fem::ScalarDofMap& dofmap,
                                      la::Csr a_fine,
                                      const MgOptions& opts = {});

  /// Grids for an adaptively refined mesh family (mesh::refine_local):
  /// `meshes[0]` is the unrefined tet mesh, `meshes.back()` the finest;
  /// `rounds[r]` records the bisections taking meshes[r] to meshes[r+1];
  /// `dofmaps[r]` holds meshes[r]'s constraints (finalized). The levels
  /// are the refinement meshes finest-first — prolongation interpolates
  /// midpoints from their bisected-edge endpoints, smoothing on each
  /// refinement level is restricted to the region that round subdivided
  /// (MgLevel::smooth_rows) — followed by the usual MIS/Delaunay chain
  /// below meshes[0]. `a_fine` is the assembled operator on the finest
  /// mesh's free dofs.
  static Hierarchy build_grids_refined(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<const fem::DofMap*>& dofmaps,
      const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
      const MgOptions& opts = {});

  /// Scalar (block-size-1) counterpart of build_grids_refined.
  static Hierarchy build_grids_refined_scalar(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<const fem::ScalarDofMap*>& dofmaps,
      const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
      const MgOptions& opts = {});

  /// build_grids_refined + Galerkin operators/smoothers (serial solves).
  static Hierarchy build_refined(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<const fem::DofMap*>& dofmaps,
      const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
      const MgOptions& opts = {});

  /// build_grids_refined_scalar + operators (serial scalar solves).
  static Hierarchy build_refined_scalar(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<const fem::ScalarDofMap*>& dofmaps,
      const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
      const MgOptions& opts = {});

  /// Builds a hierarchy from an explicit operator/restriction chain
  /// (restrictions[l] maps level l free dofs -> level l+1); used by the
  /// algebraic (smoothed aggregation) coarsening, which produces its own
  /// restriction operators.
  static Hierarchy from_operator_chain(la::Csr a_fine,
                                       std::vector<la::Csr> restrictions,
                                       const MgOptions& opts);

  /// Replaces the fine operator (new Newton tangent) and recomputes the
  /// Galerkin chain, smoothers and coarse factorization on the *same*
  /// grids — the paper's "matrix setup" phase, paid once per Newton step.
  void update_fine_matrix(la::Csr a_fine);

  /// Replaces the fine operator only, leaving serial matrix setup to the
  /// distributed path (Newton with dist_ranks > 0 rebuilds the Galerkin
  /// chain row-distributed from this matrix each iteration).
  void set_fine_matrix(la::Csr a_fine);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const MgLevel& level(int l) const { return levels_[l]; }
  const MgOptions& options() const { return opts_; }

  /// Dofs per vertex of the operators in this hierarchy: 3 for the
  /// elasticity stack, 1 for the scalar equation classes. The distributed
  /// build (dla::DistHierarchy) derives vertex ownership from free dofs
  /// through this.
  int block_size() const { return block_size_; }

  /// One-line-per-level summary (vertices, dofs, nnz) for logs/benches.
  std::string describe() const;

 private:
  static Hierarchy build_grids_any(const mesh::Mesh& mesh, int ncomp,
                                   std::vector<char> dof_free,
                                   std::vector<idx> fine_free, la::Csr a_fine,
                                   const MgOptions& opts);
  static Hierarchy build_grids_refined_any(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<mesh::RefineResult>& rounds,
      std::vector<std::vector<idx>> level_free, int ncomp, la::Csr a_fine,
      const MgOptions& opts);
  void build_operators();

  MgOptions opts_;
  std::vector<MgLevel> levels_;
  int block_size_ = 3;
};

}  // namespace prom::mg
