// Distributed multigrid: mirrors a serial mg::Hierarchy's *grids* across
// virtual ranks and performs the matrix setup distributed. Dofs at every
// level are assigned to the rank owning the vertex they derive from (the
// MIS chain makes coarse vertices fine vertices, so ownership is
// inherited, exactly as in the paper's Prometheus); each level's operator
// is the Galerkin triple product R A R^T computed on row-distributed
// matrices (dla/dist_setup.h), smoothing is the backend-generic driver of
// the configured kind (processor-block Jacobi by default), and the
// constant-size coarsest problem is gathered and solved redundantly on
// every rank (§5). Per-rank setup work scales with local rows: no rank
// constructs a global-size operator at any level but the coarsest.
//
// The cycles, PCG and the level smoother and coarse factor are the
// backend-generic k-column implementations (mg/cycle_any.h,
// la/krylov_any.h, mg/level_solve.h) instantiated with ParxBackend — the
// serial mg::Hierarchy runs the same ones with SerialBackend. This file
// adds only the MultiCycleView adapter and the distributed level data.
// Every solve path here is k-column; a single right-hand side is a
// one-column block.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dla/dist_bsr.h"
#include "dla/dist_csr.h"
#include "dla/dist_krylov.h"
#include "dla/dist_mf.h"
#include "mg/cycle_any.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"

namespace prom::dla {

/// Per-level active-rank counts for coarse-level agglomeration: level 0
/// always keeps all `nranks`; below it, while a level's global row count
/// leaves fewer than `min_rows_per_rank` rows per active rank, the count
/// is halved (rounding up) down to 1 — the degenerate case where a level
/// lives entirely on rank 0 and the existing coarsest gather is trivial.
/// The active set of level l is always ranks [0, result[l]), and the
/// sequence is monotone non-increasing. `min_rows_per_rank <= 0` disables
/// agglomeration (every level keeps every rank).
std::vector<int> agglom_active_ranks(std::span<const idx> level_rows,
                                     int nranks, idx min_rows_per_rank);

/// One level of the distributed hierarchy. The solve applies the level
/// operator through one rule, whatever format the solve options name:
/// `a_mf` when built, else `a_bsr` when built, else `a`. Smoothing uses
/// `a_bsr` when built, else `a` (an mf level smooths on CSR). A level
/// keeps only what a solve reads: the operators, the restriction, and its
/// LevelSolve base — the smoother data over the local rows, built from the
/// owned-rows x owned-columns block of `a` (which dies with the build), or
/// on the coarsest level the redundant factor of the gathered operator.
struct DistMgLevel : mg::LevelSolve {
  DistCsr a;   ///< level operator (square, row/col dist identical)
  DistCsr r;   ///< restriction from the finer level (empty on level 0)
  /// Node-block (BAIJ) view of `a`, built when the hierarchy is
  /// constructed with mg::MatrixFormat::kBsr3 for a problem with 3 dofs
  /// per node; the solve phase (SpMM inside smoothers, cycles, and PCG)
  /// then ships whole node blocks in the ghost exchange. Null in the CSR
  /// configuration, for a scalar class under kBsr3 (its 1x1 node blocks
  /// are the CSR rows of `a`), and on the coarsest level of a multi-level
  /// hierarchy, whose direct solve reads the gathered CSR operator. The
  /// matrix *setup* (Galerkin chain) stays CSR either way, so both formats
  /// see bit-identical operators.
  std::unique_ptr<DistBsr> a_bsr;
  /// Matrix-free element view of `a`, built when the hierarchy is
  /// constructed with mg::MatrixFormat::kMf and an MfProblem; level 0
  /// only (coarse levels have no elements). It borrows `a`'s layout and
  /// exchange plan, so the assembled fine matrix stays resident for the
  /// Galerkin products and the smoother diagonals.
  std::unique_ptr<DistMf> a_mf;

  /// The cycle temporaries of this level (mg::CycleScratch), kept across
  /// cycles so a repeat solve allocates none; they live as long as the
  /// hierarchy. Like the operators' exchange staging, they make one
  /// DistMgLevel usable by one solve at a time.
  mutable mg::CycleScratch cycle_scratch;
  /// The smoothing and coarse-solve temporaries of this level, kept the
  /// same way.
  mutable mg::SolveScratch solve_scratch;

  idx local_n() const { return a.local_rows(); }

  /// One smoothing step of the configured kind on k columns
  /// (LevelSolve::smooth_mv on the parx backend): one exchange per
  /// operator application serves all of them, and column j is bitwise the
  /// k = 1 step on that column. Collective.
  void smooth_mv(parx::Comm& comm, const la::MultiVec& b_local,
                 la::MultiVec& x_local) const;
};

class DistHierarchy {
 public:
  /// Builds the distributed hierarchy from `serial`'s grids and fine
  /// matrix. `serial` needs grids + restrictions + the level-0 operator
  /// only (mg::Hierarchy::build_grids suffices; a fully built hierarchy
  /// also works — its serial coarse operators are simply ignored).
  /// `fine_vertex_owner` maps each fine-mesh vertex to a rank; level-l dof
  /// ownership follows the MIS parent chain. Collective; deterministic and
  /// identical on all ranks. The permutations applied per level are
  /// retained so solutions can be mapped back to the serial ordering.
  /// `format` picks the solve-phase views built next to the CSR
  /// operators: kBsr3 adds node blocks on every level but the coarsest
  /// when the problem has 3 dofs per node, kMf a matrix-free level 0
  /// (block size 3 only).
  /// `mf` supplies the fine-level element data when `format` is
  /// mg::MatrixFormat::kMf (required then, ignored otherwise). The solve
  /// applies whatever the hierarchy holds (see DistMgLevel).
  static DistHierarchy build(parx::Comm& comm, const mg::Hierarchy& serial,
                             std::span<const idx> fine_vertex_owner,
                             mg::MatrixFormat format = mg::MatrixFormat::kCsr,
                             const MfProblem* mf = nullptr);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const DistMgLevel& level(int l) const { return levels_[l]; }

  /// perm[l][new_index] = serial free-dof index at level l.
  const std::vector<idx>& permutation(int l) const { return perms_[l]; }

  /// Size of level l's active-rank set (always ranks [0, active_ranks(l))
  /// of the build communicator). Equals the communicator size on every
  /// level when agglomeration is off (MgOptions::agglom_min_rows == 0).
  /// Ranks outside the set own no rows at the level, appear in none of
  /// its exchange plans, and skip the cycle's subtree below it — their
  /// only contact is the restriction/prolongation exchange at the level
  /// boundary.
  int active_ranks(int l) const { return active_[l]; }

  /// Flops this rank spent in the distributed Galerkin triple products
  /// (the matrix-setup scaling quantity: shrinks as ranks grow).
  std::int64_t galerkin_flops() const { return galerkin_flops_; }

  int pre_smooth = 1;
  int post_smooth = 1;

 private:
  std::vector<DistMgLevel> levels_;
  std::vector<std::vector<idx>> perms_;
  std::vector<int> active_;  ///< active-rank count per level
  std::int64_t galerkin_flops_ = 0;
};

/// One distributed V-cycle at `level` on k columns, improving x_local in
/// place (collective).
void dist_vcycle(parx::Comm& comm, const DistHierarchy& h, int level,
                 const la::MultiVec& b_local, la::MultiVec& x_local);

/// One distributed full-multigrid cycle from zero on k columns
/// (collective).
la::MultiVec dist_fmg_cycle(parx::Comm& comm, const DistHierarchy& h,
                            const la::MultiVec& b_local);

/// The distributed FMG/V-cycle preconditioner.
class DistMgPreconditioner final : public DistOperator {
 public:
  DistMgPreconditioner(const DistHierarchy& h, mg::CycleKind kind)
      : h_(&h), kind_(kind) {}
  idx local_n() const override { return h_->level(0).local_n(); }
  void apply_mv(parx::Comm& comm, const la::MultiVec& x_local,
                la::MultiVec& y_local) const override;

 private:
  const DistHierarchy* h_;
  mg::CycleKind kind_;
};

/// Distributed MG-preconditioned CG for k right-hand sides: every ghost
/// exchange ships one message per peer carrying all k columns, and column
/// j of the result is bitwise the k = 1 solve of that column alone (at any
/// rank count and kernel-thread count). `ws` (optional, per rank) reuses
/// the PCG work vectors across solves. Collective.
std::vector<la::KrylovResult> dist_mg_pcg_solve_mv(
    parx::Comm& comm, const DistHierarchy& h, const la::MultiVec& b_local,
    la::MultiVec& x_local, const mg::MgSolveOptions& opts = {},
    la::KrylovWorkspace* ws = nullptr);

/// Distributed MG-preconditioned solve of one right-hand side with the
/// Krylov driver selected by `opts.krylov`: PCG (dist_mg_pcg_solve_mv on a
/// one-column block), or GMRES(m) / BiCGStab for non-symmetric operators,
/// right-preconditioned with the same cycle. Collective; every rank
/// receives the same KrylovResult.
la::KrylovResult dist_mg_krylov_solve(parx::Comm& comm,
                                      const DistHierarchy& h,
                                      std::span<const real> b_local,
                                      std::span<real> x_local,
                                      const mg::MgSolveOptions& opts = {});

}  // namespace prom::dla
