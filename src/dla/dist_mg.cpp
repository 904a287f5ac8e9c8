#include "dla/dist_mg.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "common/error.h"
#include "common/flops.h"
#include "dla/dist_setup.h"
#include "dla/dist_vec.h"
#include "dla/parx_backend.h"
#include "la/krylov_any.h"
#include "la/vec.h"
#include "mg/cycle_any.h"
#include "obs/trace.h"

namespace prom::dla {
namespace {

/// The active-subset communicator of an agglomerated level: ranks
/// [0, active). Pure-local construction (Comm::split), so building it per
/// coarse solve costs one small allocation and no traffic.
parx::Comm active_subcomm(parx::Comm& comm, int active) {
  std::vector<int> members(static_cast<std::size_t>(active));
  std::iota(members.begin(), members.end(), 0);
  return comm.split(members);
}

/// The first `active` ranks' slice of an agglomerated RowDist (trailing
/// ranks own empty ranges, so truncating the offsets is exact).
RowDist active_rowdist(const RowDist& dist, int active) {
  PROM_CHECK(dist.offsets[static_cast<std::size_t>(active)] ==
             dist.global_size());
  return RowDist{std::vector<idx>(
      dist.offsets.begin(), dist.offsets.begin() + active + 1)};
}

/// Even row split of an agglomerated level over its first `active` ranks,
/// with every split point snapped *up* to the next node boundary so node
/// blocks (DistBsr, block size `bs`) never straddle ranks. Trailing ranks
/// own empty ranges. The node id of new row i is free_dofs[perm[i]] / bs,
/// exactly the grouping DistBsr::build uses; at bs = 1 every row is its
/// own node and the split is exactly even.
RowDist agglom_rowdist(const std::vector<idx>& free_dofs,
                       const std::vector<idx>& perm, int active, int nranks,
                       int bs) {
  const idx n = static_cast<idx>(perm.size());
  const auto node_of = [&](idx i) { return free_dofs[perm[i]] / bs; };
  std::vector<idx> off(static_cast<std::size_t>(nranks) + 1, n);
  off[0] = 0;
  for (int r = 1; r < active; ++r) {
    idx cut = std::max<idx>(
        off[r - 1],
        static_cast<idx>(static_cast<std::int64_t>(n) * r / active));
    while (cut > 0 && cut < n && node_of(cut) == node_of(cut - 1)) ++cut;
    off[static_cast<std::size_t>(r)] = cut;
  }
  return RowDist{std::move(off)};
}

/// The solve's one operator-selection rule (see DistMgLevel): calls `fn`
/// with the level's matrix-free view when built, else its node blocks
/// when built, else its CSR operator.
template <class Fn>
auto with_level_operator(const DistMgLevel& lv, Fn&& fn) {
  if (lv.a_mf != nullptr) return fn(DistMfOperator(*lv.a_mf));
  if (lv.a_bsr != nullptr) return fn(DistBsrOperator(*lv.a_bsr));
  return fn(DistCsrOperator(lv.a));
}

/// Adapts the distributed hierarchy to the k-column cycle templates
/// (mg/cycle_any.h): the one V-cycle / FMG implementation runs on local
/// blocks, and only these level operations communicate. Column j of each
/// operation is bitwise the k = 1 operation on that column.
struct DistCycleView {
  parx::Comm* comm;
  const DistHierarchy* h;

  int num_levels() const { return h->num_levels(); }
  idx local_n(int l) const { return h->level(l).local_n(); }
  int pre_smooth() const { return h->pre_smooth; }
  int post_smooth() const { return h->post_smooth; }
  /// Agglomeration hook for the cycle templates: ranks outside level l's
  /// active set skip the cycle body at and below l (they hold no rows
  /// and no plan roles there; their part is the caller's boundary
  /// restriction/prolongation exchange).
  bool level_inactive(int l) const {
    return comm->rank() >= h->active_ranks(l);
  }
  mg::CycleScratch& scratch(int l) const {
    return h->level(l).cycle_scratch;
  }
  void smooth_mv(int l, const la::MultiVec& b, la::MultiVec& x) const {
    h->level(l).smooth_mv(*comm, b, x);
  }
  void apply_a_mv(int l, const la::MultiVec& x, la::MultiVec& y) const {
    with_level_operator(h->level(l), [&](const DistOperator& op) {
      op.apply_mv(*comm, x, y);
    });
  }
  void restrict_to_mv(int l, const la::MultiVec& xf, la::MultiVec& xc) const {
    h->level(l).r.spmm(*comm, xf, xc);
  }
  void prolong_mv(int l, const la::MultiVec& xc, la::MultiVec& xf) const {
    h->level(l).r.spmm_transpose(*comm, xc, xf);
  }
  void coarse_solve_mv(const la::MultiVec& b, la::MultiVec& x) const {
    const int nl = h->num_levels();
    const DistMgLevel& lv = h->level(nl - 1);
    if (lv.has_coarse_factor()) {
      // Redundant coarse solve (§5 — the coarsest problem is
      // constant-size): one allgatherv carries every column, the
      // factor-solve is local, and each rank keeps its slice. When the
      // coarsest level is agglomerated, only its active ranks reach this
      // point (the cycle skips idle ranks), so the gather collective must
      // run over the active subset alone.
      const int active = h->active_ranks(nl - 1);
      mg::SolveScratch& ws = lv.solve_scratch;
      if (active < comm->size()) {
        parx::Comm sub = active_subcomm(*comm, active);
        dist_gather_all_mv(sub, active_rowdist(lv.a.row_dist(), active), b,
                           ws.b_full);
      } else {
        dist_gather_all_mv(*comm, lv.a.row_dist(), b, ws.b_full);
      }
      ws.x_full.resize(ws.b_full.rows(), b.cols());
      lv.coarse_solve_mv(ws.b_full, ws.x_full, ws.ldlt_work);
      const idx b0 = lv.a.row_dist().begin(comm->rank());
      for (int j = 0; j < b.cols(); ++j) {
        const real* fj = ws.x_full.col_data(j);
        real* xj = x.col_data(j);
        for (idx i = 0; i < lv.local_n(); ++i) xj[i] = fj[b0 + i];
      }
    } else {
      // Single-level hierarchy: a few smoothing steps stand in.
      for (int s = 0; s < 4; ++s) lv.smooth_mv(*comm, b, x);
    }
  }
};

/// The level-0 operator of the outer Krylov solve, by the selection rule.
std::unique_ptr<DistOperator> fine_operator(const DistHierarchy& h) {
  return with_level_operator(
      h.level(0), [](const auto& op) -> std::unique_ptr<DistOperator> {
        return std::make_unique<std::decay_t<decltype(op)>>(op);
      });
}

}  // namespace

void DistMgLevel::smooth_mv(parx::Comm& comm, const la::MultiVec& b_local,
                            la::MultiVec& x_local) const {
  const ParxBackend be{&comm};
  if (a_bsr != nullptr) {
    LevelSolve::smooth_mv(be, DistBsrOperator(*a_bsr), b_local, x_local,
                          solve_scratch);
  } else {
    LevelSolve::smooth_mv(be, DistCsrOperator(a), b_local, x_local,
                          solve_scratch);
  }
}

std::vector<int> agglom_active_ranks(std::span<const idx> level_rows,
                                     int nranks, idx min_rows_per_rank) {
  std::vector<int> active(level_rows.size(), nranks);
  if (min_rows_per_rank <= 0) return active;
  for (std::size_t l = 1; l < level_rows.size(); ++l) {
    int a = active[l - 1];
    while (a > 1 && static_cast<std::int64_t>(level_rows[l]) <
                        static_cast<std::int64_t>(min_rows_per_rank) * a) {
      a = (a + 1) / 2;
    }
    active[l] = a;
  }
  return active;
}

DistHierarchy DistHierarchy::build(parx::Comm& comm,
                                   const mg::Hierarchy& serial,
                                   std::span<const idx> fine_vertex_owner,
                                   mg::MatrixFormat format,
                                   const MfProblem* mf) {
  PROM_CHECK_MSG(format != mg::MatrixFormat::kMf || mf != nullptr,
                 "MatrixFormat::kMf requires an MfProblem");
  const int bs = serial.block_size();
  PROM_CHECK_MSG(bs == 3 || format != mg::MatrixFormat::kMf,
                 "mf requires block size 3");
  const int nl = serial.num_levels();
  const int p = comm.size();
  const int rank = comm.rank();
  const mg::MgOptions& mo = serial.options();
  DistHierarchy h;
  h.pre_smooth = mo.pre_smooth;
  h.post_smooth = mo.post_smooth;
  h.levels_.resize(static_cast<std::size_t>(nl));
  h.perms_.resize(static_cast<std::size_t>(nl));

  // Propagate dof ownership down the hierarchy via the MIS parent chain.
  // vertex_owner[l][v] = rank of vertex v at level l.
  std::vector<std::vector<idx>> vertex_owner(static_cast<std::size_t>(nl));
  vertex_owner[0].assign(fine_vertex_owner.begin(), fine_vertex_owner.end());
  for (int l = 1; l < nl; ++l) {
    const auto& sel = serial.level(l).selected_from_fine;
    vertex_owner[l].resize(sel.size());
    for (std::size_t c = 0; c < sel.size(); ++c) {
      vertex_owner[l][c] = vertex_owner[l - 1][sel[c]];
    }
  }

  std::vector<RowDist> dists(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) {
    const mg::MgLevel& lv = serial.level(l);
    const idx n = static_cast<idx>(lv.free_dofs.size());
    // Owner of free dof i = owner of its vertex; stable-sort dofs by owner.
    std::vector<idx> owner(static_cast<std::size_t>(n));
    for (idx i = 0; i < n; ++i) {
      owner[i] = vertex_owner[l][lv.free_dofs[i] / bs];
    }
    std::vector<idx>& perm = h.perms_[l];
    perm.resize(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), idx{0});
    std::stable_sort(perm.begin(), perm.end(),
                     [&](idx x, idx y) { return owner[x] < owner[y]; });
    std::vector<idx> sorted_owner(static_cast<std::size_t>(n));
    for (idx i = 0; i < n; ++i) sorted_owner[i] = owner[perm[i]];
    dists[l] = RowDist::from_sorted_owners(sorted_owner, p);
  }

  // Coarse-level agglomeration (MgOptions::agglom_min_rows): evaluate the
  // active-rank policy against the natural (vertex-ownership) level sizes,
  // then give every agglomerated level a final distribution that packs its
  // rows onto ranks [0, active) in even node-aligned slices. The natural
  // distributions stay in `dists` — the Galerkin chain runs on them so the
  // coarse operators (and galerkin_flops) are independent of the policy.
  std::vector<idx> level_rows(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) level_rows[l] = dists[l].global_size();
  h.active_ = agglom_active_ranks(level_rows, p, mo.agglom_min_rows);
  std::vector<RowDist> final_dists = dists;
  for (int l = 1; l < nl; ++l) {
    if (h.active_[l] < p) {
      final_dists[l] = agglom_rowdist(serial.level(l).free_dofs, h.perms_[l],
                                      h.active_[l], p, bs);
    }
  }

  // Operators: the fine matrix and the restrictions are sliced from the
  // serial inputs (each rank extracts its rows only); every coarse
  // operator is the distributed Galerkin product of the previous one —
  // always on the natural distributions. An agglomerated level then ships
  // its operator to the active subset (dist_redistribute) and rebuilds its
  // restriction on the final layouts from the replicated serial R; the
  // natural operator is kept aside as the next Galerkin input.
  DistCsr nat_hold;
  const DistCsr* nat_prev = nullptr;
  for (int l = 0; l < nl; ++l) {
    const obs::Span span("setup.level", l);
    DistMgLevel& dl = h.levels_[l];
    if (l == 0) {
      dl.a = DistCsr::from_global_permuted(comm, serial.level(0).a, dists[0],
                                           dists[0], h.perms_[0],
                                           h.perms_[0]);
      nat_prev = &dl.a;
    } else {
      DistCsr r_nat = DistCsr::from_global_permuted(
          comm, serial.level(l).r, dists[l], dists[l - 1], h.perms_[l],
          h.perms_[l - 1]);
      const FlopWindow window;
      DistCsr a_nat = dist_galerkin_product(comm, r_nat, *nat_prev,
                                            h.perms_[l - 1]);
      h.galerkin_flops_ += window.flops();
      if (h.active_[l] < p) {
        {
          const obs::Span rspan("agglom.redistribute", l);
          dl.a = dist_redistribute(comm, a_nat, final_dists[l],
                                   final_dists[l]);
        }
        dl.r = DistCsr::from_global_permuted(
            comm, serial.level(l).r, final_dists[l], final_dists[l - 1],
            h.perms_[l], h.perms_[l - 1]);
        nat_hold = std::move(a_nat);
        nat_prev = &nat_hold;
      } else {
        dl.a = std::move(a_nat);
        dl.r = std::move(r_nat);
        nat_prev = &dl.a;
      }
    }
    if (format == mg::MatrixFormat::kBsr3 && bs == 3 &&
        (l + 1 < nl || nl == 1)) {
      // Node-block view for the solve phase; the setup above stays CSR so
      // both formats see bit-identical operators. At block size 1 the
      // node blocks are the CSR rows, so `a` serves as they would. The
      // coarsest level of a multi-level hierarchy never applies them: its
      // direct solve reads the gathered CSR operator.
      dl.a_bsr = std::make_unique<DistBsr>(DistBsr::build(
          comm, dl.a, h.perms_[l], serial.level(l).free_dofs));
    }
    if (format == mg::MatrixFormat::kMf && l == 0) {
      // Matrix-free fine-level view over dl.a's layout and exchange plan;
      // coarse levels stay assembled (Galerkin products need entries).
      dl.a_mf = std::make_unique<DistMf>(
          DistMf::build(comm, *mf, dl.a, h.perms_[0]));
    }
    // Level-resolved size metrics: the gauge is identical on every rank
    // (last-write merge keeps one copy); local nnz counters sum-merge
    // across ranks into the global operator nnz.
    obs::gauge_set("mg.rows", static_cast<double>(dists[l].global_size()), l);
    obs::gauge_set("mg.active_ranks", static_cast<double>(h.active_[l]), l);
    obs::counter_add("mg.nnz",
                     static_cast<double>(dl.a.local_matrix().vals.size()), l);
  }

  // Smoothers / coarse factorization (mg/level_solve.h).
  for (int l = 0; l < nl; ++l) {
    DistMgLevel& dl = h.levels_[l];
    if (l + 1 == nl && nl > 1) {
      // The coarsest operator has constant size (§5): gather it and
      // factor redundantly on every rank.
      const obs::Span span("setup.coarse_factor", l);
      dl.factor_coarse(dist_gather_matrix(comm, dl.a), mo.coarse_solver);
      continue;
    }
    const obs::Span span("setup.smoother", l);
    dl.build_smoother(ParxBackend{&comm}, DistCsrOperator(dl.a),
                      dl.a.local_matrix(), dl.a.row_dist().begin(rank), mo);
    // Local-smoothing mask (adaptive refinement levels): this rank's
    // slice of the serial MgLevel::smooth_rows, in local row numbering.
    // The masked flag is a property of the serial level, so it is
    // identical on every rank and the collective sweep schedule agrees.
    const mg::MgLevel& sl = serial.level(l);
    if (!sl.smooth_rows.empty()) {
      dl.smooth_masked = true;
      std::vector<char> in_mask(sl.free_dofs.size(), 0);
      for (idx i : sl.smooth_rows) in_mask[i] = 1;
      const RowDist& rd = dl.a.row_dist();
      const idx b0 = rd.begin(rank);
      const idx nloc = rd.local_size(rank);
      for (idx i = 0; i < nloc; ++i) {
        if (in_mask[h.perms_[l][b0 + i]]) dl.smooth_rows_local.push_back(i);
      }
    }
  }
  return h;
}

void dist_vcycle(parx::Comm& comm, const DistHierarchy& h, int level,
                 const la::MultiVec& b_local, la::MultiVec& x_local) {
  mg::vcycle_any_mv(DistCycleView{&comm, &h}, level, b_local, x_local);
}

la::MultiVec dist_fmg_cycle(parx::Comm& comm, const DistHierarchy& h,
                            const la::MultiVec& b_local) {
  la::MultiVec x(b_local.rows(), b_local.cols());
  mg::fmg_any_mv(DistCycleView{&comm, &h}, b_local, x);
  return x;
}

void DistMgPreconditioner::apply_mv(parx::Comm& comm,
                                    const la::MultiVec& x_local,
                                    la::MultiVec& y_local) const {
  mg::apply_cycle_mv(DistCycleView{&comm, h_}, kind_, x_local, y_local);
}

std::vector<la::KrylovResult> dist_mg_pcg_solve_mv(
    parx::Comm& comm, const DistHierarchy& h, const la::MultiVec& b_local,
    la::MultiVec& x_local, const mg::MgSolveOptions& opts,
    la::KrylovWorkspace* ws) {
  const DistMgPreconditioner precond(h, opts.cycle);
  return dist_pcg_multi(comm, *fine_operator(h), &precond,
                        b_local, x_local, mg::to_krylov_options(opts), ws);
}

la::KrylovResult dist_mg_krylov_solve(parx::Comm& comm,
                                      const DistHierarchy& h,
                                      std::span<const real> b_local,
                                      std::span<real> x_local,
                                      const mg::MgSolveOptions& opts) {
  if (opts.krylov == la::KrylovKind::kPcg) {
    // A one-column block; x_local holds the initial guess on entry.
    const idx n = static_cast<idx>(b_local.size());
    la::MultiVec b(n, 1), x(n, 1);
    std::copy(b_local.begin(), b_local.end(), b.col_data(0));
    std::copy(x_local.begin(), x_local.end(), x.col_data(0));
    const la::KrylovResult res = dist_mg_pcg_solve_mv(comm, h, b, x, opts)[0];
    std::copy(x.col(0).begin(), x.col(0).end(), x_local.begin());
    return res;
  }
  const DistMgPreconditioner precond(h, opts.cycle);
  const std::unique_ptr<DistOperator> a = fine_operator(h);
  if (opts.krylov == la::KrylovKind::kGmres) {
    return dist_gmres(comm, *a, &precond, b_local, x_local,
                      mg::to_gmres_options(opts));
  }
  return dist_bicgstab(comm, *a, &precond, b_local, x_local,
                       mg::to_krylov_options(opts));
}

}  // namespace prom::dla
