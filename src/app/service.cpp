#include "app/service.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.h"
#include "dla/dist_vec.h"
#include "obs/trace.h"
#include "partition/rcb.h"
#include "parx/runtime.h"

namespace prom::app {

int rhs_block_from_env() {
  const char* env = std::getenv("PROM_RHS_BLOCK");
  if (env == nullptr || *env == '\0') return 8;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  PROM_CHECK_MSG(end != env && *end == '\0' && v >= 1 &&
                     v <= la::kMaxRhsBlock,
                 "PROM_RHS_BLOCK must be an integer in [1, la::kMaxRhsBlock]");
  return static_cast<int>(v);
}

void SolveService::register_problem(std::string mesh_id,
                                    ModelProblem problem) {
  register_problem(std::move(mesh_id),
                   std::make_shared<const ModelProblem>(std::move(problem)));
}

void SolveService::register_problem(
    std::string mesh_id, std::shared_ptr<const ModelProblem> problem) {
  PROM_CHECK(problem != nullptr);
  problems_[std::move(mesh_id)] = std::move(problem);
}

std::string SolveService::fingerprint(const std::string& mesh_id,
                                      int refine_rounds) const {
  if (refine_rounds < 0) refine_rounds = config_.refine_rounds;
  // Every knob that shapes the grids, the operators, or their
  // distribution. Two requests agreeing on all of these may share a
  // hierarchy; any difference must build a distinct entry. The equation
  // class comes from the registered problem (block size 1 vs 3 changes
  // every level operator); an unregistered id keys as elasticity and
  // fails in build_entry anyway.
  EquationClass eq = EquationClass::kElasticity;
  const auto pit = problems_.find(mesh_id);
  if (pit != problems_.end()) eq = pit->second->equation;
  const mg::MgOptions& mo = config_.mg;
  const coarsen::CoarsenOptions& co = mo.coarsen;
  const coarsen::RestrictionOptions& ro = co.restriction;
  std::ostringstream os;
  // Reals at round-trip precision: options a hair apart key apart.
  os << std::setprecision(std::numeric_limits<real>::max_digits10);
  os << mesh_id << "|eq=" << static_cast<int>(eq) << "|p=" << config_.nranks
     << "|fmt=" << static_cast<int>(config_.format)
     << "|cyc=" << static_cast<int>(config_.cycle)
     << "|L=" << mo.max_levels << "|cmax=" << mo.coarsest_max_dofs
     << "|ratio=" << mo.min_coarsen_ratio
     << "|sm=" << static_cast<int>(mo.smoother) << "|w=" << mo.omega
     << "|bj=" << mo.bj_blocks_per_1000 << "|cheb=" << mo.cheby_degree
     << "|pre=" << mo.pre_smooth << "|post=" << mo.post_smooth
     << "|cs=" << static_cast<int>(mo.coarse_solver)
     << "|agg=" << mo.agglom_min_rows
     << "|mod=" << co.modify_graph << "|rcl=" << co.reclassify_from_level
     << "|ext=" << static_cast<int>(co.exterior_order)
     << "|int=" << static_cast<int>(co.interior_order) << "|seed=" << co.seed
     << "|ftol=" << co.face.tol << "|ieps=" << ro.inside_eps
     << "|hops=" << ro.near_hops << "|lef=" << ro.long_edge_factor
     << "|ref=" << refine_rounds << "|rfrac=" << config_.refine_fraction;
  return os.str();
}

EntryHandle SolveService::acquire(const std::string& mesh_id,
                                  int refine_rounds) {
  if (refine_rounds < 0) refine_rounds = config_.refine_rounds;
  std::string key = fingerprint(mesh_id, refine_rounds);
  // The cache span covers only the lookup: the miss path's phase.* setup
  // spans must stay top-level for the report builder to count them.
  {
    const obs::Span span("service.cache");
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      obs::counter_add("service.cache.hit", 1);
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return *it->second;
    }
    obs::counter_add("service.cache.miss", 1);
    ++misses_;
  }
  EntryHandle entry = build_entry(mesh_id, std::move(key), refine_rounds);
  lru_.push_front(entry);
  cache_.emplace(entry->key, lru_.begin());
  if (static_cast<int>(lru_.size()) > std::max(1, config_.cache_capacity)) {
    // Drop the least recently used entry; callers holding its handle keep
    // a valid setup (shared ownership), the cache just forgets it.
    cache_.erase(lru_.back()->key);
    lru_.pop_back();
  }
  return entry;
}

EntryHandle SolveService::build_entry(const std::string& mesh_id,
                                      std::string key, int refine_rounds) {
  const auto pit = problems_.find(mesh_id);
  PROM_CHECK_MSG(pit != problems_.end(),
                 "SolveService: unknown mesh id (register_problem first)");
  auto entry = std::make_shared<ServiceEntry>();
  entry->key = std::move(key);
  entry->problem = pit->second;
  const ModelProblem& problem = *entry->problem;

  // The matrix-free format is elasticity-only: it is built around the
  // elasticity element kernels, which the scalar classes do not have.
  // Reject the combination here — at entry — instead of letting the
  // scalar path silently fall back to CSR or trip an assert deep in the
  // distributed setup. bsr3 needs no check: a scalar class's 1x1 node
  // blocks are its CSR rows.
  PROM_CHECK_MSG(problem.equation == EquationClass::kElasticity ||
                     config_.format != mg::MatrixFormat::kMf,
                 "SolveService: scalar equation classes (poisson_het, "
                 "advdiff) support only PROM_MATRIX=csr or bsr3; "
                 "PROM_MATRIX=mf is elasticity-only");

  if (refine_rounds > 0) {
    const obs::Span span("phase.refine");
    AdaptiveOptions aopts;
    aopts.rounds = refine_rounds;
    aopts.mark_fraction = config_.refine_fraction;
    aopts.mg = config_.mg;
    aopts.cycle = config_.cycle;
    entry->refined = std::make_unique<AdaptiveLoop>(
        run_adaptive_refinement(problem, aopts));
  }
  const AdaptiveLoop* refined = entry->refined.get();
  // The fine mesh and its constraints: the refined family's finest, or
  // the problem's own.
  const mesh::Mesh& fine_mesh =
      refined != nullptr ? refined->final_mesh() : problem.mesh;
  const fem::DofMap& fine_dofmap =
      refined != nullptr ? refined->final_dofmap() : problem.dofmap;

  {
    const obs::Span span("phase.partition");
    entry->vertex_owner =
        partition::rcb_partition(fine_mesh.coords(), config_.nranks);
    if (refined != nullptr) {
      // How lopsided the refined mesh would be under the *unrefined*
      // partition (midpoints inheriting a parent's rank) vs the fresh
      // RCB cut the entry actually uses.
      const std::vector<idx> base_owner = partition::rcb_partition(
          refined->base.coords(), config_.nranks);
      obs::gauge_set(
          "refine.imbalance.inherited",
          partition_imbalance(inherit_owners(*refined, base_owner),
                              config_.nranks));
      obs::gauge_set("refine.imbalance.rebalanced",
                     partition_imbalance(entry->vertex_owner,
                                         config_.nranks));
    }
  }
  {
    const obs::Span span("phase.fine_grid");
    entry->sys = refined != nullptr
                     ? std::move(entry->refined->sys)
                     : assemble_system(problem, fine_mesh, fine_dofmap);
  }
  entry->unknowns = entry->sys.stiffness.nrows;
  {
    // The grids borrow the fine stiffness for the distributed build and
    // hand it back after it (below): the entry holds it once.
    const obs::Span span("phase.mesh_setup");
    la::Csr a_fine = std::move(entry->sys.stiffness);
    entry->grids =
        refined != nullptr
            ? mg::Hierarchy::build_grids_refined(
                  refined->mesh_ptrs(), refined->dofmap_ptrs(),
                  refined->rounds, std::move(a_fine), config_.mg)
            : mg::Hierarchy::build_grids(fine_mesh, fine_dofmap,
                                         std::move(a_fine), config_.mg);
  }

  entry->per_rank.resize(static_cast<std::size_t>(config_.nranks));
  entry->workspaces.resize(static_cast<std::size_t>(config_.nranks));
  parx::Runtime::run(config_.nranks, [&](parx::Comm& comm) {
    comm.barrier();
    const obs::Span span("phase.matrix_setup");
    const dla::MfProblem mf{&fine_mesh, &problem.materials, &fine_dofmap,
                            /*bbar=*/true};
    entry->per_rank[comm.rank()] = dla::DistHierarchy::build(
        comm, entry->grids, entry->vertex_owner, config_.format,
        config_.format == mg::MatrixFormat::kMf ? &mf : nullptr);
    comm.barrier();
  });
  // Every rank has sliced its rows out of the grids' fine matrix; callers
  // check residuals against `sys.stiffness`, so it goes back there.
  entry->sys.stiffness = entry->grids.take_fine_matrix();
  return entry;
}

namespace {

/// Rejects a right-hand side with a NaN or infinite entry, naming the
/// first such column, before anything is built or any rank launches.
void check_finite_rhs(const la::MultiVec& rhs) {
  for (int j = 0; j < rhs.cols(); ++j) {
    const auto col = rhs.col(j);
    if (!std::all_of(col.begin(), col.end(),
                     [](real v) { return std::isfinite(v); })) {
      throw Error("SolveRequest::rhs column " + std::to_string(j) +
                  " has a non-finite entry");
    }
  }
}

}  // namespace

SolveResponse SolveService::solve(const SolveRequest& req) {
  check_finite_rhs(req.rhs);
  rhs_block_from_env();  // a malformed value fails before a cold build
  const std::int64_t hits_before = hits_;
  const EntryHandle entry = acquire(req.mesh_id, req.refine_rounds);
  SolveResponse resp = solve_with(entry, req);
  resp.cache_hit = hits_ > hits_before;
  return resp;
}

SolveResponse SolveService::solve_with(const EntryHandle& entry,
                                       const SolveRequest& req) const {
  PROM_CHECK(entry != nullptr);
  check_finite_rhs(req.rhs);
  const int kblock = rhs_block_from_env();
  const int p = config_.nranks;

  // The request's right-hand sides, defaulting to the assembled load
  // vector (serial free-dof numbering either way).
  la::MultiVec b;
  if (req.rhs.rows() == 0 && req.rhs.cols() == 0) {
    b.resize(entry->unknowns, 1);
    std::copy(entry->sys.rhs.begin(), entry->sys.rhs.end(),
              b.col(0).begin());
  } else {
    PROM_CHECK_MSG(req.rhs.rows() == entry->unknowns,
                   "SolveRequest::rhs rows must equal the free-dof count");
    b = req.rhs;
  }
  const int ktotal = b.cols();

  SolveResponse resp;
  resp.results.resize(static_cast<std::size_t>(ktotal));
  if (req.return_solutions) resp.solutions.resize(entry->unknowns, ktotal);

  mg::MgSolveOptions so;
  so.rtol = req.rtol;
  so.max_iters = req.max_iters;
  so.cycle = config_.cycle;
  so.track_history = req.track_history;
  so.krylov = default_krylov(entry->problem->equation);

  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const int rank = comm.rank();
    dla::DistHierarchy& dist = entry->per_rank[rank];
    const std::vector<idx>& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(rank);
    const idx nloc = rows.local_size(rank);

    comm.barrier();
    const obs::Span solve_span("phase.solve");
    for (int j0 = 0; j0 < ktotal; j0 += kblock) {
      const int k = std::min(kblock, ktotal - j0);
      const obs::Span batch_span("solve.batch");
      la::MultiVec b_local(nloc, k);
      la::MultiVec x_local(nloc, k);
      for (int j = 0; j < k; ++j) {
        real* bl = b_local.col_data(j);
        const real* bs = b.col_data(j0 + j);
        for (idx i = 0; i < nloc; ++i) bl[i] = bs[perm[b0 + i]];
      }
      std::vector<la::KrylovResult> results;
      if (so.krylov == la::KrylovKind::kPcg) {
        results = dla::dist_mg_pcg_solve_mv(comm, dist, b_local, x_local, so,
                                            &entry->workspaces[rank]);
      } else {
        // Non-symmetric classes: no blocked GMRES/BiCGStab driver, so the
        // chunk's columns solve one at a time (the chunking itself stays,
        // keeping request shapes identical to the SPD path).
        results.resize(static_cast<std::size_t>(k));
        for (int j = 0; j < k; ++j) {
          results[static_cast<std::size_t>(j)] = dla::dist_mg_krylov_solve(
              comm, dist, b_local.col(j), x_local.col(j), so);
        }
      }
      if (req.return_solutions) {
        la::MultiVec x_full;
        dla::dist_gather_all_mv(comm, rows, x_local, x_full);
        if (rank == 0) {
          for (int j = 0; j < k; ++j) {
            real* out = resp.solutions.col_data(j0 + j);
            const real* xf = x_full.col_data(j);
            for (idx g = 0; g < entry->unknowns; ++g) out[perm[g]] = xf[g];
          }
        }
      }
      if (rank == 0) {
        for (int j = 0; j < k; ++j) resp.results[j0 + j] = results[j];
      }
    }
    comm.barrier();
  });
  // One count per unconverged or broken-down column, added here on the
  // calling thread after the ranks joined, so the rank count does not
  // multiply them.
  for (const la::KrylovResult& r : resp.results) {
    obs::counter_add("solve.not_converged", r.converged ? 0 : 1);
    obs::counter_add("solve.breakdown", r.breakdown ? 1 : 0);
  }
  return resp;
}

}  // namespace prom::app
