#include "mg/hierarchy.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "la/operator.h"
#include "obs/trace.h"

namespace prom::mg {

Hierarchy Hierarchy::build(const mesh::Mesh& mesh, const fem::DofMap& dofmap,
                           la::Csr a_fine, const MgOptions& opts) {
  Hierarchy h = build_grids(mesh, dofmap, std::move(a_fine), opts);
  h.build_operators();
  return h;
}

Hierarchy Hierarchy::build_grids(const mesh::Mesh& mesh,
                                 const fem::DofMap& dofmap, la::Csr a_fine,
                                 const MgOptions& opts) {
  PROM_CHECK(a_fine.nrows == dofmap.num_free() &&
             a_fine.ncols == dofmap.num_free());
  return mis_grids(mesh, dofmap, std::move(a_fine), opts);
}

Hierarchy Hierarchy::mis_grids(const mesh::Mesh& mesh,
                               const fem::DofMap& dofmap, la::Csr a_fine,
                               const MgOptions& opts) {
  PROM_CHECK(dofmap.num_vertices() == mesh.num_vertices());
  const int ncomp = dofmap.dofs_per_vertex();
  std::vector<char> dof_free(static_cast<std::size_t>(dofmap.num_dofs()));
  for (idx d = 0; d < dofmap.num_dofs(); ++d) {
    dof_free[d] = dofmap.is_constrained(d) ? 0 : 1;
  }
  Hierarchy h;
  h.opts_ = opts;
  h.block_size_ = ncomp;

  // Level 0: the application-provided grid.
  MgLevel fine;
  fine.a = std::move(a_fine);
  fine.num_vertices = mesh.num_vertices();
  fine.free_dofs = dofmap.free_dofs();
  h.levels_.push_back(std::move(fine));

  // Geometry of the level currently being coarsened. The coarsening is
  // purely vertex-based — identical grids for any block size; only the
  // dof expansion of the restriction differs.
  // Spans: the vertex graph and classification carry the level of the
  // grid they describe, the rest of a coarsening round its fine level.
  std::vector<Vec3> coords = mesh.coords();
  graph::Graph vgraph;
  {
    const obs::Span span("grids.vertex_graph", 0);
    vgraph = mesh.vertex_graph();
  }
  coarsen::Classification cls;
  {
    const obs::Span span("grids.classify", 0);
    cls = coarsen::classify_mesh(mesh, opts.coarsen.face);
  }

  for (int l = 0; l + 1 < opts.max_levels; ++l) {
    const idx n_free = static_cast<idx>(h.levels_.back().free_dofs.size());
    if (n_free <= opts.coarsest_max_dofs) break;

    coarsen::CoarsenLevelResult cl =
        coarsen::coarsen_level(coords, vgraph, cls, l, opts.coarsen);
    const idx n_coarse = static_cast<idx>(cl.selected.size());
    if (n_coarse < 8 ||
        n_coarse >= static_cast<idx>(opts.min_coarsen_ratio *
                                     static_cast<real>(coords.size()))) {
      PROM_WARN("coarsening stalled at level "
                << l << " (" << coords.size() << " -> " << n_coarse
                << " vertices); stopping hierarchy here");
      break;
    }

    // Coarse constraint flags + free dof lists for the dof expansion.
    MgLevel next;
    std::vector<char> coarse_dof_free(static_cast<std::size_t>(ncomp) *
                                      n_coarse);
    {
      const obs::Span span("grids.dof_expansion", l);
      for (idx c = 0; c < n_coarse; ++c) {
        for (int comp = 0; comp < ncomp; ++comp) {
          const char f = dof_free[ncomp * cl.selected[c] + comp];
          coarse_dof_free[ncomp * c + comp] = f;
          if (f) next.free_dofs.push_back(ncomp * c + comp);
        }
      }
      next.r = coarsen::expand_restriction_to_dofs(
          cl.r_vertex, h.levels_.back().free_dofs, next.free_dofs, ncomp);
    }
    next.num_vertices = n_coarse;
    next.selected_from_fine = cl.selected;
    next.lost_vertices = static_cast<idx>(cl.lost.size());
    next.graph_edges_removed = cl.graph_stats.edges_removed;
    h.levels_.push_back(std::move(next));

    // Advance the geometry to the new level.
    std::vector<Vec3> coarse_coords(static_cast<std::size_t>(n_coarse));
    for (idx c = 0; c < n_coarse; ++c) {
      coarse_coords[c] = coords[cl.selected[c]];
    }
    coords = std::move(coarse_coords);
    {
      const obs::Span span("grids.vertex_graph", l + 1);
      vgraph = cl.coarse_mesh.vertex_graph();
    }
    cls = std::move(cl.coarse_cls);
    dof_free = std::move(coarse_dof_free);
  }

  return h;
}

namespace {

/// Vertex-weight restriction for one bisection round: n_coarse x n_fine,
/// column f holding fine vertex f's interpolation weights on the coarse
/// (pre-round) vertices. Surviving vertices inject; midpoints take half
/// of each bisected-edge endpoint, composed through same-round midpoints
/// in increasing id order (parents always have smaller ids).
la::Csr refinement_restriction(const mesh::RefineResult& round,
                               idx n_fine) {
  const idx n_coarse = round.num_parent_vertices;
  PROM_CHECK(n_fine ==
             n_coarse + static_cast<idx>(round.vertex_parents.size()));
  // weights[f]: sorted (coarse vertex, weight) pairs for fine vertex f.
  std::vector<std::vector<std::pair<idx, real>>> weights(
      static_cast<std::size_t>(n_fine));
  for (idx f = 0; f < n_coarse; ++f) weights[f] = {{f, 1}};
  for (idx m = n_coarse; m < n_fine; ++m) {
    const auto& par = round.vertex_parents[m - n_coarse];
    std::vector<std::pair<idx, real>> w;
    for (idx p : {par[0], par[1]}) {
      PROM_CHECK(p < m);
      for (const auto& [cv, cw] : weights[p]) w.emplace_back(cv, cw / 2);
    }
    std::sort(w.begin(), w.end());
    std::vector<std::pair<idx, real>> merged;
    for (const auto& [cv, cw] : w) {
      if (!merged.empty() && merged.back().first == cv) {
        merged.back().second += cw;
      } else {
        merged.emplace_back(cv, cw);
      }
    }
    weights[m] = std::move(merged);
  }
  // Transpose the per-column weights into CSR rows (coarse vertices).
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(n_coarse) + 1, 0);
  for (idx f = 0; f < n_fine; ++f) {
    for (const auto& [cv, cw] : weights[f]) rowptr[cv + 1]++;
  }
  for (idx i = 0; i < n_coarse; ++i) rowptr[i + 1] += rowptr[i];
  la::Csr r;
  r.nrows = n_coarse;
  r.ncols = n_fine;
  r.rowptr = rowptr;
  r.colidx.resize(static_cast<std::size_t>(rowptr[n_coarse]));
  r.vals.resize(static_cast<std::size_t>(rowptr[n_coarse]));
  std::vector<nnz_t> cursor(rowptr.begin(), rowptr.end() - 1);
  for (idx f = 0; f < n_fine; ++f) {
    for (const auto& [cv, cw] : weights[f]) {
      const nnz_t k = cursor[cv]++;
      r.colidx[k] = f;
      r.vals[k] = cw;
    }
  }
  return r;
}

/// Free-dof rows (level-local) of the vertices touching the cells that
/// `round` subdivided — the local-smoothing region of that level.
std::vector<idx> refined_region_rows(const mesh::Mesh& mesh,
                                     const mesh::RefineResult& round,
                                     std::span<const idx> free,
                                     int ncomp) {
  std::vector<char> in_region(static_cast<std::size_t>(mesh.num_vertices()),
                              0);
  for (idx e = 0; e < mesh.num_cells(); ++e) {
    if (!round.cell_changed[e]) continue;
    for (idx v : mesh.cell(e)) in_region[v] = 1;
  }
  std::vector<idx> rows;
  for (idx i = 0; i < static_cast<idx>(free.size()); ++i) {
    if (in_region[free[i] / ncomp]) rows.push_back(i);
  }
  return rows;
}

}  // namespace

Hierarchy Hierarchy::build_refined(
    const std::vector<const mesh::Mesh*>& meshes,
    const std::vector<const fem::DofMap*>& dofmaps,
    const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
    const MgOptions& opts) {
  Hierarchy h = build_grids_refined(meshes, dofmaps, rounds,
                                    std::move(a_fine), opts);
  h.build_operators();
  return h;
}

Hierarchy Hierarchy::build_grids_refined(
    const std::vector<const mesh::Mesh*>& meshes,
    const std::vector<const fem::DofMap*>& dofmaps,
    const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
    const MgOptions& opts) {
  const int R = static_cast<int>(rounds.size());
  PROM_CHECK(static_cast<int>(meshes.size()) == R + 1);
  PROM_CHECK(static_cast<int>(dofmaps.size()) == R + 1);
  PROM_CHECK(R >= 1);
  const int ncomp = dofmaps[0]->dofs_per_vertex();
  for (int r = 0; r <= R; ++r) {
    PROM_CHECK_MSG(meshes[r]->kind() == mesh::CellKind::kTet4,
                   "build_refined: refinement levels must be TET4 meshes");
    PROM_CHECK(dofmaps[r]->num_vertices() == meshes[r]->num_vertices());
    PROM_CHECK_MSG(dofmaps[r]->dofs_per_vertex() == ncomp,
                   "build_refined: the dof maps of a refined family must "
                   "all carry the same dofs per vertex");
  }
  PROM_CHECK(a_fine.nrows == dofmaps[R]->num_free());

  Hierarchy h;
  h.opts_ = opts;
  h.block_size_ = ncomp;

  // Level 0: the finest refined mesh. Full smoothing — everything below
  // defers its unrefined region here or to the MIS chain.
  MgLevel fine;
  fine.a = std::move(a_fine);
  fine.num_vertices = meshes[R]->num_vertices();
  fine.free_dofs = dofmaps[R]->free_dofs();
  h.levels_.push_back(std::move(fine));

  // Refinement levels, finest first: level R - r is meshes[r].
  for (int r = R - 1; r >= 0; --r) {
    const obs::Span span("setup.refine_level", R - r);
    const idx n_coarse = meshes[r]->num_vertices();
    la::Csr r_vertex =
        refinement_restriction(rounds[r], meshes[r + 1]->num_vertices());
    MgLevel next;
    next.free_dofs = dofmaps[r]->free_dofs();
    next.r = coarsen::expand_restriction_to_dofs(
        r_vertex, h.levels_.back().free_dofs, next.free_dofs, ncomp);
    next.num_vertices = n_coarse;
    // Ownership chain for the distributed build: every coarse vertex IS
    // fine vertex with the same id (bisection only appends midpoints).
    next.selected_from_fine.resize(static_cast<std::size_t>(n_coarse));
    for (idx v = 0; v < n_coarse; ++v) next.selected_from_fine[v] = v;
    next.smooth_rows =
        refined_region_rows(*meshes[r], rounds[r], next.free_dofs, ncomp);
    h.levels_.push_back(std::move(next));
  }

  // MIS/Delaunay chain below the unrefined mesh: reuse the standard grid
  // build on meshes[0] and splice its coarse levels in (its level 0
  // duplicates the refinement-coarsest level above and is dropped).
  Hierarchy mis = mis_grids(*meshes[0], *dofmaps[0], la::Csr{}, opts);
  for (std::size_t l = 1; l < mis.levels_.size(); ++l) {
    h.levels_.push_back(std::move(mis.levels_[l]));
  }
  return h;
}

Hierarchy Hierarchy::from_operator_chain(la::Csr a_fine,
                                         std::vector<la::Csr> restrictions,
                                         const MgOptions& opts) {
  Hierarchy h;
  h.opts_ = opts;
  MgLevel fine;
  fine.num_vertices = a_fine.nrows;
  fine.free_dofs.resize(static_cast<std::size_t>(a_fine.nrows));
  for (idx i = 0; i < a_fine.nrows; ++i) fine.free_dofs[i] = i;
  fine.a = std::move(a_fine);
  h.levels_.push_back(std::move(fine));
  for (la::Csr& r : restrictions) {
    PROM_CHECK(r.ncols ==
               static_cast<idx>(h.levels_.back().free_dofs.size()));
    MgLevel next;
    next.num_vertices = r.nrows;
    next.free_dofs.resize(static_cast<std::size_t>(r.nrows));
    for (idx i = 0; i < r.nrows; ++i) next.free_dofs[i] = i;
    next.r = std::move(r);
    h.levels_.push_back(std::move(next));
  }
  h.build_operators();
  return h;
}

void Hierarchy::update_fine_matrix(la::Csr a_fine) {
  PROM_CHECK(!levels_.empty());
  PROM_CHECK(a_fine.nrows == levels_[0].a.nrows);
  levels_[0].a = std::move(a_fine);
  build_operators();
}

void Hierarchy::set_fine_matrix(la::Csr a_fine) {
  PROM_CHECK(!levels_.empty());
  PROM_CHECK(a_fine.nrows == levels_[0].a.nrows);
  levels_[0].a = std::move(a_fine);
}

la::Csr Hierarchy::take_fine_matrix() {
  PROM_CHECK(!levels_.empty());
  return std::exchange(levels_[0].a, la::Csr{});
}

void Hierarchy::build_operators() {
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    const obs::Span span("setup.galerkin", static_cast<int>(l));
    levels_[l].a = la::galerkin_product(levels_[l].r, levels_[l - 1].a);
  }
  // Level-resolved size metrics (the serial mirror of the distributed
  // build's records; the serial hierarchy holds the whole operator).
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const int li = static_cast<int>(l);
    obs::gauge_set("mg.rows", static_cast<double>(levels_[l].a.nrows), li);
    obs::counter_add("mg.nnz", static_cast<double>(levels_[l].a.nnz()), li);
  }
  // The level solve data (mg/level_solve.h), built as the distributed
  // hierarchy builds it: the serial level's owned-rows block is its whole
  // operator, starting at global row 0.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    MgLevel& lv = levels_[l];
    static_cast<LevelSolve&>(lv) = LevelSolve{};
    if (l + 1 == levels_.size() && levels_.size() > 1) {
      lv.factor_coarse(lv.a, opts_.coarse_solver);
      continue;
    }
    lv.build_smoother(la::SerialBackend{}, la::CsrOperator(lv.a), lv.a, 0,
                      opts_);
    lv.smooth_masked = !lv.smooth_rows.empty();
    lv.smooth_rows_local = lv.smooth_rows;
  }
}

MatrixFormat matrix_format_from_env() {
  const char* env = std::getenv("PROM_MATRIX");
  if (env == nullptr || env[0] == '\0') return MatrixFormat::kBsr3;
  const std::string_view v(env);
  if (v == "csr") return MatrixFormat::kCsr;
  if (v == "bsr3") return MatrixFormat::kBsr3;
  if (v == "mf") return MatrixFormat::kMf;
  PROM_CHECK_MSG(false, "PROM_MATRIX must be 'csr', 'bsr3' or 'mf'");
  return MatrixFormat::kCsr;
}

idx agglom_min_rows_from_env() {
  const char* env = std::getenv("PROM_MIN_ROWS_PER_RANK");
  if (env == nullptr || env[0] == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env, &end, 10);
  PROM_CHECK_MSG(end != env && *end == '\0' && errno != ERANGE && v >= 0 &&
                     v <= std::numeric_limits<idx>::max(),
                 "PROM_MIN_ROWS_PER_RANK must be an integer in [0, "
                 "2147483647]");
  return static_cast<idx>(v);
}

std::string Hierarchy::describe() const {
  std::ostringstream os;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const MgLevel& lv = levels_[l];
    os << "level " << l << ": " << lv.num_vertices << " vertices, "
       << lv.free_dofs.size() << " free dofs, nnz(A) = " << lv.a.nnz();
    if (l > 0) {
      os << ", reduction 1/"
         << static_cast<double>(levels_[l - 1].num_vertices) /
                static_cast<double>(lv.num_vertices)
         << ", lost " << lv.lost_vertices;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace prom::mg
