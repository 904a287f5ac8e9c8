#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/rng.h"
#include "mesh/generate.h"

namespace perfbench {

using namespace prom;

namespace {

// Box: 16^3 hex cells on the unit cube, 13,583 unknowns.
constexpr idx kBoxCells = 16;
// Interior vertices move by up to this fraction of the cell size per
// coordinate: far from inverting a hex, enough to change every coarse grid.
constexpr real kJitter = 0.15;
// The paper's sphere-in-cube at the first size of the scaled series.
constexpr real kSphereCrush = 1.2;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL ^ salt).next_u64();
}

/// The box problem with every interior vertex moved by a seeded offset.
/// Boundary vertices stay put, so the constraints and the dof numbering
/// are those of the unjittered box.
app::ModelProblem jittered_box(const app::ModelProblem& base,
                               std::uint64_t seed) {
  const mesh::Mesh& m = base.mesh;
  Rng rng(seed);
  const real amp = kJitter / static_cast<real>(kBoxCells);
  std::vector<Vec3> coords = m.coords();
  const auto inside = [](real c) { return c > 1e-9 && c < 1 - 1e-9; };
  for (Vec3& x : coords) {
    if (!inside(x.x) || !inside(x.y) || !inside(x.z)) continue;
    x.x += amp * (2 * rng.next_real() - 1);
    x.y += amp * (2 * rng.next_real() - 1);
    x.z += amp * (2 * rng.next_real() - 1);
  }
  std::vector<idx> cells;
  cells.reserve(static_cast<std::size_t>(m.num_cells()) *
                mesh::nodes_per_cell(m.kind()));
  for (idx e = 0; e < m.num_cells(); ++e) {
    for (const idx v : m.cell(e)) cells.push_back(v);
  }
  app::ModelProblem p = base;
  p.mesh = mesh::Mesh(m.kind(), std::move(coords), std::move(cells),
                      m.cell_materials());
  return p;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> table = {
      // Setup-heavy, single rank, matrix-free fine level.
      {"box_cold", Problem::kJitteredBoxes, 1, mg::MatrixFormat::kMf, 1, 1},
      // The paper's problem: Krylov, cycle and halo dominate.
      {"sphere_warm", Problem::kSphere, 2, std::nullopt, 1, 2},
      // Blocked multi-RHS throughput through node-block SpMM.
      {"box_batch", Problem::kBox, 2, mg::MatrixFormat::kBsr3, 8, 2},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

app::ServiceConfig service_config(const Workload& w) {
  app::ServiceConfig cfg;
  cfg.nranks = w.ranks;
  if (w.format) cfg.format = *w.format;
  return cfg;
}

std::string mesh_id(int slot) { return "mesh" + std::to_string(slot); }

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  if (w.problem == Problem::kSphere) {
    in.problems.push_back(std::make_shared<const app::ModelProblem>(
        app::make_sphere_problem(app::scaled_series(1)[0].params,
                                 kSphereCrush)));
  } else if (w.problem == Problem::kBox) {
    in.problems.push_back(std::make_shared<const app::ModelProblem>(
        app::make_box_problem(kBoxCells)));
  } else {
    const app::ModelProblem base = app::make_box_problem(kBoxCells);
    for (int s = 0; s <= service_config(w).cache_capacity; ++s) {
      in.problems.push_back(std::make_shared<const app::ModelProblem>(
          jittered_box(base, mix(seed, 100 + s))));
    }
  }
  const idx n = in.problems[0]->dofmap.num_free();
  for (int j = 0; j < kRhsSlots; ++j) {
    Rng rng(mix(seed, 200 + j));
    la::MultiVec b(n, w.rhs_per_request);
    for (int c = 0; c < b.cols(); ++c) {
      for (real& v : b.col(c)) v = rng.next_real() - 0.5;
    }
    in.rhs.push_back(std::move(b));
  }
  return in;
}

bool OutputCheck::check(const app::ServiceEntry& entry,
                        const la::MultiVec& b, const app::SolveResponse& resp,
                        int mesh_slot, int rhs_slot) {
  const la::Csr& k_ff = entry.sys.stiffness;
  const int k = b.cols();
  if (static_cast<int>(resp.results.size()) != k ||
      resp.solutions.cols() != k || resp.solutions.rows() != k_ff.nrows) {
    record_failure("response shape does not match the request");
    return false;
  }
  std::string why;
  std::vector<int> iters;
  std::vector<real> kx(static_cast<std::size_t>(k_ff.nrows));
  for (int j = 0; j < k; ++j) {
    const la::KrylovResult& res = resp.results[static_cast<std::size_t>(j)];
    iters.push_back(res.iterations);
    k_ff.spmv(resp.solutions.col(j), kx);
    const std::span<const real> bj = b.col(j);
    double rr = 0, bb = 0;
    for (std::size_t i = 0; i < kx.size(); ++i) {
      rr += (bj[i] - kx[i]) * (bj[i] - kx[i]);
      bb += bj[i] * bj[i];
    }
    const double relres = std::sqrt(rr / bb);
    if (!(relres <= max_relres_)) max_relres_ = relres;
    if (!res.converged) {
      why = "column " + std::to_string(j) + " did not converge";
    } else if (!(relres <= kRtol)) {
      why = "column " + std::to_string(j) + " true relative residual " +
            std::to_string(relres) + " above rtol";
    }
  }
  if (why.empty()) why = repeat_mismatch(iters, mesh_slot, rhs_slot);
  if (!why.empty()) record_failure(why);
  return why.empty();
}

bool OutputCheck::check_iterations(const std::vector<la::KrylovResult>& results,
                                   int mesh_slot, int rhs_slot) {
  std::string why;
  std::vector<int> iters;
  for (std::size_t j = 0; j < results.size(); ++j) {
    iters.push_back(results[j].iterations);
    if (!results[j].converged) {
      why = "isolated PCG column " + std::to_string(j) + " did not converge";
    }
  }
  if (why.empty()) why = repeat_mismatch(iters, mesh_slot, rhs_slot);
  if (!why.empty()) record_failure(why);
  return why.empty();
}

std::string OutputCheck::repeat_mismatch(const std::vector<int>& iters,
                                         int mesh_slot, int rhs_slot) {
  const auto [it, first] =
      iters_.emplace(std::make_pair(mesh_slot, rhs_slot), iters);
  if (first || it->second == iters) return {};
  return "PCG iterations differ from an earlier solve of the same inputs";
}

void OutputCheck::record_failure(const std::string& why) {
  ++failed_;
  if (failed_ <= 5) std::printf("FAILED request: %s\n", why.c_str());
}

std::string OutputCheck::iteration_signature() const {
  std::ostringstream os;
  for (const auto& [slot, iters] : iters_) {
    os << (os.tellp() > 0 ? " " : "") << slot.first << "." << slot.second
       << ":";
    for (std::size_t j = 0; j < iters.size(); ++j) {
      os << (j > 0 ? "," : "") << iters[j];
    }
  }
  return os.str();
}

}  // namespace perfbench
