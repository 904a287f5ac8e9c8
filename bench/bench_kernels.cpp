// Kernel microbenchmarks (google-benchmark): the numerical and
// algorithmic primitives the solver spends its time in — SpMV (scalar CSR
// and 3x3 node-block BSR), the Galerkin triple product, smoothers
// (including the block-count ablation called out in DESIGN.md), greedy
// MIS, face identification, Delaunay insertion, and the exact geometric
// predicates' fast path. Emits BENCH_kernels.json with the CSR-vs-BSR
// format comparison, the single-vs-blocked dense LDL^T solve and the
// serial-vs-p=1-distributed Galerkin product.
// PROM_BENCH_SMOKE=1 shrinks every problem and caps the measuring time
// (the CI smoke lane).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "coarsen/classify.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "coarsen/coarsen.h"
#include "delaunay/delaunay.h"
#include "dla/dist_setup.h"
#include "fem/assembly.h"
#include "fem/matrix_free.h"
#include "geom/predicates.h"
#include "graph/mis.h"
#include "graph/order.h"
#include "la/backend.h"
#include "la/bsr.h"
#include "la/dense.h"
#include "la/smoother_kernels.h"
#include "la/smoothers.h"
#include "mesh/generate.h"
#include "partition/greedy.h"
#include "parx/runtime.h"

using namespace prom;

namespace {

// Read before the BENCHMARK registrations below run (same-TU static
// initialization order), so every ->Apply sees it.
const bool kSmoke = std::getenv("PROM_BENCH_SMOKE") != nullptr;

struct Assembled {
  mesh::Mesh mesh;
  fem::DofMap dofmap{0};
  la::Csr stiffness;
};

const Assembled& assembled(idx n) {
  static std::map<idx, Assembled> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Assembled a;
    a.mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
    a.dofmap = fem::DofMap(a.mesh.num_vertices());
    a.dofmap.fix_all(a.mesh.vertices_where(
                         [](const Vec3& p) { return p.z < 1e-12; }),
                     0);
    a.dofmap.finalize();
    fem::FeProblem prob(a.mesh, {fem::Material{}}, a.dofmap);
    a.stiffness = fem::assemble_linear_system(prob).stiffness;
    it = cache.emplace(n, std::move(a)).first;
  }
  return it->second;
}

void BM_Spmv(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  std::vector<real> x(a.stiffness.ncols, 1.0), y(a.stiffness.nrows);
  for (auto _ : state) {
    a.stiffness.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.stiffness.nnz());
}
BENCHMARK(BM_Spmv)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(8);
  else b->Arg(8)->Arg(12)->Arg(16);
});

void BM_GalerkinTripleProduct(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const graph::Graph g = a.mesh.vertex_graph();
  const coarsen::Classification cls = coarsen::classify_mesh(a.mesh);
  const auto level =
      coarsen::coarsen_level(a.mesh.coords(), g, cls, 0, {});
  std::vector<idx> coarse_free;
  for (idx c = 0; c < static_cast<idx>(level.selected.size()); ++c) {
    for (int comp = 0; comp < 3; ++comp) {
      if (!a.dofmap.is_constrained(3 * level.selected[c] + comp)) {
        coarse_free.push_back(3 * c + comp);
      }
    }
  }
  const la::Csr r = coarsen::expand_restriction_to_dofs(
      level.r_vertex, a.dofmap.free_dofs(), coarse_free);
  for (auto _ : state) {
    const la::Csr coarse = la::galerkin_product(r, a.stiffness);
    benchmark::DoNotOptimize(coarse.nnz());
  }
}
BENCHMARK(BM_GalerkinTripleProduct)
    ->Apply([](benchmark::internal::Benchmark* b) {
      if (kSmoke) b->Arg(8);
      else b->Arg(8)->Arg(10);
    });

void BM_BlockJacobiSweep(benchmark::State& state) {
  // Block-count ablation: the paper's 6 blocks/1000 unknowns vs denser
  // and sparser alternatives.
  const Assembled& a = assembled(10);
  const idx per1000 = static_cast<idx>(state.range(0));
  const la::BlockJacobiSmoother smoother(
      a.stiffness,
      partition::block_jacobi_blocks(la::pattern_graph(a.stiffness), per1000),
      0.6);
  std::vector<real> b(a.stiffness.nrows, 1.0), x(a.stiffness.nrows, 0.0);
  for (auto _ : state) {
    smoother.smooth(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_BlockJacobiSweep)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(6);
  else b->Arg(2)->Arg(6)->Arg(20);
});

void BM_GreedyMis(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const graph::Graph g = a.mesh.vertex_graph();
  const auto order = graph::random_order(g.num_vertices(), 1);
  for (auto _ : state) {
    const auto mis = graph::greedy_mis(g, order, {});
    benchmark::DoNotOptimize(mis.selected.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_GreedyMis)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(10);
  else b->Arg(12)->Arg(16);
});

void BM_FaceIdentification(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const auto facets = mesh::boundary_facets(a.mesh);
  const auto adj = mesh::facet_adjacency(facets);
  for (auto _ : state) {
    const auto faces = coarsen::identify_faces(facets, adj);
    benchmark::DoNotOptimize(faces.num_faces);
  }
  state.SetItemsProcessed(state.iterations() * facets.size());
}
BENCHMARK(BM_FaceIdentification)
    ->Apply([](benchmark::internal::Benchmark* b) {
      if (kSmoke) b->Arg(10);
      else b->Arg(12)->Arg(16);
    });

void BM_DelaunayBuild(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  Rng rng(7);
  std::vector<Vec3> pts(static_cast<std::size_t>(n));
  for (Vec3& p : pts) {
    p = {rng.next_real(), rng.next_real(), rng.next_real()};
  }
  for (auto _ : state) {
    const delaunay::Delaunay3 dt(pts);
    benchmark::DoNotOptimize(dt.num_alive_tets());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DelaunayBuild)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(200);
  else b->Arg(200)->Arg(1000);
});

void BM_Orient3dFastPath(benchmark::State& state) {
  Rng rng(3);
  std::vector<Vec3> pts(4000);
  for (Vec3& p : pts) {
    p = {rng.next_real(), rng.next_real(), rng.next_real()};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const real d = orient3d(pts[i % 4000], pts[(i + 1) % 4000],
                            pts[(i + 2) % 4000], pts[(i + 3) % 4000]);
    benchmark::DoNotOptimize(d);
    ++i;
  }
}
BENCHMARK(BM_Orient3dFastPath);

// ---- threads sweep -------------------------------------------------------
//
// The two-level parallelism benchmarks: the same kernel at 1/2/4/8
// intra-rank threads on a >= 100k-DOF operator (box_hex(32) has ~104k free
// dofs). Each entry reports a "speedup_vs_1t" counter relative to the
// 1-thread entry of its own sweep so BENCH_*.json tracks the trajectory,
// and the SpMV sweep hard-fails if the threaded kernel is not bit-identical
// to the pre-change serial loop.

/// The pre-change serial SpMV, kept as the bit-identity reference.
void spmv_serial_reference(const la::Csr& a, const std::vector<real>& x,
                           std::vector<real>& y) {
  for (idx i = 0; i < a.nrows; ++i) {
    real sum = 0;
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      sum += a.vals[k] * x[a.colidx[k]];
    }
    y[i] = sum;
  }
}

/// Records the 1-thread mean time per sweep so later entries can report
/// their speedup. Keyed by (benchmark family, problem size).
double& one_thread_ns(const char* family, std::int64_t size) {
  static std::map<std::pair<std::string, std::int64_t>, double> base;
  return base[{family, size}];
}

/// Runs `body` once per benchmark iteration under `threads` kernel
/// threads, timing it manually, and attaches threads + speedup counters.
template <typename Body>
void run_thread_sweep(benchmark::State& state, const char* family,
                      const Body& body) {
  const std::int64_t size = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  prom::common::set_kernel_threads(threads);
  double total_ns = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  }
  prom::common::set_kernel_threads(0);
  const double mean_ns =
      total_ns / static_cast<double>(std::max<std::int64_t>(
                     1, static_cast<std::int64_t>(state.iterations())));
  if (threads == 1) one_thread_ns(family, size) = mean_ns;
  state.counters["threads"] = threads;
  const double base = one_thread_ns(family, size);
  if (base > 0) state.counters["speedup_vs_1t"] = base / mean_ns;
}

void BM_SpmvThreads(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  std::vector<real> x(a.stiffness.ncols), y(a.stiffness.nrows),
      yref(a.stiffness.nrows);
  Rng rng(11);
  for (real& v : x) v = rng.next_real() - 0.5;
  // Bit-identity gate: the threaded kernel must match the serial loop
  // exactly at this sweep's thread count (rows are computed identically
  // regardless of the decomposition).
  spmv_serial_reference(a.stiffness, x, yref);
  prom::common::set_kernel_threads(static_cast<int>(state.range(1)));
  a.stiffness.spmv(x, y);
  prom::common::set_kernel_threads(0);
  if (std::memcmp(y.data(), yref.data(), y.size() * sizeof(real)) != 0) {
    std::fprintf(stderr,
                 "FATAL: threaded SpMV is not bit-identical to the serial "
                 "reference (threads=%ld)\n",
                 static_cast<long>(state.range(1)));
    std::abort();
  }
  run_thread_sweep(state, "spmv", [&] {
    a.stiffness.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  });
  state.SetItemsProcessed(state.iterations() * a.stiffness.nnz());
}
BENCHMARK(BM_SpmvThreads)->Apply([](benchmark::internal::Benchmark* b) {
  const std::int64_t n = kSmoke ? 12 : 32;
  for (const std::int64_t t : {1, 2, 4, 8}) {
    if (kSmoke && t > 2) continue;
    b->Args({n, t});
  }
});

void BM_ChebyshevSmootherThreads(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const la::ChebyshevSmoother smoother(a.stiffness, 3);
  std::vector<real> b(a.stiffness.nrows, 1.0), x(a.stiffness.nrows, 0.0);
  run_thread_sweep(state, "chebyshev", [&] {
    smoother.smooth(b, x);
    benchmark::DoNotOptimize(x.data());
  });
}
BENCHMARK(BM_ChebyshevSmootherThreads)
    ->Apply([](benchmark::internal::Benchmark* b) {
      const std::int64_t n = kSmoke ? 12 : 32;
      for (const std::int64_t t : {1, 2, 4, 8}) {
        if (kSmoke && t > 2) continue;
        b->Args({n, t});
      }
    });

void BM_GalerkinThreads(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const graph::Graph g = a.mesh.vertex_graph();
  const coarsen::Classification cls = coarsen::classify_mesh(a.mesh);
  const auto level = coarsen::coarsen_level(a.mesh.coords(), g, cls, 0, {});
  std::vector<idx> coarse_free;
  for (idx c = 0; c < static_cast<idx>(level.selected.size()); ++c) {
    for (int comp = 0; comp < 3; ++comp) {
      if (!a.dofmap.is_constrained(3 * level.selected[c] + comp)) {
        coarse_free.push_back(3 * c + comp);
      }
    }
  }
  const la::Csr r = coarsen::expand_restriction_to_dofs(
      level.r_vertex, a.dofmap.free_dofs(), coarse_free);
  run_thread_sweep(state, "galerkin", [&] {
    const la::Csr coarse = la::galerkin_product(r, a.stiffness);
    benchmark::DoNotOptimize(coarse.nnz());
  });
}
BENCHMARK(BM_GalerkinThreads)->Apply([](benchmark::internal::Benchmark* b) {
  const std::int64_t n = kSmoke ? 8 : 16;
  for (const std::int64_t t : {1, 2, 4, 8}) {
    if (kSmoke && t > 2) continue;
    b->Args({n, t});
  }
});

void BM_AssemblyThreads(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  fem::FeProblem prob(a.mesh, {fem::Material{}}, a.dofmap);
  const std::vector<real> u(a.dofmap.num_dofs(), 0.0);
  run_thread_sweep(state, "assembly", [&] {
    const auto res = prob.assemble(u, true);
    benchmark::DoNotOptimize(res.stiffness.nnz());
  });
  state.SetItemsProcessed(state.iterations() * a.mesh.num_cells());
}
BENCHMARK(BM_AssemblyThreads)->Apply([](benchmark::internal::Benchmark* b) {
  const std::int64_t n = kSmoke ? 6 : 12;
  for (const std::int64_t t : {1, 2, 4, 8}) {
    if (kSmoke && t > 2) continue;
    b->Args({n, t});
  }
});

void BM_Assembly(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  fem::FeProblem prob(a.mesh, {fem::Material{}}, a.dofmap);
  const std::vector<real> u(a.dofmap.num_dofs(), 0.0);
  for (auto _ : state) {
    const auto res = prob.assemble(u, true);
    benchmark::DoNotOptimize(res.stiffness.nnz());
  }
  state.SetItemsProcessed(state.iterations() * a.mesh.num_cells());
}
BENCHMARK(BM_Assembly)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(6);
  else b->Arg(8)->Arg(12);
});

// ---- matrix-format comparison -------------------------------------------
//
// Scalar CSR (AIJ) vs 3x3 node-block BSR (BAIJ) vs the matrix-free
// element apply on the elasticity operator, 1 kernel thread — the paper
// ran Prometheus on PETSc block matrices for the column-index-traffic
// effect, and the matrix-free fine level (fem/matrix_free.h) removes the
// stored matrix from the apply stream altogether. Reports ns/dof and a
// bytes/dof traffic model per format, plus a >= 100k-unknown scale entry
// where the matrix-free bytes/dof must undercut assembled CSR. Timed
// manually (best mean over repetitions) and written to BENCH_kernels.json
// so the perf trajectory tracks the speedups.

/// Mean ns/op of the best of `reps` batches of `iters` calls.
template <typename Body>
double best_mean_ns(int reps, int iters, const Body& body) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      iters;
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

/// Apply-stream traffic of the scalar CSR SpMV in bytes per output row:
/// vals + colidx + rowptr once each, x and y once each (perfect cache).
double csr_bytes_per_dof(const la::Csr& a) {
  const double bytes =
      static_cast<double>(a.nnz()) * (sizeof(real) + sizeof(idx)) +
      static_cast<double>(a.rowptr.size()) * sizeof(nnz_t) +
      static_cast<double>(a.ncols + a.nrows) * sizeof(real);
  return bytes / a.nrows;
}

/// Same traffic model for the 3x3 node-block BSR: block values + one
/// column index per block + block rowptr + x and y.
double bsr3_bytes_per_dof(const la::Bsr3& ab) {
  const double bytes =
      static_cast<double>(ab.vals.size()) * sizeof(real) +
      static_cast<double>(ab.bcolidx.size()) * sizeof(idx) +
      static_cast<double>(ab.browptr.size()) * sizeof(nnz_t) +
      static_cast<double>(ab.cols() + ab.rows()) * sizeof(real);
  return bytes / ab.rows();
}

/// A Bsr3 as the serial backend's smoother operator: apply plus the fused
/// residual, the two products dla::DistBsrOperator gives the sweeps.
struct Bsr3SweepOperator {
  const la::Bsr3* a;
  idx rows() const { return a->rows(); }
  void apply(std::span<const real> x, std::span<real> y) const {
    a->spmv(x, y);
  }
  void residual(std::span<const real> b, std::span<const real> x,
                std::span<real> r) const {
    a->residual(b, x, r);
  }
};

int run_format_comparison() {
  // Unconstrained elasticity: every vertex keeps its 3 dofs, so the
  // scalar operator blocks losslessly and both formats do identical
  // arithmetic on identical vectors.
  const idx n = kSmoke ? 8 : 16;
  mesh::Mesh mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
  fem::DofMap dofmap(mesh.num_vertices());
  const std::vector<fem::Material> materials(1);
  fem::FeProblem prob(mesh, materials, dofmap);
  const la::Csr a = fem::assemble_linear_system(prob).stiffness;
  const la::Bsr3 ab = la::Bsr3::from_csr(a);
  const fem::MatrixFreeOperator mf =
      fem::MatrixFreeOperator::build(mesh, materials, dofmap);

  std::vector<real> x(static_cast<std::size_t>(a.ncols));
  Rng rng(5);
  for (real& v : x) v = rng.next_real() - 0.5;
  std::vector<real> y(static_cast<std::size_t>(a.nrows));
  std::vector<real> yb(y.size());
  std::vector<real> ym(y.size());

  common::set_kernel_threads(1);
  const int reps = kSmoke ? 3 : 5;
  const int iters = kSmoke ? 5 : 40;
  const double csr_spmv = best_mean_ns(reps, iters, [&] {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  });
  const double bsr_spmv = best_mean_ns(reps, iters, [&] {
    ab.spmv(x, yb);
    benchmark::DoNotOptimize(yb.data());
  });
  const double mf_apply = best_mean_ns(reps, iters, [&] {
    mf.apply(x, ym);
    benchmark::DoNotOptimize(ym.data());
  });
  if (std::memcmp(y.data(), yb.data(), y.size() * sizeof(real)) != 0) {
    std::fprintf(stderr,
                 "FATAL: blocked SpMV is not bit-identical to scalar CSR\n");
    return 1;
  }

  // The multi-vector products at k = 1 and k = 8 next to spmv, in both
  // formats. The three are timed in turn within each repetition, so a slow
  // phase of a shared host hits all of them alike and their ratios hold.
  // Column j of spmm must be spmv of that column, bitwise.
  la::MultiVec x1(a.ncols, 1), y1(a.nrows, 1);
  la::MultiVec x8(a.ncols, 8), y8(a.nrows, 8);
  std::copy(x.begin(), x.end(), x1.col(0).begin());
  Rng rng_mm(13);
  for (int j = 0; j < 8; ++j) {
    for (real& v : x8.col(j)) v = rng_mm.next_real() - 0.5;
  }
  struct SpmmTimes {
    double spmv_ns = 0;
    double k1_ns = 0;
    double k8_ns = 0;
  };
  const int reps_mm = 15;
  const int iters_mm = kSmoke ? 20 : 40;
  bool spmm_bitwise = true;
  const auto time_spmm = [&](const auto& m) {
    SpmmTimes t;
    std::vector<real> yj(y.size());
    const auto best = [&](double& best_ns, const auto& body) {
      const double ns = best_mean_ns(1, iters_mm, body);
      if (best_ns == 0 || ns < best_ns) best_ns = ns;
    };
    for (int r = 0; r < reps_mm; ++r) {
      best(t.spmv_ns, [&] {
        m.spmv(x, yj);
        benchmark::DoNotOptimize(yj.data());
      });
      best(t.k1_ns, [&] {
        m.spmm(x1, y1);
        benchmark::DoNotOptimize(y1.data());
      });
      best(t.k8_ns, [&] {
        m.spmm(x8, y8);
        benchmark::DoNotOptimize(y8.data());
      });
    }
    const auto same_as_spmv = [&](const la::MultiVec& xs,
                                  const la::MultiVec& ys, int j) {
      m.spmv(xs.col(j), yj);
      return std::memcmp(yj.data(), ys.col_data(j),
                         yj.size() * sizeof(real)) == 0;
    };
    spmm_bitwise = spmm_bitwise && same_as_spmv(x1, y1, 0);
    for (int j = 0; j < 8; ++j) {
      spmm_bitwise = spmm_bitwise && same_as_spmv(x8, y8, j);
    }
    return t;
  };
  const SpmmTimes csr_mm = time_spmm(a);
  const SpmmTimes bsr_mm = time_spmm(ab);
  if (!spmm_bitwise) {
    std::fprintf(stderr, "FATAL: spmm is not bit-identical to spmv\n");
    return 1;
  }
  // The matrix-free apply sums element contributions instead of matrix
  // rows — same operator to reassociation rounding, not bitwise.
  {
    real scale = 0;
    real err = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      scale = std::max(scale, std::fabs(y[i]));
      err = std::max(err, std::fabs(ym[i] - y[i]));
    }
    if (err > 1e-12 * scale) {
      std::fprintf(stderr,
                   "FATAL: matrix-free apply deviates from CSR by %.3e "
                   "(scale %.3e)\n",
                   err, scale);
      return 1;
    }
  }

  // One point-Jacobi sweep in each format: the sweep DistMgLevel runs for
  // SmootherKind::kJacobi, over the CSR operator and over its node blocks
  // (with the same inverted diagonal). The two are timed in turn within
  // each repetition, like the spmm series, so their ratio holds through a
  // slow phase of a shared host.
  const la::CsrOperator sop(a);
  const Bsr3SweepOperator bop{&ab};
  const std::vector<real> inv_diag = la::inverted_diagonal(a);
  const std::vector<real> b(static_cast<std::size_t>(a.nrows), 1.0);
  std::vector<real> xs(b.size(), 0.0);
  double csr_sweep = 0;
  double bsr_sweep = 0;
  const auto best_sweep = [&](double& best_ns, const auto& op) {
    const double ns = best_mean_ns(1, iters, [&] {
      la::jacobi_sweep(la::SerialBackend{}, op, inv_diag, 0.6, b, xs);
      benchmark::DoNotOptimize(xs.data());
    });
    if (best_ns == 0 || ns < best_ns) best_ns = ns;
  };
  for (int r = 0; r < reps; ++r) {
    best_sweep(csr_sweep, sop);
    best_sweep(bsr_sweep, bop);
  }
  // Dense LDL^T solve of one block-Jacobi block: 167 rows is the block
  // size of 6 blocks per 1000 unknowns on the perfbench box problems. One
  // column alone vs 8 columns in one blocked call.
  const idx nb = 167;
  la::DenseMatrix blk(nb, nb);
  for (idx j = 0; j < nb; ++j) {
    for (idx i = j + 1; i < nb; ++i) {
      blk(i, j) = blk(j, i) = rng.next_real() - 0.5;
    }
    blk(j, j) = nb;
  }
  const la::DenseLdlt ldlt(blk);
  std::vector<real> rb(static_cast<std::size_t>(nb) * 8), xb(rb.size());
  for (real& v : rb) v = rng.next_real() - 0.5;
  // Tens of microseconds per call: the full repetition count stays cheap
  // in the smoke lane and steadies the best-of.
  const int reps_ldlt = 7;
  const int iters_ldlt = 200;
  const double ldlt_k1 = best_mean_ns(reps_ldlt, iters_ldlt, [&] {
    ldlt.solve(std::span<const real>(rb).first(nb),
               std::span<real>(xb).first(nb));
    benchmark::DoNotOptimize(xb.data());
  });
  const double ldlt_k8 = best_mean_ns(reps_ldlt, iters_ldlt, [&] {
    ldlt.solve(rb, xb, 8);
    benchmark::DoNotOptimize(xb.data());
  });
  // The p=1 Galerkin gap: the serial triple product R A R^T against the
  // distributed one on one rank (identity layout) for one coarsening
  // level of the same box. Only the product is timed.
  const graph::Graph vgraph = mesh.vertex_graph();
  const auto level = coarsen::coarsen_level(
      mesh.coords(), vgraph, coarsen::classify_mesh(mesh), 0, {});
  std::vector<idx> coarse_free(3 * level.selected.size());
  std::iota(coarse_free.begin(), coarse_free.end(), idx{0});
  const la::Csr r = coarsen::expand_restriction_to_dofs(
      level.r_vertex, dofmap.free_dofs(), coarse_free);
  const int iters_g = kSmoke ? 3 : 5;
  const double galerkin_serial = best_mean_ns(reps, iters_g, [&] {
    const la::Csr coarse = la::galerkin_product(r, a);
    benchmark::DoNotOptimize(coarse.vals.data());
  });
  double galerkin_dist = 0;
  parx::Runtime::run(1, [&](parx::Comm& comm) {
    const dla::DistCsr ad(comm, a, dla::RowDist::block(a.nrows, 1),
                          dla::RowDist::block(a.ncols, 1));
    const dla::DistCsr rd(comm, r, dla::RowDist::block(r.nrows, 1),
                          dla::RowDist::block(r.ncols, 1));
    galerkin_dist = best_mean_ns(reps, iters_g, [&] {
      const dla::DistCsr coarse = dla::dist_galerkin_product(comm, rd, ad);
      benchmark::DoNotOptimize(coarse.local_matrix().vals.data());
    });
  });
  // Fine-level scale point (>= 100k unknowns non-smoke: the n=32 box has
  // 33^3 * 3 = 107,811 free dofs). Here the assembled matrix blows out of
  // cache and the bytes/dof model decides the apply speed — the
  // matrix-free stream must undercut assembled CSR (the acceptance bar).
  const idx n_scale = kSmoke ? 8 : 32;
  mesh::Mesh mesh_s = mesh::box_hex(n_scale, n_scale, n_scale, {0, 0, 0},
                                    {1, 1, 1});
  fem::DofMap dofmap_s(mesh_s.num_vertices());
  fem::FeProblem prob_s(mesh_s, materials, dofmap_s);
  const la::Csr a_s = fem::assemble_linear_system(prob_s).stiffness;
  const fem::MatrixFreeOperator mf_s =
      fem::MatrixFreeOperator::build(mesh_s, materials, dofmap_s);
  std::vector<real> x_s(static_cast<std::size_t>(a_s.ncols));
  for (real& v : x_s) v = rng.next_real() - 0.5;
  std::vector<real> y_s(static_cast<std::size_t>(a_s.nrows));
  const int iters_s = kSmoke ? 3 : 5;
  const double csr_spmv_s = best_mean_ns(2, iters_s, [&] {
    a_s.spmv(x_s, y_s);
    benchmark::DoNotOptimize(y_s.data());
  });
  const double mf_apply_s = best_mean_ns(2, iters_s, [&] {
    mf_s.apply(x_s, y_s);
    benchmark::DoNotOptimize(y_s.data());
  });
  common::set_kernel_threads(0);

  const double spmv_speedup = csr_spmv / bsr_spmv;
  const double csr_k1_speedup = csr_mm.spmv_ns / csr_mm.k1_ns;
  const double bsr_k1_speedup = bsr_mm.spmv_ns / bsr_mm.k1_ns;
  const double csr_k8_col_speedup = csr_mm.spmv_ns / (csr_mm.k8_ns / 8);
  const double bsr_k8_col_speedup = bsr_mm.spmv_ns / (bsr_mm.k8_ns / 8);
  const double sweep_speedup = csr_sweep / bsr_sweep;
  const double ldlt_col_speedup = ldlt_k1 / (ldlt_k8 / 8);
  const double galerkin_speedup = galerkin_serial / galerkin_dist;
  const double csr_bytes = csr_bytes_per_dof(a);
  const double bsr_bytes = bsr3_bytes_per_dof(ab);
  const double mf_bytes = mf.core().apply_bytes_per_row();
  const double csr_bytes_s = csr_bytes_per_dof(a_s);
  const double mf_bytes_s = mf_s.core().apply_bytes_per_row();
  std::printf(
      "\nmatrix-format comparison (1 thread, %d unknowns, nnz %lld):\n"
      "  spmv      csr %8.0f ns  bsr3 %8.0f ns  speedup %.2fx\n"
      "  spmm k=1  csr %8.0f ns  bsr3 %8.0f ns  (%.2fx, %.2fx vs spmv)\n"
      "  spmm k=8  csr %8.0f ns  bsr3 %8.0f ns  (%.2fx, %.2fx per column)\n"
      "  mf apply  %8.0f ns  (%.2fx vs csr spmv)\n"
      "  jacobi    csr %8.0f ns  bsr3 %8.0f ns  speedup %.2fx\n"
      "  ns/dof    csr %8.2f     bsr3 %8.2f     mf %8.2f\n"
      "  bytes/dof csr %8.1f     bsr3 %8.1f     mf %8.1f\n"
      "  ldlt n=%d k=1 %8.0f ns  k=8 %8.0f ns  (%.2fx per column)\n"
      "  galerkin  serial %8.0f ns  dist p=1 %8.0f ns  (%.2fx)\n"
      "fine-level scale point (%d unknowns):\n"
      "  ns/dof    csr %8.2f     mf %8.2f\n"
      "  bytes/dof csr %8.1f     mf %8.1f  (mf %s csr)\n",
      a.nrows, static_cast<long long>(a.nnz()), csr_spmv, bsr_spmv,
      spmv_speedup, csr_mm.k1_ns, bsr_mm.k1_ns, csr_k1_speedup,
      bsr_k1_speedup, csr_mm.k8_ns, bsr_mm.k8_ns, csr_k8_col_speedup,
      bsr_k8_col_speedup, mf_apply, csr_spmv / mf_apply, csr_sweep, bsr_sweep,
      sweep_speedup, csr_spmv / a.nrows, bsr_spmv / a.nrows,
      mf_apply / a.nrows, csr_bytes, bsr_bytes, mf_bytes, nb, ldlt_k1,
      ldlt_k8, ldlt_col_speedup, galerkin_serial, galerkin_dist,
      galerkin_speedup, a_s.nrows, csr_spmv_s / a_s.nrows,
      mf_apply_s / a_s.nrows, csr_bytes_s, mf_bytes_s,
      mf_bytes_s < csr_bytes_s ? "<" : ">=");

  std::FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"kernels\",\n  \"unknowns\": %d,\n"
               "  \"nnz\": %lld,\n  \"threads\": 1,\n"
               "  \"spmv\": {\"csr_ns\": %.1f, \"bsr3_ns\": %.1f, "
               "\"speedup\": %.3f},\n"
               "  \"spmm\": {\"csr_k1_ns\": %.1f, \"csr_k8_ns\": %.1f, "
               "\"bsr3_k1_ns\": %.1f, \"bsr3_k8_ns\": %.1f, "
               "\"csr_k1_speedup\": %.3f, \"bsr3_k1_speedup\": %.3f, "
               "\"csr_k8_col_speedup\": %.3f, \"bsr3_k8_col_speedup\": %.3f},\n"
               "  \"jacobi_sweep\": {\"csr_ns\": %.1f, \"bsr3_ns\": %.1f, "
               "\"speedup\": %.3f},\n"
               "  \"mf_apply\": {\"ns\": %.1f, \"ns_per_dof\": %.3f, "
               "\"vs_csr_spmv\": %.3f},\n"
               "  \"bytes_per_dof\": {\"csr\": %.1f, \"bsr3\": %.1f, "
               "\"mf\": %.1f},\n"
               "  \"ldlt_solve\": {\"n\": %d, \"k1_ns\": %.1f, "
               "\"k8_ns\": %.1f, \"k8_col_speedup\": %.3f},\n"
               "  \"galerkin_p1\": {\"serial_ns\": %.1f, \"dist_ns\": %.1f, "
               "\"speedup\": %.3f},\n"
               "  \"mf_scale\": {\"unknowns\": %d, "
               "\"csr_ns_per_dof\": %.3f, \"mf_ns_per_dof\": %.3f, "
               "\"csr_bytes_per_dof\": %.1f, \"mf_bytes_per_dof\": %.1f}\n"
               "}\n",
               a.nrows, static_cast<long long>(a.nnz()), csr_spmv, bsr_spmv,
               spmv_speedup, csr_mm.k1_ns, csr_mm.k8_ns, bsr_mm.k1_ns,
               bsr_mm.k8_ns, csr_k1_speedup, bsr_k1_speedup,
               csr_k8_col_speedup, bsr_k8_col_speedup, csr_sweep, bsr_sweep,
               sweep_speedup, mf_apply,
               mf_apply / a.nrows, csr_spmv / mf_apply, csr_bytes, bsr_bytes,
               mf_bytes, nb, ldlt_k1, ldlt_k8, ldlt_col_speedup,
               galerkin_serial, galerkin_dist, galerkin_speedup, a_s.nrows,
               csr_spmv_s / a_s.nrows, mf_apply_s / a_s.nrows, csr_bytes_s,
               mf_bytes_s);
  std::fclose(json);
  std::printf("wrote BENCH_kernels.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // The smoke lane keeps google-benchmark's measuring time short; any
  // explicit --benchmark_min_time on the command line still wins (later
  // flags override).
  std::string min_time = "--benchmark_min_time=0.02";
  if (kSmoke) args.insert(args.begin() + 1, min_time.data());
  int argcx = static_cast<int>(args.size());
  benchmark::Initialize(&argcx, args.data());
  if (benchmark::ReportUnrecognizedArguments(argcx, args.data())) return 1;
  if (const int rc = run_format_comparison(); rc != 0) return rc;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
