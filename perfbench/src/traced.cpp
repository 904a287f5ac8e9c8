// The traced run: per-layer metrics for one workload, timed from the
// benchmark's own files. Each round sends a cold request with tracing on
// (so the service's phase.* spans land in the trace), replays the public
// calls SolveService::build_entry makes, sends one warm request traced and
// one untraced, then calls the solve layers one at a time on the hierarchy
// the service built. Every call runs under one of the benchmark's own
// obs::Spans; values are medians over the run's repeats. The layers are
// the repository's modules: app, parx, dla, mg (which alone calls
// coarsen/ and delaunay/), fem, la and obs.
//
// Most times are CPU seconds like most end-to-end metrics: process CPU time
// for calls made from the driving thread (summing the ranks of an SPMD
// call), and the ranks' thread CPU times, summed, for calls made inside
// one. Blocking waits (halo, allreduce) therefore count only their own
// work there; the *_wall_s metrics beside them take the slowest rank's wall
// time instead, waiting included, and dla.pcg_rank_imbalance compares the
// ranks' CPU times.
//
// The run also checks itself against the program: the setup replay must
// rebuild exactly the service's system and hierarchies, and the isolated
// PCG solve must converge in the same iterations as the service's warm
// requests on the same right-hand side. A mismatch counts as a failure.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "client.h"
#include "common/flops.h"
#include "dla/dist_mg.h"
#include "metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parx/runtime.h"
#include "stats.h"

namespace perfbench {

using namespace prom;

namespace {

// Repeats of each isolated solve-layer call per round (the PCG solve runs
// once per round: it is the longest call).
constexpr int kRepeats = 10;
constexpr int kLaunchRepeats = 20;
// The warm requests and isolated solves of a traced run all use this
// right-hand side, so rounds and runs time the same solve.
constexpr int kTracedRhsSlot = 0;

/// Samples of every layer timing, pooled over rounds.
struct Samples {
  std::vector<double> setup, warm_traced, warm_untraced;
  // Wall times of the program's phase spans and of their replays, for the
  // cross-check (both from the same round).
  std::vector<double> phase_fine_grid, phase_mesh_setup, phase_matrix_setup;
  std::vector<double> assemble_wall, grids_wall, dla_build_wall;
  std::vector<double> assemble, assemble_gflops, grids, dla_build,
      galerkin_gflops;
  std::vector<double> pcg, cycle, smooth, coarse, fine_apply, halo, allreduce,
      launch;
  std::vector<double> pcg_wall, cycle_wall, halo_wall, allreduce_wall,
      pcg_imbalance;
  std::vector<double> fine_apply_gflops, fine_apply_gbps;
  // Counts, taken from the first round only, so that they repeat exactly
  // between runs of one seed however many rounds a run completes.
  bool counted = false;
  int levels = 0;
  double operator_complexity = 0;
  int iterations = 0;
  double messages_per_rhs = 0, bytes_per_rhs = 0;
};

/// Runs `fn` under a span named `name` (a string literal) and returns its
/// wall and process CPU time.
Elapsed timed(const char* name, const std::function<void()>& fn) {
  const obs::Span span(name);
  const Clock t0 = Clock::now();
  fn();
  return Clock::now() - t0;
}

/// As `timed`, for a call inside an SPMD region: the calling rank's wall
/// time and its thread's CPU time.
Elapsed rank_timed(const char* name, const std::function<void()>& fn) {
  const obs::Span span(name);
  const double w0 = Clock::now().wall;
  const double c0 = thread_cpu_s();
  fn();
  return {Clock::now().wall - w0, thread_cpu_s() - c0};
}

/// Why the replayed setup differs from the service's build, or empty when
/// it rebuilt the same fine system, grids and distributed hierarchies.
std::string replay_mismatch(const app::ServiceEntry& entry,
                            const fem::LinearSystem& sys,
                            const mg::Hierarchy& grids,
                            const std::vector<dla::DistHierarchy>& per_rank) {
  const la::Csr& a = sys.stiffness;
  const la::Csr& b = entry.sys.stiffness;
  if (a.nrows != b.nrows || a.rowptr != b.rowptr || a.colidx != b.colidx ||
      a.vals != b.vals) {
    return "the assembled stiffness";
  }
  if (grids.num_levels() != entry.grids.num_levels()) return "the grid levels";
  for (int l = 0; l < grids.num_levels(); ++l) {
    if (grids.level(l).r.colidx != entry.grids.level(l).r.colidx) {
      return "the restriction to level " + std::to_string(l);
    }
  }
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const dla::DistHierarchy& h = per_rank[r];
    const dla::DistHierarchy& e = entry.per_rank[r];
    if (h.num_levels() != e.num_levels() ||
        h.galerkin_flops() != e.galerkin_flops()) {
      return "rank " + std::to_string(r) + "'s distributed hierarchy";
    }
    for (int l = 0; l < h.num_levels(); ++l) {
      if (h.level(l).a.local_matrix().nnz() !=
          e.level(l).a.local_matrix().nnz()) {
        return "rank " + std::to_string(r) + "'s level " + std::to_string(l);
      }
    }
  }
  return {};
}

/// Replays SolveService::build_entry's layer calls (the partition is
/// taken from the entry: RCB takes under a millisecond) and returns why
/// the result differs from the entry the service built, or empty.
std::string replay_setup(const Workload& w, const app::ModelProblem& prob,
                         const app::ServiceEntry& entry, Samples& s) {
  const app::ServiceConfig cfg = service_config(w);
  fem::LinearSystem sys;
  std::int64_t flops = 0;
  const Elapsed t_asm = timed("fem.assemble", [&] {
    const FlopWindow window;
    fem::FeProblem fe(prob.mesh, prob.materials, prob.dofmap);
    sys = fem::assemble_linear_system(fe);
    flops = window.flops();
  });
  s.assemble.push_back(t_asm.cpu);
  s.assemble_wall.push_back(t_asm.wall);
  s.assemble_gflops.push_back(static_cast<double>(flops) / t_asm.cpu * 1e-9);

  mg::Hierarchy grids;
  const Elapsed t_grids = timed("mg.build_grids", [&] {
    grids = mg::Hierarchy::build_grids(prob.mesh, prob.dofmap, sys.stiffness,
                                       cfg.mg);
  });
  s.grids.push_back(t_grids.cpu);
  s.grids_wall.push_back(t_grids.wall);

  const int p = cfg.nranks;
  std::vector<dla::DistHierarchy> per_rank(static_cast<std::size_t>(p));
  std::vector<std::int64_t> galerkin(static_cast<std::size_t>(p), 0);
  const dla::MfProblem mf{&prob.mesh, &prob.materials, &prob.dofmap, true};
  const Elapsed t_dla = timed("dla.build", [&] {
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      comm.barrier();
      dla::DistHierarchy& h = per_rank[static_cast<std::size_t>(comm.rank())];
      h = dla::DistHierarchy::build(
          comm, grids, entry.vertex_owner, cfg.format,
          cfg.format == mg::MatrixFormat::kMf ? &mf : nullptr);
      galerkin[static_cast<std::size_t>(comm.rank())] = h.galerkin_flops();
      comm.barrier();
    });
  });
  s.dla_build.push_back(t_dla.cpu);
  s.dla_build_wall.push_back(t_dla.wall);
  double galerkin_flops = 0;
  for (const std::int64_t f : galerkin) galerkin_flops += static_cast<double>(f);
  s.galerkin_gflops.push_back(galerkin_flops / t_dla.cpu * 1e-9);
  return replay_mismatch(entry, sys, grids, per_rank);
}

/// Computed bytes one level-0 apply of k columns streams on one rank:
/// bench_kernels' per-format model (matrix data once, x and y once per
/// column; the matrix-free element pass runs once per column).
double fine_apply_bytes(const dla::DistMgLevel& l0, mg::MatrixFormat fmt,
                        int k) {
  constexpr double kReal = sizeof(real), kIdx = sizeof(idx);
  constexpr double kNnz = sizeof(nnz_t);
  if (fmt == mg::MatrixFormat::kMf) {
    return k * l0.a_mf->core().apply_bytes_per_row() *
           static_cast<double>(l0.a_mf->local_rows());
  }
  if (fmt == mg::MatrixFormat::kBsr3) {
    const la::Bsr3& a = l0.a_bsr->local_matrix();
    return static_cast<double>(a.vals.size()) * kReal +
           static_cast<double>(a.bcolidx.size()) * kIdx +
           static_cast<double>(a.browptr.size()) * kNnz +
           k * static_cast<double>(a.cols() + a.rows()) * kReal;
  }
  const la::Csr& a = l0.a.local_matrix();
  return static_cast<double>(a.nnz()) * (kReal + kIdx) +
         static_cast<double>(a.rowptr.size()) * kNnz +
         k * static_cast<double>(a.ncols + a.nrows) * kReal;
}

/// Each rank's wall and CPU times of the repeats of one call.
struct RankTimes {
  explicit RankTimes(int p)
      : wall(static_cast<std::size_t>(p)), cpu(static_cast<std::size_t>(p)) {}
  void add(int rank, const Elapsed& t) {
    wall[static_cast<std::size_t>(rank)].push_back(t.wall);
    cpu[static_cast<std::size_t>(rank)].push_back(t.cpu);
  }
  std::vector<std::vector<double>> wall, cpu;
};

/// Times the solve layers one call at a time on the service's hierarchy
/// and PCG workspaces, with the right-hand sides `b` (serial free-dof
/// numbering). Returns the isolated PCG solve's results.
std::vector<la::KrylovResult> time_solve_layers(const Workload& w,
                                                app::ServiceEntry& entry,
                                                const la::MultiVec& b,
                                                Samples& s) {
  const app::ServiceConfig cfg = service_config(w);
  const int p = cfg.nranks;
  const int k = b.cols();
  const mg::MatrixFormat fmt = cfg.format;
  mg::MgSolveOptions so;
  so.rtol = kRtol;
  so.max_iters = app::SolveRequest{}.max_iters;
  so.cycle = cfg.cycle;
  so.format = fmt;
  so.krylov = app::default_krylov(entry.problem->equation);

  RankTimes pcg(p), cycle(p), smooth(p), apply(p), halo(p), allreduce(p),
      coarse(p);
  std::vector<std::int64_t> messages(p), bytes(p), apply_flops(p);
  std::vector<double> apply_bytes(p);
  std::vector<la::KrylovResult> results;

  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const int r = comm.rank();
    const auto rr = static_cast<std::size_t>(r);
    const dla::DistHierarchy& h = entry.per_rank[rr];
    const dla::DistMgLevel& l0 = h.level(0);
    const std::vector<idx>& perm = h.permutation(0);
    const dla::RowDist& rows = l0.a.row_dist();
    const idx b0 = rows.begin(r);
    const idx nloc = rows.local_size(r);
    la::MultiVec bl(nloc, k), xl(nloc, k), yl(nloc, k);
    for (int j = 0; j < k; ++j) {
      for (idx i = 0; i < nloc; ++i) bl.col(j)[i] = b.col(j)[perm[b0 + i]];
    }
    // Repeats `fn` under a span, recording this rank's times each time.
    const auto repeat = [&](const char* name, int n, RankTimes& out,
                            const std::function<void()>& fn) {
      for (int i = 0; i < n; ++i) {
        comm.barrier();
        out.add(r, rank_timed(name, fn));
      }
    };

    const parx::TrafficStats before = comm.traffic();
    std::vector<la::KrylovResult> res;
    repeat("dla.pcg_solve", 1, pcg, [&] {
      res = dla::dist_mg_pcg_solve_mv(comm, h, bl, xl, so,
                                      &entry.workspaces[rr]);
    });
    const parx::TrafficStats after = comm.traffic();
    messages[rr] = after.messages_sent - before.messages_sent;
    bytes[rr] = after.bytes_sent - before.bytes_sent;
    if (r == 0) results = res;

    const dla::DistMgPreconditioner pre(h, so.cycle);
    repeat("mg.cycle", kRepeats, cycle,
           [&] { pre.apply_mv(comm, bl, yl); });
    repeat("dla.smooth", kRepeats, smooth,
           [&] { l0.smooth_mv(comm, bl, xl); });

    const FlopWindow window;
    repeat("dla.fine_apply", kRepeats, apply, [&] {
      if (fmt == mg::MatrixFormat::kMf) {
        l0.a_mf->spmm(comm, bl, yl);
      } else if (fmt == mg::MatrixFormat::kBsr3) {
        l0.a_bsr->spmm(comm, bl, yl);
      } else {
        l0.a.spmm(comm, bl, yl);
      }
    });
    apply_flops[rr] = window.flops() / kRepeats;
    apply_bytes[rr] = fine_apply_bytes(l0, fmt, k);

    const bool bsr = fmt == mg::MatrixFormat::kBsr3;
    const dla::HaloPlan& plan =
        bsr ? l0.a_bsr->halo_plan() : l0.a.halo_plan();
    la::MultiVec ext(bsr ? l0.a_bsr->local_matrix().cols()
                         : l0.a.local_matrix().ncols,
                     k);
    repeat("dla.halo", kRepeats, halo, [&] {
      plan.post_mv(comm, bl);
      plan.finish_mv(comm, ext);
    });
    repeat("parx.allreduce", kRepeats, allreduce, [&] {
      comm.allreduce(std::vector<double>(static_cast<std::size_t>(k), 1.0),
                     parx::Comm::ReduceOp::kSum);
    });

    // The coarsest level is factored redundantly on every rank; a cycle
    // solves it once per column.
    const dla::DistMgLevel& lc = h.level(h.num_levels() - 1);
    if (lc.direct != nullptr) {
      const std::vector<real> bc(static_cast<std::size_t>(lc.direct->n()), 1);
      std::vector<real> xc(bc.size());
      repeat("la.coarse_solve", kRepeats, coarse, [&] {
        for (int j = 0; j < k; ++j) lc.direct->solve(bc, xc);
      });
    }
  });

  s.pcg.push_back(median_of_rank_sum(pcg.cpu));
  s.cycle.push_back(median_of_rank_sum(cycle.cpu));
  s.smooth.push_back(median_of_rank_sum(smooth.cpu));
  s.halo.push_back(median_of_rank_sum(halo.cpu));
  s.allreduce.push_back(median_of_rank_sum(allreduce.cpu));
  s.coarse.push_back(median_of_rank_sum(coarse.cpu));
  s.pcg_wall.push_back(median_of_rank_max(pcg.wall));
  s.cycle_wall.push_back(median_of_rank_max(cycle.wall));
  s.halo_wall.push_back(median_of_rank_max(halo.wall));
  s.allreduce_wall.push_back(median_of_rank_max(allreduce.wall));
  s.pcg_imbalance.push_back(median_of_rank_max(pcg.cpu) /
                            (median_of_rank_sum(pcg.cpu) / p));
  const double t_apply = median_of_rank_sum(apply.cpu);
  s.fine_apply.push_back(t_apply);
  double flops = 0, moved = 0;
  for (int r = 0; r < p; ++r) {
    flops += static_cast<double>(apply_flops[r]);
    moved += apply_bytes[r];
  }
  s.fine_apply_gflops.push_back(flops / t_apply * 1e-9);
  s.fine_apply_gbps.push_back(moved / t_apply * 1e-9);
  for (int i = 0; i < kLaunchRepeats; ++i) {
    s.launch.push_back(
        timed("parx.launch", [&] {
          parx::Runtime::run(p, [](parx::Comm&) {});
        }).cpu);
  }

  if (s.counted) return results;
  s.counted = true;
  for (const la::KrylovResult& res : results) {
    s.iterations = std::max(s.iterations, res.iterations);
  }
  double msgs = 0, byts = 0;
  for (int r = 0; r < p; ++r) {
    msgs += static_cast<double>(messages[r]);
    byts += static_cast<double>(bytes[r]);
  }
  s.messages_per_rhs = msgs / k;
  s.bytes_per_rhs = byts / k;

  const dla::DistHierarchy& h0 = entry.per_rank[0];
  s.levels = h0.num_levels();
  double total = 0, fine = 0;
  for (int l = 0; l < s.levels; ++l) {
    double nnz = 0;
    for (const dla::DistHierarchy& h : entry.per_rank) {
      nnz += static_cast<double>(h.level(l).a.local_matrix().nnz());
    }
    total += nnz;
    if (l == 0) fine = nnz;
  }
  s.operator_complexity = total / fine;
  return results;
}

struct LayerMetric {
  const char* name;
  double value;
  const char* unit;
  const char* moves;  ///< the end-to-end metric and workload it should move
};

}  // namespace

RunOutput run_traced(const Workload& w, std::uint64_t seed, double seconds,
                     const std::string& trace_path) {
  const Inputs in = make_inputs(w, seed);
  Client client(w, in);
  obs::Tracer& tracer = obs::Tracer::instance();

  // Warm-up, untraced.
  client.cold(0);
  client.warm(client.next_rhs_slot());

  Samples s;
  RoundLoop loop(seconds);
  while (loop.next()) {
    tracer.set_enabled(true);
    const std::int64_t mark = obs::Tracer::now_ns();
    const Client::Cold c = client.cold(loop.rounds());
    if (c.entry == nullptr) continue;
    const obs::Report rep = obs::build_report(mark);
    s.setup.push_back(c.setup.cpu);
    s.phase_fine_grid.push_back(rep.phase_seconds("fine_grid"));
    s.phase_mesh_setup.push_back(rep.phase_seconds("mesh_setup"));
    s.phase_matrix_setup.push_back(rep.phase_seconds("matrix_setup"));

    ++client.attempted;
    const std::string mismatch = replay_setup(
        w, *in.problems[static_cast<std::size_t>(client.mesh_slot())],
        *c.entry, s);
    if (!mismatch.empty()) {
      client.check.record_failure("setup replay differs from the service's "
                                  "build in " + mismatch);
    }

    // The same warm request traced and untraced, in alternating order.
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass + loop.rounds()) % 2 == 0;
      tracer.set_enabled(traced);
      if (const auto t = client.warm(kTracedRhsSlot)) {
        (traced ? s.warm_traced : s.warm_untraced).push_back(t->cpu);
      }
    }
    tracer.set_enabled(true);
    ++client.attempted;
    client.check.check_iterations(
        time_solve_layers(w, *c.entry, in.rhs[kTracedRhsSlot], s),
        client.mesh_slot(), kTracedRhsSlot);
  }
  tracer.set_enabled(false);
  if (!trace_path.empty()) tracer.write_chrome_trace(trace_path);

  const double setup = median(s.setup);
  const double assemble = median(s.assemble);
  const double grids = median(s.grids);
  const double dla_build = median(s.dla_build);
  const double pcg = median(s.pcg);
  const double cycle = median(s.cycle);
  const double fine_apply = median(s.fine_apply);
  const double allreduce = median(s.allreduce);
  const double warm_traced = median(s.warm_traced);
  const double setup_other = setup - assemble - grids - dla_build;
  const double pcg_other =
      pcg - s.iterations * (cycle + fine_apply + 2 * allreduce);

  const std::vector<LayerMetric> layers = {
      {"fem.assemble_s", assemble, "s", "setup_s, cold_request_cpu_s on box_cold"},
      {"fem.assemble_gflops", median(s.assemble_gflops), "GFlop/s",
       "setup_s, cold_request_cpu_s on box_cold"},
      {"mg.build_grids_s", grids, "s", "setup_s on box_cold"},
      {"dla.build_s", dla_build, "s", "setup_s on box_cold, sphere_warm"},
      {"dla.galerkin_gflops", median(s.galerkin_gflops), "GFlop/s",
       "setup_s on box_cold, sphere_warm"},
      {"app.setup_other_s", setup_other, "s", "setup_s, all workloads"},
      {"mg.levels", static_cast<double>(s.levels), "count",
       "solve_cpu_s, peak_rss_mb, all workloads"},
      {"mg.operator_complexity", s.operator_complexity, "ratio",
       "solve_cpu_s, peak_rss_mb, all workloads"},
      {"dla.pcg_solve_s", pcg, "s", "solve_cpu_s, mostly sphere_warm"},
      {"dla.pcg_solve_wall_s", median(s.pcg_wall), "s",
       "solve_wall_s, mostly sphere_warm"},
      {"dla.pcg_rank_imbalance", median(s.pcg_imbalance), "ratio",
       "solve_wall_s on sphere_warm, box_batch; 1 on box_cold"},
      {"la.pcg_iterations", static_cast<double>(s.iterations), "count",
       "solve_cpu_s, mostly sphere_warm"},
      {"mg.cycle_s", cycle, "s", "solve_cpu_s on sphere_warm"},
      {"mg.cycle_wall_s", median(s.cycle_wall), "s",
       "solve_wall_s on sphere_warm"},
      {"dla.smooth_s", median(s.smooth), "s", "solve_cpu_s on sphere_warm"},
      {"la.coarse_solve_s", median(s.coarse), "s", "solve_cpu_s on sphere_warm"},
      {"dla.fine_apply_s", fine_apply, "s",
       "solve_cpu_s on box_batch, box_cold; none on sphere_warm for bsr3/mf"},
      {"dla.fine_apply_gflops", median(s.fine_apply_gflops), "GFlop/s",
       "solve_cpu_s on box_batch, box_cold"},
      {"dla.fine_apply_gbps", median(s.fine_apply_gbps), "GB/s",
       "solve_cpu_s on box_batch, box_cold (computed bytes)"},
      {"dla.halo_s", median(s.halo), "s",
       "solve_cpu_s on sphere_warm, box_batch; ~0 on box_cold"},
      {"dla.halo_wall_s", median(s.halo_wall), "s",
       "solve_wall_s on sphere_warm, box_batch; ~0 on box_cold"},
      {"parx.allreduce_s", allreduce, "s",
       "solve_cpu_s on sphere_warm, box_batch; ~0 on box_cold"},
      {"parx.allreduce_wall_s", median(s.allreduce_wall), "s",
       "solve_wall_s on sphere_warm, box_batch; ~0 on box_cold"},
      {"parx.messages_per_rhs", s.messages_per_rhs, "count",
       "solve_cpu_s on sphere_warm, box_batch; 0 on box_cold"},
      {"parx.bytes_per_rhs", s.bytes_per_rhs, "B",
       "solve_cpu_s on sphere_warm, box_batch; 0 on box_cold"},
      {"parx.launch_s", median(s.launch), "s", "solve_cpu_s on box_cold"},
      {"app.solve_other_s", warm_traced - pcg, "s", "solve_cpu_s on box_cold"},
      {"dla.pcg_unattributed_s", pcg_other, "s",
       "solve_cpu_s; the solve remainder"},
      {"obs.tracing_overhead_frac",
       warm_traced / median(s.warm_untraced) - 1, "ratio",
       "none; bounds how far traced numbers stray"},
  };

  std::printf("rounds           %d traced + 1 warm-up in %.1f s wall\n",
              loop.rounds(), loop.elapsed_s());
  std::printf("setup_s          cpu %s (traced)\n",
              describe(s.setup, "s").c_str());
  std::printf("solve            cpu %s traced, %s untraced\n",
              describe(s.warm_traced, "s").c_str(),
              describe(s.warm_untraced, "s").c_str());
  std::printf("%-26s %12s %-8s %s\n", "per-layer metric", "value", "unit",
              "should move");
  for (const LayerMetric& m : layers) {
    std::printf("%-26s %12.6g %-8s %s\n", m.name, m.value, m.unit, m.moves);
  }
  std::printf("unattributed setup  %.4f s of %.4f s (setup_s - assemble - "
              "grids - dla build)\n",
              setup_other, setup);
  std::printf("unattributed solve  %.4f s of %.4f s (pcg - %d x (cycle + "
              "fine apply + 2 allreduce))\n",
              pcg_other, pcg, s.iterations);
  std::printf("replay vs program spans (wall): fem.assemble %.4f / "
              "phase.fine_grid %.4f, mg.build_grids %.4f / phase.mesh_setup "
              "%.4f, dla.build %.4f / phase.matrix_setup %.4f s\n",
              median(s.assemble_wall), median(s.phase_fine_grid),
              median(s.grids_wall), median(s.phase_mesh_setup),
              median(s.dla_build_wall), median(s.phase_matrix_setup));
  if (!trace_path.empty()) {
    std::printf("chrome trace     %s\n", trace_path.c_str());
  }

  RunOutput out;
  out.attempted = client.attempted;
  out.failed = client.check.failed();
  for (const LayerMetric& m : layers) {
    out.metrics.push_back({m.name, m.value, m.unit});
  }
  return out;
}

}  // namespace perfbench
