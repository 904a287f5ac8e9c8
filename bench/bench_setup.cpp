// Matrix-setup rank sweep: the distributed Galerkin setup (Epimetheus,
// dla::DistHierarchy::build) on a fixed box problem at 1/2/4/8 virtual
// ranks. Reports wall time, the max-over-ranks flops spent in the R A R^T
// triple products (the quantity that must shrink as ranks grow now that
// setup is row-distributed), and the setup-phase communication volume.
// Emits BENCH_setup.json in the working directory so the perf trajectory
// tracks setup, not just solve kernels.
//
// Wall time and traffic come out of the obs tracer: each sweep's
// "phase.matrix_setup" spans are aggregated into report.json and the
// table is printed from the parsed file — there is no stopwatch here.
//
// Environment: PROM_BENCH_FULL=1 enlarges the problem; PROM_BENCH_SMOKE=1
// shrinks it (the CI smoke lane).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "dla/dist_mg.h"
#include "fem/assembly.h"
#include "mg/hierarchy.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "partition/rcb.h"
#include "parx/runtime.h"

using namespace prom;

int main() {
  const bool full = std::getenv("PROM_BENCH_FULL") != nullptr;
  const bool smoke = std::getenv("PROM_BENCH_SMOKE") != nullptr;
  const idx n = smoke ? 10 : (full ? 24 : 14);
  const app::ModelProblem problem = app::make_box_problem(n);
  fem::FeProblem fe(problem.mesh, problem.materials, problem.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  const idx unknowns = sys.stiffness.nrows;
  mg::MgOptions mo;
  const mg::Hierarchy grids = mg::Hierarchy::build_grids(
      problem.mesh, problem.dofmap, std::move(sys.stiffness), mo);

  struct Row {
    int ranks;
    double wall;
    std::int64_t max_galerkin_flops;
    std::int64_t bytes;
    std::int64_t messages;
  };
  std::vector<Row> rows;

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);

  std::printf("matrix setup (distributed R A R^T) rank sweep, %d unknowns, "
              "%d levels\n",
              unknowns, grids.num_levels());
  std::printf("%-6s | %-10s %-18s %-12s %-9s\n", "ranks", "setup (s)",
              "max galerkin Mflop", "sent MB", "messages");
  const std::vector<int> sweep = smoke ? std::vector<int>{1, 2, 4}
                                       : std::vector<int>{1, 2, 4, 8};
  for (const int p : sweep) {
    const std::vector<idx> owner =
        partition::rcb_partition(problem.mesh.coords(), p);
    std::vector<std::int64_t> flops(static_cast<std::size_t>(p), 0);
    const std::int64_t mark = obs::Tracer::now_ns();
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      comm.barrier();
      const obs::Span span("phase.matrix_setup");
      const dla::DistHierarchy dist =
          dla::DistHierarchy::build(comm, grids, owner);
      comm.barrier();
      flops[comm.rank()] = dist.galerkin_flops();
    });
    obs::build_report(mark).write_json("report.json");
    const obs::Report rep = obs::Report::read_json("report.json");
    const obs::PhaseEntry* phase = rep.phase("matrix_setup");
    if (phase == nullptr) {
      std::fprintf(stderr, "report.json is missing phase matrix_setup\n");
      return 1;
    }
    Row row{p, phase->seconds(), 0, phase->bytes, phase->messages};
    for (int r = 0; r < p; ++r) {
      row.max_galerkin_flops =
          std::max(row.max_galerkin_flops, flops[static_cast<std::size_t>(r)]);
    }
    rows.push_back(row);
    std::printf("%-6d | %-10.3f %-18.1f %-12.2f %-9lld\n", row.ranks, row.wall,
                static_cast<double>(row.max_galerkin_flops) / 1e6,
                static_cast<double>(row.bytes) / 1e6,
                static_cast<long long>(row.messages));
  }
  // Per-level cycle-traffic table: the same problem at the sweep's largest
  // rank count, V-cycled with coarse-level agglomeration off vs on. The
  // mg.* cycle components of the obs report give messages/bytes per level;
  // the mg.active_ranks gauge shows where the rank set shrinks. This is
  // the table that must show the coarse-grid message count collapsing
  // (the latency bill of the coarse levels) while level 0 is untouched.
  const int pmax = sweep.back();
  const std::vector<idx> tr_owner =
      partition::rcb_partition(problem.mesh.coords(), pmax);
  struct LevelRow {
    int level;
    int active;
    std::int64_t messages;
    std::int64_t bytes;
  };
  struct TrafficRun {
    long long min_rows;
    std::vector<LevelRow> levels;
  };
  std::vector<TrafficRun> truns;
  static constexpr const char* kCycleComponents[] = {
      "mg.smooth", "mg.residual", "mg.restrict", "mg.prolong",
      "mg.coarse_solve"};
  constexpr int kCycles = 3;
  for (const idx min_rows : {idx{0}, idx{1000}}) {
    mg::MgOptions amo = mo;
    amo.agglom_min_rows = min_rows;
    fem::LinearSystem asys = fem::assemble_linear_system(fe);
    const mg::Hierarchy agrids = mg::Hierarchy::build_grids(
        problem.mesh, problem.dofmap, std::move(asys.stiffness), amo);
    const std::int64_t mark = obs::Tracer::now_ns();
    parx::Runtime::run(pmax, [&](parx::Comm& comm) {
      const dla::DistHierarchy dist =
          dla::DistHierarchy::build(comm, agrids, tr_owner);
      const idx nloc = dist.level(0).local_n();
      la::MultiVec b(nloc, 1);
      std::fill(b.col(0).begin(), b.col(0).end(), 1.0);
      la::MultiVec x(nloc, 1);
      comm.barrier();
      for (int it = 0; it < kCycles; ++it) dist_vcycle(comm, dist, 0, b, x);
    });
    const obs::Report rep = obs::build_report(mark);
    TrafficRun run{static_cast<long long>(min_rows), {}};
    for (int l = 0; l < agrids.num_levels(); ++l) {
      LevelRow lr{l, pmax, 0, 0};
      const double active = rep.gauge("mg.active_ranks", l);
      if (active == active) lr.active = static_cast<int>(active);
      for (const char* name : kCycleComponents) {
        if (const obs::ComponentEntry* c = rep.component(name, l)) {
          lr.messages += c->messages;
          lr.bytes += c->bytes;
        }
      }
      run.levels.push_back(lr);
    }
    truns.push_back(std::move(run));
  }
  std::printf("\nper-level cycle traffic at %d ranks (%d V-cycles), "
              "agglomeration off vs on (min %lld rows/rank):\n",
              pmax, kCycles, truns[1].min_rows);
  std::printf("%-6s | %-21s | %-21s\n", "level", "off: act msgs KB",
              "on:  act msgs KB");
  for (std::size_t l = 0; l < truns[0].levels.size(); ++l) {
    const LevelRow& off = truns[0].levels[l];
    const LevelRow& on = truns[1].levels[l];
    std::printf("%-6d | %3d %7lld %9.1f | %3d %7lld %9.1f\n", off.level,
                off.active, static_cast<long long>(off.messages),
                static_cast<double>(off.bytes) / 1e3, on.active,
                static_cast<long long>(on.messages),
                static_cast<double>(on.bytes) / 1e3);
  }

  tracer.set_enabled(was_tracing);
  std::printf(
      "\nshape claim: the busiest rank's triple-product flops shrink as\n"
      "ranks grow (per-rank setup work scales with local rows); the\n"
      "communication volume is the price of the row-distributed product;\n"
      "agglomeration trades a one-time redistribution for coarse levels\n"
      "that stop paying per-cycle message latency.\n");

  std::FILE* json = std::fopen("BENCH_setup.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_setup.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"setup\",\n  \"unknowns\": %d,\n"
                     "  \"levels\": %d,\n  \"sweep\": [\n",
               unknowns, grids.num_levels());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"ranks\": %d, \"wall_setup_s\": %.6f, "
                 "\"max_rank_galerkin_flops\": %lld, \"setup_bytes\": %lld, "
                 "\"setup_messages\": %lld}%s\n",
                 r.ranks, r.wall, static_cast<long long>(r.max_galerkin_flops),
                 static_cast<long long>(r.bytes),
                 static_cast<long long>(r.messages),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"cycle_traffic\": [\n");
  for (std::size_t t = 0; t < truns.size(); ++t) {
    const TrafficRun& run = truns[t];
    std::fprintf(json,
                 "    {\"min_rows_per_rank\": %lld, \"ranks\": %d, "
                 "\"vcycles\": %d, \"levels\": [\n",
                 run.min_rows, pmax, kCycles);
    for (std::size_t l = 0; l < run.levels.size(); ++l) {
      const LevelRow& lr = run.levels[l];
      std::fprintf(json,
                   "      {\"level\": %d, \"active_ranks\": %d, "
                   "\"messages\": %lld, \"bytes\": %lld}%s\n",
                   lr.level, lr.active, static_cast<long long>(lr.messages),
                   static_cast<long long>(lr.bytes),
                   l + 1 < run.levels.size() ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", t + 1 < truns.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_setup.json (timings read from report.json)\n");
  return 0;
}
