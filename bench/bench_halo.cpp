// Halo-exchange rank × threads sweep: fine-level SpMV (a one-column
// DistCsr::spmm) on the box-problem stiffness. Each product posts its
// sends, drains the peers in rank order and runs its whole local kernel;
// this harness measures where the time goes, reading every number out of
// the obs tracer: the SpMV loop runs under "phase.halo_spmv" and the
// product's "halo.post"/"halo.finish"/"halo.local" spans break its wall
// into pieces. Emits BENCH_halo.json with the messages and bytes one SpMV
// sends, summed over ranks from the parx traffic counters; those counts
// are exact.
//
// Environment: PROM_BENCH_FULL=1 enlarges the problem; PROM_BENCH_SMOKE=1
// shrinks it (the CI smoke lane).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "app/driver.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dla/dist_mg.h"
#include "fem/assembly.h"
#include "mg/hierarchy.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "partition/rcb.h"
#include "parx/runtime.h"

using namespace prom;

namespace {

double component_max_seconds(const obs::Report& rep, const char* name) {
  const obs::ComponentEntry* c = rep.component(name, obs::kNoLevel);
  return c == nullptr ? 0.0 : c->max_rank_seconds;
}

}  // namespace

int main() {
  const bool full = std::getenv("PROM_BENCH_FULL") != nullptr;
  const bool smoke = std::getenv("PROM_BENCH_SMOKE") != nullptr;
  const idx n = smoke ? 10 : (full ? 20 : 14);
  const int iters = smoke ? 40 : 400;
  const app::ModelProblem problem = app::make_box_problem(n);
  fem::FeProblem fe(problem.mesh, problem.materials, problem.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  const idx unknowns = sys.stiffness.nrows;
  mg::MgOptions mo;
  const mg::Hierarchy grids = mg::Hierarchy::build_grids(
      problem.mesh, problem.dofmap, std::move(sys.stiffness), mo);

  struct Row {
    int ranks;
    int threads;
    std::int64_t messages;  // per SpMV, summed over ranks
    std::int64_t bytes;
    double wall;
    double post_s;
    double finish_s;
    double local_s;
  };
  std::vector<Row> rows;

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("halo exchange rank x threads sweep, %d unknowns, %d spmv "
              "iterations per timing, %u host cores\n",
              unknowns, iters, cores);
  std::printf("%-6s %-8s | %-5s %-7s | %-10s | %-24s\n", "ranks", "threads",
              "msgs", "bytes", "wall (s)", "post/finish/local (ms)");
  const std::vector<int> rank_sweep =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> thread_sweep =
      smoke ? std::vector<int>{1} : std::vector<int>{1, 4};
  for (const int p : rank_sweep) {
    const std::vector<idx> owner =
        partition::rcb_partition(problem.mesh.coords(), p);
    for (const int t : thread_sweep) {
      common::set_kernel_threads(t);
      Row row{};
      row.ranks = p;
      row.threads = t;
      // Messages and bytes the timed loop sent, per rank.
      std::vector<parx::TrafficStats> sent(static_cast<std::size_t>(p));
      const std::int64_t mark = obs::Tracer::now_ns();
      parx::Runtime::run(p, [&](parx::Comm& comm) {
        const dla::DistHierarchy dh =
            dla::DistHierarchy::build(comm, grids, owner);
        const dla::DistCsr& a = dh.level(0).a;
        const idx ln = a.local_rows();
        Rng rng(17 + static_cast<std::uint64_t>(comm.rank()));
        // One vector is a one-column block.
        la::MultiVec x(ln, 1), y(ln, 1);
        for (real& v : x.col(0)) v = rng.next_real() - 0.5;
        comm.barrier();
        const obs::Span span("phase.halo_spmv");
        const parx::TrafficStats before = comm.traffic();
        for (int it = 0; it < iters; ++it) a.spmm(comm, x, y);
        const parx::TrafficStats after = comm.traffic();
        sent[comm.rank()] = {after.messages_sent - before.messages_sent,
                             after.bytes_sent - before.bytes_sent};
        comm.barrier();
      });
      obs::build_report(mark).write_json("report.json");
      const obs::Report rep = obs::Report::read_json("report.json");
      const obs::PhaseEntry* phase = rep.phase("halo_spmv");
      if (phase == nullptr) {
        std::fprintf(stderr, "report.json is missing phase halo_spmv\n");
        return 1;
      }
      row.wall = phase->seconds();
      row.post_s = component_max_seconds(rep, "halo.post");
      row.finish_s = component_max_seconds(rep, "halo.finish");
      row.local_s = component_max_seconds(rep, "halo.local");
      for (const parx::TrafficStats& s : sent) {
        row.messages += s.messages_sent;
        row.bytes += s.bytes_sent;
      }
      row.messages /= iters;
      row.bytes /= iters;
      rows.push_back(row);
      std::printf("%-6d %-8d | %-5lld %-7lld | %-10.4f | %.1f/%.1f/%.1f\n",
                  row.ranks, row.threads,
                  static_cast<long long>(row.messages),
                  static_cast<long long>(row.bytes), row.wall,
                  row.post_s * 1e3, row.finish_s * 1e3, row.local_s * 1e3);
    }
  }
  common::set_kernel_threads(0);
  tracer.set_enabled(was_tracing);
  std::printf(
      "\nRanks are threads and a message is an in-memory copy, so the\n"
      "drain ('finish') wall is time spent waiting for the slowest peer to\n"
      "post (or descheduled, on a host with fewer cores than ranks), not\n"
      "network latency.\n");

  std::FILE* json = std::fopen("BENCH_halo.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_halo.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"halo\",\n  \"unknowns\": %d,\n"
               "  \"spmv_iters\": %d,\n  \"host_cores\": %u,\n"
               "  \"sweep\": [\n",
               unknowns, iters, cores);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"ranks\": %d, \"threads\": %d, \"messages\": %lld, "
                 "\"bytes\": %lld, \"wall_s\": %.6f, \"halo_post_s\": %.6f, "
                 "\"halo_finish_s\": %.6f}%s\n",
                 r.ranks, r.threads, static_cast<long long>(r.messages),
                 static_cast<long long>(r.bytes), r.wall, r.post_s,
                 r.finish_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_halo.json (timings read from report.json)\n");
  return 0;
}
