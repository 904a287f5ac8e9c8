// Halo-exchange rank × threads sweep: fine-level SpMV (a one-column
// DistCsr::spmm) on the box-problem stiffness, synchronous rank-ordered
// drain vs the latency-hiding schedule (post sends, compute interior
// rows, drain peers in arrival order, finish boundary rows). Both paths
// produce bitwise-identical results (gated by test_halo); this harness
// measures what the overlap buys and where the time goes, reading every
// number out of the obs tracer: the SpMV loop runs under
// "phase.halo_spmv" and the plan's "halo.post"/"halo.interior"/
// "halo.finish"/"halo.boundary" spans break the overlapped wall into its
// pieces. Emits BENCH_halo.json with the interior/boundary row split per
// configuration, so the speedup can be judged against the boundary
// fraction (overlap pays off where interior work dominates — the paper's
// surface-to-volume argument), and with the messages and bytes one SpMV
// sends, summed over ranks from the parx traffic counters. Those counts
// are exact; the bench fails if the two halo modes disagree on them.
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
#include "dla/halo.h"
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
    std::int64_t interior_rows;
    std::int64_t boundary_rows;
    std::int64_t messages;  // per SpMV, summed over ranks
    std::int64_t bytes;
    double wall_sync;
    double wall_overlap;
    double post_s;
    double interior_s;
    double finish_s;
    double boundary_s;
  };
  std::vector<Row> rows;

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("halo exchange rank x threads sweep, %d unknowns, %d spmv "
              "iterations per timing, %u host cores\n",
              unknowns, iters, cores);
  std::printf("%-6s %-8s | %-10s %-10s | %-5s %-7s | %-11s %-11s %-8s | "
              "%-27s\n",
              "ranks", "threads", "interior", "boundary", "msgs", "bytes",
              "sync (s)", "overlap (s)", "speedup",
              "overlap post/int/fin/bnd (ms)");
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
      std::vector<std::int64_t> interior(static_cast<std::size_t>(p), 0);
      std::vector<std::int64_t> boundary(static_cast<std::size_t>(p), 0);
      // Messages and bytes the timed loop sent, per rank and halo mode.
      std::vector<parx::TrafficStats> sent[2];
      for (const dla::HaloMode mode :
           {dla::HaloMode::kSync, dla::HaloMode::kOverlap}) {
        dla::set_halo_mode(mode);
        std::vector<parx::TrafficStats>& mode_sent =
            sent[mode == dla::HaloMode::kSync ? 0 : 1];
        mode_sent.assign(static_cast<std::size_t>(p), {});
        const std::int64_t mark = obs::Tracer::now_ns();
        parx::Runtime::run(p, [&](parx::Comm& comm) {
          const dla::DistHierarchy dh =
              dla::DistHierarchy::build(comm, grids, owner);
          const dla::DistCsr& a = dh.level(0).a;
          interior[comm.rank()] =
              static_cast<std::int64_t>(a.interior_rows().size());
          boundary[comm.rank()] =
              static_cast<std::int64_t>(a.boundary_rows().size());
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
          mode_sent[comm.rank()] = {after.messages_sent - before.messages_sent,
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
        if (mode == dla::HaloMode::kSync) {
          row.wall_sync = phase->seconds();
        } else {
          row.wall_overlap = phase->seconds();
          row.post_s = component_max_seconds(rep, "halo.post");
          row.interior_s = component_max_seconds(rep, "halo.interior");
          row.finish_s = component_max_seconds(rep, "halo.finish");
          row.boundary_s = component_max_seconds(rep, "halo.boundary");
        }
      }
      std::int64_t messages[2] = {}, bytes[2] = {};
      for (int r = 0; r < p; ++r) {
        row.interior_rows += interior[static_cast<std::size_t>(r)];
        row.boundary_rows += boundary[static_cast<std::size_t>(r)];
        for (int m = 0; m < 2; ++m) {
          messages[m] += sent[m][static_cast<std::size_t>(r)].messages_sent;
          bytes[m] += sent[m][static_cast<std::size_t>(r)].bytes_sent;
        }
      }
      if (messages[0] != messages[1] || bytes[0] != bytes[1]) {
        std::fprintf(stderr,
                     "halo modes sent different traffic at p = %d: sync "
                     "%lld messages / %lld bytes, overlap %lld / %lld\n",
                     p, static_cast<long long>(messages[0]),
                     static_cast<long long>(bytes[0]),
                     static_cast<long long>(messages[1]),
                     static_cast<long long>(bytes[1]));
        return 1;
      }
      row.messages = messages[0] / iters;
      row.bytes = bytes[0] / iters;
      rows.push_back(row);
      std::printf(
          "%-6d %-8d | %-10lld %-10lld | %-5lld %-7lld | %-11.4f %-11.4f "
          "%-8.2f | %.1f/%.1f/%.1f/%.1f\n",
          row.ranks, row.threads, static_cast<long long>(row.interior_rows),
          static_cast<long long>(row.boundary_rows),
          static_cast<long long>(row.messages),
          static_cast<long long>(row.bytes), row.wall_sync,
          row.wall_overlap,
          row.wall_overlap > 0 ? row.wall_sync / row.wall_overlap : 0.0,
          row.post_s * 1e3, row.interior_s * 1e3, row.finish_s * 1e3,
          row.boundary_s * 1e3);
    }
  }
  common::set_kernel_threads(0);
  dla::set_halo_mode(dla::HaloMode::kOverlap);
  tracer.set_enabled(was_tracing);
  std::printf(
      "\nshape claim: with a core per rank, the boundary fraction stays\n"
      "small at p >= 4, the peer drain hides behind the interior sweep, and\n"
      "the overlapped wall beats the synchronous rank-ordered drain; at\n"
      "p = 1 there are no peers and the two schedules coincide. On a host\n"
      "with fewer cores than ranks the virtual ranks time-slice one CPU, so\n"
      "there is no idle time for the overlap to reclaim and the wall\n"
      "comparison degenerates to scheduler noise — the interior/boundary\n"
      "split and the per-phase breakdown stay meaningful; the drain\n"
      "('finish') wall is then the time spent descheduled, not network\n"
      "latency.\n");
  if (cores <= 1) {
    std::printf("note: single-core host detected — expect overlap ~= sync "
                "at best.\n");
  }

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
    std::fprintf(
        json,
        "    {\"ranks\": %d, \"threads\": %d, \"interior_rows\": %lld, "
        "\"boundary_rows\": %lld, \"messages\": %lld, \"bytes\": %lld, "
        "\"wall_sync_s\": %.6f, "
        "\"wall_overlap_s\": %.6f, \"halo_post_s\": %.6f, "
        "\"halo_interior_s\": %.6f, \"halo_finish_s\": %.6f, "
        "\"halo_boundary_s\": %.6f}%s\n",
        r.ranks, r.threads, static_cast<long long>(r.interior_rows),
        static_cast<long long>(r.boundary_rows),
        static_cast<long long>(r.messages), static_cast<long long>(r.bytes),
        r.wall_sync, r.wall_overlap,
        r.post_s, r.interior_s, r.finish_s, r.boundary_s,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_halo.json (timings read from report.json)\n");
  return 0;
}
