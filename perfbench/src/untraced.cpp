// The end-to-end run: rounds of one cold request and the workload's warm
// requests, after a discarded warm-up, with tracing off. Every metric is a
// median over all rounds of the run, never a mean or a tail: a single
// closed-loop client has no queue, so its tail is host noise.
#include <cstdio>

#include "client.h"
#include "metrics.h"
#include "stats.h"

namespace perfbench {

namespace {

/// The times of one kind of request over a run.
struct Series {
  explicit Series(int threads) : ranks(threads) {}
  void add(const Elapsed& t) {
    cpu.push_back(t.cpu);
    unstolen.push_back(t.unstolen(ranks));
    wall.push_back(t.wall);
    steal.push_back(t.steal);
  }
  void print(const char* name) const {
    std::printf("%-16s cpu %s\n", name, describe(cpu, "s").c_str());
    std::printf("%-16s unstolen wall %s\n", "",
                describe(unstolen, "s").c_str());
    std::printf("%-16s wall %s; vm steal %s\n", "",
                describe(wall, "s").c_str(), describe(steal, "s").c_str());
  }

  int ranks;
  std::vector<double> cpu, unstolen, wall, steal;
};

}  // namespace

RunOutput run_untraced(const Workload& w, std::uint64_t seed,
                       double seconds) {
  const Inputs in = make_inputs(w, seed);
  Client client(w, in);

  // Warm-up: a process's first build runs measurably slower.
  client.cold(0);
  client.warm(client.next_rhs_slot());

  Series setup(w.ranks), cold(w.ranks), solve(w.ranks);
  const VmTimes vm_start = VmTimes::now();
  const Clock start = Clock::now();
  RoundLoop loop(seconds);
  while (loop.next()) {
    const Client::Cold c = client.cold(loop.rounds());
    if (c.entry != nullptr) {
      setup.add(c.setup);
      cold.add(c.request);
    }
    for (int j = 0; j < w.warm_per_round; ++j) {
      if (const auto t = client.warm(client.next_rhs_slot())) solve.add(*t);
    }
  }
  const Elapsed run = measured(Clock::now() - start, vm_start, VmTimes::now());

  RunOutput out;
  out.attempted = client.attempted;
  out.failed = client.check.failed();
  std::printf("rounds           %d measured + 1 warm-up in %.1f s wall\n",
              loop.rounds(), run.wall);
  setup.print("setup_s");
  cold.print("cold_request");
  solve.print("solve");
  std::printf("peak_rss_mb      %.1f MB\n", peak_rss_mb());
  std::printf("failed_frac      %.4f (%lld of %lld requests)\n",
              static_cast<double>(out.failed) /
                  static_cast<double>(out.attempted),
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
  std::printf("vm               %.1f vCPU-s stolen, %.1f busy, in %.1f s "
              "wall (this process's cpu %.1f s)\n",
              run.steal, run.vm_busy, run.wall, run.cpu);
  std::printf("max true relres  %.3g (rtol %.0e)\n",
              client.check.max_relres(), kRtol);
  std::printf("pcg iterations   %s\n",
              client.check.iteration_signature().c_str());
  out.metrics = {{"setup_s", median(setup.cpu), "s"},
                 {"cold_request_cpu_s", median(cold.cpu), "s"},
                 {"cold_request_wall_s", median(cold.unstolen), "s"},
                 {"solve_cpu_s", median(solve.cpu), "s"},
                 {"solve_wall_s", median(solve.unstolen), "s"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"}};
  return out;
}

}  // namespace perfbench
