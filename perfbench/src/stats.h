// Clocks and sample summaries for the benchmark.
//
// Most times are CPU seconds: on the virtual machines this benchmark runs
// on, the hypervisor steals the vCPUs for seconds to minutes at a time,
// which doubled a warm request's wall time while its CPU time moved by a
// few percent (see README.md). CPU time leaves out that stolen time, which
// no change to the program can move, but also the time ranks spend blocked
// waiting for each other. The unstolen wall time (Elapsed::unstolen) counts
// the waiting and takes an estimate of the stolen time out instead.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Wall time and this process's CPU time (user + system, every thread,
/// including threads that have exited), in seconds.
struct Clock {
  double wall = 0;
  double cpu = 0;
  static Clock now();
};

/// vCPU time of the whole VM since boot, summed over vCPUs (/proc/stat),
/// in seconds; zeros when unavailable.
struct VmTimes {
  double steal = 0;  ///< vCPUs runnable but descheduled by the hypervisor
  double busy = 0;   ///< user, nice, system, irq and softirq time
  static VmTimes now();
};

struct Elapsed {
  double wall = 0;
  double cpu = 0;
  /// Steal and busy time of the VM meanwhile; zero unless filled by
  /// `measured`.
  double steal = 0;
  double vm_busy = 0;
  /// Wall time less the vCPU time stolen from this process meanwhile: the
  /// VM's steal scaled by this process's share of the VM's busy time.
  /// Unlike CPU time it counts the time ranks spend waiting for each
  /// other. Steal often hits several vCPUs at once and then delays the
  /// request by less than its sum, so the result is never taken below
  /// the mean CPU time of the `threads` busy threads: a lower bound of the
  /// unstolen wall time, since each of them lives through the request.
  double unstolen(int threads) const;
};

inline Elapsed operator-(const Clock& end, const Clock& start) {
  return {end.wall - start.wall, end.cpu - start.cpu};
}

/// `clocks` with the VM times read just outside them, so the steal and busy
/// interval covers the clocks' interval.
Elapsed measured(const Elapsed& clocks, const VmTimes& before,
                 const VmTimes& after);

/// CPU time of the calling thread, in seconds.
double thread_cpu_s();

/// Median of `v` (mean of the two middle values for an even count); NaN
/// when empty.
double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] of `v`; NaN when empty.
double quantile(std::vector<double> v, double q);

/// Sum (or maximum) over ranks of each repeat, then the median over
/// repeats: `per_rank[r][i]` is rank r's time in repeat i.
double median_of_rank_sum(const std::vector<std::vector<double>>& per_rank);
double median_of_rank_max(const std::vector<std::vector<double>>& per_rank);

/// "median 0.1234 s, p90 0.1301 s (n=123)": the highest standard
/// percentile with at least ten samples beyond it is shown only when one
/// exists (n >= 40).
std::string describe(const std::vector<double>& samples, const char* unit);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
