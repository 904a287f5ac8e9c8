#include "stats.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

Clock Clock::now() {
  return {clock_s(CLOCK_MONOTONIC), clock_s(CLOCK_PROCESS_CPUTIME_ID)};
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

VmTimes VmTimes::now() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {};
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {};
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  return {static_cast<double>(v[7]) / tick,
          static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]) / tick};
}

double Elapsed::unstolen(int threads) const {
  const double share = vm_busy > cpu ? cpu / vm_busy : 1.0;
  return std::max(wall - steal * share, cpu / threads);
}

Elapsed measured(const Elapsed& clocks, const VmTimes& before,
                 const VmTimes& after) {
  Elapsed e = clocks;
  e.steal = after.steal - before.steal;
  e.vm_busy = after.busy - before.busy;
  return e;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

template <class Combine>
double median_of_ranks(const std::vector<std::vector<double>>& per_rank,
                       Combine combine) {
  if (per_rank.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> total = per_rank[0];
  for (std::size_t r = 1; r < per_rank.size(); ++r) {
    for (std::size_t i = 0; i < total.size() && i < per_rank[r].size(); ++i) {
      total[i] = combine(total[i], per_rank[r][i]);
    }
  }
  return median(std::move(total));
}

}  // namespace

double median_of_rank_sum(const std::vector<std::vector<double>>& per_rank) {
  return median_of_ranks(per_rank, [](double a, double b) { return a + b; });
}

double median_of_rank_max(const std::vector<std::vector<double>>& per_rank) {
  return median_of_ranks(per_rank,
                         [](double a, double b) { return std::max(a, b); });
}

std::string describe(const std::vector<double>& samples, const char* unit) {
  char buf[160];
  const double n = static_cast<double>(samples.size());
  int len = std::snprintf(buf, sizeof(buf), "median %.4g %s",
                          median(samples), unit);
  for (const double p : {99.9, 99.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      len += std::snprintf(buf + len, sizeof(buf) - len, ", p%g %.4g %s", p,
                           quantile(samples, p / 100.0), unit);
      break;
    }
  }
  std::snprintf(buf + len, sizeof(buf) - len, " (n=%zu)", samples.size());
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
