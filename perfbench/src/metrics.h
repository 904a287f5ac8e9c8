// What one benchmark run reports: the request counts and the metrics the
// last line of output carries as JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Workload;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// End-to-end run with tracing off: setup_s, cold_request_cpu_s,
/// cold_request_wall_s, solve_cpu_s, solve_wall_s, peak_rss_mb.
RunOutput run_untraced(const Workload& w, std::uint64_t seed, double seconds);

/// Traced run: the per-layer metrics, timed under the benchmark's own
/// spans; the Chrome trace of every span goes to `trace_path`.
RunOutput run_traced(const Workload& w, std::uint64_t seed, double seconds,
                     const std::string& trace_path);

}  // namespace perfbench
