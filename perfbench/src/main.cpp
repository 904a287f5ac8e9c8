// perfbench: drives app::SolveService as one closed-loop client through a
// named workload and prints its metrics; the last line of output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//   perfbench --workload <box_cold|sphere_warm|box_batch> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// reports the per-layer metrics of a separate traced run.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/parallel.h"
#include "metrics.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Every environment knob the program reads. Each one silently changes a
// workload (format, rank threads, halo schedule, chunking, agglomeration,
// refinement, equation class, tracing), so a run refuses to start when
// any is set.
constexpr const char* kKnobs[] = {
    "PROM_THREADS", "PROM_MATRIX",  "PROM_HALO",     "PROM_RHS_BLOCK",
    "PROM_MIN_ROWS_PER_RANK",       "PROM_REFINE",   "PROM_EQUATION",
    "PROM_TRACE"};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifdef NDEBUG
constexpr int kNdebug = 1;
#else
constexpr int kNdebug = 0;
#endif

#ifdef __AVX2__
constexpr int kAvx2 = 1;
#else
constexpr int kAvx2 = 0;
#endif

const char* format_name(const Workload& w) {
  switch (service_config(w).format) {
    case prom::mg::MatrixFormat::kCsr: return "csr";
    case prom::mg::MatrixFormat::kBsr3: return "bsr3";
    case prom::mg::MatrixFormat::kMf: return "mf";
  }
  return "?";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  return 2;
}

void print_json(const RunOutput& out) {
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i > 0 ? ", " : "", m.name.c_str());
    if (std::isfinite(m.value)) {
      std::printf("%.17g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_file;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::atoll(val);
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--trace-file") {
      trace_file = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage("--seed >= 0, --seconds > 0 and --trace 0|1 are required");
  }
  for (const char* knob : kKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "workload\n",
                   knob);
      return 2;
    }
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimized or sanitizer "
                 "build\n");
    return 2;
  }

  std::printf("build            %s %s, __OPTIMIZE__=%d NDEBUG=%d __AVX2__=%d "
              "sanitizer=%d, nproc=%ld\n",
#ifdef __clang__
              "clang",
#else
              "gcc",
#endif
              __VERSION__, kOptimized ? 1 : 0, kNdebug, kAvx2,
              kSanitized ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("workload         %s: %d rank(s) x %d kernel thread(s), %s, "
              "%d RHS/request, 1 cold + %d warm requests/round, %s, seed "
              "%lld, %s\n",
              w->name, w->ranks, kKernelThreads, format_name(*w),
              w->rhs_per_request, w->warm_per_round,
              w->fresh_mesh_per_round() ? "new mesh per round, one service"
                                        : "one mesh, new service per round",
              seed, trace ? "traced" : "untraced");
  std::fflush(stdout);

  prom::common::set_kernel_threads(kKernelThreads);
  try {
    const RunOutput out =
        trace ? run_traced(*w, static_cast<std::uint64_t>(seed), seconds,
                           trace_file)
              : run_untraced(*w, static_cast<std::uint64_t>(seed), seconds);
    print_json(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
