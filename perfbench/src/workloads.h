// The benchmark's workloads and the inputs each one generates from a
// seed. A workload is a SolveService configuration (ranks, matrix format,
// right-hand sides per request) plus the shape of one round: the cold
// request that builds a hierarchy and the warm requests that reuse it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/service.h"

namespace perfbench {

/// Kernel threads per rank in every workload. With at most two ranks this
/// keeps a run to two busy threads: the default (hardware threads / ranks)
/// lets ranks race for the one shared kernel pool, which spreads warm
/// request times without moving their medians.
inline constexpr int kKernelThreads = 1;

/// Right-hand-side blocks per run (see Inputs::rhs).
inline constexpr int kRhsSlots = 6;

/// Request tolerance of every workload: the service default.
inline constexpr prom::real kRtol = prom::app::SolveRequest{}.rtol;

/// What a workload solves.
enum class Problem {
  /// The elastic box n=16 with a newly jittered interior each round, all
  /// rounds on one service, so every cold request is a miss on fresh
  /// geometry.
  kJitteredBoxes,
  /// The elastic box n=16 and a fresh service per round.
  kBox,
  /// The paper's sphere-in-cube and a fresh service per round.
  kSphere,
};

struct Workload {
  const char* name;
  Problem problem;
  int ranks;
  /// nullopt runs the service's default format, so a change of default is
  /// measured.
  std::optional<prom::mg::MatrixFormat> format;
  int rhs_per_request;
  /// Warm (cache-hit) requests after each round's cold request.
  int warm_per_round;

  bool fresh_mesh_per_round() const {
    return problem == Problem::kJitteredBoxes;
  }
};

/// The workload named `name`, or null.
const Workload* find_workload(std::string_view name);
const std::vector<Workload>& all_workloads();

prom::app::ServiceConfig service_config(const Workload& w);

/// Everything a run sends, generated from the seed.
struct Inputs {
  /// One problem per mesh slot. Fresh-mesh workloads cycle through
  /// cache_capacity + 1 slots, so the LRU cache has always evicted a slot
  /// before it comes round again; the others use a single slot.
  std::vector<std::shared_ptr<const prom::app::ModelProblem>> problems;
  /// kRhsSlots right-hand-side blocks; a run's requests take them in
  /// turn, so a run's medians average over several draws (the sphere's
  /// PCG iterations range over 41-45 between draws) while every block is
  /// still solved more than once.
  std::vector<prom::la::MultiVec> rhs;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// The service's mesh id for a mesh slot.
std::string mesh_id(int slot);

/// Checks each response against the serial assembled operator and against
/// the iteration counts seen before for the same inputs. Failures never
/// abort the run; they are counted and the first few are reported.
class OutputCheck {
 public:
  /// True when every column converged, has a true relative residual
  /// ||b - K x|| / ||b|| within the request tolerance under the entry's
  /// serial stiffness, and took the same PCG iterations as every earlier
  /// solve of the same (mesh slot, right-hand-side slot).
  bool check(const prom::app::ServiceEntry& entry, const prom::la::MultiVec& b,
             const prom::app::SolveResponse& resp, int mesh_slot,
             int rhs_slot);
  /// As `check`, for a solve whose solutions are not at hand: true when
  /// every column converged in the same PCG iterations as every earlier
  /// solve of the same (mesh slot, right-hand-side slot).
  bool check_iterations(const std::vector<prom::la::KrylovResult>& results,
                        int mesh_slot, int rhs_slot);
  /// Records a request that failed before its output could be checked.
  void record_failure(const std::string& why);

  std::int64_t failed() const { return failed_; }
  double max_relres() const { return max_relres_; }
  /// "mesh.rhs:iters,..." over every (mesh slot, right-hand-side slot)
  /// solved; equal across runs of one seed.
  std::string iteration_signature() const;

 private:
  /// Why `iters` differs from the iterations recorded for the same
  /// inputs, or empty; records them when they are the first.
  std::string repeat_mismatch(const std::vector<int>& iters, int mesh_slot,
                              int rhs_slot);

  std::map<std::pair<int, int>, std::vector<int>> iters_;
  std::int64_t failed_ = 0;
  double max_relres_ = 0;
};

}  // namespace perfbench
