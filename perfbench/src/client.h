// A single closed-loop client of app::SolveService: it sends one request,
// waits for the solutions, checks them outside the timed window, then
// sends the next. The service is not thread-safe, so there is never more
// than one request outstanding.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

/// Every run measures at least kMinRounds rounds and starts none after
/// kMaxRunSeconds, so that it ends within three minutes.
inline constexpr int kMinRounds = 3;
inline constexpr double kMaxRunSeconds = 120;

/// Decides when a run stops starting rounds. A round starts only when it
/// is expected (from the mean round so far) to end less than half a round
/// after `seconds`, so the measured window lasts about `seconds` whatever
/// the round length.
class RoundLoop {
 public:
  explicit RoundLoop(double seconds) : seconds_(seconds) {}
  /// True when another round should run; counts it.
  bool next();
  int rounds() const { return rounds_; }
  double elapsed_s() const { return (Clock::now() - start_).wall; }

 private:
  double seconds_;
  Clock start_ = Clock::now();
  int rounds_ = 0;
};

class Client {
 public:
  Client(const Workload& w, const Inputs& in);

  struct Cold {
    prom::app::EntryHandle entry;  ///< null when the request failed
    Elapsed setup;                 ///< SolveService::acquire on the miss
    Elapsed request;               ///< the miss plus solve_with
  };

  /// Starts round `round` (a fresh service, or the round's newly jittered
  /// mesh) and sends its cold request with the next right-hand side.
  Cold cold(int round);

  /// Sends a warm request with right-hand-side slot `rhs_slot` and returns
  /// its time; nullopt when the request failed.
  std::optional<Elapsed> warm(int rhs_slot);

  /// The right-hand-side slot for the next request: slots go in turn.
  int next_rhs_slot() { return next_rhs_++ % kRhsSlots; }

  int mesh_slot() const { return slot_; }

  OutputCheck check;
  std::int64_t attempted = 0;

 private:
  const Workload* w_;
  const Inputs* in_;
  std::unique_ptr<prom::app::SolveService> svc_;
  std::vector<prom::app::SolveRequest> reqs_;  // one per right-hand side
  prom::app::EntryHandle entry_;
  int slot_ = 0;
  int next_rhs_ = 0;
};

}  // namespace perfbench
