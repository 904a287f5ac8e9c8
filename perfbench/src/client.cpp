#include "client.h"

#include <exception>

namespace perfbench {

using namespace prom;

bool RoundLoop::next() {
  const double elapsed = elapsed_s();
  if (rounds_ >= kMinRounds) {
    const double round = elapsed / rounds_;
    if (elapsed + round / 2 > seconds_ || elapsed >= kMaxRunSeconds) {
      return false;
    }
  }
  ++rounds_;
  return true;
}

Client::Client(const Workload& w, const Inputs& in) : w_(&w), in_(&in) {
  for (const la::MultiVec& b : in.rhs) {
    app::SolveRequest req;
    req.rhs = b;
    req.rtol = kRtol;
    reqs_.push_back(std::move(req));
  }
  if (w.fresh_mesh_per_round()) {
    svc_ = std::make_unique<app::SolveService>(service_config(w));
  }
}

Client::Cold Client::cold(int round) {
  Cold out;
  entry_.reset();
  if (w_->fresh_mesh_per_round()) {
    slot_ = round % static_cast<int>(in_->problems.size());
  } else {
    svc_.reset();  // the old service and its cache go before the new one
    svc_ = std::make_unique<app::SolveService>(service_config(*w_));
    slot_ = 0;
  }
  const std::string id = mesh_id(slot_);
  svc_->register_problem(id, in_->problems[static_cast<std::size_t>(slot_)]);
  const int rhs_slot = next_rhs_slot();
  app::SolveRequest& req = reqs_[static_cast<std::size_t>(rhs_slot)];
  req.mesh_id = id;

  ++attempted;
  try {
    const std::int64_t misses = svc_->cache_misses();
    const VmTimes v0 = VmTimes::now();
    const Clock t0 = Clock::now();
    app::EntryHandle entry = svc_->acquire(id);
    const Clock t1 = Clock::now();
    const VmTimes v1 = VmTimes::now();
    const app::SolveResponse resp = svc_->solve_with(entry, req);
    const Clock t2 = Clock::now();
    const VmTimes v2 = VmTimes::now();
    if (svc_->cache_misses() != misses + 1) {
      check.record_failure("cold request hit a cached hierarchy");
      return out;
    }
    if (!check.check(*entry, req.rhs, resp, slot_, rhs_slot)) return out;
    out.entry = entry_ = std::move(entry);
    out.setup = measured(t1 - t0, v0, v1);
    out.request = measured(t2 - t0, v0, v2);
  } catch (const std::exception& e) {
    check.record_failure(std::string("request threw: ") + e.what());
  }
  return out;
}

std::optional<Elapsed> Client::warm(int rhs_slot) {
  ++attempted;
  if (entry_ == nullptr) {
    check.record_failure("no hierarchy: the round's cold request failed");
    return std::nullopt;
  }
  app::SolveRequest& req = reqs_[static_cast<std::size_t>(rhs_slot)];
  req.mesh_id = mesh_id(slot_);
  try {
    const VmTimes v0 = VmTimes::now();
    const Clock t0 = Clock::now();
    const app::SolveResponse resp = svc_->solve(req);
    const Clock t1 = Clock::now();
    const VmTimes v1 = VmTimes::now();
    if (!resp.cache_hit) {
      check.record_failure("warm request missed the cache");
      return std::nullopt;
    }
    if (check.check(*entry_, req.rhs, resp, slot_, rhs_slot)) {
      return measured(t1 - t0, v0, v1);
    }
  } catch (const std::exception& e) {
    check.record_failure(std::string("request threw: ") + e.what());
  }
  return std::nullopt;
}

}  // namespace perfbench
