#include "dla/halo.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/error.h"
#include "common/flops.h"
#include "obs/trace.h"

namespace prom::dla {
namespace {

HaloMode initial_mode() {
  const char* env = std::getenv("PROM_HALO");
  if (env != nullptr && std::strcmp(env, "sync") == 0) return HaloMode::kSync;
  return HaloMode::kOverlap;
}

std::atomic<int>& mode_flag() {
  static std::atomic<int> flag{static_cast<int>(initial_mode())};
  return flag;
}

}  // namespace

void set_halo_mode(HaloMode mode) {
  mode_flag().store(static_cast<int>(mode), std::memory_order_relaxed);
}

HaloMode halo_mode() {
  return static_cast<HaloMode>(mode_flag().load(std::memory_order_relaxed));
}

void HaloPlan::add_send(int peer, std::vector<idx> gather) {
  PROM_CHECK(!gather.empty());
  send_peers_.push_back(peer);
  send_idx_.insert(send_idx_.end(), gather.begin(), gather.end());
  send_off_.push_back(send_idx_.size());
}

void HaloPlan::add_recv(int peer, std::vector<idx> slots) {
  PROM_CHECK(!slots.empty());
  recv_peers_.push_back(peer);
  recv_slots_.insert(recv_slots_.end(), slots.begin(), slots.end());
  recv_off_.push_back(recv_slots_.size());
}

void HaloPlan::finalize(int tag) {
  tag_ = tag;
  pending_.reserve(std::max(send_peers_.size(), recv_peers_.size()));
}

void HaloPlan::ensure_mv_staging(int k) const {
  if (k <= mv_width_) return;
  send_buf_mv_.resize(send_idx_.size() * static_cast<std::size_t>(k));
  recv_buf_mv_.resize(recv_slots_.size() * static_cast<std::size_t>(k));
  mv_width_ = k;
}

void HaloPlan::post_mv(parx::Comm& comm, const la::MultiVec& x_local) const {
  const obs::Span span("halo.post");
  const int k = x_local.cols();
  ensure_mv_staging(k);
  for (std::size_t p = 0; p < send_peers_.size(); ++p) {
    const std::size_t c0 = send_off_[p];
    const std::size_t cnt = send_off_[p + 1] - c0;
    real* seg = send_buf_mv_.data() + c0 * k;
    for (int j = 0; j < k; ++j) {
      const real* xj = x_local.col_data(j);
      real* out = seg + static_cast<std::size_t>(j) * cnt;
      for (std::size_t t = 0; t < cnt; ++t) {
        const idx li = send_idx_[c0 + t];
        out[t] = li == kInvalidIdx ? real{0} : xj[li];
      }
    }
    comm.send<real>(send_peers_[p], tag_,
                    std::span<const real>(seg, cnt * k));
  }
}

void HaloPlan::scatter_mv(std::size_t peer, la::MultiVec& dst) const {
  const int k = dst.cols();
  const std::size_t c0 = recv_off_[peer];
  const std::size_t cnt = recv_off_[peer + 1] - c0;
  const real* seg = recv_buf_mv_.data() + c0 * k;
  for (int j = 0; j < k; ++j) {
    real* dj = dst.col_data(j);
    const real* in = seg + static_cast<std::size_t>(j) * cnt;
    for (std::size_t t = 0; t < cnt; ++t) dj[recv_slots_[c0 + t]] = in[t];
  }
}

void HaloPlan::finish_mv(parx::Comm& comm, la::MultiVec& dst) const {
  const obs::Span span("halo.finish");
  const int k = dst.cols();
  ensure_mv_staging(k);
  pending_.assign(recv_peers_.begin(), recv_peers_.end());
  while (!pending_.empty()) {
    const int src = comm.wait_any(pending_, tag_);
    const std::size_t p = static_cast<std::size_t>(
        std::find(recv_peers_.begin(), recv_peers_.end(), src) -
        recv_peers_.begin());
    const std::size_t cnt = recv_off_[p + 1] - recv_off_[p];
    comm.recv_into<real>(
        src, tag_,
        std::span<real>(recv_buf_mv_.data() + recv_off_[p] * k, cnt * k));
    scatter_mv(p, dst);
    pending_.erase(std::find(pending_.begin(), pending_.end(), src));
  }
}

void HaloPlan::finish_rank_order_mv(parx::Comm& comm,
                                    la::MultiVec& dst) const {
  const obs::Span span("halo.finish");
  const int k = dst.cols();
  ensure_mv_staging(k);
  for (std::size_t p = 0; p < recv_peers_.size(); ++p) {
    const std::size_t cnt = recv_off_[p + 1] - recv_off_[p];
    comm.recv_into<real>(
        recv_peers_[p], tag_,
        std::span<real>(recv_buf_mv_.data() + recv_off_[p] * k, cnt * k));
    scatter_mv(p, dst);
  }
}

void HaloPlan::reverse_post_mv(parx::Comm& comm,
                               const la::MultiVec& src) const {
  const obs::Span span("halo.post");
  const int k = src.cols();
  ensure_mv_staging(k);
  for (std::size_t p = 0; p < recv_peers_.size(); ++p) {
    const std::size_t c0 = recv_off_[p];
    const std::size_t cnt = recv_off_[p + 1] - c0;
    real* seg = recv_buf_mv_.data() + c0 * k;
    for (int j = 0; j < k; ++j) {
      const real* sj = src.col_data(j);
      real* out = seg + static_cast<std::size_t>(j) * cnt;
      for (std::size_t t = 0; t < cnt; ++t) out[t] = sj[recv_slots_[c0 + t]];
    }
    comm.send<real>(recv_peers_[p], tag_ + 1,
                    std::span<const real>(seg, cnt * k));
  }
}

void HaloPlan::reverse_accumulate_mv(parx::Comm& comm,
                                     la::MultiVec& y_local) const {
  const obs::Span span("halo.finish");
  const int k = y_local.cols();
  ensure_mv_staging(k);
  if (halo_mode() == HaloMode::kOverlap) {
    pending_.assign(send_peers_.begin(), send_peers_.end());
    while (!pending_.empty()) {
      const int src = comm.wait_any(pending_, tag_ + 1);
      const std::size_t p = static_cast<std::size_t>(
          std::find(send_peers_.begin(), send_peers_.end(), src) -
          send_peers_.begin());
      const std::size_t cnt = send_off_[p + 1] - send_off_[p];
      comm.recv_into<real>(
          src, tag_ + 1,
          std::span<real>(send_buf_mv_.data() + send_off_[p] * k, cnt * k));
      pending_.erase(std::find(pending_.begin(), pending_.end(), src));
    }
  } else {
    for (std::size_t p = 0; p < send_peers_.size(); ++p) {
      const std::size_t cnt = send_off_[p + 1] - send_off_[p];
      comm.recv_into<real>(
          send_peers_[p], tag_ + 1,
          std::span<real>(send_buf_mv_.data() + send_off_[p] * k, cnt * k));
    }
  }
  // Per column, accumulate in the fixed flattened order (peers in
  // registration order, entries ascending within each peer), so the sums
  // do not depend on arrival order or on k.
  for (int j = 0; j < k; ++j) {
    real* yj = y_local.col_data(j);
    for (std::size_t p = 0; p < send_peers_.size(); ++p) {
      const std::size_t c0 = send_off_[p];
      const std::size_t cnt = send_off_[p + 1] - c0;
      const real* in =
          send_buf_mv_.data() + c0 * k + static_cast<std::size_t>(j) * cnt;
      for (std::size_t t = 0; t < cnt; ++t) {
        const idx li = send_idx_[c0 + t];
        if (li != kInvalidIdx) yj[li] += in[t];
      }
    }
  }
  count_flops(static_cast<std::int64_t>(send_idx_.size()) * k);
}

}  // namespace prom::dla
