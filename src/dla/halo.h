// Halo exchange shared by DistCsr, DistBsr and DistMf. A HaloPlan is
// built once per operator: per peer, the flattened gather list of local
// values to ship and the absolute destination slots to fill, plus
// persistent staging buffers that grow to the widest block seen — after
// that an exchange performs no heap allocation in this layer (the parx
// transport still buffers messages, like MPI_Bsend).
//
// Every exchange is column-blocked: all k columns of a la::MultiVec travel
// in ONE message per peer, so the message count — and hence the latency
// bill — is that of a one-column exchange; only the payload grows. A
// single vector is a one-column block.
//
// One schedule: a product calls post_mv(), then finish_mv(), which drains
// the peers in ascending rank order, then runs its whole local kernel.
// The paper's PETSc hides network latency behind the local product; parx
// ranks are threads and a message is an in-memory copy, so there is no
// latency to hide (DESIGN.md, "Halo exchange"). The reverse (transpose)
// exchange accumulates in fixed peer order: reverse contributions from
// different peers may target the same output entry.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "la/multivec.h"
#include "parx/runtime.h"

namespace prom::dla {

/// One operator's neighbor-exchange plan with persistent staging buffers.
class HaloPlan {
 public:
  /// Registers a peer this rank sends to. `gather[i]` is the local index
  /// of the i-th wire value; kInvalidIdx ships a literal 0 (DistBsr's
  /// constrained/padding node components).
  void add_send(int peer, std::vector<idx> gather);

  /// Registers a peer this rank receives from. `slots[i]` is the absolute
  /// row (into the destination block of finish_mv()) the i-th wire value
  /// fills. Slots of different peers are disjoint by construction.
  void add_recv(int peer, std::vector<idx> slots);

  /// Completes the plan. The forward exchange uses `tag`, the reverse
  /// (transpose) exchange `tag + 1`.
  void finalize(int tag);

  int num_send_peers() const { return static_cast<int>(send_peers_.size()); }
  int num_recv_peers() const { return static_cast<int>(recv_peers_.size()); }
  /// Peer ranks in registration (ascending rank) order — what the
  /// agglomeration tests and benches inspect: at a repartitioned level
  /// every plan role belongs to that level's active-rank set.
  const std::vector<int>& send_peers() const { return send_peers_; }
  const std::vector<int>& recv_peers() const { return recv_peers_; }
  /// The gather list registered for send peer i and the destination
  /// slots registered for recv peer i (i in registration order).
  std::span<const idx> send_list(int i) const {
    return {send_idx_.data() + send_off_[i], send_off_[i + 1] - send_off_[i]};
  }
  std::span<const idx> recv_list(int i) const {
    return {recv_slots_.data() + recv_off_[i],
            recv_off_[i + 1] - recv_off_[i]};
  }
  /// Values shipped / received per column of a forward exchange.
  std::int64_t send_count() const {
    return static_cast<std::int64_t>(send_idx_.size());
  }
  std::int64_t recv_count() const {
    return static_cast<std::int64_t>(recv_slots_.size());
  }

  // ---- column-blocked exchange ----
  //
  // A peer whose forward segment holds c values receives c*k reals,
  // column-major within the segment (value t of column j at j*c + t).
  // Column j of a k-column exchange is bitwise the k = 1 exchange of that
  // column: the packed values, destination slots and accumulation order
  // do not depend on k.

  /// Blocked post: one message per send peer carrying all columns.
  void post_mv(parx::Comm& comm, const la::MultiVec& x_local) const;

  /// Blocked finish: receives from every peer in ascending registration
  /// (rank) order, scattering each segment into `dst` at the registered
  /// slots.
  void finish_mv(parx::Comm& comm, la::MultiVec& dst) const;

  /// Blocked reverse post (one message per recv peer, all columns).
  void reverse_post_mv(parx::Comm& comm, const la::MultiVec& src) const;

  /// Blocked reverse accumulate: receives every reply in registration
  /// order, then accumulates `y_local[gather[i]] += value` column by
  /// column in a *fixed* flattened order (peers in registration order,
  /// entries ascending within each peer) — reverse targets overlap across
  /// peers, so the accumulation order must be a function of the plan
  /// alone. kInvalidIdx gather entries are dropped.
  void reverse_accumulate_mv(parx::Comm& comm, la::MultiVec& y_local) const;

 private:
  /// Grows the blocked staging to width k (never shrinks).
  void ensure_mv_staging(int k) const;

  int tag_ = 0;
  std::vector<int> send_peers_;
  std::vector<std::size_t> send_off_{0};  // per-peer segment offsets
  std::vector<idx> send_idx_;             // flattened gather lists
  std::vector<int> recv_peers_;
  std::vector<std::size_t> recv_off_{0};
  std::vector<idx> recv_slots_;  // flattened absolute destination slots
  // Persistent staging, sized lazily to (counts * widest block seen).
  // send_buf_mv_ doubles as the reverse-direction receive staging (the
  // reverse payload per peer has exactly the forward send length).
  mutable std::vector<real> send_buf_mv_;
  mutable std::vector<real> recv_buf_mv_;
  mutable int mv_width_ = 0;
};

}  // namespace prom::dla
