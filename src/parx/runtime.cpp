#include "parx/runtime.h"

#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/flops.h"
#include "common/parallel.h"
#include "obs/trace.h"

namespace prom::parx {
namespace detail {

// Shared state of one SPMD region: a mailbox per rank plus traffic stats.
class Context {
 public:
  explicit Context(int nranks) : nranks_(nranks), stats_(nranks) {
    boxes_.reserve(nranks);
    for (int r = 0; r < nranks; ++r) {
      boxes_.push_back(std::make_unique<Mailbox>());
    }
  }

  int nranks() const { return nranks_; }

  void send(int from, int to, int tag, std::span<const std::byte> data) {
    PROM_CHECK_MSG(to >= 0 && to < nranks_, "send: bad destination rank");
    PROM_CHECK_MSG(from != to, "send: self-sends are not supported");
    Mailbox& box = *boxes_[to];
    {
      std::lock_guard<std::mutex> lock(box.m);
      box.q.push_back(
          Message{from, tag, std::vector<std::byte>(data.begin(), data.end())});
    }
    box.cv.notify_all();
    stats_[from].messages_sent += 1;
    stats_[from].bytes_sent += static_cast<std::int64_t>(data.size());
    // Mirror into the sender thread's obs counters so tracing spans can
    // bracket traffic deltas without a Comm handle (send is only ever
    // called from rank `from`'s own thread).
    obs::count_message(static_cast<std::int64_t>(data.size()));
  }

  std::vector<std::byte> recv(int me, int from, int tag) {
    PROM_CHECK_MSG(from >= 0 && from < nranks_, "recv: bad source rank");
    Mailbox& box = *boxes_[me];
    std::unique_lock<std::mutex> lock(box.m);
    for (;;) {
      for (auto it = box.q.begin(); it != box.q.end(); ++it) {
        if (it->src == from && it->tag == tag) {
          std::vector<std::byte> data = std::move(it->data);
          box.q.erase(it);
          return data;
        }
      }
      box.cv.wait(lock);
    }
  }

  // Returns the source of the earliest-arrived waiting message with `tag`
  // from any rank in `sources`, blocking until one exists. Scanning the
  // deque front-to-back gives arrival order because sends append at the
  // back under the mailbox lock.
  int wait_any(int me, std::span<const int> sources, int tag) {
    Mailbox& box = *boxes_[me];
    std::unique_lock<std::mutex> lock(box.m);
    for (;;) {
      for (const Message& msg : box.q) {
        if (msg.tag != tag) continue;
        for (const int s : sources) {
          if (msg.src == s) return msg.src;
        }
      }
      box.cv.wait(lock);
    }
  }

  void recv_into(int me, int from, int tag, std::span<std::byte> out) {
    PROM_CHECK_MSG(from >= 0 && from < nranks_, "recv_into: bad source rank");
    Mailbox& box = *boxes_[me];
    std::unique_lock<std::mutex> lock(box.m);
    for (;;) {
      for (auto it = box.q.begin(); it != box.q.end(); ++it) {
        if (it->src == from && it->tag == tag) {
          PROM_CHECK_MSG(it->data.size() == out.size(),
                         "recv_into: message size mismatch");
          if (!out.empty()) {
            std::memcpy(out.data(), it->data.data(), out.size());
          }
          box.q.erase(it);
          return;
        }
      }
      box.cv.wait(lock);
    }
  }

  bool has_message(int me, int from, int tag) {
    Mailbox& box = *boxes_[me];
    std::lock_guard<std::mutex> lock(box.m);
    for (const Message& msg : box.q) {
      if (msg.src == from && msg.tag == tag) return true;
    }
    return false;
  }

  TrafficStats& stats(int rank) { return stats_[rank]; }
  std::vector<TrafficStats> take_stats() { return std::move(stats_); }

 private:
  struct Message {
    int src;
    int tag;
    std::vector<std::byte> data;
  };
  struct Mailbox {
    std::mutex m;
    std::condition_variable cv;
    std::deque<Message> q;
  };

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::vector<TrafficStats> stats_;
};

}  // namespace detail

namespace {

// Reserved internal tags; user tags must be >= 0 and below 0x7ffffff0.
constexpr int kTagBarrierUp = -1;
constexpr int kTagBarrierDown = -2;
constexpr int kTagBcast = -3;
constexpr int kTagReduce = -4;
constexpr int kTagAllgather = -5;

}  // namespace

int Comm::size() const {
  return group_ != nullptr ? static_cast<int>(group_->size()) : ctx_->nranks();
}

int Comm::global_rank(int r) const {
  if (group_ == nullptr) return r;
  PROM_CHECK_MSG(r >= 0 && r < static_cast<int>(group_->size()),
                 "rank outside this communicator's group");
  return (*group_)[r];
}

Comm Comm::split(std::span<const int> members) const {
  PROM_CHECK_MSG(!members.empty(), "split: empty member list");
  auto group = std::make_shared<std::vector<int>>();
  group->reserve(members.size());
  int local = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    PROM_CHECK_MSG(members[i] >= 0 && members[i] < size(),
                   "split: member outside this communicator");
    PROM_CHECK_MSG(i == 0 || members[i - 1] < members[i],
                   "split: members must be strictly ascending");
    if (members[i] == rank_) local = static_cast<int>(i);
    group->push_back(global_rank(members[i]));
  }
  PROM_CHECK_MSG(local >= 0, "split: the calling rank must be a member");
  Comm sub(ctx_, local);
  sub.group_ = std::move(group);
  return sub;
}

void Comm::send_bytes(int to, int tag, std::span<const std::byte> data) {
  ctx_->send(global_rank(rank_), global_rank(to), tag, data);
}

std::vector<std::byte> Comm::recv_bytes(int from, int tag) {
  return ctx_->recv(global_rank(rank_), global_rank(from), tag);
}

void Comm::recv_bytes_into(int from, int tag, std::span<std::byte> out) {
  ctx_->recv_into(global_rank(rank_), global_rank(from), tag, out);
}

bool Comm::has_message(int from, int tag) const {
  return ctx_->has_message(global_rank(rank_), global_rank(from), tag);
}

int Comm::wait_any(std::span<const int> sources, int tag) const {
  if (group_ == nullptr) return ctx_->wait_any(rank_, sources, tag);
  std::vector<int> gsources(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    gsources[i] = global_rank(sources[i]);
  }
  const int g = ctx_->wait_any(global_rank(rank_), gsources, tag);
  for (std::size_t i = 0; i < gsources.size(); ++i) {
    if (gsources[i] == g) return sources[i];
  }
  PROM_CHECK_MSG(false, "wait_any: source not in this communicator");
  return -1;
}

TrafficStats Comm::traffic() const {
  TrafficStats t = ctx_->stats(global_rank(rank_));
  t.flops = thread_flops();
  return t;
}

void Comm::barrier() {
  const obs::Span span("parx.barrier");
  // Binomial reduce to rank 0 followed by a binomial broadcast. All p2p
  // below goes through send_bytes/recv_bytes, which translate group ranks
  // onto the context — the same trees run unchanged on split() subsets.
  const int p = size();
  const std::byte token{0};
  for (int mask = 1; mask < p; mask <<= 1) {
    if (rank_ & mask) {
      send_bytes(rank_ - mask, kTagBarrierUp, {&token, 1});
      break;
    }
    if (rank_ + mask < p) recv_bytes(rank_ + mask, kTagBarrierUp);
  }
  // Binomial release: each rank receives from the parent given by its
  // lowest set bit, then forwards to children at the smaller bit positions.
  int mask = 1;
  while (mask < p) {
    if (rank_ & mask) {
      recv_bytes(rank_ - mask, kTagBarrierDown);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rank_ + mask < p) {
      send_bytes(rank_ + mask, kTagBarrierDown, {&token, 1});
    }
    mask >>= 1;
  }
}

std::vector<std::byte> Comm::bcast_bytes(std::vector<std::byte> data,
                                         int root) {
  const obs::Span span("parx.bcast");
  const int p = size();
  const int vr = (rank_ - root + p) % p;
  auto to_real = [&](int v) { return (v + root) % p; };
  // MPICH-style binomial tree: receive from the parent at the lowest set
  // bit of vr, then forward to children at all smaller bit positions.
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      data = recv_bytes(to_real(vr - mask), kTagBcast);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      send_bytes(to_real(vr + mask), kTagBcast,
                 std::span<const std::byte>(data));
    }
    mask >>= 1;
  }
  return data;
}

std::vector<std::vector<std::byte>> Comm::allgatherv_bytes(
    std::span<const std::byte> mine) {
  // Bruck-style dissemination allgather with variable block sizes: after
  // round k every rank holds the `cnt` circularly-consecutive blocks
  // starting at its own, and each round (ceil(log2 p) total) it ships the
  // first min(cnt, p-cnt) of them to rank-cnt while receiving the next
  // ones from rank+cnt. Every foreign block crosses the wire exactly once
  // per receiver, so total data traffic is (p-1)·S plus an 8-byte length
  // header per shipped block — no rank ever funnels the whole payload.
  const int p = size();
  std::vector<std::vector<std::byte>> all(p);
  all[rank_].assign(mine.begin(), mine.end());
  int cnt = 1;
  while (cnt < p) {
    const int step = std::min(cnt, p - cnt);
    const int dst = (rank_ - cnt + p) % p;
    const int src = (rank_ + cnt) % p;
    std::vector<std::byte> msg;
    for (int k = 0; k < step; ++k) {
      const std::vector<std::byte>& blk = all[(rank_ + k) % p];
      const std::int64_t sz = static_cast<std::int64_t>(blk.size());
      const auto* hdr = reinterpret_cast<const std::byte*>(&sz);
      msg.insert(msg.end(), hdr, hdr + sizeof(sz));
      msg.insert(msg.end(), blk.begin(), blk.end());
    }
    send_bytes(dst, kTagAllgather, msg);
    const std::vector<std::byte> in = recv_bytes(src, kTagAllgather);
    std::size_t off = 0;
    for (int k = 0; k < step; ++k) {
      std::int64_t sz = 0;
      PROM_CHECK(off + sizeof(sz) <= in.size());
      std::memcpy(&sz, in.data() + off, sizeof(sz));
      off += sizeof(sz);
      PROM_CHECK(sz >= 0 && off + static_cast<std::size_t>(sz) <= in.size());
      all[(src + k) % p].assign(in.begin() + off, in.begin() + off + sz);
      off += static_cast<std::size_t>(sz);
    }
    PROM_CHECK(off == in.size());
    cnt += step;
  }
  return all;
}

namespace {

template <typename T>
std::vector<T> allreduce_impl(Comm& comm, std::vector<T> v,
                              Comm::ReduceOp op) {
  const obs::Span span("parx.allreduce");
  const int p = comm.size();
  const int rank = comm.rank();
  auto combine = [op](std::vector<T>& acc, const std::vector<T>& other) {
    PROM_CHECK(acc.size() == other.size());
    for (std::size_t i = 0; i < acc.size(); ++i) {
      switch (op) {
        case Comm::ReduceOp::kSum:
          acc[i] += other[i];
          break;
        case Comm::ReduceOp::kMin:
          acc[i] = std::min(acc[i], other[i]);
          break;
        case Comm::ReduceOp::kMax:
          acc[i] = std::max(acc[i], other[i]);
          break;
      }
    }
  };
  // Binomial reduce to rank 0 (of this communicator).
  for (int mask = 1; mask < p; mask <<= 1) {
    if (rank & mask) {
      comm.send_bytes(rank - mask, kTagReduce,
                      std::as_bytes(std::span<const T>(v)));
      break;
    }
    if (rank + mask < p) {
      std::vector<std::byte> raw = comm.recv_bytes(rank + mask, kTagReduce);
      std::vector<T> other(raw.size() / sizeof(T));
      if (!raw.empty()) std::memcpy(other.data(), raw.data(), raw.size());
      combine(v, other);
    }
  }
  return comm.bcast(std::move(v), 0);
}

}  // namespace

std::vector<double> Comm::allreduce(std::vector<double> v, ReduceOp op) {
  return allreduce_impl<double>(*this, std::move(v), op);
}

std::vector<std::int64_t> Comm::allreduce(std::vector<std::int64_t> v,
                                          ReduceOp op) {
  return allreduce_impl<std::int64_t>(*this, std::move(v), op);
}

std::vector<TrafficStats> Runtime::run(
    int nranks, const std::function<void(Comm&)>& fn) {
  PROM_CHECK_MSG(nranks >= 1, "Runtime::run needs at least one rank");
  // A malformed PROM_THREADS fails here, on the calling thread, not once
  // inside every rank.
  common::kernel_threads();
  // Tell the kernel-thread layer how many ranks share the machine so the
  // default intra-rank thread count divides hardware_concurrency instead
  // of oversubscribing it (the CLUMP model: ranks x kernel threads).
  common::set_active_ranks(nranks);
  detail::Context ctx(nranks);
  std::vector<std::thread> threads;
  threads.reserve(nranks);
  std::mutex err_mutex;
  std::exception_ptr first_error;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      reset_thread_flops();
      obs::set_thread_rank(r);
      try {
        Comm comm(&ctx, r);
        fn(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      ctx.stats(r).flops = thread_flops();
    });
  }
  for (std::thread& t : threads) t.join();
  common::set_active_ranks(1);
  if (first_error) std::rethrow_exception(first_error);
  return ctx.take_stats();
}

}  // namespace prom::parx
