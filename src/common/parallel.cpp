#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/flops.h"

namespace prom::common {
namespace {

std::atomic<int> g_thread_override{0};
std::atomic<int> g_active_ranks{1};

/// Hard cap on kernel threads, far above any machine this targets.
constexpr int kMaxKernelThreads = 64;

/// PROM_THREADS, parsed once per process. A rejected value is not cached,
/// so every later query throws again.
int env_threads() {
  static const int v = threads_from_env();
  return v;
}

/// True while the current thread is executing chunks of some region —
/// nested parallel calls (and pool workers) run inline instead of
/// re-entering the pool.
thread_local bool t_in_region = false;

/// One parallel region in flight. Lives on the submitting thread's stack;
/// workers must finish all bookkeeping on a chunk (flop harvest included)
/// *before* bumping `done`, because the submitter returns — and the
/// region dies — once `done == nchunks`.
struct Region {
  const std::function<void(idx, idx)>* fn = nullptr;
  idx begin = 0;
  idx end = 0;
  idx grain = 1;
  idx nchunks = 0;
  std::atomic<idx> next{0};
  std::atomic<idx> done{0};
  std::atomic<int> helper_slots{0};
  std::atomic<int> active_workers{0};
  std::atomic<std::int64_t> worker_flops{0};
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  /// Tries to run the region on the pool (caller participates). Returns
  /// false — without touching `fn` — when another thread owns the pool;
  /// the caller then falls back to the inline serial path.
  bool try_run(idx begin, idx end, idx grain,
               const std::function<void(idx, idx)>& fn, int nthreads) {
    std::unique_lock<std::mutex> submit(submit_mutex_, std::try_to_lock);
    if (!submit.owns_lock()) return false;

    Region region;
    region.fn = &fn;
    region.begin = begin;
    region.end = end;
    region.grain = grain;
    region.nchunks = chunk_count(begin, end, grain);
    region.helper_slots.store(nthreads - 1, std::memory_order_relaxed);

    ensure_workers(nthreads - 1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      region_ = &region;
      ++epoch_;
    }
    work_cv_.notify_all();

    t_in_region = true;
    execute_chunks(region, /*harvest_flops=*/false);
    t_in_region = false;

    {
      // Wait until every chunk ran AND every worker left the region —
      // `region` lives on this stack frame, so no worker may still hold a
      // pointer to it when we return.
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] {
        return region.done.load(std::memory_order_acquire) ==
                   region.nchunks &&
               region.active_workers.load(std::memory_order_acquire) == 0;
      });
      region_ = nullptr;
    }
    // Credit the flops workers performed on our behalf to this thread, so
    // per-rank flop accounting (§6) is independent of the thread count.
    count_flops(region.worker_flops.load(std::memory_order_relaxed));
    return true;
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

 private:
  /// Claims chunks until none remain. Harvesting moves worker-side flops
  /// into the region *before* the chunk is marked done (see Region).
  void execute_chunks(Region& region, bool harvest_flops) {
    for (;;) {
      const idx c = region.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= region.nchunks) return;
      const idx b = region.begin + c * region.grain;
      const std::int64_t f0 = harvest_flops ? thread_flops() : 0;
      (*region.fn)(b, std::min<idx>(b + region.grain, region.end));
      if (harvest_flops) {
        region.worker_flops.fetch_add(thread_flops() - f0,
                                      std::memory_order_relaxed);
      }
      region.done.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  void ensure_workers(int want) {
    want = std::min(want, kMaxKernelThreads - 1);
    std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(workers_.size()) < want) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void worker_main() {
    std::uint64_t seen = 0;
    for (;;) {
      Region* region = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] {
          return stop_ || (epoch_ != seen && region_ != nullptr);
        });
        if (stop_) return;
        seen = epoch_;
        region = region_;
        if (region->helper_slots.fetch_sub(1, std::memory_order_relaxed) <=
            0) {
          region->helper_slots.fetch_add(1, std::memory_order_relaxed);
          continue;  // region already has its configured thread count
        }
        region->active_workers.fetch_add(1, std::memory_order_acq_rel);
      }
      t_in_region = true;
      execute_chunks(*region, /*harvest_flops=*/true);
      t_in_region = false;
      region->active_workers.fetch_sub(1, std::memory_order_acq_rel);
      // The submitter may be blocked on (done && no active workers); wake
      // it. The empty critical section pairs with its predicate check.
      {
        std::lock_guard<std::mutex> lock(mutex_);
      }
      done_cv_.notify_all();
    }
  }

  std::mutex submit_mutex_;  // one region at a time; contenders run inline
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  Region* region_ = nullptr;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

void run_inline(idx begin, idx end, idx grain,
                const std::function<void(idx, idx)>& fn) {
  // Same fixed chunk decomposition as the pool path — chunk boundaries are
  // part of the determinism contract, not a scheduling detail.
  for (idx b = begin; b < end; b += grain) {
    fn(b, std::min<idx>(b + grain, end));
  }
}

}  // namespace

int threads_from_env() {
  const char* env = std::getenv("PROM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  PROM_CHECK_MSG(end != env && *end == '\0' && v >= 1 &&
                     v <= kMaxKernelThreads,
                 "PROM_THREADS must be an integer in [1, " +
                     std::to_string(kMaxKernelThreads) + "]");
  return static_cast<int>(v);
}

int kernel_threads() {
  // Read the environment first, so a malformed PROM_THREADS fails even
  // under an override.
  const int env = env_threads();
  const int over = g_thread_override.load(std::memory_order_relaxed);
  if (over > 0) return std::min(over, kMaxKernelThreads);
  if (env > 0) return env;
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const int ranks = std::max(1, g_active_ranks.load(std::memory_order_relaxed));
  return std::max(1, hw / ranks);
}

void set_kernel_threads(int n) {
  g_thread_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

void set_active_ranks(int nranks) {
  g_active_ranks.store(std::max(1, nranks), std::memory_order_relaxed);
}

idx chunk_count(idx begin, idx end, idx grain) {
  PROM_CHECK(grain >= 1);
  if (end <= begin) return 0;
  return (end - begin + grain - 1) / grain;
}

void parallel_for(idx begin, idx end, idx grain,
                  const std::function<void(idx, idx)>& fn) {
  const idx nchunks = chunk_count(begin, end, grain);
  if (nchunks == 0) return;
  const int nthreads = kernel_threads();
  if (nthreads <= 1 || nchunks <= 1 || t_in_region) {
    run_inline(begin, end, grain, fn);
    return;
  }
  if (!Pool::instance().try_run(begin, end, grain, fn, nthreads)) {
    run_inline(begin, end, grain, fn);
  }
}

real parallel_reduce(idx begin, idx end, idx grain,
                     const std::function<real(idx, idx)>& partial) {
  const idx nchunks = chunk_count(begin, end, grain);
  if (nchunks == 0) return real{0};
  std::vector<real> partials(static_cast<std::size_t>(nchunks));
  parallel_for(0, nchunks, 1, [&](idx cb, idx ce) {
    for (idx c = cb; c < ce; ++c) {
      const idx b = begin + c * grain;
      partials[c] = partial(b, std::min<idx>(b + grain, end));
    }
  });
  // Deterministic balanced tree over chunk indices — the combination
  // order never depends on which thread computed which partial.
  for (idx s = 1; s < nchunks; s <<= 1) {
    for (idx i = 0; i + s < nchunks; i += 2 * s) {
      partials[i] += partials[i + s];
    }
  }
  return partials[0];
}

}  // namespace prom::common
