// Intra-rank shared-memory execution layer (DESIGN.md: two-level
// parallelism). The paper runs on a CLUMP — a cluster of SMPs — and its
// three hot kernels (SpMV, smoother application, the Galerkin triple
// product) are exactly the ones that profit from node-level threading.
// `parx` models the cluster dimension (one thread per virtual rank); this
// layer models the SMP dimension *inside* each rank with a persistent
// thread pool driving `parallel_for` / `parallel_reduce`.
//
// Determinism contract: results are bit-identical for any kernel-thread
// count, including 1. This is achieved by making the work decomposition a
// function of the *range and grain only* — never of the thread count:
//   - `parallel_for` splits [begin, end) into fixed chunks of `grain`
//     iterations; chunks write disjoint data, so scheduling order is
//     irrelevant.
//   - `parallel_reduce` computes one partial per fixed chunk and combines
//     the partials with a deterministic balanced tree over chunk indices.
// Threads merely execute chunks; adding threads changes wall-clock time,
// never bit patterns.
//
// Thread-count policy (the `prom::common` config knob from ISSUE 1):
//   1. `set_kernel_threads(n)` — programmatic override, highest priority.
//   2. `PROM_THREADS` environment variable (see threads_from_env).
//   3. Default: `hardware_concurrency() / active_ranks`, at least 1, so
//      parx ranks sharing the machine do not oversubscribe it.
//
// Flop accounting: chunk functions may call `count_flops`, which writes a
// thread-local counter. The pool harvests every worker's delta and credits
// it to the calling thread, so `thread_flops()` keeps meaning "flops this
// rank performed" (the §6 efficiency decomposition depends on that).
#pragma once

#include <functional>

#include "common/config.h"

namespace prom::common {

/// The PROM_THREADS kernel-thread count: 0 when unset or empty (the
/// default policy applies); otherwise the whole value must be an integer
/// in [1, 64], and anything else throws a prom::Error naming the
/// variable. Reads the environment on every call.
int threads_from_env();

/// Number of kernel threads a parallel region may use (>= 1). Throws as
/// threads_from_env() does on a malformed PROM_THREADS, whose value is
/// read once per process.
int kernel_threads();

/// Programmatic override of the kernel-thread count; `n <= 0` restores the
/// default policy (PROM_THREADS env, else hardware_concurrency / ranks).
void set_kernel_threads(int n);

/// parx calls this around an SPMD region so the default thread count
/// divides the machine among ranks. `nranks <= 0` is treated as 1.
void set_active_ranks(int nranks);

/// Number of fixed chunks `[begin, end)` decomposes into under `grain`
/// (== ceil((end - begin) / grain), 0 for an empty range). Exposed so
/// callers sizing per-chunk scratch (e.g. the SpMV-transpose accumulators)
/// agree with the pool's decomposition.
idx chunk_count(idx begin, idx end, idx grain);

/// Runs `fn(chunk_begin, chunk_end)` for every fixed chunk of [begin, end).
/// Chunks may run concurrently and in any order; `fn` must only write data
/// disjoint between chunks. Bit-deterministic for any thread count.
void parallel_for(idx begin, idx end, idx grain,
                  const std::function<void(idx, idx)>& fn);

/// Deterministic reduction: `partial(chunk_begin, chunk_end)` is evaluated
/// per fixed chunk and the partials are combined with a balanced binary
/// tree over chunk indices — the same tree for every thread count.
real parallel_reduce(idx begin, idx end, idx grain,
                     const std::function<real(idx, idx)>& partial);

}  // namespace prom::common
