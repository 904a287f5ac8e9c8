// The fixed-width passes shared by the row kernels of the assembled
// formats (la/csr.cpp, la/bsr.cpp). Internal to la.
//
// A product over k columns runs ceil(k / W) passes of at most W columns
// over each fixed chunk of rows. Each pass is a template on its column
// count K, so its K accumulators live in registers; a runtime-width
// accumulator array stays on the stack (the same spill DenseLdlt's solve
// met, la/dense.cpp). The single-vector kernels are the K = 1 pass.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/config.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "la/multivec.h"

namespace prom::la::detail {

/// What a pass stores for output entry i of a column, given its sum s.
enum class RowOut {
  kSet,       // y = s
  kAdd,       // y += s
  kResidual,  // y = b - s
};

template <RowOut Out>
inline void store(real* y, const real* b, std::size_t i, real s) {
  if constexpr (Out == RowOut::kSet) {
    y[i] = s;
  } else if constexpr (Out == RowOut::kAdd) {
    y[i] += s;
  } else {
    y[i] = b[i] - s;
  }
}

/// Column pointers of one kernel call (b only for residuals).
struct Cols {
  const real* x[kMaxRhsBlock] = {};
  const real* b[kMaxRhsBlock] = {};
  real* y[kMaxRhsBlock] = {};
};

/// One column: x into y (and b for residuals).
inline Cols one_col(std::span<const real> x, std::span<real> y,
                    std::span<const real> b = {}) {
  Cols p;
  p.x[0] = x.data();
  p.b[0] = b.data();
  p.y[0] = y.data();
  return p;
}

/// Every column of X into Y (and B for residuals).
inline Cols mv_cols(const MultiVec& x, MultiVec& y,
                    const MultiVec* b = nullptr) {
  Cols p;
  for (int j = 0; j < x.cols(); ++j) {
    p.x[j] = x.col_data(j);
    p.b[j] = b != nullptr ? b->col_data(j) : nullptr;
    p.y[j] = y.col_data(j);
  }
  return p;
}

/// A pass over rows[tb..te) of `a` (rows tb..te when `rows` is null) for
/// the columns j0.. of p; returns the stored entries it visited.
template <class M>
using PassFn = nnz_t (*)(const M& a, const Cols& p, int j0, const idx* rows,
                         idx tb, idx te);

/// Runs k columns of p over n rows: passes[W - 1] for each full group of
/// W columns, then passes[k % W - 1] for the rest. Both are picked once,
/// outside the parallel loop. Counts, per column, `flops_per_entry` per
/// visited entry plus `flops_per_row` per row.
template <class M, std::size_t W>
void run_passes(const M& a, const std::array<PassFn<M>, W>& passes,
                const Cols& p, int k, const idx* rows, idx n, idx grain,
                std::int64_t flops_per_entry, std::int64_t flops_per_row) {
  constexpr int kWidth = static_cast<int>(W);
  const int full = k / kWidth;
  const PassFn<M> wide = passes[kWidth - 1];
  const PassFn<M> last = k % kWidth > 0 ? passes[k % kWidth - 1] : nullptr;
  common::parallel_for(0, n, grain, [&](idx tb, idx te) {
    nnz_t visited = 0;
    for (int q = 0; q < full; ++q) {
      visited = wide(a, p, q * kWidth, rows, tb, te);
    }
    if (last != nullptr) visited = last(a, p, full * kWidth, rows, tb, te);
    count_flops((flops_per_entry * visited + flops_per_row * (te - tb)) * k);
  });
}

}  // namespace prom::la::detail
