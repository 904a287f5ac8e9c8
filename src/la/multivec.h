// Column-blocked multi-vector: k right-hand sides (or iterates) over one
// operator, stored column-major so each column is a contiguous span usable
// by every existing single-vector kernel. The blocked SpMM / halo / PCG
// paths operate on MultiVec under the determinism contract: column j of
// any blocked operation is bitwise identical to the single-vector kernel
// run on that column alone.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "common/error.h"

namespace prom::la {

/// Hard cap on the column count of a single blocked kernel call (callers
/// size per-call column tables by it); wider requests are chunked by the
/// caller (app::SolveService honours PROM_RHS_BLOCK <= kMaxRhsBlock).
inline constexpr int kMaxRhsBlock = 16;

class MultiVec {
 public:
  MultiVec() = default;
  MultiVec(idx n, int k) { resize(n, k); }

  idx rows() const { return n_; }
  int cols() const { return k_; }

  /// Shapes to n x k and zero-fills every column. Never shrinks capacity,
  /// so reshaping to a previously-seen (or smaller) shape allocates
  /// nothing — the property the reusable solve workspaces rely on.
  void resize(idx n, int k) {
    PROM_CHECK(n >= 0 && k >= 0 && k <= kMaxRhsBlock);
    n_ = n;
    k_ = k;
    data_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(k),
                 real{0});
  }

  real* col_data(int j) {
    return data_.data() + static_cast<std::size_t>(j) * n_;
  }
  const real* col_data(int j) const {
    return data_.data() + static_cast<std::size_t>(j) * n_;
  }

  std::span<real> col(int j) {
    return {col_data(j), static_cast<std::size_t>(n_)};
  }
  std::span<const real> col(int j) const {
    return {col_data(j), static_cast<std::size_t>(n_)};
  }

  /// The full column-major storage (column j occupies [j*n, (j+1)*n)).
  real* data() { return data_.data(); }
  const real* data() const { return data_.data(); }

 private:
  idx n_ = 0;
  int k_ = 0;
  std::vector<real> data_;
};

}  // namespace prom::la
