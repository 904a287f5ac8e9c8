#include "dla/dist_vec.h"

#include <algorithm>

#include "common/error.h"

namespace prom::dla {

int RowDist::owner(idx gid) const {
  PROM_CHECK(gid >= 0 && gid < global_size());
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), gid);
  return static_cast<int>(it - offsets.begin()) - 1;
}

RowDist RowDist::block(idx n, int nranks) {
  RowDist d;
  d.offsets.resize(static_cast<std::size_t>(nranks) + 1);
  for (int r = 0; r <= nranks; ++r) {
    d.offsets[r] = static_cast<idx>(static_cast<nnz_t>(n) * r / nranks);
  }
  return d;
}

RowDist RowDist::from_sorted_owners(std::span<const idx> owner_of,
                                    int nranks) {
  RowDist d;
  d.offsets.assign(static_cast<std::size_t>(nranks) + 1, 0);
  for (std::size_t i = 0; i < owner_of.size(); ++i) {
    PROM_CHECK(owner_of[i] >= 0 && owner_of[i] < nranks);
    if (i > 0) PROM_CHECK_MSG(owner_of[i] >= owner_of[i - 1],
                              "owners must be non-decreasing");
    d.offsets[owner_of[i] + 1]++;
  }
  for (int r = 0; r < nranks; ++r) d.offsets[r + 1] += d.offsets[r];
  return d;
}

void dist_gather_all_mv(parx::Comm& comm, const RowDist& dist,
                        const la::MultiVec& local, la::MultiVec& full) {
  const int rank = comm.rank();
  const int k = local.cols();
  PROM_CHECK(local.rows() == dist.local_size(rank));
  // Ship the whole column-major local block in one message per rank.
  const auto parts = comm.allgatherv(std::vector<real>(
      local.data(), local.data() + static_cast<std::size_t>(local.rows()) * k));
  full.resize(dist.global_size(), k);
  for (int r = 0; r < dist.nranks(); ++r) {
    const idx nr = dist.local_size(r);
    PROM_CHECK(static_cast<idx>(parts[r].size()) == nr * k);
    for (int j = 0; j < k; ++j) {
      std::copy(parts[r].begin() + static_cast<std::size_t>(j) * nr,
                parts[r].begin() + static_cast<std::size_t>(j + 1) * nr,
                full.col(j).begin() + dist.begin(r));
    }
  }
}

}  // namespace prom::dla
